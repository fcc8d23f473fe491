#!/usr/bin/env bash
# A paired measurement of two commits, as one command:
#
#   scripts/ab.sh PARENT CHANGE TARGET PAIRS
#
# PARENT and CHANGE are anything `git rev-parse` resolves to a commit (to
# measure uncommitted work: `git add -A && scripts/ab.sh HEAD "$(git stash
# create)" ...`, which makes a commit object and moves no ref). TARGET is
#
#   * a benchmark workload (`pr_ec`, `sssp_ec`, `pr_ec_migration`,
#     `pr_vc_rebirth`, `pr_ec_ckpt`, `pr_ec_tcp`): each side runs
#     `benchmark run --workload TARGET --seed S --seconds T --trace 0`, the
#     BENCHMARK.json contract, and its end-to-end metrics are compared; or
#   * `perf_baseline`: each side runs the perf_baseline bin once, in a
#     scratch directory of its own, and every `seconds` row (its median) and
#     `bytes` gauge is compared.
#
# Pair i runs both sides on seed AB_SEED0 + i (default 1000, seeds no PR
# tunes on), PARENT first in even pairs and CHANGE first in odd ones, so
# that drift of the box falls on both sides alike. AB_SECONDS (default 25)
# is T. Each commit is exported with `git archive` into its own directory
# under AB_DIR (default a fresh temporary directory, removed at exit unless
# AB_KEEP=1) and built there into its own target directory, so the script
# writes nothing into the working tree or the repository's .git (a
# `benchmark/` build may rewrite that crate's lock file, but only in the
# export).
#
# Prints, per metric: median [q1, q3] per side, the ratio of the medians,
# in how many pairs CHANGE was better (by BENCHMARK.json's `better`, lower
# for every perf_baseline row), and for an exact gauge — `comm_bytes` and
# `mem_bytes` of a workload on one seed, every perf_baseline byte gauge but
# `hb_overhead_bytes` — whether the two sides were equal in every pair.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    sed -n '2,32p' "$0" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
target=$3
pairs=$4
seconds=${AB_SECONDS:-25}
seed0=${AB_SEED0:-1000}
repo=$(git rev-parse --show-toplevel)

dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")}
mkdir -p "$dir"
if [ "${AB_KEEP:-0}" != 1 ] && [ -z "${AB_DIR:-}" ]; then
    trap 'rm -rf "$dir"' EXIT
fi

# Exports and builds one side; prints the binary it runs.
build() {
    local side=$1 commit=$2
    local src="$dir/$side" target="$dir/target-$side"
    if [ ! -d "$src" ]; then
        mkdir -p "$src"
        git -C "$repo" archive "$commit" | tar -x -C "$src"
    fi
    if [ "$target_kind" = perf_baseline ]; then
        (cd "$src" && CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
            -p imitator-bench --bin perf_baseline) >&2
        echo "$target/release/perf_baseline"
    else
        CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
            --manifest-path "$src/benchmark/Cargo.toml" >&2
        echo "$target/release/benchmark"
    fi
}

# One measurement of one side on one seed, as one line of JSON:
# {"metric": value, ...}.
measure() {
    local side=$1 bin=$2 seed=$3
    if [ "$target_kind" = perf_baseline ]; then
        local cwd="$dir/run-$side-$seed"
        mkdir -p "$cwd"
        (cd "$cwd" && IMITATOR_SEED="$seed" "$bin" >/dev/null)
        jq -c '[(.seconds | to_entries[] | {key: ("seconds." + .key), value: .value.median}),
                (.bytes | to_entries[] | {key: ("bytes." + .key), value})] | from_entries' \
            "$cwd/BENCH_engine.json"
    else
        "$bin" run --workload "$target" --seed "$seed" --seconds "$seconds" --trace 0 \
            --out "$dir/out-$side" | tail -n 1 |
            jq -c '.metrics | with_entries(.value = .value.value)'
    fi
}

case "$target" in
perf_baseline) target_kind=perf_baseline ;;
*) target_kind=workload ;;
esac

echo "ab: $target, $pairs pairs, parent $(git rev-parse --short "$parent"), change $(git rev-parse --short "$change"), in $dir" >&2
bins=("$(build parent "$parent")" "$(build change "$change")")
results="$dir/pairs-$target.jsonl"
: >"$results"
for i in $(seq 0 $((pairs - 1))); do
    seed=$((seed0 + i))
    order=(0 1)
    if [ $((i % 2)) -eq 1 ]; then
        order=(1 0)
    fi
    declare -A got=()
    for s in "${order[@]}"; do
        side=$([ "$s" -eq 0 ] && echo parent || echo change)
        got[$side]=$(measure "$side" "${bins[$s]}" "$seed")
    done
    printf '{"seed": %d, "parent": %s, "change": %s}\n' "$seed" "${got[parent]}" "${got[change]}" >>"$results"
    echo "ab: pair $((i + 1))/$pairs (seed $seed) done" >&2
    unset got
done

# BENCHMARK.json's directions, the change's; perf_baseline rows are all
# lower-is-better.
python3 - "$results" "$dir/change/BENCHMARK.json" "$target_kind" <<'EOF'
import json, statistics, sys

results, manifest, kind = sys.argv[1:]
rows = [json.loads(line) for line in open(results)]
better = {}
if kind == "workload":
    for metric in json.load(open(manifest))["end_to_end"]:
        better[metric["name"]] = metric["better"]
def exact(name):
    if kind == "workload":
        return name in ("comm_bytes", "mem_bytes")
    return name.startswith("bytes.") and name != "bytes.hb_overhead_bytes"

def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1e5 else f"{x:.6g}"

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return median, q1, q3

names = list(rows[0]["parent"])
print(f"{'metric':<28} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'ratio':>7} {'wins':>6}  exact")
for name in names:
    a = [r["parent"][name] for r in rows]
    b = [r["change"][name] for r in rows]
    lower = better.get(name, "lower") == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
    ratio = mb / ma if ma else float("nan")
    same = ("equal" if a == b else "differs") if exact(name) else ""
    sides = [f"{fmt(m)} [{fmt(q1)}, {fmt(q3)}]" for m, q1, q3 in ((ma, qa1, qa3), (mb, qb1, qb3))]
    print(f"{name:<28} {sides[0]:>36} {sides[1]:>36} {ratio:>7.4f} {wins:>3}/{len(rows)}  {same}")
EOF
