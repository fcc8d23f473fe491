#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed 42] [--reps 10] [--smoke] [--trace]
#       every workload, round-robin; prints every metric and writes
#       benchmark/out/results.json (and trace-<workload>.json with --trace).
#       --smoke: 5k-vertex graphs, one round, then the package's self-tests.
#       Exits 1 when any op failed.
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       one workload for T seconds; the last line of standard output is one
#       JSON object (the BENCHMARK.json contract).
#   benchmark/run.sh compare <a.json> <b.json>
#       two results.json files side by side, with a verdict per metric.
#
# The build goes to $CARGO_TARGET_DIR, or to the repository's target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"

# Cargo's progress goes to standard error; standard output stays the
# benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/benchmark"

if [[ "${1:-}" == "compare" ]]; then
    shift
    exec "$bin" compare "$@"
fi

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" run "$@" --out "$here/out"
    fi
done

commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
status=0
"$bin" suite "$@" --out "$here/out" --commit "$commit" --rustc "$(rustc --version)" || status=$?

for arg in "$@"; do
    if [[ "$arg" == "--smoke" ]]; then
        cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2 || status=$?
    fi
done
exit "$status"
