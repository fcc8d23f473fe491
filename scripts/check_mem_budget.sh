#!/usr/bin/env bash
# Memory guard for the load path: what the replicated local graphs of the
# load scenario hold (`MemSize::mem_bytes` summed over four nodes, K = 1,
# 100k vertices, seed 42), edge-cut and vertex-cut.
#
# Both gauges are counts, exact for a scale and seed, so this is not a
# tolerance check: it fails when either exceeds the value recorded in
# BENCH_engine.json (`bytes.mem_ec_ft`, `bytes.mem_vc_ft`). A change that
# makes a copy, a slot or a location table cost more shows up here before it
# shows up as `mem_bytes` / `peak_rss_mb` in benchmark/ or as a wider gap to
# the paper's Table 3 in EXPERIMENTS.md. `tests/load_allocations.rs` holds
# `mem_bytes` itself to the bytes actually live, so the gauge cannot fall
# without memory falling. Re-record a gauge (run perf_baseline, commit its
# `bytes` section) only to lower it.
set -euo pipefail

cd "$(dirname "$0")/.."

# The recorded values are for the default scenario.
unset IMITATOR_SCALE IMITATOR_SEED IMITATOR_NODES

status=0
for gauge in mem_ec_ft mem_vc_ft; do
    recorded=$(sed -n "s/^ *\"$gauge\": \([0-9]*\).*/\1/p" BENCH_engine.json)
    if [ -z "$recorded" ]; then
        echo "error: BENCH_engine.json records no bytes.$gauge" >&2
        exit 1
    fi
    now=$(cargo run --release --quiet -p imitator-bench --bin perf_baseline -- --load-row "$gauge")
    printf '%-10s recorded %11d B  now %11d B\n' "$gauge" "$recorded" "$now"
    if [ "$now" -gt "$recorded" ]; then
        echo "error: bytes.$gauge grew past its recorded value." >&2
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "ok: the load scenario's graphs stay inside their recorded memory."
fi
exit "$status"
