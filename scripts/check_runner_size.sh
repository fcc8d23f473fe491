#!/usr/bin/env bash
# Duplication guard for the model-generic driver refactor.
#
# The edge-cut and vertex-cut runners used to each carry a full copy of the
# superstep loop, barrier/failure handling, checkpointing and the
# Rebirth/Migration recovery protocol. That logic now lives once in
# crates/core/src/driver.rs and crates/core/src/recovery.rs, and the runners
# are thin ComputeModel implementations. This guard keeps it that way: if
# the two runners together grow past the budget, shared logic is probably
# being re-duplicated into them — move it into the driver or the recovery
# state machine instead.
set -euo pipefail

cd "$(dirname "$0")/.."

# Re-baselined per PR. History of the honest floor:
#   1200 — post-refactor thin runners.
#   1560 — cascading-failure recovery hooks + pipelined supersteps added
#          genuinely model-specific code (EC edge rewiring vs VC gather
#          shipping); the shared stage/ship/flush loop lives in
#          driver::pump_update_syncs.
#   1650 — parallel recovery: the EC rebirth replay now chunks its
#          activation scan on the worker pool and carries the selfish-master
#          RAW-independence guard (EC-only semantics — VC has no activation
#          replay). The chunk merge and the pool plumbing stay in
#          recovery.rs/driver.rs; only the EC-specific scan moved here.
#   1655 — pluggable transport: the TCP backend ships gather accumulators
#          through the WireCodec, so the VC runner's three generic items
#          each carry a one-line `P::Accum: Encode + Decode` bound
#          (rustfmt puts every where-predicate on its own line). Bounds,
#          not logic — the wire layer itself lives in crates/cluster.
#   1652 — first step down: Migration's promotion lookups (and their
#          "lost with no promotion" check) moved behind recovery::MigEnv.
#          From here the budget only ratchets down.
#   1649 — Migration grows `out_remote`/`out_local` in place again
#          (`recovery::regrown` gone: each node's graph now lives in its
#          own builder thread's arena, DESIGN.md §4.5).
#   1639 — edge-cut full state lives in the graph's columnar store; a
#          master's `in_edges`/`out_local` are its owner-local lists, so
#          the eight sites in runner_ec.rs that kept a second copy equal
#          are gone (DESIGN.md §4.9).
#   1601 — Migration's undo is a journal kept by the graphs themselves
#          (engine `Episode`) and full state ships as one column batch per
#          destination: the hooks' direct `lg.verts[..]` surgery moved into
#          journaling graph mutators, `place_fresh_mirror` folded into
#          `place_granted`, and the per-record meta import/export became
#          batch calls the engine implements (DESIGN.md §4.3, §4.5).
#   1527 — a copy's edge lists are runs of its graph's two hot columns
#          (DESIGN.md §4.9): the struct literals that spelled out two empty
#          `Vec`s per copy became `EcVertex::new`, the checkpoint graft's
#          `std::mem::replace(..).out_local` splice became one
#          `set_out_local`, and grouping a node's edges per edge-ckpt
#          receiver moved to `ckpt::edge_ckpt_files`, beside the codec.
BUDGET=1527
EC=crates/core/src/runner_ec.rs
VC=crates/core/src/runner_vc.rs

ec_lines=$(wc -l < "$EC")
vc_lines=$(wc -l < "$VC")
total=$((ec_lines + vc_lines))

echo "runner_ec.rs: ${ec_lines} lines"
echo "runner_vc.rs: ${vc_lines} lines"
echo "combined:     ${total} lines (budget ${BUDGET})"

if [ "$total" -gt "$BUDGET" ]; then
    echo "error: combined runner size ${total} exceeds the ${BUDGET}-line budget:" >&2
    echo "  ${EC}: ${ec_lines} lines" >&2
    echo "  ${VC}: ${vc_lines} lines" >&2
    echo "Model-agnostic logic belongs in crates/core/src/driver.rs or" >&2
    echo "crates/core/src/recovery.rs, not in the per-model runners." >&2
    exit 1
fi

echo "ok: runners stay thin."
