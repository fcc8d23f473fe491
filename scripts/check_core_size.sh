#!/usr/bin/env bash
# Size guard for the protocol core: the two per-model runners, the
# model-generic superstep driver and the recovery state machine.
#
# The edge-cut and vertex-cut runners used to each carry a full copy of the
# superstep loop, barrier/failure handling, checkpointing and the
# Rebirth/Migration recovery protocol. That logic now lives once in
# crates/core/src/driver.rs and crates/core/src/recovery{.rs,/}, and the
# runners are thin ComputeModel implementations. Until PR 19 this guard
# counted the runners alone — which is how shared code got pushed into an
# unguarded recovery.rs (1928 -> 2142 lines in three PRs) and why changing
# `driver::run`'s return type needed a forwarding wrapper. It now holds one
# budget over all four: code that moves between them costs nothing, code
# that is written twice does.
set -euo pipefail

cd "$(dirname "$0")/.."

# Re-baselined per PR; the budget only ratchets down. History of the honest
# floor, runners alone (runner_ec.rs + runner_vc.rs):
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
# The protocol core (runners + driver.rs + recovery.rs + recovery/*.rs,
# tests.rs aside):
#   4687 — where the re-aimed guard found it (1527 + 1018 + 2142).
#   4407 — recovery rounds written once (PR 19): one attempt context and
#          round driver (recovery/rounds.rs) under Migration's eight rounds,
#          the checkpoint fallback's three and both newbies; placement
#          registration, promotion announce/collect and the position-chunk
#          scan fan-out (the edge-cut replay's two included:
#          driver::fan_out) exist once; `driver::take` replaces eleven
#          hand-written message folds (DESIGN.md §4.2).
#   4406 — DFS waits off the critical path (PR 20): the write-behind slot's
#          settle points, the read-ahead's start/consume verbs in the round
#          driver and the `persist` / `reload_files` hooks cost what the
#          blocking `write_edge_ckpt_files`, the abort path's re-derive, the
#          two copies of "wire reloaded edges" in runner_vc.rs and the seven
#          spelled-out dead-node exits of `node_main` gave back (DESIGN.md
#          §4.10). Encoding and naming the files moved beside their codec
#          (`ckpt::persist_edge_ckpt`), outside this guard like the codec.
#   4373 — location tables joined the columns (PR 21): both engines keep
#          full state in one `engine::FullState`, so `ModelGraph`'s
#          `export_metas` and `same_full_state` are defaults over one
#          `full_state(pos)` hook, the vertex-cut runner lost its own
#          `export_metas` / `adopt_metas` / `set_locations` bodies and its
#          struct literals with a boxed `meta`, and `ProtoMsg`'s fourth type
#          parameter (the mirror batch's store) is gone (DESIGN.md §4.9).
#   4244 — nothing filters a sync record and nothing chooses how a phase
#          ships (PR 23): the sync filter's stage/suppress/commit/rollback
#          calls, its undo clone and its resets in checkpoint recovery, the
#          strict branch of `pump_update_syncs` and of the gather shipping,
#          and two of `ComputeModel`'s four snapshot methods left with
#          `core/src/suppress.rs` (DESIGN.md §4.1, §4.4).
#   4240 — an edge names its other end once (PR 24): `on_promote` takes the
#          promoted slot's in-edges back as `(source, weight)` instead of
#          zipping two lists, `ModelGraph::exported` replaced four spelled-out
#          "full state or panic" reads and the one-caller `same_full_state`
#          default went; `check_mirrors` follows every remote out-edge to a
#          live master it feeds, which is what the deleted
#          `RemoteEdge::target` assertion stood for (DESIGN.md §4.9).
#   4232 — a value crosses a node boundary as what the receiver cannot
#          derive: every site where a value enters a node derives it,
#          paid for by what that made redundant — `ComputeModel`'s four
#          snapshot methods, forwarded by both runners to `ckpt.rs`, became
#          the graphs' own `ckpt::GraphCodec`, whose decoders derive, and
#          `value_wire_bytes`, the last forward, became `prog()`
#          (DESIGN.md §4.1, §4.6).
#   4184 — a message costs what its codec writes: every recovery send is
#          charged its own encoder's count (`AttemptCx::send`), so the
#          closures of `send_others` return a message and no size, and
#          `ComputeModel::{entry_wire_bytes, meta_update_bytes}`, both
#          runners' impls and Migration's per-round byte guesses are gone
#          (DESIGN.md §4.6).
#   3764 — the pool computes and nothing else: a phase ships one
#          sync or gather frame per destination once its compute chunks are
#          all in, charged what it encodes to, so the staging-time size
#          model (`SyncBufs`' running totals, `flush_sync_acct`, the gather
#          totals and flush) and the overlap bookkeeping went; recovery runs
#          on the protocol thread over a `&mut` graph, so `driver::fan_out`,
#          `AttemptCx::scan` and its chunk merges, the pool jobs of R5/R7
#          and of the checkpoint fallback and the parallel replay branch
#          went (DESIGN.md §4.4, §4.5).
#   3731 — one machine, one thread: the driver hands each superstep the
#          graph its node owns, so `driver::graph_mut`, the pool counters'
#          `absorb_pool`, `ComputeModel::refresh_scratch` and the gather
#          index in the vertex-cut scratch went; a master folds its partials
#          sender by sender instead of sorting every one by (position,
#          sender) (DESIGN.md §4.4).
#   3729 — Migration ships what the mirror lacks: exporting and adopting
#          mirror batches, and naming the lists an episode changed, are the
#          engine's `FullStateBatches`, which `ModelGraph` extends as it
#          extends `Episode`, so `ModelGraph::{export_metas, adopt_metas}`
#          and both runners' forwards went; that paid for R7 choosing per
#          record which lists to send (DESIGN.md §4.5).
#   3693 — Rebirth ships the column batch Migration ships: a survivor's
#          scan exports one full-state store per newbie, so both runners'
#          `replica_entry` / `master_entry` / `entry_edges` bodies went and
#          their two `insert_entry` bodies became one `place_reborn` each,
#          which reads a master's edge lists and a mirror's consumers from
#          that store (DESIGN.md §4.6).
#   3690 — one failure detector: a crash is noticed by missed heartbeats
#          only, so nothing in the core announces a death — the standby's
#          and `AttemptCx::fail_here`'s `crash()` calls went, and a crashed
#          node just unwinds and drops its context (DESIGN.md §4.8).
BUDGET=3690
files=(crates/core/src/runner_ec.rs crates/core/src/runner_vc.rs
    crates/core/src/driver.rs crates/core/src/recovery.rs)
for f in crates/core/src/recovery/*.rs; do
    [ "$(basename "$f")" = tests.rs ] || files+=("$f")
done

total=0
for f in "${files[@]}"; do
    lines=$(wc -l < "$f")
    printf '%-42s %5d lines\n' "$f" "$lines"
    total=$((total + lines))
done
echo "protocol core: ${total} lines (budget ${BUDGET})"

if [ "$total" -gt "$BUDGET" ]; then
    echo "error: the protocol core grew past its ${BUDGET}-line budget." >&2
    echo "Before raising it, look for what the new code says twice: a round" >&2
    echo "frame belongs to recovery/rounds.rs, a message fold to" >&2
    echo "driver::take, model-agnostic logic to the driver, not a runner." >&2
    exit 1
fi

echo "ok: the protocol core stays inside its budget."
