#!/usr/bin/env bash
# Transport-seam guard for the pluggable wire layer.
#
# All inter-node communication — sends, drains, barriers, standby dispatch
# and liveness — goes through the `Transport`/`Pipe` traits in
# crates/cluster/src/transport.rs. Nothing outside the cluster crate may
# name a crossbeam type: the moment a runner or bench reaches for a raw
# channel, it has punched a hole in the seam and the lossy/TCP backends
# (and every delivery guarantee the recovery protocol relies on) silently
# stop covering that traffic.
set -euo pipefail

cd "$(dirname "$0")/.."

hits=$(grep -rn "crossbeam" --include='*.rs' src tests examples crates 2>/dev/null |
    grep -v '^crates/cluster/' || true)

if [ -n "$hits" ]; then
    echo "error: crossbeam named outside the cluster transport seam:" >&2
    echo "$hits" >&2
    echo "Inter-node communication must go through the Transport/Pipe" >&2
    echo "traits (crates/cluster/src/transport.rs) so every wire backend" >&2
    echo "— channel, lossy, TCP — covers it." >&2
    exit 1
fi

echo "ok: no crossbeam types escape crates/cluster."

# Coordinator-liveness guard for the failure detector.
#
# Who is alive is decided in exactly one place: the FailureDetector
# (crates/cluster/src/detector.rs) observes evidence — heartbeats and close
# events — and the coordinator's pump funnel applies its
# verdicts via `mark_failed`. If a runner, bench or test writes liveness
# directly, suspicion can no longer be retracted before the fence and the
# false-positive-safety argument (DESIGN.md §4.8) is void.
LIVENESS='mark_failed|observe_hb|observe_close|on_revive'

hits=$(grep -rnE "\.(${LIVENESS})\(" --include='*.rs' src tests examples \
    crates 2>/dev/null |
    grep -v '^crates/cluster/' || true)

if [ -n "$hits" ]; then
    echo "error: coordinator liveness written outside crates/cluster:" >&2
    echo "$hits" >&2
    echo "Failure evidence must flow through the FailureDetector" >&2
    echo "(crates/cluster/src/detector.rs); the coordinator pump is the" >&2
    echo "only caller of mark_failed. Inject failures via FailurePlan or" >&2
    echo "the NodeCtx die path instead." >&2
    exit 1
fi

# Inside the cluster crate, `mark_failed` is coord.rs's funnel (scan + its
# unit tests); everything else — transport backends,
# the node context, the injector — must hand evidence to the detector.
hits=$(grep -rn '\.mark_failed(' --include='*.rs' crates/cluster/src 2>/dev/null |
    grep -v '^crates/cluster/src/coord.rs:' |
    grep -v '^crates/cluster/src/cluster.rs:' || true)

if [ -n "$hits" ]; then
    echo "error: mark_failed called outside the coordinator's pump funnel:" >&2
    echo "$hits" >&2
    exit 1
fi

# cluster.rs may touch mark_failed only from its #[cfg(test)] module (the
# barrier tests simulate verdicts); a call from the node context proper
# would bypass suspicion.
if awk '/#\[cfg\(test\)\]/{exit} /\.mark_failed\(/{found=1} END{exit !found}' \
    crates/cluster/src/cluster.rs; then
    echo "error: non-test mark_failed call in crates/cluster/src/cluster.rs" >&2
    echo "Node-context code must report evidence to the FailureDetector," >&2
    echo "not write coordinator liveness directly." >&2
    exit 1
fi

echo "ok: coordinator liveness flows only through the detector pump funnel."
