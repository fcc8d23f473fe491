#!/usr/bin/env bash
# The blocking chaos shard: the 160 of chaos's first 190 seeded schedules that
# crash a second node inside MigrationRound(1..=8), a Rebirth phase, or the
# reload of a checkpoint attempt, on a standby or hosted by a survivor (a
# survivor that hosts nothing, the hosted newbie, or its host), so that every
# one of them aborts a recovery attempt, restores and retries.
#
#   scripts/chaos_recovery_shard.sh target/release/chaos
#   scripts/chaos_recovery_shard.sh target/debug/chaos
#
# A release build checks the outcome (bit-identical to the golden run); a
# debug build also has `driver::check_mirrors` and the undo oracle of
# `Undo::restore` compiled in, so it checks every rollback from inside.
#
# Schedule i exercises class i % 19 of `classes()` in chaos.rs; the first 12
# classes are the eight Migration rounds, SurvivorReload and the three newbie
# phases, classes 13 to 16 CkptCascade and the three hosted classes (class
# 12, a torn checkpoint, aborts nothing). The grep fails the run if that
# order ever changes; a schedule that diverges fails it through the
# harness's exit status.
set -euo pipefail

chaos="${1:?usage: $0 <path to the chaos binary>}"
for i in $(seq 0 189); do
    class=$((i % 19))
    if [ "$class" -lt 12 ] || { [ "$class" -ge 13 ] && [ "$class" -le 16 ]; }; then
        IMITATOR_CHAOS_ONLY=$i "$chaos" |
            grep -E "^#[0-9]+ (MigrationRound|SurvivorReload|Newbie|CkptCascade|HostedSurvivorReload|HostedNewbieReload|HostReload)"
    fi
done
