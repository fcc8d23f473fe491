//! Run and recovery reports.

use std::time::Duration;

use imitator_cluster::NodeId;
use imitator_graph::Vid;
use imitator_metrics::{CommBreakdown, CommStats, PhaseTimes, RecoveryCounters, SuspicionStats};

/// What one recovery episode cost, broken into the paper's three phases
/// (§5.1/§5.2, Figs. 2(c), 9, 11(b), 15(b)).
///
/// Each node measures its own phases; the driver merges per-phase maxima
/// (recovery finishes when the slowest participant finishes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Strategy that actually executed: "rebirth", "migration", "checkpoint",
    /// or a degraded form when the standby pool could not cover the episode:
    /// "rebirth→migration" (Migration onto the survivors), or
    /// "checkpoint→hosted" (some dead node rebuilt on a thread a survivor
    /// hosts).
    pub strategy: &'static str,
    /// Number of crashed nodes handled in this episode.
    pub failed_nodes: usize,
    /// Reloading: moving state — recovery messages from survivors, snapshot
    /// or edge-ckpt reads from the DFS, opening the undo journal; for
    /// Migration rounds 1-3 (identify, request, grant).
    pub reload: Duration,
    /// Reconstruction: rebuilding graph topology and runtime state; for
    /// Migration rounds 4-8. Every strategy closes it with the model's
    /// post-recovery hook and the release of the undo journal.
    pub reconstruct: Duration,
    /// Replay: re-running lost work — activation fix-ups for
    /// replication-based recovery, whole lost iterations for checkpointing.
    pub replay: Duration,
    /// Vertex copies recovered (masters + replicas).
    pub vertices_recovered: u64,
    /// Edges recovered.
    pub edges_recovered: u64,
    /// Communication spent on recovery.
    pub comm: CommStats,
    /// Masters this node re-homed during the episode (mirror promotions for
    /// Migration, mirror-recovered masters for Rebirth), sorted by vertex ID.
    pub promoted: Vec<Vid>,
    /// Peers this node exchanged recovery state with, sorted — the newbies
    /// it reloaded (Rebirth) or the survivors it coordinated with
    /// (Migration).
    pub contacted: Vec<NodeId>,
    /// How many attempts the episode took and how many were aborted by
    /// failures arriving mid-recovery (cascading failures, §5.3).
    pub counters: RecoveryCounters,
    /// Fine-grained phase breakdown in protocol order: `undo_capture` (what
    /// a mutating attempt does first to be undoable: it opens its graph's
    /// journal), `reload` / `reconstruct` / `replay`, `fence` (barrier waits
    /// and abort fences), `migration_round1..8`, and `after_recovery`
    /// (post-recovery hook, and committing the journal). Merged per-phase
    /// maxima across nodes, like the coarse three-phase fields above.
    pub phases: PhaseTimes,
    /// Failure-detector activity as of the end of this episode: suspicions
    /// raised, retracted (false positives caught in time), confirmed, and
    /// the summed observed detection latency in detector ticks. Nodes
    /// snapshot one shared detector, so
    /// the merge takes element-wise maxima rather than sums.
    pub suspicion: SuspicionStats,
    /// Bytes of undo journal the successful attempt held when it finished,
    /// summed over the survivors: what it kept to be able to take its graph
    /// changes back (0 for a Rebirth, which journals nothing). Exact for a
    /// given graph, partitioning and crash.
    pub journal_bytes: u64,
}

impl RecoveryReport {
    /// The report of one attempt by `strategy` at recovering `failed_nodes`
    /// crashed nodes that has recovered nothing and taken no time yet.
    pub fn new(strategy: &'static str, failed_nodes: usize) -> Self {
        let mut report = RecoveryReport::default();
        (report.strategy, report.failed_nodes) = (strategy, failed_nodes);
        report.counters.attempts = 1;
        report
    }

    /// Total recovery time (sum of the three phases): the successful
    /// attempt from its start to the moment the node resumes, plus the
    /// replayed iterations.
    pub fn total(&self) -> Duration {
        self.reload + self.reconstruct + self.replay
    }

    /// Merges another node's view of the same episode (max per phase, sum
    /// of recovered counts and traffic).
    pub fn merge(&mut self, other: &RecoveryReport) {
        // Strategy strings may legitimately differ per node within one
        // episode (a reborn newbie reports "rebirth" even when survivors
        // degraded a later episode); keep self's label — the driver merges
        // node 0's view first, which carries the executed strategy.
        self.reload = self.reload.max(other.reload);
        self.reconstruct = self.reconstruct.max(other.reconstruct);
        self.replay = self.replay.max(other.replay);
        self.vertices_recovered += other.vertices_recovered;
        self.edges_recovered += other.edges_recovered;
        self.comm += other.comm;
        self.promoted.extend(&other.promoted);
        self.promoted.sort_unstable();
        self.promoted.dedup();
        self.contacted.extend(&other.contacted);
        self.contacted.sort_unstable();
        self.contacted.dedup();
        self.counters.merge(&other.counters);
        self.phases.merge_max(&other.phases);
        self.suspicion.merge(&other.suspicion);
        self.journal_bytes += other.journal_bytes;
    }
}

/// The outcome of one distributed run.
#[derive(Debug, Clone)]
pub struct RunReport<V> {
    /// Final vertex values, indexed by global vertex ID.
    pub values: Vec<V>,
    /// Committed iterations.
    pub iterations: u64,
    /// Wall-clock time of the whole run (load excluded).
    pub elapsed: Duration,
    /// Wall-clock offset (since run start) at which each iteration
    /// committed, as observed by the reporting node — the raw series behind
    /// the Fig. 12 timeline.
    pub timeline: Vec<(u64, Duration)>,
    /// Total messages/bytes on the wire (excluding recovery).
    pub comm: CommStats,
    /// The subset of `comm` that exists only for fault tolerance — syncs to
    /// extra FT replicas (Fig. 8(b), Table 6).
    pub ft_comm: CommStats,
    /// Per-node phase breakdown (compute / send / barrier / commit / ckpt),
    /// merged max across nodes.
    pub phases: PhaseTimes,
    /// Time spent writing checkpoints (included in `elapsed`).
    pub ckpt_time: Duration,
    /// Recovery episodes, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// Per-node resident bytes of graph state right after loading.
    pub mem_bytes: Vec<usize>,
    /// Extra FT replicas created at load (Fig. 3(b)/8(a)); zero unless
    /// replication FT is on.
    pub extra_replicas: usize,
    /// Always 0: nothing filters sync records (DESIGN.md §4.1). Kept because
    /// the frozen `benchmark/src/op.rs` reads it.
    pub suppressed_syncs: u64,
    /// Fabric-level observability: traffic split by message kind
    /// (sync / gather / recovery / control) plus total barrier-wait time, as
    /// recorded by the communication layer itself.
    pub fabric: CommBreakdown,
    /// Failure-detector activity over the whole run: suspicions raised,
    /// retracted (false positives caught before the fence), confirmed, and
    /// the summed observed detection latency in detector ticks. All-zero
    /// in a run where nobody went silent past the timeout (a stall-only run
    /// shows retractions here even though no recovery episode ever
    /// started).
    pub suspicion: SuspicionStats,
}

impl<V> RunReport<V> {
    /// Mean committed-iteration duration, when at least one committed.
    pub fn avg_iteration(&self) -> Duration {
        if self.iterations == 0 {
            return Duration::ZERO;
        }
        // Difference of consecutive timeline stamps averages to
        // elapsed-per-iteration including barriers and recovery gaps; use
        // last stamp / count for the steady-state figure.
        match self.timeline.last() {
            Some((_, t)) => *t / self.iterations as u32,
            None => Duration::ZERO,
        }
    }

    /// Total recovery time across episodes.
    pub fn recovery_total(&self) -> Duration {
        self.recoveries.iter().map(RecoveryReport::total).sum()
    }

    /// Total memory across nodes.
    pub fn total_mem_bytes(&self) -> usize {
        self.mem_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr(reload: u64, reconstruct: u64, replay: u64) -> RecoveryReport {
        RecoveryReport {
            reload: Duration::from_millis(reload),
            reconstruct: Duration::from_millis(reconstruct),
            replay: Duration::from_millis(replay),
            vertices_recovered: 10,
            edges_recovered: 20,
            comm: CommStats::new(1, 100),
            promoted: vec![Vid::new(3)],
            contacted: vec![NodeId::new(1)],
            ..RecoveryReport::new("rebirth", 1)
        }
    }

    #[test]
    fn total_sums_phases() {
        assert_eq!(rr(1, 2, 3).total(), Duration::from_millis(6));
    }

    #[test]
    fn merge_takes_max_phase_and_sums_counts() {
        let mut a = rr(5, 1, 0);
        a.merge(&rr(2, 9, 4));
        assert_eq!(a.reload, Duration::from_millis(5));
        assert_eq!(a.reconstruct, Duration::from_millis(9));
        assert_eq!(a.replay, Duration::from_millis(4));
        assert_eq!(a.vertices_recovered, 20);
        assert_eq!(a.comm, CommStats::new(2, 200));
    }

    #[test]
    fn merge_takes_per_phase_timer_maxima() {
        let mut a = rr(5, 1, 0);
        a.phases.record("reload", Duration::from_millis(5));
        a.phases
            .record("migration_round1", Duration::from_millis(2));
        let mut b = rr(2, 9, 4);
        b.phases.record("reload", Duration::from_millis(9));
        b.phases
            .record("migration_round1", Duration::from_millis(1));
        b.phases.record("fence", Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.phases.get("reload"), Some(Duration::from_millis(9)));
        assert_eq!(
            a.phases.get("migration_round1"),
            Some(Duration::from_millis(2))
        );
        assert_eq!(a.phases.get("fence"), Some(Duration::from_millis(3)));
    }
}
