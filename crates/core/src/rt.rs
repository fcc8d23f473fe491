//! Runtime state shared by the edge-cut and vertex-cut node main loops.

use std::time::{Duration, Instant};

use imitator_cluster::{Envelope, NodeId};
use imitator_graph::{Vid, VidMap};
use imitator_metrics::{CommBreakdown, CommStats, PhaseTimes, Stopwatch};
use imitator_storage::WriteBehind;

use crate::report::{RecoveryReport, RunReport};

/// Per-node mutable runtime bookkeeping threaded through the main loop.
#[derive(Debug)]
pub(crate) struct NodeState<M> {
    /// Committed-iteration counter (lockstep across nodes).
    pub iter: u64,
    /// This node's view of cluster membership, updated from barrier
    /// outcomes (deterministic, unlike racy coordinator queries).
    pub alive: Vec<bool>,
    /// Master-location overrides learned from Migration promotions.
    pub overlay: VidMap<NodeId>,
    /// Normal-execution traffic.
    pub comm: CommStats,
    /// The fault-tolerance-only share of `comm`.
    pub ft_comm: CommStats,
    /// Phase breakdown.
    pub phases: PhaseTimes,
    /// `(iteration, offset since start)` commit stamps.
    pub timeline: Vec<(u64, Duration)>,
    /// Time spent writing checkpoints.
    pub ckpt_time: Duration,
    /// Recovery episodes.
    pub recoveries: Vec<RecoveryReport>,
    /// Iterations below this count re-execute lost work; their duration is
    /// charged to the last recovery's replay phase (checkpoint recovery).
    pub replay_until: u64,
    /// Masters whose value changed since the last snapshot (incremental
    /// checkpointing only): one ascending run per superstep, so a master
    /// that changed in two of them is listed twice.
    pub dirty: Vec<u32>,
    /// Run-start instant for the timeline.
    pub start: Instant,
    /// Recovery-protocol messages drained while discarding stale traffic.
    pub stash: Vec<Envelope<M>>,
    /// Deterministic local counter for balanced replacement-mirror choice.
    pub mirror_assign: Vec<usize>,
    /// The one write-behind this node may have on its way to the DFS: what
    /// it last persisted for a later recovery to reload (edge-ckpt files).
    /// [`NodeState::settle`] empties it wherever the node's persistence must
    /// be whole before what comes next (DESIGN.md §4.10).
    pub persist: Option<WriteBehind>,
}

impl<M> NodeState<M> {
    pub(crate) fn new(num_nodes: usize, start: Instant) -> Self {
        NodeState {
            iter: 0,
            alive: vec![true; num_nodes],
            overlay: VidMap::default(),
            comm: CommStats::default(),
            ft_comm: CommStats::default(),
            phases: PhaseTimes::new(),
            timeline: Vec::new(),
            ckpt_time: Duration::ZERO,
            recoveries: Vec::new(),
            replay_until: 0,
            dirty: Vec::new(),
            start,
            stash: Vec::new(),
            mirror_assign: vec![0; num_nodes],
            persist: None,
        }
    }

    /// The node that masters `vid` now, as this node knows it: where
    /// Migration last promoted it, or where the load put it (`owners`).
    pub(crate) fn master_of(&self, owners: &[u32], vid: Vid) -> NodeId {
        let promoted = self.overlay.get(&vid).copied();
        promoted.unwrap_or_else(|| NodeId::new(owners[vid.index()]))
    }

    /// Blocks until what this node persists behind its supersteps is on the
    /// DFS, booking the wait as the run phase `persist_wait`.
    pub(crate) fn settle(&mut self) {
        if let Some(writes) = self.persist.take() {
            let sw = Stopwatch::start();
            writes.wait();
            self.phases.record("persist_wait", sw.elapsed());
        }
    }

    /// Survivors after removing `dead`, ascending.
    pub(crate) fn mark_dead(&mut self, dead: &[NodeId]) -> Vec<NodeId> {
        for d in dead {
            self.alive[d.index()] = false;
        }
        self.alive_nodes()
    }

    /// Currently-alive nodes in this node's view, ascending.
    pub(crate) fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// The recovery leader: lowest-ID survivor.
    pub(crate) fn leader(&self) -> NodeId {
        self.alive_nodes()[0]
    }
}

/// What one node hands back to the driver.
#[derive(Debug)]
pub(crate) struct NodeOutcome<G> {
    /// The final local graph (`None` for a crashed node — its memory died
    /// with it).
    pub lg: Option<G>,
    pub iterations: u64,
    pub comm: CommStats,
    pub ft_comm: CommStats,
    pub phases: PhaseTimes,
    pub timeline: Vec<(u64, Duration)>,
    pub ckpt_time: Duration,
    pub recoveries: Vec<RecoveryReport>,
}

impl<G> NodeOutcome<G> {
    /// A node's books close with its persistence whole: the DFS counters
    /// are final once every outcome exists.
    pub(crate) fn from_state<M>(lg: Option<G>, mut st: NodeState<M>) -> Self {
        st.settle();
        NodeOutcome {
            lg,
            iterations: st.iter,
            comm: st.comm,
            ft_comm: st.ft_comm,
            phases: st.phases,
            timeline: st.timeline,
            ckpt_time: st.ckpt_time,
            recoveries: st.recoveries,
        }
    }
}

/// Merges all node outcomes into the run report (values filled by caller).
pub(crate) fn merge_outcomes<G, V>(
    outcomes: Vec<NodeOutcome<G>>,
    elapsed: Duration,
    mem_bytes: Vec<usize>,
    extra_replicas: usize,
    fabric: CommBreakdown,
) -> (RunReport<V>, Vec<G>) {
    let mut graphs = Vec::new();
    let mut report = RunReport {
        values: Vec::new(),
        iterations: 0,
        elapsed,
        timeline: Vec::new(),
        comm: CommStats::default(),
        ft_comm: CommStats::default(),
        phases: PhaseTimes::new(),
        ckpt_time: Duration::ZERO,
        recoveries: Vec::new(),
        mem_bytes,
        extra_replicas,
        suppressed_syncs: 0,
        fabric,
        suspicion: imitator_metrics::SuspicionStats::default(),
    };
    for o in outcomes {
        report.iterations = report.iterations.max(o.iterations);
        report.comm += o.comm;
        report.ft_comm += o.ft_comm;
        report.ckpt_time = report.ckpt_time.max(o.ckpt_time);
        if o.timeline.len() > report.timeline.len() {
            report.timeline = o.timeline;
        }
        // Phases: keep the per-phase maximum across nodes (the cluster is as
        // slow as its slowest node).
        for (name, d) in o.phases.iter() {
            let cur = report.phases.get(name).unwrap_or(Duration::ZERO);
            if d > cur {
                report.phases.record(name, d - cur);
            }
        }
        for (i, r) in o.recoveries.iter().enumerate() {
            if i < report.recoveries.len() {
                report.recoveries[i].merge(r);
            } else {
                report.recoveries.push(r.clone());
            }
        }
        if let Some(lg) = o.lg {
            graphs.push(lg);
        }
    }
    (report, graphs)
}
