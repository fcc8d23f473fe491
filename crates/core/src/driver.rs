//! The model-generic superstep driver.
//!
//! The paper's contribution is **one** fault-tolerance protocol (FT
//! replicas, mirrors, Rebirth, Migration, checkpoint baseline) instantiated
//! over two computation models. This module holds everything the protocol
//! shares — the BSP main loop with failure detection and dispatch, standby
//! wake-up, sync-record batching, checkpoint scheduling, and run assembly —
//! parameterized by a [`ComputeModel`]. The model contributes only what
//! genuinely differs: the superstep body (fused compute vs distributed
//! gather-apply), a graph with its own DFS codec, and the reconstruction
//! primitives the recovery state machine (`recovery.rs`) composes.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};

use imitator_cluster::{
    BarrierOutcome, Cluster, Envelope, FailPoint, FailureInjector, FailurePlan, NodeCtx, NodeId,
};
use imitator_engine::{
    CopyKind, Degrees, Episode, FtPlan, FullStateBatches, FullStateRef, Locations, LocationsRef,
    MasterUpdate, VertexProgram,
};
use imitator_graph::Vid;
use imitator_metrics::{CommKind, MemSize, Stopwatch};
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::{epoch, Dfs, EpochKind, WriteBehind};

use crate::ckpt::GraphCodec;
use crate::msg::{ProtoMsg, RebirthBatch, ReplicaGrant, StoreCodec, VertexSync};
use crate::recovery::{self, Adoption, Mig, MigEnv};
use crate::report::RunReport;
use crate::rt::{merge_outcomes, NodeOutcome, NodeState};
use crate::{FtMode, RunConfig};

/// How long recovery waits for a peer's message before concluding the
/// protocol is wedged (a bug, not an injected failure).
pub(crate) const RECOVERY_PATIENCE: Duration = Duration::from_secs(30);

/// Under incremental checkpointing, every `FULL_EPOCH_PERIOD`-th epoch is a
/// self-contained full snapshot; the epochs between carry only the vertices
/// dirtied since the previous epoch. The periodic full epochs bound the
/// base+delta chain recovery must replay.
pub(crate) const FULL_EPOCH_PERIOD: u64 = 4;

/// The kind of checkpoint epoch `epoch` is — a pure function of the epoch
/// number, so every node (and every post-abort retry) independently agrees
/// without coordination. The first epoch of a run is always full.
pub(crate) fn ckpt_epoch_kind(epoch: u64, interval: u64, incremental: bool) -> EpochKind {
    if !incremental || (epoch / interval.max(1)) % FULL_EPOCH_PERIOD == 1 {
        EpochKind::Full
    } else {
        EpochKind::Delta
    }
}

/// The wire protocol a model speaks ([`ProtoMsg`] instantiated with its
/// associated types).
pub(crate) type Msg<M> =
    ProtoMsg<<M as ComputeModel>::Value, <M as ComputeModel>::Accum, <M as ComputeModel>::Graph>;
pub(crate) type Ctx<M> = NodeCtx<Msg<M>>;
pub(crate) type St<M> = NodeState<Msg<M>>;

/// Immutable per-run state shared by every node thread.
pub(crate) struct Shared<M: ComputeModel> {
    pub model: M,
    pub degrees: Degrees,
    pub plan: FtPlan,
    pub owners: Vec<u32>,
    pub injector: Arc<FailureInjector>,
    pub dfs: Dfs,
    pub cfg: RunConfig,
}

/// How one superstep ended.
pub(crate) enum StepOutcome {
    /// Committed; carries this node's activity count for the closing
    /// all-reduce barrier (active vertices for the sparse engine, changed
    /// masters for the dense one).
    Committed(u64),
    /// A barrier inside the superstep failed. The model has already undone
    /// its own staged state (dropped updates); the driver stashes recovery
    /// traffic and runs the recovery state machine.
    Failed(Vec<NodeId>),
}

/// Node-indexed sync-batch scratch, allocated once per node and drained
/// every superstep (deterministic send order, no per-iteration hashing):
/// the records staged toward each destination, and how many of them go to
/// an FT replica.
pub(crate) struct SyncBufs<V> {
    batches: Vec<Vec<VertexSync<V>>>,
    ft: Vec<u64>,
}

impl<V> SyncBufs<V> {
    pub(crate) fn new(num_nodes: usize) -> Self {
        SyncBufs {
            batches: (0..num_nodes).map(|_| Vec::new()).collect(),
            ft: vec![0; num_nodes],
        }
    }
}

/// Uniform positional access to a model's local graph, so the recovery
/// state machine can read and rewrite vertex copies without knowing the
/// concrete vertex layout.
///
/// Recovery undoes an aborted Migration attempt through the graph's
/// [`Episode`]: `begin_episode` before the attempt's first write, `rollback`
/// on abort, `commit` on success. Migration's mirror batches are the graph's
/// own [`FullStateBatches`].
pub(crate) trait ModelGraph: Episode + FullStateBatches {
    /// The vertex value type.
    type Value;

    fn len(&self) -> usize;
    fn position(&self, vid: Vid) -> Option<u32>;
    fn num_masters(&self) -> usize;
    fn vid(&self, pos: u32) -> Vid;
    fn kind(&self, pos: u32) -> CopyKind;
    fn set_kind(&mut self, pos: u32, kind: CopyKind);
    fn master_node(&self, pos: u32) -> NodeId;
    fn set_master_node(&mut self, pos: u32, node: NodeId);
    fn value(&self, pos: u32) -> &Self::Value;
    /// The replica-location tables of the full-state copy at `pos`: the
    /// part of full state recovery reads and, lent to `edit_meta`'s closure
    /// as an owned `Locations`, rewrites (tables it leaves as they were are
    /// neither written nor journaled).
    fn meta(&self, pos: u32) -> Option<LocationsRef<'_>>;
    fn edit_meta<R>(&mut self, pos: u32, edit: impl FnOnce(&mut Locations) -> R) -> Option<R>;
    /// The full state of the copy at `pos` as it would travel to another
    /// node (a vertex-cut copy's: its tables), or `None` for a plain replica.
    fn full_state(&self, pos: u32) -> Option<FullStateRef<'_>>;
    /// [`ModelGraph::full_state`] of a copy that must carry it (or panics).
    fn exported(&self, pos: u32) -> FullStateRef<'_> {
        let state = self.full_state(pos);
        state.unwrap_or_else(|| no_full_state(self.vid(pos), self.kind(pos)))
    }
    fn is_master(&self, pos: u32) -> bool {
        self.kind(pos) == CopyKind::Master
    }
    /// [`ModelGraph::meta`] of a copy that must carry full state: a master
    /// or a mirror.
    ///
    /// # Panics
    ///
    /// Panics if it carries none.
    fn full(&self, pos: u32) -> LocationsRef<'_> {
        self.meta(pos)
            .unwrap_or_else(|| no_full_state(self.vid(pos), self.kind(pos)))
    }
    /// [`ModelGraph::edit_meta`] of a copy that must carry full state.
    fn edit_full<R>(&mut self, pos: u32, edit: impl FnOnce(&mut Locations) -> R) -> R {
        let (vid, kind) = (self.vid(pos), self.kind(pos));
        self.edit_meta(pos, edit)
            .unwrap_or_else(|| no_full_state(vid, kind))
    }
}

/// Reports a master or mirror found without the full state it must carry.
pub(crate) fn no_full_state(vid: Vid, kind: CopyKind) -> ! {
    panic!("{kind:?} copy of {vid} has no full state")
}

/// One computation model (edge-cut Cyclops or vertex-cut PowerLyra GAS),
/// plugged into the shared driver and recovery state machine.
///
/// Hooks with defaults are genuinely optional; everything else is the
/// model-specific remainder after unification. Reconstruction primitives
/// (`place_reborn` .. `adopt_partition`) are composed by `recovery.rs`
/// into the Rebirth / Migration / checkpoint state machines.
pub(crate) trait ComputeModel: Send + Sync + Sized + 'static {
    /// Vertex value.
    type Value: Clone + Send + Sync + PartialEq + Debug + Encode + Decode + MemSize + 'static;
    /// The vertex program.
    type Prog: VertexProgram<Value = Self::Value>;
    /// Gather accumulator (`()` when gather is fused into local compute).
    type Accum: Clone + Send + Encode + Decode + 'static;
    /// Local graph, with its DFS codec and the codec of the full-state
    /// stores it ships; the node's thread owns it.
    type Graph: ModelGraph<Value = Self::Value>
        + GraphCodec
        + StoreCodec
        + Clone
        + MemSize
        + Send
        + 'static;
    /// Per-node steady-state scratch reused across iterations.
    type Scratch: Send;
    /// Migration bookkeeping the model threads between rounds.
    type MigExtra: Default;

    /// DFS path prefix for this model's snapshots ("ec" / "vc").
    const PREFIX: &'static str;

    /// The program: its `derive` completes every value that enters a node (a
    /// sync record, a Rebirth record, a Migration grant or fresh mirror, a
    /// graph or a snapshot read back from the DFS) before anything reads it.
    fn prog(&self) -> &Self::Prog;
    fn init_scratch(&self, shared: &Shared<Self>) -> Self::Scratch;
    /// What a non-checkpoint mode keeps on the DFS for a recovery to reload
    /// (edge-ckpt files): taken from the graph as it stands, at load (the run
    /// phase `load_persist`) and after a Migration, and written behind the node.
    fn persist(&self, _lg: &Self::Graph, _shared: &Shared<Self>) -> Option<WriteBehind> {
        None
    }

    /// One superstep: compute, communicate, and commit through the model's
    /// internal barriers. On a failed barrier the model undoes its own
    /// staged state and returns [`StepOutcome::Failed`]; the driver owns
    /// everything after that. The node's thread runs the engine's serial
    /// kernels on the graph it owns, then stages, ships and commits.
    fn superstep(
        &self,
        ctx: &Ctx<Self>,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &mut St<Self>,
        scratch: &mut Self::Scratch,
    ) -> StepOutcome;

    // -- recovery primitives --
    /// Resets values (and, where the model keeps it, activation) to the
    /// iteration-0 state — checkpoint recovery before the first snapshot.
    fn reset_to_initial(&self, lg: &mut Self::Graph, shared: &Shared<Self>);
    /// Applies a full-sync round's records (position-addressed).
    fn apply_full_sync(&self, lg: &mut Self::Graph, incoming: Vec<VertexSync<Self::Value>>);
    /// The scatter bit shipped alongside a copy's value in recovery rounds
    /// (the sparse engine replays it; the dense engine has none).
    fn scatter_bit(&self, lg: &Self::Graph, pos: u32) -> bool;
    fn empty_graph(&self, me: NodeId) -> Self::Graph;
    /// Places a survivor's Rebirth batch on the newbie: every record at the
    /// position it names, its value derived, then the store adopted.
    fn place_reborn(
        &self,
        lg: &mut Self::Graph,
        batch: RebirthBatch<Self::Value>,
        degrees: &Degrees,
    );
    /// The DFS files recovering `dead` reloads on this node besides what
    /// survivors send (edge-ckpt files), in the order it consumes them; the
    /// attempt reads them ahead. A newbie is the one `dead` node, reborn.
    fn reload_files(&self, _: &Dfs, _dead: &[NodeId], _me: NodeId, _leader: NodeId) -> Vec<String> {
        Vec::new()
    }
    /// Wires one reloaded file into the newbie, survivor batches all placed.
    fn rebirth_reload_extra(&self, _lg: &mut Self::Graph, _file: &[u8]) {}
    fn validate(&self, lg: &Self::Graph);
    /// Post-reload replay on the newbie (activation replay + selfish
    /// recompute for the sparse engine). Returns whether any replay work
    /// exists — `false` keeps the report's replay phase at zero.
    fn rebirth_replay(&self, _lg: &mut Self::Graph, _shared: &Shared<Self>, _resume: u64) -> bool {
        false
    }
    /// `(vertices, edges)` held by a reconstructed graph, for the report.
    fn graph_stats(&self, lg: &Self::Graph) -> (u64, u64);
    /// Restores model invariants every recovery path may have disturbed
    /// (the sparse engine's active frontier).
    fn after_recovery(&self, _lg: &mut Self::Graph) {}

    // -- migration hooks --
    /// Model-specific work right after a mirror at `pos` was promoted to
    /// master (meta already repositioned and purged).
    fn on_promote(&self, _lg: &mut Self::Graph, _pos: u32, _mig: &mut Mig<Self::MigExtra>) {}
    /// Migration R2: fix model-specific location tables and return the
    /// replica requests this node must send (missing edge endpoints /
    /// in-edge sources).
    fn migration_requests(
        &self,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &St<Self>,
        mig: &mut Mig<Self::MigExtra>,
        env: &MigEnv<'_>,
    ) -> std::collections::HashMap<NodeId, Vec<Vid>>;
    /// Places a granted replica (R4) or the copy a fresh FT replica starts
    /// as (R6), its value already derived, returning its local position.
    fn place_granted(&self, lg: &mut Self::Graph, grant: ReplicaGrant<Self::Value>) -> u32;
    /// Migration R4: wire promoted masters' edges / adopt reloaded edges.
    fn migration_wire(&self, lg: &mut Self::Graph, mig: &mut Mig<Self::MigExtra>, resume: u64);
    /// Checkpoint-fallback recovery (no standbys left): graft a crashed
    /// node's reconstructed partition wholesale into this survivor's graph.
    /// Every master becomes local (a promotion); replica copies either
    /// merge into existing local copies or are appended, reporting their
    /// placement back to the master (or as an orphan when the master died
    /// too).
    fn adopt_partition(
        &self,
        lg: &mut Self::Graph,
        dead_lg: Self::Graph,
        dead: NodeId,
        episode: &[NodeId],
        mig: &mut Mig<Self::MigExtra>,
    ) -> Adoption;
}

/// The graphs the live nodes hand back when a run ends, by node.
pub(crate) type FinalGraphs<M> = Vec<(NodeId, <M as ComputeModel>::Graph)>;

/// Runs `model` over pre-built local graphs on a simulated cluster: spawns
/// one thread per node plus the configured hot standbys, joins them, and
/// assembles the merged [`RunReport`]. Each live node's final graph comes
/// back with it (tests inspect what recovery left behind).
///
/// # Panics
///
/// Panics if `cfg.threads_per_node` is above 1: a node is one thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<M: ComputeModel>(
    model: M,
    num_vertices: usize,
    lgs: Vec<M::Graph>,
    degrees: Degrees,
    plan: FtPlan,
    owners: Vec<u32>,
    cfg: RunConfig,
    failures: Vec<FailurePlan>,
    dfs: Dfs,
) -> (RunReport<M::Value>, FinalGraphs<M>) {
    assert!(
        cfg.threads_per_node <= 1,
        "a node is one thread; threads_per_node stays only for the frozen benchmark's config"
    );
    let extra_replicas = plan.extra_replica_count();
    let mem_bytes: Vec<usize> = lgs.iter().map(MemSize::mem_bytes).collect();
    let injector = Arc::new(FailureInjector::new());
    for f in failures {
        injector.schedule(f);
    }
    let shared = Arc::new(Shared {
        model,
        degrees,
        plan,
        owners,
        injector,
        dfs,
        cfg,
    });
    let cluster: Cluster<Msg<M>> = Cluster::with_detector(
        cfg.num_nodes,
        cfg.standbys,
        cfg.detector_config(),
        cfg.transport,
    );

    let start = Instant::now();
    let mut handles = Vec::new();
    for (p, lg) in lgs.into_iter().enumerate() {
        let ctx = cluster.take_ctx(NodeId::from_index(p));
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let mut st = NodeState::new(shared.cfg.num_nodes, Instant::now());
            if matches!(shared.cfg.ft, FtMode::Checkpoint { .. }) {
                let sw = Stopwatch::start();
                shared.dfs.write(
                    &format!("{}/meta/{}", M::PREFIX, ctx.id().raw()),
                    lg.encode_graph(),
                );
                st.ckpt_time += sw.elapsed();
            } else {
                let sw = Stopwatch::start();
                st.persist = shared.model.persist(&lg, &shared);
                if st.persist.is_some() {
                    st.phases.record("load_persist", sw.elapsed());
                }
            }
            node_main(ctx, lg, &shared, st)
        }));
    }
    let mut standby_handles = Vec::new();
    for _ in 0..cfg.standbys {
        let cluster = cluster.clone();
        let shared = Arc::clone(&shared);
        standby_handles.push(std::thread::spawn(move || standby_main(&cluster, &shared)));
    }

    let mut outcomes: Vec<NodeOutcome<(NodeId, M::Graph)>> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    cluster.shutdown_standbys();
    for h in standby_handles {
        if let Some(o) = h.join().expect("standby thread panicked") {
            outcomes.push(o);
        }
    }
    // Every node thread is joined; release transport-owned sockets/threads.
    cluster.shutdown_transport();
    let elapsed = start.elapsed();

    let (mut report, graphs) = merge_outcomes(
        outcomes,
        elapsed,
        mem_bytes,
        extra_replicas,
        cluster.comm_breakdown(),
    );
    report.suspicion = cluster.coordinator().suspicion_stats();
    if cfg!(debug_assertions) {
        if let FtMode::Replication { tolerance, .. } = cfg.ft {
            check_mirrors::<M>(&graphs, tolerance, &shared.plan);
        }
    }
    // Where each vertex's master ended up: (graph, position).
    const NO_MASTER: (u32, u32) = (u32::MAX, 0);
    let mut masters = vec![NO_MASTER; num_vertices];
    for (at, (_, lg)) in graphs.iter().enumerate() {
        for pos in 0..lg.len() as u32 {
            if lg.is_master(pos) {
                masters[lg.vid(pos).index()] = (at as u32, pos);
            }
        }
    }
    report.values = masters
        .iter()
        .enumerate()
        .map(|(i, &(at, pos))| {
            assert!(at != NO_MASTER.0, "vertex v{i} has no master after run");
            graphs[at as usize].1.value(pos).clone()
        })
        .collect();
    (report, graphs)
}

/// The replication invariants recovery exists to restore, checked on the
/// graphs the live nodes hand back (debug builds only, so every test run
/// fails at the first stale mirror rather than at a wrong value after the
/// *next* failure): every master has `min(K, live − 1)` mirrors, on distinct
/// live nodes other than its own, and each mirror sits at the position the
/// master's table records, points back at the master's node, and holds the
/// master's full state and value. Full state is compared as each side would
/// export it ([`ModelGraph::full_state`]): the two store it differently.
/// Selfish masters never sync (§4.4), so their mirrors' values are stale by
/// design and are not compared. A remote out-edge names its other end by
/// node and position alone, so each is followed: a live master sits there and
/// has this vertex among its in-edge sources, as its own graph tells them.
///
/// # Panics
///
/// Panics on the first violation.
fn check_mirrors<M: ComputeModel>(graphs: &[(NodeId, M::Graph)], tolerance: usize, plan: &FtPlan) {
    let live = |n: NodeId| graphs.iter().find(|(id, _)| *id == n).map(|(_, lg)| lg);
    let want = tolerance.min(graphs.len().saturating_sub(1));
    // Bit equality of what ships, and the derived rest as printed: a NaN a
    // program got stuck on is still synced, a field left underived is not.
    let same_bits = |a: &M::Value, b: &M::Value| {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        a.encode(&mut x);
        b.encode(&mut y);
        x == y && format!("{a:?}") == format!("{b:?}")
    };
    // Every in-edge of every live master as (node, position, source), sorted.
    let mut fed: Vec<(NodeId, u32, Vid)> = Vec::new();
    for (node, lg) in graphs {
        for pos in (0..lg.len() as u32).filter(|&p| lg.is_master(p)) {
            let srcs = lg.exported(pos).in_edge_srcs.iter();
            fed.extend(srcs.map(|src| (*node, pos, src)));
        }
    }
    fed.sort_unstable();
    for (node, lg) in graphs {
        for pos in (0..lg.len() as u32).filter(|&p| lg.is_master(p)) {
            let vid = lg.vid(pos);
            for r in lg.exported(pos).out_remote {
                let fed_there = fed.binary_search(&(r.node, r.pos, vid)).is_ok();
                assert!(fed_there, "{vid} on {node} feeds no live master at {r:?}");
            }
            let meta = lg.full(pos);
            let selfish = plan.selfish.get(vid.index()).copied().unwrap_or(false);
            let mirrors = meta.mirror_nodes();
            assert_eq!(
                mirrors.len(),
                want,
                "mirrors of {vid} on {node}: {mirrors:?}"
            );
            for (i, m) in mirrors.iter().enumerate() {
                assert!(
                    m != *node && !mirrors.iter().take(i).any(|earlier| earlier == m),
                    "mirrors of {vid} on {node} are not distinct remote nodes: {mirrors:?}"
                );
                let mg = live(m).unwrap_or_else(|| panic!("mirror of {vid} on dead node {m}"));
                let at = meta
                    .replica_position_on(m)
                    .filter(|&at| (at as usize) < mg.len() && mg.vid(at) == vid)
                    .unwrap_or_else(|| {
                        panic!("mirror of {vid} not where {node} records it on {m}")
                    });
                assert!(
                    mg.kind(at) == CopyKind::Mirror && mg.master_node(at) == *node,
                    "copy of {vid} on {m} is not a mirror of {node}'s master"
                );
                assert!(
                    lg.full_state(pos) == mg.full_state(at),
                    "mirror of {vid} on {m} holds a stale full state"
                );
                let (mine, theirs) = (lg.value(pos), mg.value(at));
                assert!(
                    selfish || mine == theirs || same_bits(mine, theirs),
                    "mirror of {vid} on {m} holds {theirs:?}, master {mine:?}"
                );
            }
        }
    }
}

/// Hot-standby entry: block until the coordinator hands over a crashed
/// identity, reconstruct its state, then run the main loop as that node.
fn standby_main<M: ComputeModel>(
    cluster: &Cluster<Msg<M>>,
    shared: &Arc<Shared<M>>,
) -> Option<NodeOutcome<(NodeId, M::Graph)>> {
    let ctx = cluster.wait_standby(Duration::from_secs(600))?;
    let mut st = NodeState::new(shared.cfg.num_nodes, Instant::now());
    let reborn = match shared.cfg.ft {
        FtMode::Replication { .. } => recovery::rebirth_newbie(&ctx, shared, &mut st),
        FtMode::Checkpoint { .. } => recovery::ckpt_newbie(&ctx, shared, &mut st),
        FtMode::None => unreachable!("standbys are never dispatched without fault tolerance"),
    };
    match reborn {
        Ok(lg) => Some(node_main(ctx, lg, shared, st)),
        Err(_) => {
            // The attempt this newbie was dispatched for aborted, and it has
            // no pre-episode state to restore: it unwinds like a crashed
            // node, its dropped context closes its slot, and the next
            // attempt takes a fresh standby. Its accounting still merges.
            Some(NodeOutcome::from_state(None, st))
        }
    }
}

/// Algorithm 1: the synchronous execution flow with failure handling —
/// iteration budget, failure injection points, superstep dispatch,
/// checkpoint scheduling inside the barrier window, the closing
/// activity all-reduce, replay accounting, and convergence.
fn node_main<M: ComputeModel>(
    ctx: Ctx<M>,
    mut lg: M::Graph,
    shared: &Arc<Shared<M>>,
    mut st: St<M>,
) -> NodeOutcome<(NodeId, M::Graph)> {
    let me = ctx.id();
    let mut scratch = shared.model.init_scratch(shared);
    // Runs until the job is over (`true`) or this node is dead (`false`).
    let survived = loop {
        if st.iter >= shared.cfg.max_iters {
            break true;
        }
        if let Some(ticks) = shared.injector.should_stall(me, st.iter) {
            // Go silent before doing any work this iteration. A stall that
            // outlives the suspicion fence gets this node confirmed dead by
            // the heartbeat detector; it must then exit exactly like a
            // BeforeBarrier crash at the same (node, iteration) — nothing
            // was computed or sent yet, so the surviving protocol is
            // identical. A shorter stall is retracted and execution
            // continues untouched.
            st.settle();
            if !ctx.stall(ticks) {
                break false;
            }
        }
        if shared
            .injector
            .should_fail(me, st.iter, FailPoint::BeforeBarrier)
        {
            st.settle();
            ctx.die();
            break false;
        }
        let iter_sw = Stopwatch::start();

        let active = match shared
            .model
            .superstep(&ctx, &mut lg, shared, &mut st, &mut scratch)
        {
            StepOutcome::Committed(active) => active,
            StepOutcome::Failed(dead) => {
                // Keep recovery messages that may already have arrived from
                // faster peers; discard the failed iteration's data traffic.
                stash_non_data::<M>(&ctx, &mut st);
                if recover_booked(&ctx, &mut lg, shared, &mut st, &dead) {
                    break false;
                }
                continue;
            }
        };

        // Checkpoint inside the barrier window (§2.2).
        if let FtMode::Checkpoint {
            interval,
            incremental,
        } = shared.cfg.ft
        {
            if (st.iter + 1).is_multiple_of(interval) {
                let sw = Stopwatch::start();
                let kind = ckpt_epoch_kind(st.iter + 1, interval, incremental);
                // Either kind starts the next epoch's dirty set afresh: a
                // full epoch is a new base for the delta chain.
                let mut dirty = std::mem::take(&mut st.dirty);
                let dirty = match kind {
                    EpochKind::Full => None,
                    EpochKind::Delta => {
                        // A stable sort merges the supersteps' ascending runs.
                        dirty.sort();
                        dirty.dedup();
                        Some(&dirty[..])
                    }
                };
                let bytes = lg.encode_snapshot(st.iter + 1, dirty);
                if shared
                    .injector
                    .should_fail(me, st.iter, FailPoint::CkptWrite)
                {
                    // Crash mid-write: a torn (unsealed) part is left
                    // behind, making the epoch detectably incomplete —
                    // recovery must roll back to the previous complete one.
                    epoch::write_part_torn(&shared.dfs, M::PREFIX, st.iter + 1, me.raw(), bytes);
                    ctx.die();
                    break false;
                }
                epoch::write_part(&shared.dfs, M::PREFIX, st.iter + 1, me.raw(), bytes);
                if me == st.leader() {
                    // The epoch commits only once its roster exists: the
                    // sealed member list (and epoch kind) recovery checks
                    // parts against.
                    let members: Vec<u32> = st
                        .alive
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &a)| a.then_some(i as u32))
                        .collect();
                    epoch::write_roster(&shared.dfs, M::PREFIX, st.iter + 1, kind, &members);
                }
                st.last_snapshot_iter = st.iter + 1;
                let d = sw.elapsed();
                st.ckpt_time += d;
                st.phases.record("ckpt", d);
            }
        }

        st.iter += 1;
        st.timeline.push((st.iter, st.start.elapsed()));

        // Leave barrier doubling as the activity all-reduce.
        let sw = Stopwatch::start();
        let (outcome, total_active) = ctx.enter_barrier_sum(active);
        st.phases.record("barrier", sw.elapsed());
        if st.iter <= st.replay_until {
            if let Some(r) = st.recoveries.last_mut() {
                r.replay += iter_sw.elapsed();
            }
        }
        if let BarrierOutcome::Failed(dead) = outcome {
            // Failure after commit: no rollback.
            stash_non_data::<M>(&ctx, &mut st);
            if recover_booked(&ctx, &mut lg, shared, &mut st, &dead) {
                break false;
            }
            continue;
        }
        if total_active == 0 {
            // Converged: the job is over before any post-barrier crash can
            // strike (a machine lost after completion is outside the job's
            // lifetime and cannot be recovered by it).
            break true;
        }
        if st.iter < shared.cfg.max_iters
            && shared
                .injector
                .should_fail(me, st.iter - 1, FailPoint::AfterBarrier)
        {
            st.settle();
            ctx.die();
            break false;
        }
    };
    NodeOutcome::from_state(survived.then_some((me, lg)), st)
}

/// Runs the recovery episode for `dead`, resuming at the current iteration,
/// and books its wall time as the run phase `recovery` — the stall belongs
/// to the run's phase budget like compute and barrier do. The node's own
/// persistence lands first: the episode may rewrite it, or crash the node.
/// Returns whether this node crashed inside it.
fn recover_booked<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut M::Graph,
    shared: &Shared<M>,
    st: &mut St<M>,
    dead: &[NodeId],
) -> bool {
    st.settle();
    let sw = Stopwatch::start();
    let resume = st.iter;
    let crashed = recovery::recover(ctx, lg, shared, st, dead, resume);
    st.phases.record("recovery", sw.elapsed());
    crashed
}

/// Stages a phase's master updates into one sync frame per destination,
/// including the mirrors' dynamic state, and ships each as one
/// [`ProtoMsg::Sync`] ([`ship_frame`]); the FT share of a frame is its FT
/// records' pro-rata part of its bytes. Selfish masters (§4.4) send nothing
/// — their only replicas are FT replicas.
///
/// Records stage in ascending master position (the kernels' output order)
/// toward destinations in node order, so every frame is a pure function of
/// the committed graph state. Every update ships: the engines emit one only
/// for a master whose value changed (DESIGN.md §4.1), so there is nothing
/// here to filter.
pub(crate) fn ship_syncs<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &M::Graph,
    shared: &Shared<M>,
    st: &mut St<M>,
    bufs: &mut SyncBufs<M::Value>,
    updates: &[MasterUpdate<M::Value>],
) {
    let plan = &shared.plan;
    for u in updates {
        let i = lg.vid(u.local).index();
        if *plan.selfish.get(i).unwrap_or(&false) {
            continue;
        }
        let meta = lg.full(u.local);
        for (node, &rpos) in meta.replica_nodes().iter().zip(meta.replica_positions()) {
            bufs.batches[node.index()].push(VertexSync {
                pos: rpos,
                value: u.value.clone(),
                activate: u.activate,
            });
            if i < plan.num_vertices() && plan.extra_replicas.row(i).contains(&node) {
                bufs.ft[node.index()] += 1;
            }
        }
    }
    for (n, batch) in bufs.batches.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let (records, ft) = (batch.len() as u64, std::mem::take(&mut bufs.ft[n]));
        let msg = ProtoMsg::Sync(std::mem::take(batch));
        let bytes = ship_frame::<M>(ctx, st, n, records, msg, CommKind::Sync);
        if ft > 0 {
            st.ft_comm.record(ft, bytes * ft / records);
        }
    }
}

/// Ships a superstep's frame of `records` records to node `to`, charged what
/// it encodes to — to the node's `comm` and to the fabric alike — and
/// returns that charge.
pub(crate) fn ship_frame<M: ComputeModel>(
    ctx: &Ctx<M>,
    st: &mut St<M>,
    to: usize,
    records: u64,
    msg: Msg<M>,
    kind: CommKind,
) -> u64 {
    let bytes = msg.encoded_len() as u64;
    st.comm.record(records, bytes);
    ctx.send_kind(NodeId::from_index(to), msg, bytes, kind);
    bytes
}

/// Marks this iteration's updates dirty for incremental checkpointing.
pub(crate) fn note_dirty<M: ComputeModel>(
    st: &mut St<M>,
    cfg: &RunConfig,
    updates: &[MasterUpdate<M::Value>],
) {
    if cfg.ft.is_incremental_ckpt() {
        st.dirty.extend(updates.iter().map(|u| u.local));
    }
}

/// Selects one [`ProtoMsg`] variant for [`take`]: the payload of a message
/// of that variant, any other message back.
macro_rules! kind {
    ($variant:ident) => {
        |msg| match msg {
            $crate::msg::ProtoMsg::$variant(payload) => Ok(payload),
            other => Err(other),
        }
    };
}
pub(crate) use kind;

/// Takes the stashed + queued messages of one `kind` with their senders,
/// stashing everything else in arrival order. Barrier-separated rounds
/// (supersteps and recovery rounds alike) find everything sent for the
/// current round already queued.
pub(crate) fn take<M: ComputeModel, T>(
    ctx: &Ctx<M>,
    st: &mut St<M>,
    kind: impl Fn(Msg<M>) -> Result<T, Msg<M>>,
) -> Vec<(NodeId, T)> {
    let mut pending = std::mem::take(&mut st.stash);
    pending.extend(ctx.drain());
    let mut taken = Vec::new();
    for Envelope { from, msg } in pending {
        match kind(msg) {
            Ok(payload) => taken.push((from, payload)),
            Err(msg) => st.stash.push(Envelope { from, msg }),
        }
    }
    taken
}

/// This round's sync records (position-addressed by the sender, so no ID
/// lookup happens here), each value derived for the copy it lands on in
/// `lg`.
pub(crate) fn collect_syncs<M: ComputeModel>(
    ctx: &Ctx<M>,
    st: &mut St<M>,
    lg: &M::Graph,
    shared: &Shared<M>,
) -> Vec<VertexSync<M::Value>> {
    let batches = take::<M, _>(ctx, st, kind!(Sync));
    let mut out = Vec::with_capacity(batches.iter().map(|(_, batch)| batch.len()).sum());
    let (prog, degrees) = (shared.model.prog(), &shared.degrees);
    for (_, batch) in batches {
        out.extend(batch.into_iter().map(|mut s| {
            prog.derive(lg.vid(s.pos), &mut s.value, degrees);
            s
        }));
    }
    out
}

/// On failure: discard the failed iteration's data traffic (syncs and
/// gather partials), keep recovery messages that may already have arrived
/// from faster peers.
pub(crate) fn stash_non_data<M: ComputeModel>(ctx: &Ctx<M>, st: &mut St<M>) {
    for env in ctx.drain() {
        if !matches!(env.msg, ProtoMsg::Sync(_) | ProtoMsg::Gather(_)) {
            st.stash.push(env);
        }
    }
}
