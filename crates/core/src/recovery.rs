//! The model-generic, **restartable** recovery state machine.
//!
//! One implementation of the paper's three recovery paths — Rebirth (§5.1),
//! Migration (§5.2), and the checkpoint baseline (§2.2-2.3) — driven through
//! the [`ComputeModel`] reconstruction primitives. Strategy selection,
//! standby dispatch, the barrier-separated migration rounds R1-R8, the
//! snapshot-chain replay, and the post-reload full-sync round all live here
//! exactly once; the models contribute only entry encoding/placement and
//! their genuinely different reload sources (edge-ckpt files, activation
//! replay).
//!
//! # Cascading failures (§5.3)
//!
//! Nodes can crash *while recovery itself is running*. Every barrier inside
//! a recovery attempt therefore doubles as a failure detector: if it reports
//! new failures, the attempt **aborts** — each survivor restores the exact
//! pre-episode state ([`Undo`]: node state from a copy taken on entry, the
//! graph from the journal of what the attempt changed), unions the newly
//! crashed nodes into the episode's failure set, runs the [`abort_fence`]
//! (drain stale traffic, re-synchronise on a clean barrier), and restarts
//! the attempt from scratch. Because every attempt starts from the same
//! restored state and the same deterministic protocol, restarts are
//! idempotent: a run that aborts N times converges to bit-identical values
//! as one that never aborted.
//!
//! A standby that observes a failed barrier while it is being reborn cannot
//! restore anything (it has no pre-episode state): it crashes itself and
//! lets the next attempt dispatch a fresh standby. Consequently each aborted
//! attempt may consume standbys, and the strategy degrades gracefully when
//! the pool runs dry: Rebirth falls back to Migration onto the survivors
//! ("rebirth→migration"), and checkpoint recovery grafts the dead
//! partitions' snapshots onto the survivors ("checkpoint→migration") — no
//! panic, no wedged cluster.
//!
//! # Parallelism
//!
//! The heavy, *read-only* recovery phases fan out over the node's persistent
//! [`WorkerPool`] in contiguous position chunks: the Rebirth reload scan,
//! Migration's R1 promotion/purge identification and R5/R7 mirror-batch build
//! (one job per destination),
//! snapshot-chain part reads, checkpoint-fallback partition reconstruction,
//! and the sparse engine's replay recompute. Chunk results are consumed
//! strictly in submission order ([`imitator_engine::InOrder`]), which is
//! ascending position order — exactly the order the serial loops produced —
//! and **every mutation stays on the protocol thread**, so recovery is
//! bit-identical to serial execution for any thread count. Fail points and
//! barriers also never move off the protocol thread, so the PR 5 abort /
//! undo / retry machinery is untouched: at every abortable point all
//! dispatched chunks have already been drained and the local graph's
//! [`std::sync::Arc`] is uniquely held again.
//!
//! Progressive, order-dependent state stays serial by design: Migration R5's
//! mirror designation reads and updates the least-assigned counters
//! (`st.mirror_assign`) across iterations, and the sparse engine's selfish
//! recompute falls back to the serial loop whenever one selfish master feeds
//! another (see `runner_ec.rs`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use imitator_cluster::{BarrierOutcome, Envelope, FailPoint, NodeCtx, NodeId};
use imitator_engine::{chunk_ranges, CopyKind, Episode, PosSet, WorkerPool};
use imitator_graph::{Vid, VidMap};
use imitator_metrics::{
    CommKind, CommStats, PhaseTimes, RecoveryCounters, Stopwatch, SuspicionStats,
};
use imitator_storage::{epoch, EpochError, EpochKind};

use crate::driver::{
    collect_syncs, graph_mut, round_msgs, ComputeModel, Ctx, ModelGraph, Shared, St,
    RECOVERY_PATIENCE,
};
use crate::msg::{MirrorBatch, Promotion, ProtoMsg, RebirthBatch, ReplicaGrant, VertexSync};
use crate::plan::responsible_mirror;
use crate::report::RecoveryReport;
use crate::suppress::SyncFilter;
use crate::{FtMode, RecoveryStrategy};

/// One destination's mirror designations / full-state refreshes (migration
/// R5/R7).
type Mirrors<M> = MirrorBatch<<M as ComputeModel>::Value, <M as ComputeModel>::Metas>;

/// One rebirth reload-scan chunk's output: per-crashed-node entry batches
/// (indexed like the episode's `dead` slice) plus the vids this node
/// recovers as master.
type ScanChunk<M> = (Vec<Vec<<M as ComputeModel>::Entry>>, Vec<Vid>);

/// What a round sends one destination, before it is a batch: `(position of
/// the master, whether the receiver must create the copy)`, in position
/// order.
type MirrorRecords = Vec<(u32, bool)>;

/// Builds and sends every other survivor its mirror batch (migration R5/R7)
/// from `records`, indexed by destination node; a destination without
/// records gets an empty batch, pure barrier traffic. Copying whole full
/// states is the bulkiest per-vertex work in the protocol, so it fans out,
/// one job per destination: each sizes its batch from its records, once, and
/// fills it column by column.
fn ship_mirror_batches<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    pool: &WorkerPool,
    comm: &mut CommStats,
    others: &[NodeId],
    mut records: Vec<MirrorRecords>,
) {
    let me = ctx.id();
    let jobs = others
        .iter()
        .map(|n| {
            let records = std::mem::take(&mut records[n.index()]);
            let lg = Arc::clone(lg);
            let shared = Arc::clone(shared);
            Box::new(move || {
                let (g, model) = (&*lg, &shared.model);
                let at: Vec<u32> = records.iter().map(|&(pos, _)| pos).collect();
                let fresh = records.iter().enumerate().filter(|(_, &(_, fresh))| fresh);
                MirrorBatch {
                    vids: at.iter().map(|&pos| g.vid(pos)).collect(),
                    // Position is reported back in R6 for fresh replicas.
                    values: fresh
                        .map(|(i, &(pos, _))| (i as u32, g.value(pos).clone()))
                        .collect(),
                    last_activate: at.iter().map(|&pos| model.scatter_bit(g, pos)).collect(),
                    master_node: me,
                    metas: g.export_metas(&at),
                }
            }) as Box<dyn FnOnce() -> Mirrors<M> + Send>
        })
        .collect();
    for (&n, batch) in others.iter().zip(pool.dispatch(jobs)) {
        let bytes = batch.frame_bytes(|i| shared.model.meta_update_bytes(&batch.metas, i));
        comm.record(1, bytes);
        let msg = ProtoMsg::MirrorUpdate(Box::new(batch));
        ctx.send_kind(n, msg, bytes, CommKind::Recovery);
    }
}

/// The mirror batches this round's messages brought, one per sender;
/// anything else is stashed.
fn round_mirror_batches<M: ComputeModel>(ctx: &Ctx<M>, st: &mut St<M>) -> Vec<Box<Mirrors<M>>> {
    let mut batches = Vec::new();
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::MirrorUpdate(batch) => batches.push(batch),
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    batches
}

/// Makes every vertex of every batch a mirror of the sender's master,
/// holding the full state the batch brings (migration R6/R8). Every vertex
/// has a local copy by now: R6 creates the missing ones first.
fn adopt_mirror_batches<M: ComputeModel>(g: &mut M::Graph, batches: &[Box<Mirrors<M>>]) {
    let mut mirror = |batch: &Mirrors<M>, vid: Vid| {
        let pos = g.position(vid);
        let pos = pos
            .unwrap_or_else(|| panic!("mirror update for {vid}: no copy here and no value sent"));
        debug_assert!(!g.is_master(pos), "mirror update addressed to the master");
        g.set_kind(pos, CopyKind::Mirror);
        g.set_master_node(pos, batch.master_node);
        pos
    };
    let positions: Vec<Vec<u32>> = batches
        .iter()
        .map(|batch| batch.vids.iter().map(|&vid| mirror(batch, vid)).collect())
        .collect();
    let adopted = positions.iter().zip(batches);
    let adopted: Vec<(&[u32], &M::Metas)> = adopted.map(|(at, b)| (&at[..], &b.metas)).collect();
    g.adopt_metas(&adopted);
}

/// Shared migration bookkeeping, threaded through the rounds. `extra` is
/// the model's own state (the edge wiring the generic rounds don't know
/// about).
#[derive(Default)]
pub(crate) struct Mig<X> {
    /// Positions of the masters some mirror of which does not hold their
    /// current meta: R7 refreshes exactly these, in position order, and
    /// takes the set. A round that changes a master's tables inserts it; R5
    /// removes it when every mirror it has was designated there (and so was
    /// sent the final tables).
    pub dirty_masters: PosSet,
    /// Vertex copies recovered (promotions + placed replicas).
    pub recovered: u64,
    /// Edges recovered (model-wired).
    pub edges_recovered: u64,
    /// Recovery traffic sent by this node.
    pub comm: CommStats,
    /// Vertices this node promoted to master.
    pub promoted: Vec<Vid>,
    /// Model-specific round-to-round state.
    pub extra: X,
}

/// Read-only migration context handed to model hooks, with O(1) promotion
/// lookups: an episode's R2 asks "did I promote the master at this
/// position?" once per local master and "where did the consumer at this
/// vacated position go?" once per consumer link into a crashed node, so
/// both are dense tables of indices into the promotion lists rather than
/// scans or hashed `(node, position)` keys.
pub(crate) struct MigEnv<'a> {
    /// The crashed nodes.
    pub dead: &'a [NodeId],
    /// This node.
    pub me: NodeId,
    /// Promotions performed *by this node* in R1.
    own: &'a [Promotion],
    /// Every promotion in the cluster.
    all: &'a [Promotion],
    /// Local position → index into `own`.
    own_at: Vec<u32>,
    /// Per crashed node (indexed like `dead`): vacated position → index
    /// into `all`.
    vacated: Vec<Vec<u32>>,
}

/// Vacant slot of a [`MigEnv`] index table.
const NO_PROMOTION: u32 = u32::MAX;

fn index_put(table: &mut Vec<u32>, key: u32, idx: usize) {
    let key = key as usize;
    if table.len() <= key {
        table.resize(key + 1, NO_PROMOTION);
    }
    table[key] = idx as u32;
}

fn index_get<'p>(table: &[u32], key: u32, promos: &'p [Promotion]) -> Option<&'p Promotion> {
    match table.get(key as usize) {
        Some(&i) if i != NO_PROMOTION => Some(&promos[i as usize]),
        _ => None,
    }
}

impl<'a> MigEnv<'a> {
    /// Indexes `own` (this node's R1 promotions, or none under the
    /// checkpoint fallback) by the position they promoted, and `all` by the
    /// crashed `(node, position)` they vacated. Positions need not arrive
    /// sorted: adopted partitions promote into appended slots.
    pub(crate) fn new(
        dead: &'a [NodeId],
        me: NodeId,
        own: &'a [Promotion],
        all: &'a [Promotion],
    ) -> Self {
        let mut own_at = Vec::new();
        for (i, p) in own.iter().enumerate() {
            index_put(&mut own_at, p.new_pos, i);
        }
        let mut vacated = vec![Vec::new(); dead.len()];
        for (i, p) in all.iter().enumerate() {
            let d = dead.iter().position(|&d| d == p.old_node);
            debug_assert!(d.is_some(), "promotion of {} vacates a live node", p.vid);
            if let Some(d) = d {
                index_put(&mut vacated[d], p.old_pos, i);
            }
        }
        MigEnv {
            dead,
            me,
            own,
            all,
            own_at,
            vacated,
        }
    }

    /// This node's own R1 promotion of the master now at local `pos`.
    pub(crate) fn own_promotion_at(&self, pos: u32) -> Option<&Promotion> {
        index_get(&self.own_at, pos, self.own)
    }

    /// The promotion recorded for the slot `(node, old_pos)` of a crashed
    /// layout, if any — the indexed form of a `(node, position)` map lookup.
    fn promoted_from(&self, node: NodeId, old_pos: u32) -> Option<&Promotion> {
        let d = self.dead.iter().position(|&d| d == node)?;
        index_get(&self.vacated[d], old_pos, self.all)
    }

    /// Where the master that a position-addressed table still places at
    /// `(node, pos)` lives now: `None` while `node` is alive (nothing
    /// moved), its promotion when `node` crashed.
    ///
    /// # Panics
    ///
    /// Panics when `node` crashed and nothing was promoted out of `pos`: a
    /// master lost with no surviving mirror cannot be recovered.
    pub(crate) fn relocated(&self, node: NodeId, pos: u32) -> Option<&Promotion> {
        if !self.dead.contains(&node) {
            return None;
        }
        let p = self.promoted_from(node, pos);
        Some(p.unwrap_or_else(|| panic!("master at {node}:{pos} lost with no promotion")))
    }
}

/// What grafting one dead partition onto this node produced
/// (checkpoint-fallback recovery, [`ComputeModel::adopt_partition`]).
#[derive(Default)]
pub(crate) struct Adoption {
    /// Masters this node now hosts (announced cluster-wide in round 1 of
    /// the fallback).
    pub promotions: Vec<Promotion>,
    /// Adopted replica copies whose *surviving* master must learn the new
    /// location: `(master's node, vid, local position here)`.
    pub placements: Vec<(NodeId, Vid, u32)>,
    /// Local positions of adopted replica copies whose master died too —
    /// resolved against the cluster-wide promotion set in round 2.
    pub orphans: Vec<u32>,
}

// --------------------------------------------------------------------------
// Attempt plumbing: aborts, undo snapshots, fail points
// --------------------------------------------------------------------------

/// Why a recovery attempt stopped before completing.
enum Abort {
    /// A barrier inside the attempt reported further failures; every
    /// survivor restores its pre-episode state and restarts with the
    /// enlarged failure set.
    Failures(Vec<NodeId>),
    /// This node itself crashed at an injected fail point; it unwinds out
    /// of the recovery machinery and its thread exits.
    Crashed,
}

/// The result of (part of) one recovery attempt.
type Attempt<T> = Result<T, Abort>;

/// Snapshot of the shared failure detector's suspicion counters, stamped
/// onto each [`RecoveryReport`] as the episode closes. Every node snapshots
/// the same detector, so the report merge takes element-wise maxima.
fn suspicion_now<T: Send + 'static>(ctx: &NodeCtx<T>) -> SuspicionStats {
    ctx.cluster().coordinator().suspicion_stats()
}

/// Enters a barrier inside recovery; a failed outcome aborts the attempt.
/// Finding *this node* in the failure list means the detector fenced it
/// (a false suspicion that outlived the fence window): it is no longer a
/// cluster member and must unwind exactly like a crashed node.
fn barrier_ok<T: Send + 'static>(ctx: &NodeCtx<T>) -> Attempt<()> {
    match ctx.enter_barrier() {
        BarrierOutcome::Clean => Ok(()),
        BarrierOutcome::Failed(list) if list.contains(&ctx.id()) => Err(Abort::Crashed),
        BarrierOutcome::Failed(list) => Err(Abort::Failures(list)),
    }
}

/// Like [`barrier_ok`] but for the summing barrier (decision votes).
fn barrier_sum_ok<T: Send + 'static>(ctx: &NodeCtx<T>, v: u64) -> Attempt<u64> {
    match ctx.enter_barrier_sum(v) {
        (BarrierOutcome::Clean, sum) => Ok(sum),
        (BarrierOutcome::Failed(list), _) if list.contains(&ctx.id()) => Err(Abort::Crashed),
        (BarrierOutcome::Failed(list), _) => Err(Abort::Failures(list)),
    }
}

/// Consults the failure injector for a recovery-phase crash at this point;
/// on a hit the node crashes (peers detect it at their next barrier) and
/// unwinds.
fn fail_here<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Shared<M>,
    iter: u64,
    point: FailPoint,
) -> Attempt<()> {
    if shared.injector.should_fail(ctx.id(), iter, point) {
        ctx.crash();
        return Err(Abort::Crashed);
    }
    Ok(())
}

/// Everything a survivor must restore to retry a recovery attempt as if the
/// aborted one never ran: the local graph (copy kinds, metas, edge wiring,
/// appended copies) and every piece of node state the recovery paths mutate.
///
/// The node state is copied when the episode starts. The graph is undone one
/// of two ways, by what the attempt does to it:
///
/// * **Migration journals.** `migrate` opens an episode on the graph
///   ([`Undo::open_journal`], before its first `graph_mut`): the graph's
///   stores only grow from there, and its mutators save what they overwrite
///   (`imitator_engine`'s `episode` module). [`Undo::restore`] rolls the
///   episode back; success commits it. Both cost what the attempt changed —
///   a few percent of a partition — and setting up costs nothing.
/// * **Checkpoint recovery snapshots.** The two checkpoint paths roll every
///   value back and graft whole partitions: the whole graph *is* their
///   change set, so [`Undo::capture_graph`] encodes it once with the model's
///   metadata-snapshot codec, right before `ckpt_reload_survivor`, and
///   `restore` decodes.
///
/// A Rebirth attempt only reads its graph, so an episode that never degrades
/// journals and encodes nothing. Either undo takes the graph back to exactly
/// its pre-episode state, so an episode can abort any number of times.
///
/// Debug builds check the journal against the codec it replaced: `migrate`
/// *also* takes the encoded snapshot, and a rollback must leave a graph that
/// encodes to the same bytes (bytes, not `==`: programs stuck on NaN).
struct Undo {
    lg: Option<Vec<u8>>,
    #[cfg(debug_assertions)]
    oracle: Option<Vec<u8>>,
    overlay: VidMap<NodeId>,
    mirror_assign: Vec<usize>,
    alive: Vec<bool>,
    sync_filter: SyncFilter,
    dirty: HashSet<u32>,
    iter: u64,
    replay_until: u64,
    last_snapshot_iter: u64,
    suppressed_syncs: u64,
    suppressed_timeline: Vec<(u64, u64)>,
}

/// One entry per survivor per Migration attempt that reached R7: masters
/// the attempt touched (dirty at some point, or given a mirror), those of
/// them R5 took out of the dirty set and R7 did not re-mark, and the refresh
/// records R7 shipped.
#[cfg(test)]
static R7_TALLY: std::sync::Mutex<Vec<[usize; 3]>> = std::sync::Mutex::new(Vec::new());

impl Undo {
    fn capture<T>(st: &crate::rt::NodeState<T>) -> Self {
        Undo {
            lg: None,
            #[cfg(debug_assertions)]
            oracle: None,
            overlay: st.overlay.clone(),
            mirror_assign: st.mirror_assign.clone(),
            alive: st.alive.clone(),
            sync_filter: st.sync_filter.clone(),
            dirty: st.dirty.clone(),
            iter: st.iter,
            replay_until: st.replay_until,
            last_snapshot_iter: st.last_snapshot_iter,
            suppressed_syncs: st.suppressed_syncs,
            suppressed_timeline: st.suppressed_timeline.clone(),
        }
    }

    /// Opens the attempt's episode on `lg`. Must precede the attempt's
    /// first write to the graph. Returns the time it took.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn open_journal<M: ComputeModel>(&mut self, model: &M, lg: &mut M::Graph) -> Duration {
        #[cfg(debug_assertions)]
        if self.oracle.is_none() {
            self.oracle = Some(model.encode_graph(lg));
        }
        let sw = Stopwatch::start();
        lg.begin_episode();
        sw.elapsed()
    }

    /// Snapshots the pre-episode graph unless an earlier attempt of this
    /// episode already did (its abort restored `lg` to exactly that state).
    /// Must precede the attempt's first `graph_mut`. Returns the time the
    /// encode took.
    fn capture_graph<M: ComputeModel>(&mut self, model: &M, lg: &M::Graph) -> Duration {
        if self.lg.is_some() {
            return Duration::ZERO;
        }
        let sw = Stopwatch::start();
        self.lg = Some(model.encode_graph(lg));
        sw.elapsed()
    }

    fn restore<M: ComputeModel>(&self, model: &M, lg: &mut M::Graph, st: &mut St<M>) {
        match &self.lg {
            Some(bytes) => *lg = model.decode_graph(bytes),
            // No snapshot: the attempt journaled, or never wrote the graph.
            None => lg.rollback(),
        }
        #[cfg(debug_assertions)]
        if let Some(oracle) = &self.oracle {
            assert!(
                model.encode_graph(lg) == *oracle,
                "the rolled-back graph does not encode to the pre-episode snapshot"
            );
        }
        st.overlay = self.overlay.clone();
        st.mirror_assign = self.mirror_assign.clone();
        st.alive = self.alive.clone();
        st.sync_filter = self.sync_filter.clone();
        st.dirty = self.dirty.clone();
        st.iter = self.iter;
        st.replay_until = self.replay_until;
        st.last_snapshot_iter = self.last_snapshot_iter;
        st.suppressed_syncs = self.suppressed_syncs;
        st.suppressed_timeline = self.suppressed_timeline.clone();
    }
}

// --------------------------------------------------------------------------
// The episode loop
// --------------------------------------------------------------------------

/// Runs one recovery episode to completion, restarting aborted attempts
/// with the enlarged failure set until one succeeds. Returns `true` when
/// *this node* crashed at an injected recovery-phase fail point (the caller
/// must exit like any other crashed node).
///
/// The successful attempt's report is closed here, so that what the episode
/// costs outside the attempt is inside [`RecoveryReport::total`] too: the
/// model's `after_recovery` hook and letting the undo go — committing the
/// journal, freeing a snapshot — are booked to `reconstruct` (phase key
/// `after_recovery`). Time spent fencing aborted
/// attempts accumulates into the report's `fence` phase — it is wall-clock
/// the episode really cost.
pub(crate) fn recover<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    dead: &[NodeId],
    resume_iter: u64,
    pool: &WorkerPool,
) -> bool {
    if matches!(shared.cfg.ft, FtMode::None) {
        panic!("node failure injected with fault tolerance disabled");
    }
    if dead.contains(&ctx.id()) {
        // The detector fenced *us* — from the cluster's point of view this
        // node is dead and a recovery episode for it is already under way
        // elsewhere. Exit like a crash; do not fight the fence.
        return true;
    }
    let mut undo = Undo::capture(st);
    let mut episode: Vec<NodeId> = dead.to_vec();
    episode.sort_unstable();
    episode.dedup();
    let mut counters = RecoveryCounters::default();
    let mut fence_time = Duration::ZERO;
    loop {
        counters.attempts += 1;
        let attempt = match shared.cfg.ft {
            FtMode::None => unreachable!(),
            FtMode::Checkpoint { .. } => {
                ckpt_recover_survivor(ctx, lg, shared, st, &mut undo, &episode, resume_iter, pool)
            }
            FtMode::Replication {
                recovery: RecoveryStrategy::Rebirth,
                ..
            } => rebirth_survivor(ctx, lg, shared, st, &mut undo, &episode, resume_iter, pool),
            FtMode::Replication {
                recovery: RecoveryStrategy::Migration,
                ..
            } => migrate(
                ctx,
                lg,
                shared,
                st,
                &mut undo,
                &episode,
                resume_iter,
                "migration",
                pool,
            ),
        };
        match attempt {
            Ok(mut report) => {
                report.counters = counters;
                report.phases.record("fence", fence_time);
                let sw = Stopwatch::start();
                let g = graph_mut(lg);
                shared.model.after_recovery(g);
                g.commit();
                drop(undo);
                let tail = sw.elapsed();
                report.reconstruct += tail;
                report.phases.record("after_recovery", tail);
                st.recoveries.push(report);
                return false;
            }
            Err(Abort::Crashed) => return true,
            Err(Abort::Failures(new_dead)) => {
                counters.aborts += 1;
                for n in new_dead {
                    if !episode.contains(&n) {
                        episode.push(n);
                    }
                }
                episode.sort_unstable();
                undo.restore(&shared.model, graph_mut(lg), st);
                // The aborted attempt may have re-persisted load-time DFS
                // state (edge-ckpt files) from a since-reverted graph;
                // re-derive it from the restored one.
                shared.model.on_load(&**lg, shared);
                let sw = Stopwatch::start();
                let fenced_out = abort_fence(ctx, st, &mut episode);
                fence_time += sw.elapsed();
                if fenced_out {
                    return true;
                }
            }
        }
    }
}

/// Re-synchronises the survivors after an aborted attempt: discard every
/// message belonging to it (stash and queue), then loop barriers until one
/// completes clean. A barrier that reports further failures — including the
/// suicide marks of standbys dispatched for the aborted attempt — unions
/// them into the episode and tries again. All survivors observe identical
/// barrier outcomes, so they leave the fence with identical episodes.
/// Returns `true` when *this node* was fenced out mid-fence (its own ID in
/// a failure list): the caller must exit like a crashed node.
fn abort_fence<T: Send + 'static>(
    ctx: &NodeCtx<T>,
    st: &mut crate::rt::NodeState<T>,
    episode: &mut Vec<NodeId>,
) -> bool {
    st.stash.clear();
    loop {
        drop(ctx.drain());
        match ctx.enter_barrier() {
            BarrierOutcome::Clean => return false,
            BarrierOutcome::Failed(list) if list.contains(&ctx.id()) => return true,
            BarrierOutcome::Failed(list) => {
                for n in list {
                    if !episode.contains(&n) {
                        episode.push(n);
                    }
                }
                episode.sort_unstable();
            }
        }
    }
}

/// The leader's half of the standby decision: if the pool can cover the
/// whole episode, dispatch one standby per crashed identity (all or none —
/// partial dispatch would leave survivors and newbies disagreeing about the
/// protocol shape) and vote 1 into the decision barrier.
fn dispatch_vote<T: Send + 'static>(
    ctx: &NodeCtx<T>,
    st: &crate::rt::NodeState<T>,
    dead: &[NodeId],
) -> u64 {
    if ctx.id() != st.leader() {
        return 0;
    }
    let cluster = ctx.cluster();
    if cluster.coordinator().standbys_available() < dead.len() {
        return 0;
    }
    for &d in dead {
        let dispatched = cluster.dispatch_standby(d);
        debug_assert!(dispatched, "standby pool shrank under the leader");
    }
    1
}

// --------------------------------------------------------------------------
// Rebirth (§5.1)
// --------------------------------------------------------------------------

/// Classifies one position for the rebirth reload scan, appending recovery
/// entries to the per-crashed-node batches (`out` is indexed like `dead`).
/// Pure reads — runs from any worker thread; merging chunks in submission
/// order reproduces the serial ascending-position scan exactly.
#[allow(clippy::too_many_arguments)]
fn scan_position<M: ComputeModel>(
    lg: &M::Graph,
    shared: &Shared<M>,
    dead: &[NodeId],
    alive: &[bool],
    me: NodeId,
    pos: u32,
    out: &mut [Vec<M::Entry>],
    promoted: &mut Vec<Vid>,
) {
    match lg.kind(pos) {
        CopyKind::Master => {
            let meta = lg
                .meta(pos)
                .unwrap_or_else(|| panic!("master {} has no full state", lg.vid(pos)));
            for (i, &d) in dead.iter().enumerate() {
                if let Some(rpos) = meta.replica_position_on(d) {
                    let kind = if meta.mirror_nodes().contains(&d) {
                        CopyKind::Mirror
                    } else {
                        CopyKind::Replica
                    };
                    out[i].push(shared.model.replica_entry(lg, pos, d, rpos, kind));
                }
            }
        }
        CopyKind::Mirror => {
            let master = lg.master_node(pos);
            let Some(mi) = dead.iter().position(|&d| d == master) else {
                return;
            };
            let meta = lg
                .meta(pos)
                .unwrap_or_else(|| panic!("mirror {} has no full state", lg.vid(pos)));
            if responsible_mirror(meta, alive) != Some(me) {
                return;
            }
            // Recover the master at its original position...
            out[mi].push(shared.model.master_entry(lg, pos));
            promoted.push(lg.vid(pos));
            // ...and, under multiple failures, any of its replicas lost
            // on *other* crashed nodes.
            for (i, &d) in dead.iter().enumerate() {
                if d == master {
                    continue;
                }
                if let Some(rpos) = meta.replica_position_on(d) {
                    let kind = if meta.mirror_nodes().contains(&d) {
                        CopyKind::Mirror
                    } else {
                        CopyKind::Replica
                    };
                    out[i].push(shared.model.replica_entry(lg, pos, d, rpos, kind));
                }
            }
        }
        CopyKind::Replica => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn rebirth_survivor<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    undo: &mut Undo,
    dead: &[NodeId],
    resume_iter: u64,
    pool: &WorkerPool,
) -> Attempt<RecoveryReport> {
    let me = ctx.id();
    let survivors = st.mark_dead(dead);
    let num_survivors = survivors.len() as u32;

    // Decision barrier (doubles as the newbies' membership barrier): the
    // leader dispatches hot standbys for the whole episode — before
    // entering, so the barrier cannot complete without the newbies — and
    // announces the outcome as a vote. An empty pool degrades to Migration
    // onto the survivors instead of wedging the cluster.
    let vote = dispatch_vote(ctx, st, dead);
    if barrier_sum_ok(ctx, vote)? == 0 {
        return migrate(
            ctx,
            lg,
            shared,
            st,
            undo,
            dead,
            resume_iter,
            "rebirth→migration",
            pool,
        );
    }
    fail_here(ctx, shared, resume_iter, FailPoint::RebirthReload)?;

    // Reloading (§5.1.1): scan local masters and mirrors, build one batch
    // per crashed node. The responsible mirror (first surviving node in
    // mirror-ID order) recovers the master; every master recovers its own
    // lost replicas. The scan is pure reads over a stable failure set, so
    // it fans out in position chunks; chunks merge in submission order,
    // keeping every batch in the serial ascending-position order.
    let mut phases = PhaseTimes::new();
    let sw = Stopwatch::start();
    let dead_v: Arc<Vec<NodeId>> = Arc::new(dead.to_vec());
    let alive_v: Arc<Vec<bool>> = Arc::new(st.alive.clone());
    let jobs = chunk_ranges(lg.len(), pool.threads())
        .into_iter()
        .map(|r| {
            let lg = Arc::clone(lg);
            let shared = Arc::clone(shared);
            let dead = Arc::clone(&dead_v);
            let alive = Arc::clone(&alive_v);
            Box::new(move || {
                let mut out: Vec<Vec<M::Entry>> = dead.iter().map(|_| Vec::new()).collect();
                let mut promoted = Vec::new();
                for pos in r.start as u32..r.end as u32 {
                    scan_position::<M>(
                        &lg,
                        &shared,
                        &dead,
                        &alive,
                        me,
                        pos,
                        &mut out,
                        &mut promoted,
                    );
                }
                (out, promoted)
            }) as Box<dyn FnOnce() -> ScanChunk<M> + Send>
        })
        .collect();
    let mut batches: Vec<Vec<M::Entry>> = dead.iter().map(|_| Vec::new()).collect();
    let mut promoted: Vec<Vid> = Vec::new();
    for (chunk, promo) in pool.dispatch(jobs) {
        for (b, c) in batches.iter_mut().zip(chunk) {
            b.extend(c);
        }
        promoted.extend(promo);
    }
    let mut recovered = 0u64;
    let mut recovered_edges = 0u64;
    let mut comm = CommStats::default();
    // Every crashed node gets a batch, even an empty one — the newbie
    // counts `num_survivors` batches before it considers itself reloaded.
    for (i, entries) in batches.into_iter().enumerate() {
        let d = dead[i];
        recovered += entries.len() as u64;
        recovered_edges += entries
            .iter()
            .map(|e| shared.model.entry_edges(e))
            .sum::<u64>();
        let bytes: u64 = entries
            .iter()
            .map(|e| shared.model.entry_wire_bytes(e))
            .sum();
        comm.record(1, bytes);
        ctx.send_kind(
            d,
            ProtoMsg::Rebirth(Box::new(RebirthBatch {
                resume_iter,
                num_survivors,
                entries,
            })),
            bytes,
            CommKind::Recovery,
        );
    }
    let reload = sw.elapsed();
    phases.record("reload", reload);
    let sw = Stopwatch::start();
    barrier_ok(ctx)?;
    phases.record("fence", sw.elapsed());

    // Membership restored: the newbies carry the crashed identities.
    for d in dead {
        st.alive[d.index()] = true;
    }
    promoted.sort_unstable();
    let mut contacted = dead.to_vec();
    contacted.sort_unstable();
    Ok(RecoveryReport {
        strategy: "rebirth",
        failed_nodes: dead.len(),
        reload,
        reconstruct: Duration::ZERO,
        replay: Duration::ZERO,
        vertices_recovered: recovered,
        edges_recovered: recovered_edges,
        comm,
        promoted,
        contacted,
        counters: RecoveryCounters::default(),
        phases,
        suspicion: suspicion_now(ctx),
        journal_bytes: 0,
    })
}

/// A newbie reconstructing a crashed identity: receive one batch from every
/// survivor (placement is position-addressed, so reconstruction happens on
/// the fly, §5.1.2), reload any model-specific extra state, validate, and
/// replay (§5.1.3). Replay runs the model's fan-out on the newbie's own
/// worker pool (the graph travels behind an `Arc` that is uniquely held
/// again once the replay's chunks are drained).
///
/// Returns `None` when the attempt aborted: the newbie has no pre-episode
/// state to restore, so it crashes itself (suicide-on-abort) and the next
/// attempt consumes a fresh standby. It detects aborts two ways — a failed
/// barrier, or (while blocked waiting for batches a crashed survivor will
/// never send) the coordinator reporting an unrecovered failure, upon which
/// it joins the survivors' next barrier to observe the failure officially.
pub(crate) fn rebirth_newbie<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    pool: &WorkerPool,
) -> Option<M::Graph> {
    let me = ctx.id();
    // Membership barrier (the survivors' decision barrier).
    if let BarrierOutcome::Failed(_) = ctx.enter_barrier() {
        ctx.crash();
        return None;
    }

    let mut phases = PhaseTimes::new();
    let sw = Stopwatch::start();
    let mut lg = shared.model.empty_graph(me);
    let mut got = 0u32;
    let mut expected: Option<u32> = None;
    let mut resume_iter = 0u64;
    let mut first_batch = true;
    let deadline = Instant::now() + RECOVERY_PATIENCE;
    while expected.is_none_or(|e| got < e) {
        let Some(env) = ctx.recv_timeout(Duration::from_millis(1)) else {
            if ctx.cluster().coordinator().has_unrecovered_failure() {
                // A survivor crashed mid-attempt; its batch will never
                // arrive. Enter the barrier the survivors are converging on
                // (it must report the failure) and abort with them.
                ctx.enter_barrier();
                ctx.crash();
                return None;
            }
            assert!(
                Instant::now() < deadline,
                "rebirth batch from survivor (recovery wedged)"
            );
            continue;
        };
        match env.msg {
            ProtoMsg::Rebirth(batch) => {
                expected = Some(batch.num_survivors);
                resume_iter = batch.resume_iter;
                got += 1;
                for e in batch.entries {
                    shared.model.insert_entry(&mut lg, e);
                }
                if first_batch {
                    first_batch = false;
                    if shared
                        .injector
                        .should_fail(me, resume_iter, FailPoint::RebirthReload)
                    {
                        ctx.crash();
                        return None;
                    }
                }
            }
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    shared.model.rebirth_reload_extra(&mut lg, shared);
    let reload = sw.elapsed();
    phases.record("reload", reload);

    if shared
        .injector
        .should_fail(me, resume_iter, FailPoint::RebirthReconstruct)
    {
        ctx.crash();
        return None;
    }

    // Reconstruction is implicit; validate the rebuilt layout, then run the
    // model's replay (activation fix-ups for the sparse engine; the dense
    // engine's next apply refreshes everything, so its replay is zero).
    let mut sw = Stopwatch::start();
    shared.model.validate(&lg);
    let reconstruct = sw.lap();
    phases.record("reconstruct", reconstruct);
    if shared
        .injector
        .should_fail(me, resume_iter, FailPoint::RebirthReplay)
    {
        ctx.crash();
        return None;
    }
    let mut lg = Arc::new(lg);
    let replay = if shared
        .model
        .rebirth_replay(&mut lg, shared, resume_iter, pool)
    {
        sw.lap()
    } else {
        Duration::ZERO
    };
    phases.record("replay", replay);

    let (vertices, edges) = shared.model.graph_stats(&lg);
    st.iter = resume_iter;
    // Reconstruction barrier: only a clean outcome makes the rebirth real.
    let sw = Stopwatch::start();
    if let BarrierOutcome::Failed(_) = ctx.enter_barrier() {
        ctx.crash();
        return None;
    }
    phases.record("fence", sw.elapsed());
    st.recoveries.push(RecoveryReport {
        strategy: "rebirth",
        failed_nodes: 1,
        reload,
        reconstruct,
        replay,
        vertices_recovered: vertices,
        edges_recovered: edges,
        comm: CommStats::default(),
        promoted: Vec::new(),
        contacted: Vec::new(),
        counters: RecoveryCounters {
            attempts: 1,
            aborts: 0,
        },
        phases,
        suspicion: suspicion_now(ctx),
        journal_bytes: 0,
    });
    let lg =
        Arc::try_unwrap(lg).unwrap_or_else(|_| panic!("newbie graph still shared by pool workers"));
    Some(lg)
}

// --------------------------------------------------------------------------
// Migration (§5.2): eight barrier-separated rounds
// --------------------------------------------------------------------------

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn migrate<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    undo: &mut Undo,
    dead: &[NodeId],
    resume_iter: u64,
    strategy: &'static str,
    pool: &WorkerPool,
) -> Attempt<RecoveryReport> {
    let me = ctx.id();
    let survivors = st.mark_dead(dead);
    let others: Vec<NodeId> = survivors.iter().copied().filter(|&n| n != me).collect();
    let tolerance = match shared.cfg.ft {
        FtMode::Replication { tolerance, .. } => tolerance,
        _ => unreachable!("migrate requires replication FT"),
    };
    let mut mig: Mig<M::MigExtra> = Mig::default();
    let mut phases = PhaseTimes::new();
    let sw_total = Stopwatch::start();
    // Every round below rewrites the graph: journal from here on.
    let opened = undo.open_journal(&shared.model, graph_mut(lg));
    phases.record("undo_capture", opened);
    let mut sw_round = Stopwatch::start();

    // ---- R1: promote local mirrors whose master died (the responsible
    //      mirror wins), purge crashed locations, announce promotions.
    //      Identification is a pure scan of the pre-round graph, so it fans
    //      out in position chunks; the mutations replay the merged hit
    //      lists on the protocol thread in ascending position order —
    //      exactly the serial single-pass order (a position is classified
    //      once, against its pre-round state, in both versions).
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(1))?;
    let dead_v: Arc<Vec<NodeId>> = Arc::new(dead.to_vec());
    let alive_v: Arc<Vec<bool>> = Arc::new(st.alive.clone());
    let jobs = chunk_ranges(lg.len(), pool.threads())
        .into_iter()
        .map(|r| {
            let lg = Arc::clone(lg);
            let dead = Arc::clone(&dead_v);
            let alive = Arc::clone(&alive_v);
            Box::new(move || {
                let mut promos: Vec<u32> = Vec::new();
                let mut purges: Vec<u32> = Vec::new();
                for pos in r.start as u32..r.end as u32 {
                    match lg.kind(pos) {
                        CopyKind::Mirror if dead.contains(&lg.master_node(pos)) => {
                            let meta = lg.meta(pos).unwrap_or_else(|| {
                                panic!("mirror {} has no full state", lg.vid(pos))
                            });
                            if responsible_mirror(meta, &alive) == Some(me) {
                                promos.push(pos);
                            }
                        }
                        CopyKind::Master => {
                            let meta = lg.meta(pos).unwrap_or_else(|| {
                                panic!("master {} has no full state", lg.vid(pos))
                            });
                            // Equivalent to the serial before/after length
                            // check: purging changes the tables iff some
                            // crashed node appears in them.
                            if dead.iter().any(|d| {
                                meta.replica_nodes().contains(d) || meta.mirror_nodes().contains(d)
                            }) {
                                purges.push(pos);
                            }
                        }
                        _ => {}
                    }
                }
                (promos, purges)
            }) as Box<dyn FnOnce() -> (Vec<u32>, Vec<u32>) + Send>
        })
        .collect();
    let mut promo_pos: Vec<u32> = Vec::new();
    let mut purge_pos: Vec<u32> = Vec::new();
    for (p, q) in pool.dispatch(jobs) {
        promo_pos.extend(p);
        purge_pos.extend(q);
    }
    let mut promotions: Vec<Promotion> = Vec::new();
    let g = graph_mut(lg);
    for pos in promo_pos {
        let vid = g.vid(pos);
        let old_node = g.master_node(pos);
        let old_pos = g
            .meta(pos)
            .unwrap_or_else(|| panic!("mirror {vid} has no full state"))
            .master_pos();
        g.set_kind(pos, CopyKind::Master);
        g.set_master_node(pos, me);
        let meta = g
            .meta_mut(pos)
            .unwrap_or_else(|| panic!("promoted mirror {vid} at position {pos} has no full state"));
        meta.set_master_pos(pos);
        meta.purge_node(me);
        for &d in dead {
            meta.purge_node(d);
        }
        shared.model.on_promote(g, pos, &mut mig);
        promotions.push(Promotion {
            vid,
            new_master: me,
            new_pos: pos,
            old_node,
            old_pos,
        });
        mig.dirty_masters.insert(pos);
        mig.promoted.push(vid);
        st.overlay.insert(vid, me);
        mig.recovered += 1;
    }
    for pos in purge_pos {
        // Purge crashed replica locations from the location tables.
        let vid = g.vid(pos);
        let meta = g
            .meta_mut(pos)
            .unwrap_or_else(|| panic!("master {vid} has no full state"));
        for &d in dead {
            meta.purge_node(d);
        }
        mig.dirty_masters.insert(pos);
    }
    for &n in &others {
        let bytes = (promotions.len() * 20) as u64;
        mig.comm.record(1, bytes);
        ctx.send_kind(
            n,
            ProtoMsg::Promote(promotions.clone()),
            bytes,
            CommKind::Recovery,
        );
    }
    barrier_ok(ctx)?;
    phases.record("migration_round1", sw_round.lap());

    // ---- R2: apply promotions everywhere; let the model fix its location
    //      tables and compute the replica requests it must send.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(2))?;
    let mut all_promos: Vec<Promotion> = promotions.clone();
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::Promote(batch) => all_promos.extend(batch),
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    let g = graph_mut(lg);
    for p in &all_promos {
        st.overlay.insert(p.vid, p.new_master);
        if p.new_master == me {
            continue; // own promotions already fixed in R1
        }
        if let Some(pos) = g.position(p.vid) {
            g.set_master_node(pos, p.new_master);
            if let Some(meta) = g.meta_mut(pos) {
                meta.set_master_pos(p.new_pos);
                for &d in dead {
                    meta.purge_node(d);
                }
                meta.purge_node(p.new_master);
            }
        }
    }
    let menv = MigEnv::new(dead, me, &promotions, &all_promos);
    let mut requests = shared
        .model
        .migration_requests(g, shared, st, &mut mig, &menv);
    for &n in &others {
        let req = requests.remove(&n).unwrap_or_default();
        let bytes = (req.len() * 4) as u64;
        mig.comm.record(1, bytes);
        ctx.send_kind(n, ProtoMsg::ReplicaRequest(req), bytes, CommKind::Recovery);
    }
    barrier_ok(ctx)?;
    phases.record("migration_round2", sw_round.lap());

    // ---- R3: grant requested replicas.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(3))?;
    let mut grants: HashMap<NodeId, Vec<ReplicaGrant<M::Value>>> = HashMap::new();
    let g = graph_mut(lg);
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::ReplicaRequest(req) => {
                for vid in req {
                    let pos = g
                        .position(vid)
                        .unwrap_or_else(|| panic!("request for {vid} but no copy on {me}"));
                    debug_assert!(g.is_master(pos), "replica request routed to non-master");
                    grants.entry(env.from).or_default().push(ReplicaGrant {
                        vid,
                        value: g.value(pos).clone(),
                        last_activate: shared.model.scatter_bit(g, pos),
                        master_node: me,
                    });
                }
            }
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    for &n in &others {
        let gr = grants.remove(&n).unwrap_or_default();
        let bytes: u64 = gr
            .iter()
            .map(|x| 16 + shared.model.value_wire_bytes(&x.value) as u64)
            .sum();
        mig.comm.record(1, bytes);
        ctx.send_kind(n, ProtoMsg::ReplicaGrant(gr), bytes, CommKind::Recovery);
    }
    barrier_ok(ctx)?;
    phases.record("migration_round3", sw_round.lap());
    // Reload (identify, request, grant) ends here; R4-R8 reconstruct.
    let reload = sw_total.elapsed();

    // ---- R4: place granted replicas, let the model wire edges (promoted
    //      masters' in-edges / adopted edge-ckpt edges), report placements.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(4))?;
    let mut placements: HashMap<NodeId, Vec<(Vid, u32)>> = HashMap::new();
    let g = graph_mut(lg);
    // Placement appends to the local graph, and those positions later feed
    // the delta-encoded position columns of sync frames — so the order must
    // not depend on which granting node's message arrived first. Collect
    // every grant, then place in vid order.
    let mut grants: Vec<ReplicaGrant<M::Value>> = Vec::new();
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::ReplicaGrant(gs) => grants.extend(gs),
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    grants.sort_unstable_by_key(|gr| gr.vid);
    for gr in grants {
        debug_assert!(
            g.position(gr.vid).is_none(),
            "duplicate grant for {}",
            gr.vid
        );
        let vid = gr.vid;
        let master_node = gr.master_node;
        let pos = shared.model.place_granted(g, gr);
        placements.entry(master_node).or_default().push((vid, pos));
        mig.recovered += 1;
    }
    shared.model.migration_wire(g, &mut mig, resume_iter);
    for &n in &others {
        let p = placements.remove(&n).unwrap_or_default();
        let bytes = (p.len() * 8) as u64;
        mig.comm.record(1, bytes);
        ctx.send_kind(n, ProtoMsg::ReplicaPlaced(p), bytes, CommKind::Recovery);
    }
    barrier_ok(ctx)?;
    phases.record("migration_round4", sw_round.lap());

    // ---- R5: record placements; restore the fault-tolerance level by
    //      designating replacement mirrors (§5.2.1), creating fresh FT
    //      replicas where no replica is available. This round stays serial:
    //      each designation reads and bumps the least-assigned counters
    //      (`st.mirror_assign`), so later choices depend on earlier ones.
    //      A new mirror's full state travels here and only here: a master's
    //      updates are built once its designations are final, so each carries
    //      the final tables, and a master all of whose mirrors are new leaves
    //      the dirty set — R7 has nothing to add for it unless a fresh
    //      replica's position, registered there, re-marks it.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(5))?;
    let g = graph_mut(lg);
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::ReplicaPlaced(ps) => {
                for (vid, pos) in ps {
                    let mpos = g.position(vid).expect("placement for unknown master");
                    debug_assert!(g.is_master(mpos));
                    g.meta_mut(mpos)
                        .unwrap_or_else(|| {
                            panic!("master {vid} has no full state to register a replica")
                        })
                        .register_replica(env.from, pos);
                    mig.dirty_masters.insert(mpos);
                }
            }
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    // The FT level cannot exceed the surviving cluster's capacity: each
    // mirror needs a distinct node other than the master's.
    let restorable = tolerance.min(survivors.len().saturating_sub(1));
    let mut designations: Vec<MirrorRecords> = vec![Vec::new(); shared.cfg.num_nodes];
    // This master's designations: (target, whether its replica is fresh).
    let mut designated: Vec<(NodeId, bool)> = Vec::new();
    #[cfg(test)]
    let mut spared: Vec<u32> = Vec::new();
    for pos in 0..g.len() as u32 {
        if !g.is_master(pos) {
            continue;
        }
        let meta = g.meta(pos).unwrap_or_else(|| {
            let vid = g.vid(pos);
            panic!("master {vid} has no full state to designate a mirror")
        });
        // Only a master short of mirrors is written to (and journaled).
        if meta.mirror_nodes().len() >= restorable {
            continue;
        }
        let meta = g.meta_mut(pos).expect("full state checked above");
        designated.clear();
        while meta.mirror_nodes().len() < restorable {
            // Prefer upgrading an existing replica; otherwise create a new
            // FT replica on the least-assigned survivor.
            let candidate = meta
                .replica_nodes()
                .iter()
                .copied()
                .filter(|n| !meta.mirror_nodes().contains(n))
                .min_by_key(|n| (st.mirror_assign[n.index()], n.index()));
            let (target, fresh) = match candidate {
                Some(n) => (n, false),
                None => {
                    let n = survivors
                        .iter()
                        .copied()
                        .filter(|&n| {
                            n != me
                                && !meta.replica_nodes().contains(&n)
                                && !meta.mirror_nodes().contains(&n)
                        })
                        .min_by_key(|n| (st.mirror_assign[n.index()], n.index()))
                        .expect("enough survivors to restore the FT level");
                    (n, true)
                }
            };
            st.mirror_assign[target.index()] += 1;
            meta.add_mirror(target);
            designated.push((target, fresh));
        }
        if designated.len() == meta.mirror_nodes().len() {
            mig.dirty_masters.remove(pos);
            #[cfg(test)]
            spared.push(pos);
        } else {
            mig.dirty_masters.insert(pos);
        }
        for &(target, fresh) in &designated {
            designations[target.index()].push((pos, fresh));
        }
    }
    ship_mirror_batches(ctx, lg, shared, pool, &mut mig.comm, &others, designations);
    barrier_ok(ctx)?;
    phases.record("migration_round5", sw_round.lap());

    // ---- R6: adopt mirror designations; report fresh FT-replica positions.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(6))?;
    let mut fresh_placements: HashMap<NodeId, Vec<(Vid, u32)>> = HashMap::new();
    let mut batches = round_mirror_batches::<M>(ctx, st);
    let g = graph_mut(lg);
    // Same arrival-order hazard as R4: fresh mirrors append to the local
    // graph, so collect them across senders and place in vid order. Each
    // starts as the replica a grant would have placed; adopting its batch
    // below makes it a mirror.
    let mut fresh: Vec<ReplicaGrant<M::Value>> = Vec::new();
    for batch in &mut batches {
        for (record, value) in batch.values.drain(..) {
            let vid = batch.vids[record as usize];
            if g.position(vid).is_none() {
                fresh.push(ReplicaGrant {
                    vid,
                    value,
                    last_activate: batch.last_activate[record as usize],
                    master_node: batch.master_node,
                });
            }
        }
    }
    fresh.sort_unstable_by_key(|gr| gr.vid);
    for gr in fresh {
        let (vid, master_node) = (gr.vid, gr.master_node);
        let pos = shared.model.place_granted(g, gr);
        fresh_placements
            .entry(master_node)
            .or_default()
            .push((vid, pos));
    }
    adopt_mirror_batches::<M>(g, &batches);
    for &n in &others {
        let p = fresh_placements.remove(&n).unwrap_or_default();
        let bytes = (p.len() * 8) as u64;
        mig.comm.record(1, bytes);
        ctx.send_kind(n, ProtoMsg::ReplicaPlaced(p), bytes, CommKind::Recovery);
    }
    barrier_ok(ctx)?;
    phases.record("migration_round6", sw_round.lap());

    // ---- R7: register fresh placements; push the final full state to every
    //      mirror of each master still dirty — one whose mirror predates the
    //      episode and has not seen this episode's table changes, or whose
    //      tables moved after R5 (a fresh replica's position, registered
    //      just below). Masters whose every mirror received the final state
    //      in R5 are not in the set, which is walked in position order.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(7))?;
    {
        let g = graph_mut(lg);
        for env in round_msgs::<M>(ctx, st) {
            match env.msg {
                ProtoMsg::ReplicaPlaced(ps) => {
                    for (vid, pos) in ps {
                        let mpos = g.position(vid).expect("placement for unknown master");
                        g.meta_mut(mpos)
                            .unwrap_or_else(|| {
                                panic!("master {vid} has no full state to register a replica")
                            })
                            .register_replica(env.from, pos);
                        mig.dirty_masters.insert(mpos);
                    }
                }
                other => st.stash.push(Envelope {
                    from: env.from,
                    msg: other,
                }),
            }
        }
    }
    let dirty = std::mem::take(&mut mig.dirty_masters);
    let mut refreshes: Vec<MirrorRecords> = vec![Vec::new(); shared.cfg.num_nodes];
    for pos in dirty.iter().filter(|&pos| lg.is_master(pos)) {
        let meta = lg
            .meta(pos)
            .unwrap_or_else(|| panic!("master {} has no full state", lg.vid(pos)));
        for &m in meta.mirror_nodes() {
            refreshes[m.index()].push((pos, false));
        }
    }
    #[cfg(test)]
    {
        spared.retain(|&pos| !dirty.contains(pos));
        let records = refreshes.iter().map(Vec::len).sum();
        let touched = dirty.len() + spared.len();
        let mut tally = R7_TALLY.lock().unwrap_or_else(|e| e.into_inner());
        tally.push([touched, spared.len(), records]);
    }
    ship_mirror_batches(ctx, lg, shared, pool, &mut mig.comm, &others, refreshes);
    barrier_ok(ctx)?;
    phases.record("migration_round7", sw_round.lap());

    // ---- R8: adopt refreshed metas; let the model re-persist invalidated
    //      state; leader acknowledges the recovery.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(8))?;
    let batches = round_mirror_batches::<M>(ctx, st);
    let g = graph_mut(lg);
    adopt_mirror_batches::<M>(g, &batches);
    shared.model.migration_finish(g, shared, &mig);
    if me == st.leader() {
        for &d in dead {
            ctx.cluster().coordinator().ack_recovered(d);
        }
    }
    barrier_ok(ctx)?;
    phases.record("migration_round8", sw_round.lap());

    let Mig {
        recovered,
        edges_recovered,
        comm,
        mut promoted,
        ..
    } = mig;
    promoted.sort_unstable();
    Ok(RecoveryReport {
        strategy,
        failed_nodes: dead.len(),
        reload,
        reconstruct: sw_total.elapsed() - reload,
        replay: Duration::ZERO,
        vertices_recovered: recovered,
        edges_recovered,
        comm,
        promoted,
        contacted: others,
        counters: RecoveryCounters::default(),
        phases,
        suspicion: suspicion_now(ctx),
        journal_bytes: lg.journal_bytes() as u64,
    })
}

// --------------------------------------------------------------------------
// Checkpoint recovery (§2.2-2.3)
// --------------------------------------------------------------------------

/// Rolls a survivor back to its newest recoverable snapshot state and
/// returns the iteration the graph now sits at.
///
/// Incremental mode rewinds to the initial state and applies the complete
/// snapshot chain (base full epoch + later deltas; see
/// [`epoch::recovery_chain`]). Full mode applies only the newest complete
/// epoch. When no complete epoch exists yet, recovery restarts from the
/// initial state — in both modes the masters then no longer hold their
/// last-shipped values, so the suppression filter's entries describe
/// nothing anymore and are cleared. A full snapshot restores masters only;
/// surviving replicas keep exactly the state our last syncs installed, so
/// the filter stays valid toward survivors and only the crashed
/// destinations are invalidated (their replacements are rebuilt from
/// snapshots — everything must be re-shipped there).
#[allow(clippy::too_many_arguments)]
fn ckpt_reload_survivor<M: ComputeModel>(
    lg: &mut Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    dead: &[NodeId],
    me: NodeId,
    incremental: bool,
    pool: &WorkerPool,
) -> u64 {
    let snap_iter = if incremental {
        let g = graph_mut(lg);
        shared.model.reset_to_initial(g, shared);
        st.sync_filter.clear();
        apply_snapshot_chain::<M>(g, shared, me, Some(pool))
    } else {
        match epoch::recovery_chain(&shared.dfs, M::PREFIX, me.raw()) {
            Err(_) => {
                shared.model.reset_to_initial(graph_mut(lg), shared);
                st.sync_filter.clear();
                0
            }
            Ok(chain) => {
                for &d in dead {
                    st.sync_filter.invalidate_dest(d);
                }
                // Full mode writes only full epochs, so the chain is the
                // newest complete epoch alone.
                let &(e, _) = chain.epochs.last().expect("recovery chain is never empty");
                let bytes = epoch::read_verified(&shared.dfs, M::PREFIX, e, me.raw())
                    .expect("rostered part verified");
                shared.model.apply_snapshot(graph_mut(lg), &bytes)
            }
        }
    };
    st.dirty.clear();
    st.last_snapshot_iter = snap_iter;
    snap_iter
}

#[allow(clippy::too_many_arguments)]
fn ckpt_recover_survivor<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    undo: &mut Undo,
    dead: &[NodeId],
    resume_iter: u64,
    pool: &WorkerPool,
) -> Attempt<RecoveryReport> {
    let me = ctx.id();
    let survivors = st.mark_dead(dead);

    // Decision barrier (doubles as the newbies' membership barrier). An
    // exhausted standby pool grafts the dead partitions' snapshots onto the
    // survivors instead of panicking.
    let vote = dispatch_vote(ctx, st, dead);
    if barrier_sum_ok(ctx, vote)? == 0 {
        return ckpt_fallback(
            ctx,
            lg,
            shared,
            st,
            undo,
            dead,
            resume_iter,
            &survivors,
            pool,
        );
    }
    fail_here(ctx, shared, resume_iter, FailPoint::RebirthReload)?;

    // Reload: every node (survivors too) rolls back to the newest *sealed,
    // roster-complete* epoch — a crash mid-checkpoint leaves a torn part
    // behind, and a torn epoch must never be loaded. For incremental mode,
    // roll back to the initial state plus the complete snapshot chain.
    let mut phases = PhaseTimes::new();
    let sw = Stopwatch::start();
    let incremental = matches!(
        shared.cfg.ft,
        FtMode::Checkpoint {
            incremental: true,
            ..
        }
    );
    // The rollback rewrites the graph: snapshot it for undo first.
    let captured = undo.capture_graph(&shared.model, lg);
    phases.record("undo_capture", captured);
    let snap_iter = ckpt_reload_survivor(lg, shared, st, dead, me, incremental, pool);
    let reload = sw.elapsed();
    phases.record("reload", reload - captured);
    let sw = Stopwatch::start();
    barrier_ok(ctx)?;
    phases.record("fence", sw.elapsed());

    // Reconstruct: replica values are not in snapshots; masters rebroadcast.
    let sw = Stopwatch::start();
    ckpt_full_sync(ctx, graph_mut(lg), shared, st)?;
    let reconstruct = sw.elapsed();
    phases.record("reconstruct", reconstruct);

    st.iter = snap_iter;
    st.replay_until = resume_iter;
    for d in dead {
        st.alive[d.index()] = true;
    }
    Ok(RecoveryReport {
        strategy: "checkpoint",
        failed_nodes: dead.len(),
        reload,
        reconstruct,
        replay: Duration::ZERO, // accumulated as lost iterations re-run
        vertices_recovered: lg.num_masters() as u64,
        edges_recovered: 0,
        comm: CommStats::default(),
        promoted: Vec::new(),
        contacted: Vec::new(),
        counters: RecoveryCounters::default(),
        phases,
        suspicion: suspicion_now(ctx),
        journal_bytes: 0,
    })
}

/// Checkpoint recovery without standbys: the survivors adopt the dead
/// partitions wholesale from the DFS. Three barrier-separated graft rounds
/// (reusing the Migration round-1..3 fail points), then the usual full-sync.
///
/// Round 1 — every survivor rolls back to the snapshot epoch; the
/// round-robin adopter of each dead partition reconstructs it from the dead
/// node's metadata snapshot plus its snapshot chain (exactly what a standby
/// would have done) and grafts it into its own graph via
/// [`ComputeModel::adopt_partition`]; promotions are announced. An adopter
/// of several partitions reconstructs them concurrently on the worker pool
/// (each reconstruction reads and decodes an independent dead graph); the
/// grafts themselves replay serially in partition order.
/// Round 2 — promotions are applied everywhere, adopted copies whose master
/// also died are re-pointed at the promoted location, and position-addressed
/// consumer tables are rewritten ([`ComputeModel::migration_requests`] with
/// an empty promotion set of our own — under checkpoint FT every adopted
/// master arrives complete, so no replica requests are generated).
/// Round 3 — replica placements are registered with their surviving
/// masters and the leader acknowledges the episode; the closing full-sync
/// then refreshes every (old and adopted) replica from its master's
/// rolled-back value. Finally each survivor re-persists its metadata
/// snapshot: its layout grew, and a *later* episode must be able to
/// reconstruct it including the adopted positions.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn ckpt_fallback<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut Arc<M::Graph>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    undo: &mut Undo,
    dead: &[NodeId],
    resume_iter: u64,
    survivors: &[NodeId],
    pool: &WorkerPool,
) -> Attempt<RecoveryReport> {
    let me = ctx.id();
    let others: Vec<NodeId> = survivors.iter().copied().filter(|&n| n != me).collect();
    let incremental = matches!(
        shared.cfg.ft,
        FtMode::Checkpoint {
            incremental: true,
            ..
        }
    );
    // Deterministic round-robin assignment of dead partitions to adopters.
    let my_partitions: Vec<NodeId> = dead
        .iter()
        .enumerate()
        .filter(|(i, _)| survivors[i % survivors.len()] == me)
        .map(|(_, &d)| d)
        .collect();
    let adopter = !my_partitions.is_empty();
    let mut mig: Mig<M::MigExtra> = Mig::default();
    let mut phases = PhaseTimes::new();
    let mut sw_round = Stopwatch::start();

    // ---- Round 1: roll back, graft assigned dead partitions, announce.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(1))?;
    let sw = Stopwatch::start();
    // The rollback and the grafts rewrite the graph: snapshot it for undo.
    let captured = undo.capture_graph(&shared.model, lg);
    phases.record("undo_capture", captured);
    let snap_iter = ckpt_reload_survivor(lg, shared, st, dead, me, incremental, pool);
    {
        // The dead nodes are gone for good: purge them from every
        // pre-existing master's replica tables (the adopters purge their
        // grafted masters' tables inside `adopt_partition`).
        let g = graph_mut(lg);
        for pos in 0..g.len() as u32 {
            if !g.is_master(pos) {
                continue;
            }
            let vid = g.vid(pos);
            let meta = g
                .meta_mut(pos)
                .unwrap_or_else(|| panic!("master {vid} has no full state"));
            for &d in dead {
                meta.purge_node(d);
            }
        }
    }
    let reload = sw.elapsed();
    phases.record("reload", reload - captured);
    let sw = Stopwatch::start();
    let mut promotions: Vec<Promotion> = Vec::new();
    let mut placements: Vec<(NodeId, Vid, u32)> = Vec::new();
    let mut orphans: Vec<u32> = Vec::new();
    // Reconstructing a dead partition is self-contained DFS reads + decode;
    // fan the assigned partitions out, then graft serially in the same
    // deterministic order. Each job applies its own snapshot chain inline
    // (`pool: None` — a job must never dispatch onto the pool it runs on).
    let jobs = my_partitions
        .iter()
        .map(|&d| {
            let shared = Arc::clone(shared);
            Box::new(move || reconstruct_partition::<M>(&shared, d))
                as Box<dyn FnOnce() -> M::Graph + Send>
        })
        .collect();
    let dead_graphs: Vec<M::Graph> = pool.run(jobs);
    for (&d, dead_lg) in my_partitions.iter().zip(dead_graphs) {
        let adoption = shared
            .model
            .adopt_partition(graph_mut(lg), dead_lg, d, dead, &mut mig);
        for p in &adoption.promotions {
            st.overlay.insert(p.vid, p.new_master);
            mig.promoted.push(p.vid);
        }
        promotions.extend(adoption.promotions);
        placements.extend(adoption.placements);
        orphans.extend(adoption.orphans);
    }
    if adopter {
        // The graft grew (and rewrote) this node's layout: the filter's
        // position-keyed entries are meaningless now. Re-seeding re-ships
        // everything in the full sync, which the grafted copies need anyway.
        st.sync_filter.set_domain(lg.len() as u32);
        st.sync_filter.clear();
    }
    for &n in &others {
        let bytes = (promotions.len() * 20) as u64;
        mig.comm.record(1, bytes);
        ctx.send_kind(
            n,
            ProtoMsg::Promote(promotions.clone()),
            bytes,
            CommKind::Recovery,
        );
    }
    barrier_ok(ctx)?;
    phases.record("migration_round1", sw_round.lap());

    // ---- Round 2: apply promotions, resolve orphans, rewrite consumer
    //      tables, report replica placements to surviving masters.
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(2))?;
    let mut promo_by_vid: HashMap<Vid, Promotion> = HashMap::new();
    let mut all_promos: Vec<Promotion> = promotions.clone();
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::Promote(batch) => all_promos.extend(batch),
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    let g = graph_mut(lg);
    for p in &all_promos {
        promo_by_vid.insert(p.vid, *p);
        st.overlay.insert(p.vid, p.new_master);
        if p.new_master == me {
            continue; // own adoptions already mastered locally
        }
        if let Some(pos) = g.position(p.vid) {
            if !g.is_master(pos) {
                g.set_master_node(pos, p.new_master);
            }
        }
    }
    // Orphans: adopted replica copies whose master died too. If a later
    // graft of our own promoted the vertex here it is already a master;
    // otherwise point it at the promoted location and register there.
    for pos in orphans {
        if g.is_master(pos) {
            continue;
        }
        let vid = g.vid(pos);
        let p = promo_by_vid
            .get(&vid)
            .unwrap_or_else(|| panic!("orphaned copy of {vid} has no promotion"));
        debug_assert_ne!(
            p.new_master, me,
            "a local promotion must have upgraded the orphan in place"
        );
        g.set_master_node(pos, p.new_master);
        placements.push((p.new_master, vid, pos));
    }
    // Rewrite position-addressed consumer tables that still point at the
    // dead layouts. Under checkpoint FT the adopted partitions arrive
    // complete, so the models generate no replica requests here.
    let menv = MigEnv::new(dead, me, &[], &all_promos);
    let requests = shared
        .model
        .migration_requests(g, shared, st, &mut mig, &menv);
    debug_assert!(
        requests.values().all(Vec::is_empty),
        "checkpoint fallback must not need replica grants"
    );
    // Adoption grafted masters whose `active` bits came straight from the
    // snapshot; restore derived activation state before validating.
    shared.model.after_recovery(g);
    shared.model.validate(g);
    let mut placed: HashMap<NodeId, Vec<(Vid, u32)>> = HashMap::new();
    for (master, vid, pos) in placements {
        placed.entry(master).or_default().push((vid, pos));
    }
    for &n in &others {
        let p = placed.remove(&n).unwrap_or_default();
        let bytes = (p.len() * 8) as u64;
        mig.comm.record(1, bytes);
        ctx.send_kind(n, ProtoMsg::ReplicaPlaced(p), bytes, CommKind::Recovery);
    }
    barrier_ok(ctx)?;
    phases.record("migration_round2", sw_round.lap());

    // ---- Round 3: register placements; leader acknowledges; full-sync
    //      refreshes every replica (the first full-sync barrier closes this
    //      round).
    fail_here(ctx, shared, resume_iter, FailPoint::MigrationRound(3))?;
    let g = graph_mut(lg);
    for env in round_msgs::<M>(ctx, st) {
        match env.msg {
            ProtoMsg::ReplicaPlaced(ps) => {
                for (vid, pos) in ps {
                    let mpos = g.position(vid).expect("placement for unknown master");
                    debug_assert!(g.is_master(mpos));
                    g.meta_mut(mpos)
                        .unwrap_or_else(|| {
                            panic!("master {vid} has no full state to register a replica")
                        })
                        .register_replica(env.from, pos);
                }
            }
            other => st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    if me == st.leader() {
        for &d in dead {
            ctx.cluster().coordinator().ack_recovered(d);
        }
    }
    ckpt_full_sync(ctx, g, shared, st)?;
    // Re-persist the metadata snapshot: this node's layout changed, and any
    // later reconstruction of *this* node must include the adopted
    // positions. Placed after the last abortable barrier, so an aborted
    // attempt never leaves a revised meta behind.
    shared.dfs.write(
        &format!("{}/meta/{}", M::PREFIX, me.raw()),
        shared.model.encode_graph(g),
    );
    let reconstruct = sw.elapsed();
    phases.record("migration_round3", sw_round.lap());
    phases.record("reconstruct", reconstruct);

    st.iter = snap_iter;
    st.replay_until = resume_iter;
    mig.promoted.sort_unstable();
    Ok(RecoveryReport {
        strategy: "checkpoint→migration",
        failed_nodes: dead.len(),
        reload,
        reconstruct,
        replay: Duration::ZERO, // accumulated as lost iterations re-run
        vertices_recovered: mig.recovered,
        edges_recovered: mig.edges_recovered,
        comm: mig.comm,
        promoted: mig.promoted,
        contacted: others,
        counters: RecoveryCounters::default(),
        phases,
        suspicion: suspicion_now(ctx),
        journal_bytes: 0,
    })
}

/// Rebuilds a crashed node's partition from the DFS exactly as a checkpoint
/// standby would: the immutable topology from its metadata snapshot, then
/// its snapshot chain up to the newest complete epoch. Runs as a pool job
/// in the checkpoint fallback, so the chain is applied inline (`pool:
/// None`).
fn reconstruct_partition<M: ComputeModel>(shared: &Shared<M>, d: NodeId) -> M::Graph {
    let meta_bytes = shared
        .dfs
        .read(&format!("{}/meta/{}", M::PREFIX, d.raw()))
        .expect("metadata snapshot written at load");
    let mut dg = shared.model.decode_graph(&meta_bytes);
    apply_snapshot_chain::<M>(&mut dg, shared, d, None);
    dg
}

/// A standby reconstructing a crashed identity from the DFS: the immutable
/// topology from the metadata snapshot, then the data snapshot chain (its
/// epoch parts read concurrently on the newbie's worker pool).
///
/// Returns `None` when the attempt aborted (suicide-on-abort, as in
/// [`rebirth_newbie`] — every blocking point here is a barrier, so no
/// liveness poll is needed).
pub(crate) fn ckpt_newbie<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Arc<Shared<M>>,
    st: &mut St<M>,
    pool: &WorkerPool,
) -> Option<M::Graph> {
    let me = ctx.id();
    // Membership barrier (the survivors' decision barrier).
    if let BarrierOutcome::Failed(_) = ctx.enter_barrier() {
        ctx.crash();
        return None;
    }
    let mut phases = PhaseTimes::new();
    let sw = Stopwatch::start();
    let meta_bytes = shared
        .dfs
        .read(&format!("{}/meta/{}", M::PREFIX, me.raw()))
        .expect("metadata snapshot written at load");
    let mut lg = shared.model.decode_graph(&meta_bytes);
    let snap_iter = apply_snapshot_chain::<M>(&mut lg, shared, me, Some(pool));
    // The newbie does not know the episode's resume iteration (that lives
    // in the survivors' state); its reload fail point keys on the snapshot
    // epoch it reloaded to instead.
    if shared
        .injector
        .should_fail(me, snap_iter, FailPoint::RebirthReload)
    {
        ctx.crash();
        return None;
    }
    let reload = sw.elapsed();
    phases.record("reload", reload);
    let sw = Stopwatch::start();
    if let BarrierOutcome::Failed(_) = ctx.enter_barrier() {
        ctx.crash();
        return None;
    }
    phases.record("fence", sw.elapsed());

    let sw = Stopwatch::start();
    match ckpt_full_sync(ctx, &mut lg, shared, st) {
        Ok(()) => {}
        Err(_) => {
            ctx.crash();
            return None;
        }
    }
    let reconstruct = sw.elapsed();
    phases.record("reconstruct", reconstruct);

    let (vertices, edges) = shared.model.graph_stats(&lg);
    st.iter = snap_iter;
    st.last_snapshot_iter = snap_iter;
    st.recoveries.push(RecoveryReport {
        strategy: "checkpoint",
        failed_nodes: 1,
        reload,
        reconstruct,
        replay: Duration::ZERO,
        vertices_recovered: vertices,
        edges_recovered: edges,
        comm: CommStats::default(),
        promoted: Vec::new(),
        contacted: Vec::new(),
        counters: RecoveryCounters {
            attempts: 1,
            aborts: 0,
        },
        phases,
        suspicion: suspicion_now(ctx),
        journal_bytes: 0,
    });
    Some(lg)
}

/// Post-reload replica refresh: every master pushes its restored state to
/// all of its replicas (one full sync round with its own barriers).
///
/// Records already installed on a destination by our last regular syncs are
/// suppressed (surviving replicas were not rolled back — snapshots hold
/// masters only), which is where redundant-sync suppression pays off most:
/// only vertices that changed since the snapshot are re-shipped to
/// survivors. The round's barriers can abort like any other recovery
/// barrier; an aborted attempt restores the whole filter from its undo
/// snapshot, so the early `commit` here is safe.
fn ckpt_full_sync<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut M::Graph,
    shared: &Shared<M>,
    st: &mut St<M>,
) -> Attempt<()> {
    let mut batches: HashMap<NodeId, Vec<VertexSync<M::Value>>> = HashMap::new();
    let mut suppressed = 0u64;
    for pos in 0..lg.len() as u32 {
        if !lg.is_master(pos) {
            continue;
        }
        let scatter = shared.model.scatter_bit(lg, pos);
        let staged = st.sync_filter.stage(pos, lg.value(pos), scatter);
        let meta = lg
            .meta(pos)
            .unwrap_or_else(|| panic!("master {} has no full state", lg.vid(pos)));
        for (&node, &rpos) in meta.replica_nodes().iter().zip(meta.replica_positions()) {
            if st.sync_filter.suppress(staged, node) {
                suppressed += 1;
                continue;
            }
            batches.entry(node).or_default().push(VertexSync {
                pos: rpos,
                value: lg.value(pos).clone(),
                activate: scatter,
            });
        }
    }
    st.sync_filter.commit();
    st.note_suppressed(suppressed);
    for (node, batch) in batches {
        // One columnar sync frame per destination: frame header plus
        // position-delta and value columns (full values — no delta base is
        // assumed across a recovery).
        let mut prev = 0u32;
        let mut bytes = crate::wire::sync_frame_overhead(batch.len() as u64);
        for s in &batch {
            bytes += crate::wire::sync_record_bytes(
                s.pos,
                prev,
                shared.model.value_wire_bytes(&s.value),
                None,
            );
            prev = s.pos;
        }
        ctx.send_kind(node, ProtoMsg::Sync(batch), bytes, CommKind::Recovery);
    }
    barrier_ok(ctx)?;
    let incoming = collect_syncs::<M>(ctx, st);
    shared.model.apply_full_sync(lg, incoming);
    barrier_ok(ctx)?;
    st.sync_filter.revalidate_all();
    Ok(())
}

/// Applies `node`'s parts of its recovery chain — the newest complete full
/// epoch plus every later complete delta epoch ([`epoch::recovery_chain`])
/// — in ascending order, returning the last applied iteration (0 when no
/// complete epoch exists). An ungrounded chain (deltas with no full base)
/// is grounded at the caller's initial state, which every caller has just
/// reset to or freshly decoded; see `recovery_chain`'s rewind argument for
/// why the deltas then cover everything since.
///
/// Part *reads* fan out on the worker pool when one is supplied — each
/// epoch part is an independent DFS read paying modelled latency, so
/// concurrent reads overlap it — while *application* stays serial and
/// in-order (deltas layer on their base). Callers that already run on a
/// pool worker (checkpoint-fallback partition reconstruction) pass `None`:
/// dispatching onto the bounded pool from inside one of its jobs could
/// deadlock.
fn apply_snapshot_chain<M: ComputeModel>(
    lg: &mut M::Graph,
    shared: &Shared<M>,
    node: NodeId,
    pool: Option<&WorkerPool>,
) -> u64 {
    let Ok(chain) = epoch::recovery_chain(&shared.dfs, M::PREFIX, node.raw()) else {
        return 0;
    };
    let reads: Vec<Result<Arc<Vec<u8>>, EpochError>> = match pool {
        Some(pool) => pool.run(
            chain
                .epochs
                .iter()
                .map(|&(e, _)| {
                    let dfs = shared.dfs.clone();
                    let n = node.raw();
                    Box::new(move || epoch::read_verified(&dfs, M::PREFIX, e, n))
                        as Box<dyn FnOnce() -> Result<Arc<Vec<u8>>, EpochError> + Send>
                })
                .collect(),
        ),
        None => chain
            .epochs
            .iter()
            .map(|&(e, _)| epoch::read_verified(&shared.dfs, M::PREFIX, e, node.raw()))
            .collect(),
    };
    let mut snap_iter = 0;
    for (&(_, kind), bytes) in chain.epochs.iter().zip(reads) {
        let bytes = bytes.expect("rostered part verified");
        snap_iter = match kind {
            EpochKind::Full => shared.model.apply_snapshot(lg, &bytes),
            EpochKind::Delta => shared.model.apply_snapshot_inc(lg, &bytes),
        };
    }
    snap_iter
}

#[cfg(test)]
mod tests;
