//! The edge-cut (Cyclops) model plugged into the shared superstep driver.
//! Everything protocol-shaped — the BSP loop, failure dispatch, Rebirth /
//! Migration / checkpoint recovery — lives in `driver.rs` and `recovery.rs`.
//! This module keeps only what is genuinely edge-cut: the fused
//! gather-apply superstep over the sparse activation frontier, Rebirth
//! batches whose full states carry the edges (there are no edge-ckpt
//! files), in-edge rewiring for promoted masters, activation replay from
//! synchronised scatter bits, and selfish-master recompute.

use std::collections::HashMap;
use std::sync::Arc;

use imitator_cluster::{BarrierOutcome, FailurePlan, NodeId};
use imitator_engine::{
    ec_commit, ec_compute, CopyKind, Degrees, EcLocalGraph, EcVertex, FtPlan, FullStateBatches,
    FullStateRef, InEdge, InEdges, List, Locations, LocationsRef, RemoteEdge, VertexProgram,
};
use imitator_graph::{Graph, Vid};
use imitator_metrics::{MemSize, Stopwatch};
use imitator_partition::EdgeCut;
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::Dfs;

use crate::driver::{self, ComputeModel, Ctx, ModelGraph, Shared, St, StepOutcome, SyncBufs};
use crate::msg::{Batches, ReplicaGrant, VertexSync};
use crate::plan::compute_ft_plan;
use crate::recovery::{Mig, MigEnv};
use crate::report::RunReport;
use crate::{FtMode, RunConfig};

/// Runs a vertex program over `g` on a simulated cluster partitioned by
/// `cut`, under the configured fault-tolerance mode, with the scheduled
/// failures injected.
///
/// Returns the merged [`RunReport`]; `values` holds every vertex's final
/// master value.
///
/// # Panics
///
/// Panics if `cfg.num_nodes != cut.num_parts()`, if `cfg.threads_per_node`
/// is above 1, or if a failure is injected with `FtMode::None`. Standby
/// exhaustion does not panic: Rebirth degrades to Migration onto the
/// survivors, and checkpoint recovery rebuilds each dead node from its
/// snapshots on a thread a survivor hosts (§5.3).
pub fn run_edge_cut<P>(
    g: &Graph,
    cut: &EdgeCut,
    prog: Arc<P>,
    cfg: RunConfig,
    failures: Vec<FailurePlan>,
    dfs: Dfs,
) -> RunReport<P::Value>
where
    P: VertexProgram,
    P::Value: Encode + Decode + MemSize,
{
    assert_eq!(
        cfg.num_nodes,
        cut.num_parts(),
        "config node count must match the partitioning"
    );
    let degrees = Degrees::of(g);
    let plan = match cfg.ft {
        FtMode::Replication {
            tolerance,
            selfish_opt,
            ..
        } => compute_ft_plan(
            &degrees,
            cut,
            tolerance,
            selfish_opt,
            prog.selfish_compatible(),
            0xF7,
        ),
        _ => FtPlan::none(g.num_vertices()),
    };
    let lgs = imitator_engine::build_edge_cut_graphs(g, cut, &plan, prog.as_ref(), &degrees);
    let owners = g.vertices().map(|v| cut.owner(v) as u32).collect();
    driver::run(
        EcModel { prog },
        g.num_vertices(),
        lgs,
        degrees,
        plan,
        owners,
        cfg,
        failures,
        dfs,
    )
    .0
}

/// The edge-cut compute model: fused gather-apply at masters over the
/// sparse frontier, one sync round per superstep.
pub(crate) struct EcModel<P: VertexProgram> {
    pub(crate) prog: Arc<P>,
}

/// Migration state the generic rounds don't know about: the masters this
/// node promoted, ascending, each keeping the block its mirror held until
/// R2 reads it — the old owner's co-located consumers (positions on the
/// crashed node) become remote out-edges by vertex, and the in-edges by
/// source are kept here, back to back, to be wired in R4 after grant
/// placement.
#[derive(Default)]
pub(crate) struct EcMigExtra {
    pending_wire: Vec<u32>,
    sources: Vec<InEdge>,
    /// Per promoted master, where its sources end.
    ends: Vec<usize>,
}

impl<V: Clone> ModelGraph for EcLocalGraph<V> {
    type Value = V;

    fn len(&self) -> usize {
        self.verts.len()
    }
    fn position(&self, vid: Vid) -> Option<u32> {
        EcLocalGraph::position(self, vid)
    }
    fn num_masters(&self) -> usize {
        EcLocalGraph::num_masters(self)
    }
    fn vid(&self, pos: u32) -> Vid {
        self.verts[pos as usize].vid
    }
    fn kind(&self, pos: u32) -> CopyKind {
        self.verts[pos as usize].kind
    }
    fn set_kind(&mut self, pos: u32, kind: CopyKind) {
        EcLocalGraph::set_kind(self, pos, kind);
    }
    fn master_node(&self, pos: u32) -> NodeId {
        self.verts[pos as usize].master_node
    }
    fn set_master_node(&mut self, pos: u32, node: NodeId) {
        EcLocalGraph::set_master_node(self, pos, node);
    }
    fn value(&self, pos: u32) -> &V {
        &self.verts[pos as usize].value
    }
    fn meta(&self, pos: u32) -> Option<LocationsRef<'_>> {
        self.locations(pos)
    }
    fn edit_meta<R>(&mut self, pos: u32, edit: impl FnOnce(&mut Locations) -> R) -> Option<R> {
        self.edit_locations(pos, edit)
    }
    fn full_state(&self, pos: u32) -> Option<FullStateRef<'_>> {
        EcLocalGraph::full_state(self, pos)
    }
    fn consumers(&self, pos: u32) -> &[u32] {
        self.out_local(pos)
    }
    fn eq_by(&self, other: &Self, same: impl Fn(&V, &V) -> bool) -> bool {
        EcLocalGraph::eq_by(self, other, same)
    }
}

/// A selfish master's value recomputed from its in-neighbours' (§4.4).
fn recompute<P: VertexProgram>(
    lg: &EcLocalGraph<P::Value>,
    prog: &P,
    degrees: &Degrees,
    pos: u32,
) -> P::Value {
    let v = &lg.verts[pos as usize];
    let mut acc: Option<P::Accum> = None;
    for &(src, w) in lg.in_edges(pos) {
        let c = prog.gather(w, &lg.verts[src as usize].value);
        acc = Some(match acc {
            None => c,
            Some(a) => prog.combine(a, c),
        });
    }
    prog.apply(v.vid, &v.value, acc, degrees)
}

impl<P> ComputeModel for EcModel<P>
where
    P: VertexProgram,
    P::Value: Encode + Decode + MemSize,
{
    type Value = P::Value;
    type Prog = P;
    type Accum = ();
    type Graph = EcLocalGraph<P::Value>;
    type Scratch = SyncBufs<P::Value>;
    type MigExtra = EcMigExtra;

    const PREFIX: &'static str = "ec";

    fn prog(&self) -> &P {
        &self.prog
    }

    fn init_scratch(&self, shared: &Shared<Self>) -> Self::Scratch {
        SyncBufs::new(shared.cfg.num_nodes)
    }

    /// Compute (Algorithm 1 line 5) fused over the sparse frontier,
    /// communicate (line 6), sync barrier (line 7), commit (line 14): one
    /// sync frame per destination is staged and shipped once compute is done.
    fn superstep(
        &self,
        ctx: &Ctx<Self>,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &mut St<Self>,
        scratch: &mut Self::Scratch,
    ) -> StepOutcome {
        let mut sw = Stopwatch::start();
        let updates = ec_compute(lg, self.prog.as_ref(), &shared.degrees, st.iter);
        st.phases.record("compute", sw.lap());
        driver::ship_syncs::<Self>(ctx, lg, shared, st, scratch, &updates);
        st.phases.record("send", sw.lap());

        let (outcome, _) = ctx.enter_barrier_sum(0);
        st.phases.record("barrier", sw.lap());
        if let BarrierOutcome::Failed(dead) = outcome {
            // Roll back (line 9): the staged updates were never applied
            // anywhere.
            drop(updates);
            return StepOutcome::Failed(dead);
        }

        driver::note_dirty::<Self>(st, &shared.cfg, &updates);
        let incoming: Vec<(u32, P::Value, bool)> = driver::collect_syncs(ctx, st, lg, shared)
            .into_iter()
            .map(|s| (s.pos, s.value, s.activate))
            .collect();
        let stats = ec_commit(lg, self.prog.as_ref(), updates, incoming);
        st.phases.record("commit", sw.lap());
        StepOutcome::Committed(stats.active_next as u64)
    }

    /// Resets to the iteration-0 state — used when a failure precedes the
    /// first checkpoint.
    fn reset_to_initial(&self, lg: &mut Self::Graph, shared: &Shared<Self>) {
        for v in lg.verts.iter_mut() {
            v.value = self.prog.init(v.vid, &shared.degrees);
            v.active = v.is_master() && self.prog.initially_active(v.vid);
            v.next_active = false;
            v.last_activate = false;
        }
        lg.rebuild_active_frontier();
    }

    fn apply_full_sync(&self, lg: &mut Self::Graph, incoming: Vec<VertexSync<Self::Value>>) {
        for s in incoming {
            let v = &mut lg.verts[s.pos as usize];
            v.value = s.value;
            v.last_activate = s.activate;
            v.next_active = false;
        }
    }

    fn scatter_bit(&self, lg: &Self::Graph, pos: u32) -> bool {
        lg.verts[pos as usize].last_activate
    }

    fn empty_graph(&self, me: NodeId) -> Self::Graph {
        EcLocalGraph::empty(me)
    }

    /// Every record is placed first, a master with its full state's
    /// consumers; then each master's in-edges are read off its run, and each
    /// other copy's consumers off its batch (a plain replica's) or its remote
    /// out-edges (a mirror's), every source and consumer found through the
    /// index, a consumer mastered elsewhere skipped.
    fn place_reborn(&self, lg: &mut Self::Graph, batches: Batches<P::Value>, degrees: &Degrees) {
        lg.reserve_copies(batches.iter().flat_map(|b| &b.records).map(|r| r.vid));
        let mut placed = Vec::with_capacity(batches.len());
        for mut batch in batches {
            // The positions of the records with full state, slot by slot,
            // and of the plain replicas.
            let (mut slots, mut replicas) = (Vec::new(), Vec::new());
            for mut r in std::mem::take(&mut batch.records) {
                self.prog.derive(r.vid, &mut r.value, degrees);
                let mut copy = EcVertex::new(r.vid, r.kind, r.master_node, r.value);
                copy.last_activate = r.last_activate;
                let (fed, at) = match r.kind {
                    CopyKind::Master => (batch.states.nth(slots.len()).out_local_owner, &mut slots),
                    CopyKind::Mirror => (List::default(), &mut slots),
                    CopyKind::Replica => (List::default(), &mut replicas),
                };
                at.push(r.pos);
                lg.insert_at(r.pos, copy, fed.iter());
            }
            placed.push((slots, replicas, batch));
        }
        for (slots, replicas, batch) in &placed {
            let mut consumers = batch.consumers.iter().copied();
            for (&pos, &n) in replicas.iter().zip(&batch.replica_lists) {
                lg.set_out_local_by_consumer(pos, consumers.by_ref().take(n as usize));
            }
            for (i, &pos) in slots.iter().enumerate() {
                let state = batch.states.nth(i);
                let consumers = state.out_remote.iter().map(|r| r.consumer);
                match lg.verts[pos as usize].is_master() {
                    true => lg.set_in_edges_by_source(pos, state.in_edges),
                    false => lg.set_out_local_by_consumer(pos, consumers),
                }
            }
        }
        let adopted = placed.iter();
        let adopted = adopted.map(|(at, _, b)| (&at[..], &b.states, &b.lists[..]));
        lg.adopt_full_states(&adopted.collect::<Vec<_>>());
    }

    fn validate(&self, lg: &Self::Graph) {
        lg.debug_validate();
    }

    /// Replay (§5.1.3): re-run the activation operations recorded in the
    /// synchronised scatter bits, then recompute selfish masters (§4.4).
    /// Resuming at iteration 0 means no scatter bit exists yet: activation
    /// comes from the program's initial active set instead. The recompute
    /// runs in ascending position order with *progressive* writes, so a
    /// selfish master fed by another reads that one's fresh value.
    fn rebirth_replay(&self, lg: &mut Self::Graph, shared: &Shared<Self>, resume: u64) -> bool {
        // Activation targets and selfish masters, against the reloaded state.
        let mut activations: Vec<u32> = Vec::new();
        let mut selfish: Vec<u32> = Vec::new();
        for (pos, v) in lg.verts.iter().enumerate() {
            if v.last_activate {
                activations.extend_from_slice(lg.out_local(pos as u32));
            }
            if v.is_master() && *shared.plan.selfish.get(v.vid.index()).unwrap_or(&false) {
                selfish.push(pos as u32);
            }
        }
        for t in activations {
            lg.verts[t as usize].active = true;
        }
        if resume == 0 {
            for v in lg.verts.iter_mut().filter(|v| v.is_master()) {
                if self.prog.initially_active(v.vid) {
                    v.active = true;
                }
            }
        }
        for pos in selfish {
            lg.verts[pos as usize].value = recompute(lg, &*self.prog, &shared.degrees, pos);
        }
        lg.rebuild_active_frontier();
        true
    }

    fn graph_stats(&self, lg: &Self::Graph) -> (u64, u64) {
        let in_edges = (0..lg.verts.len() as u32).map(|pos| lg.in_edges(pos).len() as u64);
        (lg.verts.len() as u64, in_edges.sum())
    }

    /// Every recovery path may touch `active` bits directly; restore the
    /// frontier invariant before the next superstep computes from it.
    fn after_recovery(&self, lg: &mut Self::Graph) {
        lg.rebuild_active_frontier();
    }

    /// A promoted master recomputes; its in-edges are rewired in R4 from
    /// the sources its mirror's block records by vid (read in R2). Once they
    /// are, the copy's own `in_edges` / `out_local` are its owner-local lists
    /// and name its sources.
    fn on_promote(&self, lg: &mut Self::Graph, pos: u32, mig: &mut Mig<EcMigExtra>) {
        lg.set_active(pos, false);
        mig.extra.pending_wire.push(pos);
    }

    /// R2: each master R1 promoted here reads the block its mirror kept —
    /// its in-edges by source, kept for R4, and the old owner's co-located
    /// consumers, positions on the crashed node, which become entries naming
    /// each by vertex, wherever R1 promoted it — and writes the block anew as
    /// a master's; then replicas of the missing sources are requested. No
    /// other block changes: a remote out-edge names its consumer by vertex,
    /// whichever node masters it now.
    fn migration_requests(
        &self,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &St<Self>,
        mig: &mut Mig<EcMigExtra>,
        env: &MigEnv<'_>,
    ) -> HashMap<NodeId, Vec<Vid>> {
        let extra = &mut mig.extra;
        debug_assert!(extra.pending_wire.is_sorted(), "promotions ascend");
        #[cfg(test)]
        crate::recovery::tests::tally_r2(extra.pending_wire.len(), lg.num_masters());
        let (mut remote, mut beside) = (Vec::new(), Vec::new());
        for &pos in &extra.pending_wire {
            let p = env.own_promotion_at(pos);
            let p = p.expect("pending wiring belongs to an own promotion");
            let stored = lg.stored_full_state(pos).expect("a master has full state");
            let vacated = |old| env.relocated(p.old_node, old).expect("a vacated position");
            beside.clear();
            beside.extend(stored.out_local_owner.iter().map(|old| vacated(old).vid));
            remote.clear();
            remote.extend(beside.iter().map(|&consumer| RemoteEdge { consumer }));
            // An entry already naming one (promoted onto the crashed node in
            // an earlier episode, so skipped there) goes: each is named once.
            beside.sort_unstable();
            let named = |r: &RemoteEdge| beside.binary_search(&r.consumer).is_ok();
            remote.extend(stored.out_remote.iter().filter(|r| !named(r)));
            extra.sources.extend(stored.in_edges.iter());
            extra.ends.push(extra.sources.len());
            lg.set_out_remote(pos, &remote);
        }
        // Replica requests for missing sources.
        env.requests(lg, shared, st, extra.sources.iter().map(|edge| edge.src))
    }

    fn place_granted(&self, lg: &mut Self::Graph, grant: ReplicaGrant<Self::Value>) -> u32 {
        let mut copy = EcVertex::new(grant.vid, CopyKind::Replica, grant.master_node, grant.value);
        copy.last_activate = grant.last_activate;
        lg.push_copy(copy)
    }

    /// R4: wire promoted masters' in-edges from the captured sources (all
    /// local after grant placement) and replay their activation (§5.2.3).
    fn migration_wire(&self, lg: &mut Self::Graph, mig: &mut Mig<EcMigExtra>, resume: u64) {
        // (source, promoted consumer) for every wired edge, in wiring order.
        let mut links: Vec<(u32, u32)> = Vec::new();
        let extra = &mig.extra;
        let starts = std::iter::once(0).chain(extra.ends.iter().copied());
        for ((&pos, start), &end) in extra.pending_wire.iter().zip(starts).zip(&extra.ends) {
            // Every source is local after grant placement.
            lg.set_in_edges_by_source(pos, InEdges::Slice(&extra.sources[start..end]));
            let in_edges = lg.in_edges(pos);
            links.extend(in_edges.iter().map(|&(spos, _)| (spos, pos)));
            mig.edges_recovered += in_edges.len() as u64;
            // Activation replay (§5.2.3): a promoted master is active iff
            // one of its in-neighbours' last committed scatter bits says so
            // — or, when resuming at iteration 0 (no committed scatter bits
            // yet), iff the program marks it initially active.
            let fed = in_edges
                .iter()
                .any(|&(s, _)| lg.verts[s as usize].last_activate);
            let initial = resume == 0 && self.prog.initially_active(lg.verts[pos as usize].vid);
            lg.set_active(pos, fed || initial);
        }
        // Extend each source's consumer list once. A master's consumer list
        // is part of the full state its mirrors hold, so it goes dirty. The
        // stable sort keeps a source's new consumers in wiring order.
        links.sort_by_key(|&(spos, _)| spos);
        let consumers: Vec<u32> = links.iter().map(|&(_, pos)| pos).collect();
        let mut wired = 0;
        for group in links.chunk_by(|a, b| a.0 == b.0) {
            let spos = group[0].0;
            lg.extend_out_local(spos, &consumers[wired..wired + group.len()]);
            wired += group.len();
            if lg.verts[spos as usize].is_master() {
                mig.dirty_masters.insert(spos);
            }
        }
    }
}
