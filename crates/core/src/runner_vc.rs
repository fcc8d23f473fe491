//! The vertex-cut (PowerLyra) model plugged into the shared superstep
//! driver. The BSP loop, failure dispatch, and Rebirth / Migration /
//! checkpoint recovery live in `driver.rs` and `recovery.rs`. What stays
//! here is genuinely vertex-cut (§4.3/§6.10): gather is distributed
//! (partial accumulators flow to masters, adding a third barrier per
//! iteration), vertices are *dense* (every master re-applies each
//! iteration), and edges are not replicated in mirrors — each node persists
//! its owned edges to per-receiver **edge-ckpt files** on the DFS at load,
//! which Migration reloads in parallel and Rebirth replays on the newbie.

use std::collections::HashMap;
use std::sync::Arc;

use imitator_cluster::{BarrierOutcome, FailurePlan, NodeId};
use imitator_engine::{
    vc_apply, vc_commit, vc_partial_gather, CopyKind, Degrees, FtPlan, FullStateRef, Locations,
    LocationsRef, VcEdge, VcLocalGraph, VcVertex, VertexProgram,
};
use imitator_graph::{Graph, Vid, VidMap};
use imitator_metrics::{CommKind, MemSize, Stopwatch};
use imitator_partition::VertexCut;
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::{Dfs, WriteBehind};

use crate::ckpt;
use crate::driver::{self, ComputeModel, Ctx, ModelGraph, Shared, St, StepOutcome, SyncBufs};
use crate::msg::{Promotion, ProtoMsg, ReplicaGrant, VcRecoverEntry, VertexSync};
use crate::plan::compute_ft_plan;
use crate::recovery::{Adoption, Mig, MigEnv};
use crate::report::RunReport;
use crate::{FtMode, RunConfig};

/// Runs a vertex program over `g` on a simulated cluster partitioned by the
/// vertex-cut `cut`, under the configured fault-tolerance mode, with the
/// scheduled failures injected. The engine is dense: every vertex re-applies
/// each iteration until no master's value changes (or `max_iters`).
///
/// # Panics
///
/// Panics if `cfg.num_nodes != cut.num_parts()`, if `cfg.threads_per_node`
/// is above 1, or if a failure is injected with `FtMode::None`. Standby
/// exhaustion does not panic: Rebirth degrades to Migration onto the
/// survivors, and checkpoint recovery grafts the dead partitions' snapshots
/// onto the survivors (§5.3).
pub fn run_vertex_cut<P>(
    g: &Graph,
    cut: &VertexCut,
    prog: Arc<P>,
    cfg: RunConfig,
    failures: Vec<FailurePlan>,
    dfs: Dfs,
) -> RunReport<P::Value>
where
    P: VertexProgram,
    P::Value: Encode + Decode + MemSize,
    P::Accum: Encode + Decode,
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
            g,
            cut,
            tolerance,
            selfish_opt,
            prog.selfish_compatible(),
            0xF7,
        ),
        _ => FtPlan::none(g.num_vertices()),
    };
    let lgs = imitator_engine::build_vertex_cut_graphs(g, cut, &plan, prog.as_ref(), &degrees);
    let owners = g.vertices().map(|v| cut.master(v) as u32).collect();
    driver::run(
        VcModel { prog },
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

/// The vertex-cut compute model: distributed gather → apply at masters →
/// sync, two communication rounds per superstep.
pub(crate) struct VcModel<P: VertexProgram> {
    pub(crate) prog: Arc<P>,
}

/// Per-node vertex-cut scratch, allocated once and reused every iteration.
pub(crate) struct VcScratch<P: VertexProgram> {
    bufs: SyncBufs<P::Value>,
    acc_table: Vec<Option<P::Accum>>,
    gather_batches: Vec<Vec<(Vid, P::Accum)>>,
}

/// Migration state the generic rounds don't know about: edges adopted from
/// the crashed nodes' edge-ckpt files, wired after grant placement.
#[derive(Default)]
pub(crate) struct VcMigExtra {
    adopted: Vec<(Vid, Vid, f32)>,
}

impl<V> ModelGraph for VcLocalGraph<V> {
    type Value = V;

    fn len(&self) -> usize {
        self.verts.len()
    }
    fn position(&self, vid: Vid) -> Option<u32> {
        VcLocalGraph::position(self, vid)
    }
    fn num_masters(&self) -> usize {
        VcLocalGraph::num_masters(self)
    }
    fn vid(&self, pos: u32) -> Vid {
        self.verts[pos as usize].vid
    }
    fn kind(&self, pos: u32) -> CopyKind {
        self.verts[pos as usize].kind
    }
    fn set_kind(&mut self, pos: u32, kind: CopyKind) {
        VcLocalGraph::set_kind(self, pos, kind);
    }
    fn master_node(&self, pos: u32) -> NodeId {
        self.verts[pos as usize].master_node
    }
    fn set_master_node(&mut self, pos: u32, node: NodeId) {
        VcLocalGraph::set_master_node(self, pos, node);
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
        self.locations(pos).map(FullStateRef::tables)
    }
}

impl<P> ComputeModel for VcModel<P>
where
    P: VertexProgram,
    P::Value: Encode + Decode + MemSize,
    P::Accum: Encode + Decode,
{
    type Value = P::Value;
    type Prog = P;
    type Accum = P::Accum;
    type Entry = VcRecoverEntry<P::Value>;
    type Graph = VcLocalGraph<P::Value>;
    type Scratch = VcScratch<P>;
    type MigExtra = VcMigExtra;

    const PREFIX: &'static str = "vc";

    fn prog(&self) -> &P {
        &self.prog
    }

    fn init_scratch(&self, shared: &Shared<Self>) -> Self::Scratch {
        VcScratch {
            bufs: SyncBufs::new(shared.cfg.num_nodes),
            acc_table: Vec::new(),
            gather_batches: vec![Vec::new(); shared.cfg.num_nodes],
        }
    }

    /// With replication FT, this node's owned edges as per-receiver
    /// edge-ckpt files (§4.3), encoded before the first superstep and written
    /// behind it. Migration changes which node persists which edges
    /// (adoption) and which node receives which file (promotions rewrote
    /// master locations): all are rewritten, so the next failure reloads a
    /// consistent set.
    fn persist(&self, lg: &Self::Graph, shared: &Shared<Self>) -> Option<WriteBehind> {
        let replicated = matches!(shared.cfg.ft, FtMode::Replication { .. });
        replicated.then(|| ckpt::persist_edge_ckpt(lg, &shared.dfs))
    }

    /// Distributed gather (partials → masters, barrier), then apply at
    /// masters, sync, barrier, commit: each phase's gather or sync frames,
    /// one per destination, are staged and shipped once its kernel is done.
    ///
    /// A master folds its partials sender by sender in ascending node order,
    /// its own at its own place in that order, so the fold order does not
    /// depend on arrival order.
    fn superstep(
        &self,
        ctx: &Ctx<Self>,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &mut St<Self>,
        scratch: &mut Self::Scratch,
    ) -> StepOutcome {
        let prog = self.prog.as_ref();
        let mut sw = Stopwatch::start();
        // Every slot left here after shipping is a local master's partial.
        let mut local = vc_partial_gather(lg, prog);
        st.phases.record("gather", sw.lap());
        for (slot, v) in local.iter_mut().zip(&lg.verts) {
            if !v.is_master() {
                if let Some(acc) = slot.take() {
                    scratch.gather_batches[v.master_node.index()].push((v.vid, acc));
                }
            }
        }
        for (n, batch) in scratch.gather_batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                let records = batch.len() as u64;
                let msg = ProtoMsg::Gather(std::mem::take(batch));
                driver::ship_frame::<Self>(ctx, st, n, records, msg, CommKind::Gather);
            }
        }
        st.phases.record("send", sw.lap());

        let (outcome, _) = ctx.enter_barrier_sum(0);
        st.phases.record("barrier", sw.lap());
        if let BarrierOutcome::Failed(dead) = outcome {
            // Local partials were never applied; the recovered superstep
            // regathers.
            return StepOutcome::Failed(dead);
        }

        // Apply: fold the senders' batches (from the stash + queue) in node
        // order, this node's own partials at its own place.
        let mut before = driver::take::<Self, _>(ctx, st, driver::kind!(Gather));
        before.sort_by_key(|&(from, _)| from);
        let after = before.split_off(before.partition_point(|&(from, _)| from < ctx.id()));
        let table = &mut scratch.acc_table;
        table.clear();
        table.resize(lg.verts.len(), None);
        let at = |vid| {
            let pos = lg.position(vid).expect("gather for unknown vertex") as usize;
            debug_assert!(lg.verts[pos].is_master());
            pos
        };
        for (vid, acc) in before.into_iter().flat_map(|(_, batch)| batch) {
            fold(prog, &mut table[at(vid)], acc);
        }
        for (slot, acc) in table.iter_mut().zip(local) {
            if let Some(acc) = acc {
                fold(prog, slot, acc);
            }
        }
        for (vid, acc) in after.into_iter().flat_map(|(_, batch)| batch) {
            fold(prog, &mut table[at(vid)], acc);
        }
        let acc = std::mem::take(table);
        let updates = vc_apply(lg, prog, acc, &shared.degrees, st.iter);
        st.phases.record("apply", sw.lap());
        driver::ship_syncs::<Self>(ctx, lg, shared, st, &mut scratch.bufs, &updates);
        st.phases.record("send", sw.lap());

        let (outcome, _) = ctx.enter_barrier_sum(0);
        st.phases.record("barrier", sw.lap());
        if let BarrierOutcome::Failed(dead) = outcome {
            drop(updates);
            return StepOutcome::Failed(dead);
        }

        driver::note_dirty::<Self>(st, &shared.cfg, &updates);
        let incoming: Vec<(u32, P::Value)> = driver::collect_syncs(ctx, st, lg, shared)
            .into_iter()
            .map(|s| (s.pos, s.value))
            .collect();
        let stats = vc_commit(lg, updates, incoming);
        st.phases.record("commit", sw.lap());
        StepOutcome::Committed(stats.changed as u64)
    }

    /// Resets values to the iteration-0 state (the dense engine has no
    /// activation state to reset).
    fn reset_to_initial(&self, lg: &mut Self::Graph, shared: &Shared<Self>) {
        for v in lg.verts.iter_mut() {
            v.value = self.prog.init(v.vid, &shared.degrees);
        }
    }

    fn apply_full_sync(&self, lg: &mut Self::Graph, incoming: Vec<VertexSync<Self::Value>>) {
        for s in incoming {
            lg.verts[s.pos as usize].value = s.value;
        }
    }

    /// The dense engine keeps no scatter bits; full-sync records carry
    /// `activate: false`.
    fn scatter_bit(&self, _lg: &Self::Graph, _pos: u32) -> bool {
        false
    }

    fn empty_graph(&self, me: NodeId) -> Self::Graph {
        VcLocalGraph::empty(me)
    }

    fn replica_entry(
        &self,
        lg: &Self::Graph,
        pos: u32,
        _dead_node: NodeId,
        rpos: u32,
        kind: CopyKind,
    ) -> Self::Entry {
        let (v, meta) = (&lg.verts[pos as usize], lg.full(pos));
        VcRecoverEntry {
            vid: v.vid,
            pos: rpos,
            kind,
            master_node: v.master_node,
            value: v.value.clone(),
            meta: (kind == CopyKind::Mirror).then(|| Box::new(meta.to_owned())),
        }
    }

    fn master_entry(&self, lg: &Self::Graph, pos: u32) -> Self::Entry {
        let (v, meta) = (&lg.verts[pos as usize], lg.full(pos));
        VcRecoverEntry {
            vid: v.vid,
            pos: meta.master_pos(),
            kind: CopyKind::Master,
            master_node: v.master_node,
            value: v.value.clone(),
            meta: Some(Box::new(meta.to_owned())),
        }
    }

    /// Vertex-cut entries carry no edges — those come from edge-ckpt files.
    fn entry_edges(&self, _e: &Self::Entry) -> u64 {
        0
    }

    fn insert_entry(&self, lg: &mut Self::Graph, mut e: Self::Entry, degrees: &Degrees) {
        self.prog.derive(e.vid, &mut e.value, degrees);
        lg.insert_at(e.pos, VcVertex::new(e.vid, e.kind, e.master_node, e.value));
        if let Some(meta) = e.meta {
            lg.set_locations(e.pos, meta.view());
        }
    }

    /// A newbie reads back every edge-ckpt file the crashed node kept — all
    /// the edges it owned, keyed by receiver; a survivor the crashed nodes'
    /// files addressed to it, and as leader their orphan files for one
    /// another.
    fn reload_files(&self, dfs: &Dfs, dead: &[NodeId], me: NodeId, leader: NodeId) -> Vec<String> {
        if dead == [me] {
            return dfs.list(&ckpt::edge_ckpt_dir(me));
        }
        let mut pairs: Vec<(NodeId, NodeId)> = dead.iter().map(|&owner| (owner, me)).collect();
        if me == leader {
            pairs.extend(dead.iter().flat_map(|&o| dead.iter().map(move |&r| (o, r))));
        }
        let path = |(owner, receiver)| ckpt::edge_ckpt_path(owner, receiver);
        pairs.into_iter().map(path).collect()
    }

    /// Rebirth reload also replays the crashed node's own edge-ckpt files,
    /// one at a time: every endpoint is in place once the batches are.
    fn rebirth_reload_extra(&self, lg: &mut Self::Graph, file: &[u8]) {
        wire_edges(lg, ckpt::decode_edge_ckpt(file).expect("edge-ckpt decodes"));
    }

    fn validate(&self, lg: &Self::Graph) {
        lg.debug_validate();
    }

    fn graph_stats(&self, lg: &Self::Graph) -> (u64, u64) {
        (lg.verts.len() as u64, lg.edges.len() as u64)
    }

    /// R2: adopt the edges of the reloaded edge-ckpt files, then request
    /// replicas of any adopted-edge endpoint with no local copy.
    fn migration_requests(
        &self,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &St<Self>,
        mig: &mut Mig<VcMigExtra>,
        env: &MigEnv<'_>,
    ) -> HashMap<NodeId, Vec<Vid>> {
        let me = env.me;
        let mut adopted: Vec<(Vid, Vid, f32)> = Vec::new();
        for file in &env.files {
            adopted.extend(ckpt::decode_edge_ckpt(file).expect("edge-ckpt decodes"));
        }
        let mut requests: HashMap<NodeId, Vec<Vid>> = HashMap::new();
        let mut requested: VidMap<()> = VidMap::default();
        for &(s, d, _) in &adopted {
            for vid in [s, d] {
                if lg.position(vid).is_none() && requested.insert(vid, ()).is_none() {
                    let owner = st
                        .overlay
                        .get(&vid)
                        .copied()
                        .unwrap_or_else(|| NodeId::new(shared.owners[vid.index()]));
                    debug_assert!(st.alive[owner.index()], "endpoint {vid} has no live master");
                    debug_assert_ne!(owner, me);
                    requests.entry(owner).or_default().push(vid);
                }
            }
        }
        mig.extra.adopted = adopted;
        requests
    }

    fn place_granted(&self, lg: &mut Self::Graph, grant: ReplicaGrant<Self::Value>) -> u32 {
        let (vid, master_node) = (grant.vid, grant.master_node);
        lg.insert_or_position(VcVertex::new(
            vid,
            CopyKind::Replica,
            master_node,
            grant.value,
        ))
    }

    /// R4: wire the adopted edges — every endpoint is local now, either
    /// pre-existing or just granted.
    fn migration_wire(&self, lg: &mut Self::Graph, mig: &mut Mig<VcMigExtra>, _resume: u64) {
        mig.edges_recovered += wire_edges(lg, std::mem::take(&mut mig.extra.adopted));
    }

    /// Checkpoint-fallback graft: splice the whole reconstructed partition
    /// into this survivor's graph, then remap and append every edge it
    /// owned (each edge is owned by exactly one node, so no duplicates).
    fn adopt_partition(
        &self,
        lg: &mut Self::Graph,
        dead_lg: Self::Graph,
        dead: NodeId,
        episode: &[NodeId],
        mig: &mut Mig<VcMigExtra>,
    ) -> Adoption {
        let me = lg.node;
        let base = lg.verts.len() as u32;
        let mut next = base;
        let map: Vec<u32> = dead_lg
            .verts
            .iter()
            .map(|dv| {
                lg.position(dv.vid).unwrap_or_else(|| {
                    let p = next;
                    next += 1;
                    p
                })
            })
            .collect();
        let mut out = Adoption::default();
        let mut meta = Locations::default();
        for (dp, dv) in dead_lg.verts.iter().enumerate() {
            let (new_pos, value) = (map[dp], || dv.value.clone());
            match dv.kind {
                CopyKind::Master => {
                    meta.assign(dead_lg.full(dp as u32));
                    meta.set_master_pos(new_pos);
                    meta.purge_node(me);
                    meta.purge_nodes(episode);
                    if new_pos < base {
                        let v = &mut lg.verts[new_pos as usize];
                        debug_assert_eq!(
                            v.kind,
                            CopyKind::Replica,
                            "checkpoint FT keeps no mirrors"
                        );
                        v.kind = CopyKind::Master;
                        v.master_node = me;
                        v.value = value();
                    } else {
                        lg.insert_at(new_pos, VcVertex::new(dv.vid, dv.kind, me, value()));
                    }
                    lg.set_locations(new_pos, meta.view());
                    out.promotions.push(Promotion {
                        vid: dv.vid,
                        new_master: me,
                        new_pos,
                        old_node: dead,
                        old_pos: dp as u32,
                    });
                    mig.recovered += 1;
                }
                CopyKind::Replica => {
                    if new_pos >= base {
                        let master_node = dv.master_node;
                        lg.insert_at(
                            new_pos,
                            VcVertex::new(dv.vid, dv.kind, master_node, value()),
                        );
                        if episode.contains(&master_node) {
                            out.orphans.push(new_pos);
                        } else {
                            out.placements.push((master_node, dv.vid, new_pos));
                        }
                        mig.recovered += 1;
                    }
                }
                CopyKind::Mirror => {
                    unreachable!("checkpoint FT keeps no mirrors")
                }
            }
        }
        for e in &dead_lg.edges {
            lg.edges.push(VcEdge {
                src: map[e.src as usize],
                dst: map[e.dst as usize],
                weight: e.weight,
            });
            mig.edges_recovered += 1;
        }
        out
    }
}

/// Folds `acc` into `slot` after what it already holds.
fn fold<P: VertexProgram>(prog: &P, slot: &mut Option<P::Accum>, acc: P::Accum) {
    *slot = Some(match slot.take() {
        None => acc,
        Some(a) => prog.combine(a, acc),
    });
}

/// Appends reloaded `edges` to the local edge list and returns how many.
/// Every endpoint has a local copy by now: recovered, granted or pre-existing.
fn wire_edges<V>(lg: &mut VcLocalGraph<V>, edges: Vec<(Vid, Vid, f32)>) -> u64 {
    for &(src, dst, weight) in &edges {
        let local = |vid: Vid| {
            let pos = lg.position(vid);
            pos.unwrap_or_else(|| panic!("edge endpoint {vid} has no local copy"))
        };
        let (src, dst) = (local(src), local(dst));
        lg.edges.push(VcEdge { src, dst, weight });
    }
    edges.len() as u64
}
