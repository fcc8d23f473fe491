//! The edge-cut (Cyclops) model plugged into the shared superstep driver.
//! Everything protocol-shaped — the BSP loop, failure dispatch, Rebirth /
//! Migration / checkpoint recovery — lives in `driver.rs` and `recovery.rs`.
//! This module keeps only what is genuinely edge-cut: the fused
//! gather-apply superstep over the sparse activation frontier, the
//! edge-carrying recovery entries (edges travel with vertices — there are
//! no edge-ckpt files), in-edge rewiring for promoted masters, activation
//! replay from synchronised scatter bits, and selfish-master recompute.

use std::collections::HashMap;
use std::sync::Arc;

use imitator_cluster::{BarrierOutcome, FailurePlan, NodeId};
use imitator_engine::{
    ec_commit, ec_compute, CopyKind, Degrees, EcLocalGraph, EcVertex, FtPlan, FullStateRef,
    Locations, LocationsRef, RemoteEdge, VertexProgram,
};
use imitator_graph::{Graph, Vid, VidMap};
use imitator_metrics::{MemSize, Stopwatch};
use imitator_partition::EdgeCut;
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::Dfs;

use crate::driver::{self, ComputeModel, Ctx, ModelGraph, Shared, St, StepOutcome, SyncBufs};
use crate::msg::Promotion;
use crate::msg::{EcRecoverEntry, ReplicaGrant, VertexSync};
use crate::plan::compute_ft_plan;
use crate::recovery::{Adoption, Mig, MigEnv};
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
/// survivors, and checkpoint recovery grafts the dead partitions' snapshots
/// onto the survivors (§5.3).
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
            g,
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

/// Migration state the generic rounds don't know about: what each promoted
/// master's slot gave up at promotion.
#[derive(Default)]
pub(crate) struct EcMigExtra {
    pending_wire: Vec<Promoted>,
}

struct Promoted {
    pos: u32,
    /// In-edge sources and weights, wired in R4 after grant placement.
    srcs: Vec<(Vid, f32)>,
    /// The old owner's co-located consumers (positions on the crashed
    /// node), turned into remote links in R2.
    old_out_local: Vec<u32>,
}

impl<V> ModelGraph for EcLocalGraph<V> {
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
    type Entry = EcRecoverEntry<P::Value>;
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

    fn replica_entry(
        &self,
        lg: &Self::Graph,
        pos: u32,
        dead_node: NodeId,
        rpos: u32,
        kind: CopyKind,
    ) -> Self::Entry {
        let v = &lg.verts[pos as usize];
        let state = lg.exported(pos);
        EcRecoverEntry {
            vid: v.vid,
            pos: rpos,
            kind,
            master_node: v.master_node,
            value: v.value.clone(),
            last_activate: v.last_activate,
            active: false,
            in_edges: Vec::new(),
            out_local: state.replica_out_local_on(dead_node),
            meta: (kind == CopyKind::Mirror).then(|| Box::new(state.to_meta())),
        }
    }

    fn master_entry(&self, lg: &Self::Graph, pos: u32) -> Self::Entry {
        let v = &lg.verts[pos as usize];
        let state = lg.exported(pos);
        EcRecoverEntry {
            vid: v.vid,
            pos: state.locations.master_pos(),
            kind: CopyKind::Master,
            master_node: v.master_node,
            value: v.value.clone(),
            last_activate: v.last_activate,
            active: false,
            in_edges: state.in_edges_owner.to_vec(),
            out_local: state.out_local_owner.to_vec(),
            meta: Some(Box::new(state.to_meta())),
        }
    }

    fn entry_edges(&self, e: &Self::Entry) -> u64 {
        e.in_edges.len() as u64
    }

    fn insert_entry(&self, lg: &mut Self::Graph, mut e: Self::Entry, degrees: &Degrees) {
        self.prog.derive(e.vid, &mut e.value, degrees);
        let mut copy = EcVertex::new(e.vid, e.kind, e.master_node, e.value);
        (copy.active, copy.last_activate) = (e.active, e.last_activate);
        lg.insert_at(e.pos, copy, &e.in_edges, &e.out_local);
        if let Some(meta) = e.meta {
            lg.set_full_state(e.pos, meta.view());
        }
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
    /// the sources captured here (the full-state copy records them by vid).
    /// From here on the copy's own `in_edges` / `out_local` are its
    /// owner-local lists and name its sources: its slot gives all three up.
    fn on_promote(&self, lg: &mut Self::Graph, pos: u32, mig: &mut Mig<EcMigExtra>) {
        lg.set_active(pos, false);
        let (srcs, old_out_local) = lg.take_owner_lists(pos);
        mig.extra.pending_wire.push(Promoted {
            pos,
            srcs,
            old_out_local,
        });
    }

    /// R2: fix position-addressed consumer tables against the promotion
    /// map, then request replicas of promoted masters' missing in-edge
    /// sources.
    fn migration_requests(
        &self,
        lg: &mut Self::Graph,
        shared: &Shared<Self>,
        st: &St<Self>,
        mig: &mut Mig<EcMigExtra>,
        env: &MigEnv<'_>,
    ) -> HashMap<NodeId, Vec<Vid>> {
        let me = env.me;
        // Fix consumer tables. (a) out_remote entries pointing at a crashed
        // node follow the consumer to its promotion target; entries landing
        // on this node become local links (wired in R4). (b) A freshly
        // promoted master's old co-located consumers (positions on the
        // crashed node) become remote links too, unless promoted here.
        for pos in 0..lg.verts.len() as u32 {
            if !lg.verts[pos as usize].is_master() {
                continue;
            }
            let dirty = lg.retain_out_remote(pos, |r| {
                let Some(p) = env.relocated(r.node, r.pos) else {
                    return true;
                };
                (r.node, r.pos) = (p.new_master, p.new_pos);
                p.new_master != me
            });
            if dirty {
                mig.dirty_masters.insert(pos);
            }
        }
        for promoted in &mig.extra.pending_wire {
            let p = env
                .own_promotion_at(promoted.pos)
                .expect("pending wiring belongs to an own promotion");
            let moved = promoted.old_out_local.iter().filter_map(|&old| {
                let c = env
                    .relocated(p.old_node, old)
                    .expect("own promotion vacated a crashed node");
                (c.new_master != me).then_some(RemoteEdge {
                    node: c.new_master,
                    pos: c.new_pos,
                })
            });
            lg.extend_out_remote(promoted.pos, &moved.collect::<Vec<_>>());
            mig.dirty_masters.insert(promoted.pos);
        }
        // Replica requests for missing sources.
        let mut requests: HashMap<NodeId, Vec<Vid>> = HashMap::new();
        let mut requested: VidMap<()> = VidMap::default();
        for promoted in &mig.extra.pending_wire {
            for &(src, _) in &promoted.srcs {
                if lg.position(src).is_none() && requested.insert(src, ()).is_none() {
                    let owner = st
                        .overlay
                        .get(&src)
                        .copied()
                        .unwrap_or_else(|| NodeId::new(shared.owners[src.index()]));
                    debug_assert!(st.alive[owner.index()], "source {src} has no live master");
                    requests.entry(owner).or_default().push(src);
                }
            }
        }
        requests
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
        for Promoted { pos, srcs, .. } in &mig.extra.pending_wire {
            let mut in_edges = Vec::with_capacity(srcs.len());
            for &(src, w) in srcs {
                let spos = lg
                    .position(src)
                    .expect("all sources local after grant placement");
                in_edges.push((spos, w));
                links.push((spos, *pos));
            }
            mig.edges_recovered += in_edges.len() as u64;
            // Activation replay (§5.2.3): a promoted master is active iff
            // one of its in-neighbours' last committed scatter bits says so
            // — or, when resuming at iteration 0 (no committed scatter bits
            // yet), iff the program marks it initially active.
            let active = in_edges
                .iter()
                .any(|&(s, _)| lg.verts[s as usize].last_activate)
                || (resume == 0 && self.prog.initially_active(lg.verts[*pos as usize].vid));
            lg.set_in_edges(*pos, &in_edges);
            lg.set_active(*pos, active);
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

    /// Checkpoint-fallback graft: splice the whole reconstructed partition
    /// into this survivor's graph. Positions are remapped dead-local →
    /// here-local in one pass (existing local copies keep their slot, the
    /// rest append), so every position-addressed table in the adopted state
    /// — in-edges, local consumer links, owner tables — rewrites through
    /// one map. Remote consumer links pointing at other crashed layouts are
    /// kept as-is; `migration_requests` rewrites them against the
    /// cluster-wide promotion map in the next round.
    fn adopt_partition(
        &self,
        lg: &mut Self::Graph,
        dead_lg: Self::Graph,
        dead: NodeId,
        episode: &[NodeId],
        mig: &mut Mig<EcMigExtra>,
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
        for (dp, dv) in dead_lg.verts.iter().enumerate() {
            let new_pos = map[dp];
            let in_edges = dead_lg.in_edges(dp as u32).iter();
            let in_edges: Vec<(u32, f32)> = in_edges.map(|&(s, w)| (map[s as usize], w)).collect();
            let out_local = dead_lg.out_local(dp as u32).iter();
            let mut out_local: Vec<u32> = out_local.map(|&t| map[t as usize]).collect();
            match dv.kind {
                CopyKind::Master => {
                    let state = dead_lg.exported(dp as u32);
                    let mut locations = state.locations.to_owned();
                    locations.set_master_pos(new_pos);
                    locations.purge_node(me);
                    locations.purge_nodes(episode);
                    // Consumers that were remote-on-the-dead-node but live
                    // *here* become plain local links.
                    let mut out_remote = state.out_remote.to_vec();
                    out_remote.retain(|r| {
                        if r.node == me {
                            out_local.push(r.pos);
                            return false;
                        }
                        true
                    });
                    mig.edges_recovered += in_edges.len() as u64;
                    let mut master = EcVertex::new(dv.vid, CopyKind::Master, me, dv.value.clone());
                    (master.active, master.last_activate) = (dv.active, dv.last_activate);
                    if new_pos < base {
                        // Upgrade the pre-existing ghost copy in place,
                        // keeping the consumer links it already knew about.
                        debug_assert_eq!(
                            lg.verts[new_pos as usize].kind,
                            CopyKind::Replica,
                            "checkpoint FT keeps no mirrors"
                        );
                        out_local.extend_from_slice(lg.out_local(new_pos));
                    }
                    out_local.sort_unstable();
                    out_local.dedup();
                    lg.insert_at(new_pos, master, &in_edges, &out_local);
                    // The master's own edge lists are its owner-local lists.
                    lg.set_full_state(
                        new_pos,
                        FullStateRef {
                            locations: locations.view(),
                            out_remote: &out_remote,
                            ..state
                        },
                    );
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
                    if new_pos < base {
                        // Already hosted here: merge the dead layout's local
                        // consumer links into the existing copy.
                        out_local.extend_from_slice(lg.out_local(new_pos));
                        out_local.sort_unstable();
                        out_local.dedup();
                        lg.set_out_local(new_pos, &out_local);
                    } else {
                        let master_node = dv.master_node;
                        let mut copy =
                            EcVertex::new(dv.vid, CopyKind::Replica, master_node, dv.value.clone());
                        copy.last_activate = dv.last_activate;
                        lg.insert_at(new_pos, copy, &in_edges, &out_local);
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
        out
    }
}
