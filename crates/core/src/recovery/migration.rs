//! Migration (§5.2): the survivors take the crashed nodes' vertices over,
//! in eight barrier-separated rounds.

use std::collections::HashMap;
use std::sync::Arc;

use imitator_cluster::NodeId;
use imitator_engine::{
    CopyKind, EdgeLists, Episode, FullState, FullStateBatches, PosSet, VertexProgram,
};
use imitator_graph::{Vid, VidMap};
use imitator_metrics::Stopwatch;

use super::rounds::{AttemptCx, MIGRATION_ROUNDS};
use super::Attempt;
use crate::driver::{kind, ComputeModel, ModelGraph, Shared, St};
use crate::msg::{MirrorBatch, Promotion, ProtoMsg, ReplicaGrant};
use crate::plan::responsible_mirror;
use crate::report::RecoveryReport;
use crate::FtMode;

/// One destination's mirror designations / full-state refreshes (R5/R7).
type Mirrors<M> = MirrorBatch<<M as ComputeModel>::Value>;

/// What a round sends one destination, before it is a batch: `(position of
/// the master, the edge lists to carry, whether the receiver must create the
/// copy)`, in position order.
type MirrorRecords = Vec<(u32, EdgeLists, bool)>;

/// The positions of copies placed for masters elsewhere, by master's node.
type Placements = HashMap<NodeId, Vec<(Vid, u32)>>;

/// Shared migration bookkeeping, threaded through the rounds. `extra` is
/// the model's own state (the edge wiring the generic rounds don't know
/// about).
#[derive(Default)]
pub(crate) struct Mig<X> {
    /// Positions of the masters some mirror of which does not hold their
    /// current full state: R7 refreshes exactly these, in position order,
    /// and takes the set. A round that changes a master's tables or lists
    /// inserts it; R5 removes it when every mirror it has was designated
    /// there (and so was sent the final full state, lists and all).
    pub dirty_masters: PosSet,
    /// Vertex copies recovered (promotions + placed replicas).
    pub recovered: u64,
    /// Edges recovered (model-wired).
    pub edges_recovered: u64,
    /// Vertices this node promoted to master.
    pub promoted: Vec<Vid>,
    /// Model-specific round-to-round state.
    pub extra: X,
    /// Masters R5 took out of `dirty_masters`.
    #[cfg(test)]
    spared: Vec<u32>,
}

/// One entry per survivor per Migration attempt that reached R7: masters
/// the attempt touched (dirty at some point, or given a mirror), those of
/// them R5 took out of the dirty set and R7 did not re-mark, the refresh
/// records R7 shipped, the in-edge, `out_local` and `out_remote` entries
/// they carried, and the `out_remote` entries of those for masters R1 did
/// not promote.
#[cfg(test)]
pub(super) static R7_TALLY: std::sync::Mutex<Vec<[usize; 7]>> = std::sync::Mutex::new(Vec::new());

/// Read-only migration context handed to model hooks, with O(1) promotion
/// lookups: an episode's R2 asks "which promotion put the master at this
/// position here?" once per master it promoted and "where did the consumer
/// at this vacated position go?" once per consumer such a master had beside
/// it on the crashed node, so both are dense tables of indices into the
/// promotion lists rather than scans or hashed `(node, position)` keys.
pub(crate) struct MigEnv<'a> {
    /// The crashed nodes.
    pub dead: &'a [NodeId],
    /// This node.
    pub me: NodeId,
    /// The model's reload files ([`ComputeModel::reload_files`]), landed.
    pub files: Vec<Arc<Vec<u8>>>,
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
    /// Indexes `own` (this node's R1 promotions) by the position they
    /// promoted, and `all` by the crashed `(node, position)` they vacated.
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
            files: Vec::new(),
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
    pub(super) fn promoted_from(&self, node: NodeId, old_pos: u32) -> Option<&Promotion> {
        let d = self.dead.iter().position(|&d| d == node)?;
        index_get(&self.vacated[d], old_pos, self.all)
    }

    /// R2's replica requests: every vertex of `vids` without a copy on `g`,
    /// once, by the node that masters it now, in the order first named.
    pub(crate) fn requests<M: ComputeModel>(
        &self,
        g: &M::Graph,
        shared: &Shared<M>,
        st: &St<M>,
        vids: impl Iterator<Item = Vid>,
    ) -> HashMap<NodeId, Vec<Vid>> {
        let (mut requests, mut requested) = (HashMap::new(), VidMap::default());
        for vid in vids {
            if g.position(vid).is_none() && requested.insert(vid, ()).is_none() {
                let owner = st.master_of(&shared.owners, vid);
                let live = st.alive[owner.index()] && owner != self.me;
                debug_assert!(live, "{vid} has no live master on another node");
                requests.entry(owner).or_insert_with(Vec::new).push(vid);
            }
        }
        requests
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

// --------------------------------------------------------------------------
// Exchanges between the rounds
// --------------------------------------------------------------------------

/// Announces the masters this node took over in this round.
fn announce_promotions<M: ComputeModel>(cx: &mut AttemptCx<'_, M>, own: &[Promotion]) {
    cx.send_others(|_| ProtoMsg::Promote(own.to_vec()));
}

/// Collects the promotions the other survivors announced behind this node's
/// `own` and applies them all: the overlay learns every new master, and a
/// local copy of a vertex promoted elsewhere follows it, tables included.
fn collect_promotions<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    g: &mut M::Graph,
    own: &[Promotion],
) -> Vec<Promotion> {
    let mut all = own.to_vec();
    for (_, batch) in cx.take(kind!(Promote)) {
        all.extend(batch);
    }
    for p in &all {
        cx.st.overlay.insert(p.vid, p.new_master);
        if p.new_master == cx.me() {
            continue; // own promotions are masters already
        }
        let Some(pos) = g.position(p.vid).filter(|&pos| !g.is_master(pos)) else {
            continue;
        };
        g.set_master_node(pos, p.new_master);
        g.edit_meta(pos, |meta| {
            meta.set_master_pos(p.new_pos);
            meta.purge_nodes(cx.dead);
            meta.purge_node(p.new_master);
        });
    }
    all
}

/// Tells every other survivor where the copies of its masters were placed.
fn report_placements<M: ComputeModel>(cx: &mut AttemptCx<'_, M>, mut placed: Placements) {
    cx.send_others(|n| ProtoMsg::ReplicaPlaced(placed.remove(&n).unwrap_or_default()));
}

/// Registers the placements the other survivors reported with the masters
/// here, which go `dirty` — where mirrors are kept that must learn of it.
fn register_placements<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    g: &mut M::Graph,
    dirty: &mut PosSet,
) {
    for (from, placed) in cx.take(kind!(ReplicaPlaced)) {
        for (vid, pos) in placed {
            let mpos = g.position(vid).expect("placement for unknown master");
            debug_assert!(g.is_master(mpos));
            g.edit_full(mpos, |tables| tables.register_replica(from, pos));
            dirty.insert(mpos);
        }
    }
}

// --------------------------------------------------------------------------
// The eight rounds
// --------------------------------------------------------------------------

pub(super) fn migrate<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    lg: &mut M::Graph,
    strategy: &'static str,
) -> Attempt<RecoveryReport> {
    let model = &cx.shared.model;
    let mut mig: Mig<M::MigExtra> = Mig::default();
    let [r1, r2, r3, r4, r5, r6, r7, r8] = &MIGRATION_ROUNDS;
    let sw_total = Stopwatch::start();
    // R2's DFS reads run behind R1.
    cx.prefetch();
    // Every round below rewrites the graph: journal from here on.
    lg.begin_episode();
    cx.mark("undo_capture");

    // ---- R1: promote local mirrors whose master died (the responsible
    //      mirror wins), purge crashed locations, announce promotions.
    let promotions = cx.round(r1, |cx| {
        let promotions = promote_and_purge(cx, lg, &mut mig);
        announce_promotions(cx, &promotions);
        promotions
    })?;

    // ---- R2: apply promotions everywhere; let the model fix its location
    //      tables and compute the replica requests it must send.
    cx.round(r2, |cx| {
        let all_promos = collect_promotions(cx, lg, &promotions);
        let mut menv = MigEnv::new(cx.dead, cx.me(), &promotions, &all_promos);
        menv.files = std::iter::from_fn(|| cx.prefetched(r2.0)).collect();
        let mut requests = model.migration_requests(lg, cx.shared, cx.st, &mut mig, &menv);
        cx.send_others(|n| ProtoMsg::ReplicaRequest(requests.remove(&n).unwrap_or_default()));
    })?;

    // ---- R3: grant requested replicas.
    cx.round(r3, |cx| {
        let (g, me) = (&*lg, cx.me());
        let mut grants: HashMap<NodeId, Vec<ReplicaGrant<M::Value>>> = HashMap::new();
        for (from, request) in cx.take(kind!(ReplicaRequest)) {
            let granted = request.into_iter().map(|vid| {
                let pos = g.position(vid);
                let pos = pos.unwrap_or_else(|| panic!("request for {vid} but no copy on {me}"));
                debug_assert!(g.is_master(pos), "replica request routed to non-master");
                ReplicaGrant {
                    vid,
                    value: g.value(pos).clone(),
                    last_activate: model.scatter_bit(g, pos),
                    master_node: me,
                }
            });
            grants.entry(from).or_default().extend(granted);
        }
        cx.send_others(|n| ProtoMsg::ReplicaGrant(grants.remove(&n).unwrap_or_default()));
    })?;
    // Reload (identify, request, grant) ends here; R4-R8 reconstruct.
    let reload = sw_total.elapsed();

    // ---- R4: place granted replicas, let the model wire edges (promoted
    //      masters' in-edges / adopted edge-ckpt edges), report placements.
    cx.round(r4, |cx| {
        let mut grants = Vec::new();
        for (_, granted) in cx.take(kind!(ReplicaGrant)) {
            grants.extend(granted);
        }
        mig.recovered += grants.len() as u64;
        let placements = place_copies(cx, lg, grants);
        model.migration_wire(lg, &mut mig, cx.resume_iter);
        report_placements(cx, placements);
    })?;

    // ---- R5: record placements; restore the fault-tolerance level by
    //      designating replacement mirrors (§5.2.1), creating fresh FT
    //      replicas where no replica is available.
    //      A new mirror's full state travels here, whole, and only here: a
    //      master's updates are built once its designations are final, so
    //      each carries the final tables and lists, and a master all of whose
    //      mirrors are new leaves the dirty set — R7 has nothing to add for it
    //      unless a fresh replica's position, registered there, re-marks it.
    let designated = cx.round(r5, |cx| {
        register_placements(cx, lg, &mut mig.dirty_masters);
        let designations = designate_mirrors(cx, lg, &mut mig);
        ship_mirror_batches(cx, lg, &designations);
        designations
    })?;

    // ---- R6: adopt mirror designations; report fresh FT-replica positions.
    cx.round(r6, |cx| {
        let mut batches = cx.take(kind!(MirrorUpdate));
        // Each fresh mirror starts as the replica a grant would have placed;
        // adopting its batch below makes it a mirror.
        let mut fresh: Vec<ReplicaGrant<M::Value>> = Vec::new();
        for (_, batch) in &mut batches {
            for (record, value) in batch.values.drain(..) {
                let vid = batch.vids[record as usize];
                if lg.position(vid).is_none() {
                    fresh.push(ReplicaGrant {
                        vid,
                        value,
                        last_activate: batch.last_activate[record as usize],
                        master_node: batch.master_node,
                    });
                }
            }
        }
        let fresh_placements = place_copies(cx, lg, fresh);
        adopt_mirror_batches::<M>(lg, &batches);
        report_placements(cx, fresh_placements);
    })?;

    // ---- R7: register fresh placements; refresh, in position order, every
    //      mirror of each master still dirty — one whose mirror predates the
    //      episode, or whose tables moved after R5 (a fresh replica's
    //      position, registered just below). A record carries the tables and
    //      the lists its receiver lacks: none if R5 designated it, else those
    //      the episode changed (`FullStateBatches::changed_lists`).
    cx.round(r7, |cx| {
        register_placements(cx, lg, &mut mig.dirty_masters);
        let dirty = std::mem::take(&mut mig.dirty_masters);
        let mut refreshes: Vec<MirrorRecords> = vec![Vec::new(); cx.shared.cfg.num_nodes];
        for pos in dirty.iter().filter(|&pos| lg.is_master(pos)) {
            let changed = lg.changed_lists(pos);
            for m in lg.full(pos).mirror_nodes() {
                let sent = designated[m.index()].binary_search_by_key(&pos, |r| r.0);
                refreshes[m.index()].push((pos, sent.map_or(changed, |_| EdgeLists::NONE), false));
            }
        }
        ship_mirror_batches(cx, lg, &refreshes);
        #[cfg(test)]
        {
            mig.spared.retain(|&pos| !dirty.contains(pos));
            let (spared, records) = (mig.spared.len(), refreshes.iter().map(Vec::len).sum());
            let all: Vec<_> = refreshes.iter().flatten().map(|r| (r.0, r.1)).collect();
            let shipped = lg.export_full_states(&all).0.column_lens();
            let (ins, fed, remote) = (shipped.in_edges, shipped.out_local, shipped.out_remote);
            let kept = all.iter().filter(|r| !mig.promoted.contains(&lg.vid(r.0)));
            let kept = lg.export_full_states(&kept.copied().collect::<Vec<_>>());
            let (touched, kept) = (dirty.len() + spared, kept.0.column_lens().out_remote);
            let mut tally = R7_TALLY.lock().unwrap_or_else(|e| e.into_inner());
            tally.push([touched, spared, records, ins, fed, remote, kept]);
        }
    })?;

    // ---- R8: adopt refreshed metas; leader acknowledges the recovery. Only
    //      behind its barrier, where the attempt can no longer abort, does the
    //      model re-persist invalidated state: the DFS never holds files of a
    //      graph that was rolled back.
    cx.round(r8, |cx| {
        let batches = cx.take(kind!(MirrorUpdate));
        adopt_mirror_batches::<M>(lg, &batches);
        cx.ack_recovered();
    })?;
    cx.st.settle();
    cx.st.persist = model.persist(lg, cx.shared);
    cx.mark(r8.0);

    mig.promoted.sort_unstable();
    let mut report = cx.report(strategy);
    (report.reload, report.reconstruct) = (reload, sw_total.elapsed() - reload);
    (report.vertices_recovered, report.edges_recovered) = (mig.recovered, mig.edges_recovered);
    (report.promoted, report.contacted) = (mig.promoted, cx.others.clone());
    Ok(report)
}

/// R1: promotes the local mirrors whose master died and for which this node
/// is the responsible mirror, and purges crashed nodes from the tables of
/// the local masters that name one. Every position is classified against
/// its pre-round state first; the promotions, then the purges, follow in
/// ascending position order.
fn promote_and_purge<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    g: &mut M::Graph,
    mig: &mut Mig<M::MigExtra>,
) -> Vec<Promotion> {
    let (dead, me) = (cx.dead, cx.me());
    let (mut promo_pos, mut purge_pos) = (Vec::new(), Vec::new());
    for pos in 0..g.len() as u32 {
        let promotes = || {
            dead.contains(&g.master_node(pos))
                && responsible_mirror(g.full(pos), &cx.st.alive) == Some(me)
        };
        match g.kind(pos) {
            CopyKind::Mirror if promotes() => promo_pos.push(pos),
            // Purging changes the tables iff some crashed node is in them.
            CopyKind::Master if g.full(pos).names_any(dead) => purge_pos.push(pos),
            _ => {}
        }
    }
    let mut promotions: Vec<Promotion> = Vec::with_capacity(promo_pos.len());
    for pos in promo_pos {
        let vid = g.vid(pos);
        let old_node = g.master_node(pos);
        g.set_kind(pos, CopyKind::Master);
        g.set_master_node(pos, me);
        let old_pos = g.full(pos).master_pos();
        g.edit_full(pos, |meta| {
            meta.set_master_pos(pos);
            meta.purge_node(me);
            meta.purge_nodes(dead);
        });
        cx.shared.model.on_promote(g, pos, mig);
        promotions.push(Promotion {
            vid,
            new_master: me,
            new_pos: pos,
            old_node,
            old_pos,
        });
        mig.dirty_masters.insert(pos);
        mig.promoted.push(vid);
        cx.st.overlay.insert(vid, me);
        mig.recovered += 1;
    }
    for pos in purge_pos {
        g.edit_full(pos, |tables| tables.purge_nodes(dead));
        mig.dirty_masters.insert(pos);
    }
    promotions
}

/// Places a replica per copy, its value derived, and returns their positions
/// by master's node. Placement appends to the local graph, and those
/// positions later feed the delta-encoded position columns of sync frames —
/// so the order must not depend on which node's message arrived first: vid
/// order.
fn place_copies<M: ComputeModel>(
    cx: &AttemptCx<'_, M>,
    g: &mut M::Graph,
    mut copies: Vec<ReplicaGrant<M::Value>>,
) -> Placements {
    copies.sort_unstable_by_key(|copy| copy.vid);
    let mut placements = Placements::new();
    let (model, degrees) = (&cx.shared.model, &cx.shared.degrees);
    for mut copy in copies {
        let (vid, master_node) = (copy.vid, copy.master_node);
        debug_assert!(g.position(vid).is_none(), "duplicate grant for {vid}");
        model.prog().derive(vid, &mut copy.value, degrees);
        let pos = model.place_granted(g, copy);
        placements.entry(master_node).or_default().push((vid, pos));
    }
    placements
}

/// R5: brings every master short of mirrors back to the fault-tolerance
/// level and returns, per destination, whom it designated. This stays
/// serial: each designation reads and bumps the least-assigned counters
/// (`st.mirror_assign`), so later choices depend on earlier ones.
fn designate_mirrors<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    g: &mut M::Graph,
    mig: &mut Mig<M::MigExtra>,
) -> Vec<MirrorRecords> {
    let FtMode::Replication { tolerance, .. } = cx.shared.cfg.ft else {
        unreachable!("migrate requires replication FT");
    };
    // The FT level cannot exceed the surviving cluster's capacity: each
    // mirror needs a distinct node other than the master's.
    let restorable = tolerance.min(cx.others.len());
    let assigned = &mut cx.st.mirror_assign;
    let mut designations: Vec<MirrorRecords> = vec![Vec::new(); cx.shared.cfg.num_nodes];
    // This master's designations: (target, whether its replica is fresh).
    let mut designated: Vec<(NodeId, bool)> = Vec::new();
    for pos in 0..g.len() as u32 {
        // Only a master short of mirrors is written to (and journaled).
        if !g.is_master(pos) || g.full(pos).mirror_nodes().len() >= restorable {
            continue;
        }
        designated.clear();
        let mirrors = g.edit_full(pos, |meta| {
            while meta.view().mirror_nodes().len() < restorable {
                let least_assigned = |n: &NodeId| (assigned[n.index()], n.index());
                // Prefer upgrading an existing replica; otherwise create a
                // new FT replica on the least-assigned survivor.
                let (replicas, mirrors) = (meta.view().replica_nodes(), meta.view().mirror_nodes());
                let upgradable = replicas.iter().filter(|n| !mirrors.contains(n));
                let (target, fresh) = match upgradable.min_by_key(least_assigned) {
                    Some(n) => (n, false),
                    None => {
                        let holds = |n: &NodeId| replicas.contains(n) || mirrors.contains(n);
                        let free = cx.others.iter().copied().filter(|n| !holds(n));
                        let n = free.min_by_key(least_assigned);
                        (n.expect("enough survivors to restore the FT level"), true)
                    }
                };
                assigned[target.index()] += 1;
                meta.add_mirror(target);
                designated.push((target, fresh));
            }
            meta.view().mirror_nodes().len()
        });
        if designated.len() == mirrors {
            mig.dirty_masters.remove(pos);
            #[cfg(test)]
            mig.spared.push(pos);
        } else {
            mig.dirty_masters.insert(pos);
        }
        for &(target, fresh) in &designated {
            designations[target.index()].push((pos, EdgeLists::ALL, fresh));
        }
    }
    designations
}

/// Builds and sends every other survivor its mirror batch (R5/R7) from
/// `records`, indexed by destination node; a destination without records
/// gets an empty batch, pure barrier traffic. Each batch is sized from its
/// records, once, and filled column by column.
fn ship_mirror_batches<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    g: &M::Graph,
    records: &[MirrorRecords],
) {
    let (me, shared) = (cx.me(), cx.shared);
    cx.send_others(|n| {
        let records = &records[n.index()];
        let at: Vec<_> = records
            .iter()
            .map(|&(pos, lists, _)| (pos, lists))
            .collect();
        let (metas, lists) = g.export_full_states(&at);
        let fresh = records.iter().enumerate().filter(|(_, r)| r.2);
        ProtoMsg::MirrorUpdate(Box::new(MirrorBatch {
            vids: records.iter().map(|r| g.vid(r.0)).collect(),
            // Position is reported back in R6 for fresh replicas.
            values: fresh
                .map(|(i, r)| (i as u32, g.value(r.0).clone()))
                .collect(),
            last_activate: records
                .iter()
                .map(|r| shared.model.scatter_bit(g, r.0))
                .collect(),
            master_node: me,
            metas,
            lists,
        }))
    });
}

/// Makes every vertex of every batch a mirror of the sender's master,
/// holding the full state the batch brings (R6/R8). Every vertex has a local
/// copy by now: R6 creates the missing ones first.
fn adopt_mirror_batches<M: ComputeModel>(g: &mut M::Graph, batches: &[(NodeId, Box<Mirrors<M>>)]) {
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
        .map(|(_, batch)| batch.vids.iter().map(|&vid| mirror(batch, vid)).collect())
        .collect();
    let adopted = positions.iter().zip(batches);
    let adopted: Vec<(&[u32], &FullState, &[EdgeLists])> = adopted
        .map(|(at, (_, batch))| (&at[..], &batch.metas, &batch.lists[..]))
        .collect();
    g.adopt_full_states(&adopted);
}
