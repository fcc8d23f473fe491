//! Checkpoint recovery (§2.2-2.3): every node rolls back to the newest
//! committed snapshot epoch and the lost iterations re-run — onto hot
//! standbys, or, with none left, onto the survivors.

use imitator_cluster::NodeId;
use imitator_engine::Episode;
use imitator_graph::Vid;
use imitator_metrics::{CommKind, Stopwatch};
use imitator_storage::codec::Encode;
use imitator_storage::{epoch, Extent};

use super::migration::{
    announce_promotions, collect_promotions, register_placements, report_placements, Mig, MigEnv,
    Placements,
};
use super::rebirth::reborn;
use super::rounds::{barrier_ok, AttemptCx, MIGRATION_ROUNDS, RELOAD};
use super::Attempt;
use crate::ckpt::{self, SnapshotCodec};
use crate::driver::{collect_syncs, ComputeModel, Ctx, ModelGraph, Shared, St};
use crate::msg::{Promotion, ProtoMsg, VertexSync};
use crate::report::RecoveryReport;

/// What grafting dead partitions onto this node produced
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

pub(super) fn ckpt_survivor<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    lg: &mut M::Graph,
) -> Attempt<RecoveryReport> {
    // An exhausted standby pool grafts the dead partitions' snapshots onto
    // the survivors instead of panicking.
    if !cx.standbys_dispatched()? {
        return ckpt_fallback(cx, lg);
    }

    // Reload: every node (survivors too) rolls back to the newest committed
    // epoch — one a crash mid-checkpoint interrupted has no roster, and is
    // never loaded.
    let snap_iter = cx.phase(&RELOAD, |cx| {
        // The rollback rewrites every value: journal from here on.
        lg.begin_episode();
        cx.mark("undo_capture");
        let chain = ckpt::chain::<M>(&cx.shared.dfs, cx.me());
        Ok(ckpt::roll_back(cx.shared, lg, &chain))
    })?;
    cx.fence()?;

    // Reconstruct: replica values are not in snapshots; masters rebroadcast.
    full_sync(cx, lg)?;
    cx.mark("reconstruct");

    cx.st.iter = snap_iter;
    cx.st.replay_until = cx.resume_iter;
    cx.st.dirty.clear();
    for d in cx.dead {
        cx.st.alive[d.index()] = true;
    }
    // `replay` accumulates as the lost iterations re-run.
    let mut report = cx.report("checkpoint");
    report.vertices_recovered = lg.num_masters() as u64;
    Ok(report)
}

/// Checkpoint recovery without standbys: the survivors adopt the dead
/// partitions wholesale from the DFS. Three barrier-separated graft rounds
/// (the first three rows of the Migration table), then the usual full-sync.
///
/// Round 1 — every survivor rolls back to the snapshot epoch; the
/// round-robin adopter of each dead partition rebuilds it from the DFS
/// (exactly what a standby would have done, [`reconstruct_partition`]) and
/// grafts it into its own graph via
/// [`ComputeModel::adopt_partition`]; promotions are announced. An adopter
/// of several partitions reconstructs and grafts them in partition order.
/// Round 2 — promotions are applied everywhere, adopted copies whose master
/// also died are re-pointed at the promoted location, and position-addressed
/// consumer tables of the masters round 1 purged or grafted are rewritten
/// ([`ComputeModel::migration_requests`], no promotion of our own: every
/// adopted master arrives complete, so no replica requests are generated).
/// Round 3 — replica placements are registered with their surviving
/// masters and the leader acknowledges the episode; the closing full-sync
/// then refreshes every (old and adopted) replica from its master's
/// rolled-back value. Finally each survivor re-persists its metadata
/// snapshot and what the model keeps beside it: its layout grew, and a
/// *later* episode must be able to reconstruct it including the adopted
/// positions and edges; an adopter also rewrites its part of the snapshot
/// epoch as a full one, since until its next epoch its chain ends there and
/// its parts before the graft name none of the adopted masters.
fn ckpt_fallback<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    lg: &mut M::Graph,
) -> Attempt<RecoveryReport> {
    let (model, me) = (&cx.shared.model, cx.me());
    let mut mig: Mig<M::MigExtra> = Mig::default();
    let [r1, r2, r3, ..] = &MIGRATION_ROUNDS;
    // `undo_capture`, `reload` and `reconstruct`, booked across the rounds.
    let mut sw = Stopwatch::start();

    // ---- Round 1: roll back, graft assigned dead partitions, announce.
    let (snap_iter, adopted) = cx.round(r1, |cx| {
        // The rollback and the grafts rewrite the graph: journal from here on.
        lg.begin_episode();
        cx.phases.record("undo_capture", sw.lap());
        let snap_iter = ckpt::roll_back(cx.shared, lg, &ckpt::chain::<M>(&cx.shared.dfs, me));
        // The dead nodes are gone for good: purge them from every
        // pre-existing master's tables that name one, which round 2 visits
        // (as it visits the grafted ones, purged in `adopt_partition`).
        for pos in 0..lg.len() as u32 {
            if lg.is_master(pos) && lg.full(pos).names_any(cx.dead) {
                lg.edit_full(pos, |tables| tables.purge_nodes(cx.dead));
                mig.dirty_masters.insert(pos);
            }
        }
        cx.phases.record("reload", sw.lap());
        let adopted = graft_partitions(cx, lg, &mut mig);
        announce_promotions(cx, &adopted.promotions);
        (snap_iter, adopted)
    })?;

    // ---- Round 2: apply promotions, resolve orphans, rewrite consumer
    //      tables, report replica placements to surviving masters.
    cx.round(r2, |cx| {
        let all_promos = collect_promotions(cx, lg, &adopted.promotions);
        let mut placed = Placements::new();
        for (master, vid, pos) in adopted.placements {
            placed.entry(master).or_default().push((vid, pos));
        }
        // Orphans: adopted replica copies whose master died too. If a later
        // graft of our own promoted the vertex here it is already a master;
        // otherwise the promotions just applied point it at the promoted
        // location, where it registers.
        for pos in adopted
            .orphans
            .into_iter()
            .filter(|&pos| !lg.is_master(pos))
        {
            let (vid, master) = (lg.vid(pos), lg.master_node(pos));
            let promoted = cx.st.alive[master.index()];
            assert!(promoted, "orphaned copy of {vid} has no promotion");
            placed.entry(master).or_default().push((vid, pos));
        }
        // Rewrite position-addressed consumer tables that still point at the
        // dead layouts. Under checkpoint FT the adopted partitions arrive
        // complete, so the models generate no replica requests here.
        let menv = MigEnv::new(cx.dead, me, &[], &all_promos);
        let requests = model.migration_requests(lg, cx.shared, cx.st, &mut mig, &menv);
        debug_assert!(
            requests.values().all(Vec::is_empty),
            "checkpoint fallback must not need replica grants"
        );
        // Adoption grafted masters whose `active` bits came straight from the
        // snapshot; restore derived activation state before validating.
        model.after_recovery(lg);
        model.validate(lg);
        report_placements(cx, placed);
    })?;

    // ---- Round 3: register placements; leader acknowledges; full-sync
    //      refreshes every replica (its barriers close this round).
    cx.phase(r3, |cx| {
        register_placements(cx, lg, None);
        cx.ack_recovered();
        full_sync(cx, lg)?;
        // Re-persist the metadata snapshot and the edge-ckpt files: any
        // later rebuild of *this* node needs the adopted copies and edges.
        // After the last abortable barrier, so an aborted attempt never
        // leaves a revised snapshot behind.
        ckpt::write_meta(model, &cx.shared.dfs, lg, me);
        cx.st.persist = model.persist(lg, cx.shared);
        if !adopted.promotions.is_empty() && snap_iter > 0 {
            let part = lg.encode_snapshot(snap_iter, None);
            epoch::write_part(&cx.shared.dfs, M::PREFIX, snap_iter, me.raw(), part);
        }
        Ok(())
    })?;
    cx.phases.record("reconstruct", sw.lap());

    cx.st.iter = snap_iter;
    cx.st.replay_until = cx.resume_iter;
    cx.st.dirty.clear();
    mig.promoted.sort_unstable();
    // `replay` accumulates as the lost iterations re-run.
    let mut report = cx.report("checkpoint→migration");
    (report.vertices_recovered, report.edges_recovered) = (mig.recovered, mig.edges_recovered);
    (report.promoted, report.contacted) = (mig.promoted, cx.others.clone());
    Ok(report)
}

/// Round 1's grafts of the dead partitions assigned to this node
/// (deterministically, round-robin over the survivors), each rebuilt from
/// the DFS and grafted in turn.
fn graft_partitions<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    lg: &mut M::Graph,
    mig: &mut Mig<M::MigExtra>,
) -> Adoption {
    let adopters = cx.survivors.iter().cycle();
    let mine = cx.dead.iter().zip(adopters).filter(|(_, &s)| s == cx.me());
    let mine: Vec<NodeId> = mine.map(|(&d, _)| d).collect();
    let mut adopted = Adoption::default();
    for d in mine {
        let (model, dead_lg) = (&cx.shared.model, reconstruct_partition(cx.shared, d).0);
        let graft = model.adopt_partition(lg, dead_lg, d, cx.dead, mig);
        for p in &graft.promotions {
            cx.st.overlay.insert(p.vid, p.new_master);
            mig.promoted.push(p.vid);
            mig.dirty_masters.insert(p.new_pos);
        }
        adopted.promotions.extend(graft.promotions);
        adopted.placements.extend(graft.placements);
        adopted.orphans.extend(graft.orphans);
    }
    adopted
}

/// Rebuilds crashed node `d`'s partition from the DFS as a Rebirth newbie
/// rebuilds one from its survivors' batches ([`reborn`]) — the batch is
/// `d`'s metadata snapshot, the files those a newbie reborn as `d` reloads,
/// both read ahead while `d`'s snapshot chain is judged — and rolls it back
/// like a survivor's graph (a batch carries no activity). Returns it with
/// the iteration it sits at.
pub(super) fn reconstruct_partition<M: ComputeModel>(
    shared: &Shared<M>,
    d: NodeId,
) -> (M::Graph, u64) {
    let (model, dfs) = (&shared.model, &shared.dfs);
    let mut extents = vec![Extent::Whole(ckpt::meta_path(M::PREFIX, d))];
    extents.extend(model.reload_files(&[d], d, d));
    let mut files = dfs.read_ahead(extents).map(|f| f.expect("table decodes"));
    let chain = ckpt::chain::<M>(dfs, d);
    let meta = files.next().expect("metadata snapshot written at load");
    let meta = ckpt::decode_meta::<_, M::Graph>(&meta).expect("metadata snapshot decodes");
    let mut dg = reborn(shared, d, [meta], files);
    let snap_iter = ckpt::roll_back(shared, &mut dg, &chain);
    (dg, snap_iter)
}

/// A standby reconstructing a crashed identity from the DFS: a Rebirth
/// newbie ([`super::rebirth_newbie`]) whose batch is the metadata snapshot.
///
/// Fails when the attempt aborted, which it learns at a failed barrier like
/// every node (suicide-on-abort, as in [`super::rebirth_newbie`]).
pub(crate) fn ckpt_newbie<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Shared<M>,
    st: &mut St<M>,
) -> Attempt<M::Graph> {
    let me = [ctx.id()];
    let cx = &mut AttemptCx::new(ctx, shared, st, &me, 0);
    // Membership barrier (the survivors' decision barrier).
    cx.decide(0)?;
    let (mut lg, snap_iter) = reconstruct_partition::<M>(shared, ctx.id());
    // The newbie does not know the episode's resume iteration (that lives
    // in the survivors' state); its reload fail point keys on the snapshot
    // epoch it reloaded to instead.
    cx.resume_iter = snap_iter;
    cx.fail_here(RELOAD.1)?;
    cx.mark(RELOAD.0);
    cx.fence()?;

    full_sync(cx, &mut lg)?;
    cx.mark("reconstruct");

    cx.st.iter = snap_iter;
    let mut report = cx.report("checkpoint");
    (report.vertices_recovered, report.edges_recovered) = shared.model.graph_stats(&lg);
    cx.st.recoveries.push(report);
    Ok(lg)
}

/// Post-reload replica refresh: every master pushes its restored state to
/// all of its replicas (one full sync round with its own barriers).
fn full_sync<M: ComputeModel>(cx: &mut AttemptCx<'_, M>, lg: &mut M::Graph) -> Attempt<()> {
    let (model, st) = (&cx.shared.model, &mut *cx.st);
    let mut batches: Vec<Vec<VertexSync<M::Value>>> = vec![Vec::new(); st.alive.len()];
    for pos in (0..lg.len() as u32).filter(|&pos| lg.is_master(pos)) {
        let scatter = model.scatter_bit(lg, pos);
        let meta = lg.full(pos);
        for (node, &rpos) in meta.replica_nodes().iter().zip(meta.replica_positions()) {
            batches[node.index()].push(VertexSync {
                pos: rpos,
                value: lg.value(pos).clone(),
                activate: scatter,
            });
        }
    }
    // One columnar sync frame per destination, in node order, charged what
    // it encodes to. A sync round, not a protocol message: the fabric books
    // it, the episode's `comm` does not.
    for (node, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            let msg = ProtoMsg::Sync(batch);
            let bytes = msg.encoded_len() as u64;
            cx.ctx
                .send_kind(NodeId::from_index(node), msg, bytes, CommKind::Recovery);
        }
    }
    barrier_ok(cx.ctx)?;
    let incoming = collect_syncs(cx.ctx, st, lg, cx.shared);
    model.apply_full_sync(lg, incoming);
    barrier_ok(cx.ctx)?;
    Ok(())
}
