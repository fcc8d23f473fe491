//! Checkpoint recovery (§2.2-2.3): every node rolls back to the newest
//! committed snapshot epoch and the lost iterations re-run. Every crashed
//! slot restarts under its own identity on a newbie that rebuilds it from
//! the DFS: a hot standby while the pool lasts, else a thread a survivor
//! hosts, which fails with its host.

use imitator_cluster::NodeId;
use imitator_engine::Episode;
use imitator_metrics::CommKind;
use imitator_storage::codec::Encode;
use imitator_storage::Extent;

use super::rebirth::reborn;
use super::rounds::{barrier_ok, AttemptCx, RELOAD};
use super::Attempt;
use crate::ckpt;
use crate::driver::{collect_syncs, ComputeModel, Ctx, ModelGraph, Shared, St};
use crate::msg::{ProtoMsg, VertexSync};
use crate::report::RecoveryReport;

/// What an episode is reported as: a hosted slot is the one difference
/// from a machine replaced by a standby.
fn strategy(hosted: u64) -> &'static str {
    if hosted == 0 {
        "checkpoint"
    } else {
        "checkpoint→hosted"
    }
}

pub(super) fn ckpt_survivor<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    lg: &mut M::Graph,
) -> Attempt<RecoveryReport> {
    let hosted = cx.newbies_dispatched()?;

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
    let mut report = cx.report(strategy(hosted));
    report.vertices_recovered = lg.num_masters() as u64;
    Ok(report)
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

/// A newbie — a standby, or a thread a survivor hosts — reconstructing a
/// crashed identity from the DFS: a Rebirth newbie
/// ([`super::rebirth_newbie`]) whose batch is the metadata snapshot.
///
/// Fails when the attempt aborted, which it learns at a failed barrier like
/// every node (suicide-on-abort, as in [`super::rebirth_newbie`]); a hosted
/// one whose host died learns there that it died too.
pub(crate) fn ckpt_newbie<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Shared<M>,
    st: &mut St<M>,
) -> Attempt<M::Graph> {
    let me = [ctx.id()];
    let cx = &mut AttemptCx::new(ctx, shared, st, &me, 0);
    // Membership barrier (the survivors' decision barrier).
    let hosted = cx.decide(0)?;
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
    let mut report = cx.report(strategy(hosted));
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
