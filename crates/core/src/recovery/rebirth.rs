//! Rebirth (§5.1): the survivors reload a hot standby with the crashed
//! node's copies, in the crashed layout, and the standby replays.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use imitator_cluster::NodeId;
use imitator_engine::{CopyKind, EdgeLists, FullStateBatches};
use imitator_graph::Vid;

use super::migration::migrate;
use super::rounds::{barrier_ok, AttemptCx, RECONSTRUCT, RELOAD, REPLAY};
use super::Attempt;
use crate::driver::{ComputeModel, Ctx, ModelGraph, Shared, St};
use crate::msg::{ProtoMsg, RebirthBatch, Reborn};
use crate::plan::responsible_mirror;
use crate::report::RecoveryReport;

/// The reload scan, in ascending position order: one batch per crashed
/// node (indexed like the episode's `dead` slice), the vids this node
/// recovers as master and the in-edges those bring.
fn reload_scan<M: ComputeModel>(
    cx: &AttemptCx<'_, M>,
    lg: &M::Graph,
) -> (Vec<RebirthBatch<M::Value>>, Vec<Vid>, u64) {
    let (model, dead, me) = (&cx.shared.model, cx.dead, cx.me());
    let mut out: Vec<RebirthBatch<M::Value>> = dead
        .iter()
        .map(|_| RebirthBatch::new(cx.resume_iter, cx.survivors.len() as u32))
        .collect();
    // Per crashed node, the copies here whose full state its batch ships.
    let mut held: Vec<Vec<(u32, EdgeLists)>> = dead.iter().map(|_| Vec::new()).collect();
    let (mut promoted, mut edges) = (Vec::new(), 0);
    let record = |pos, at, kind| Reborn {
        vid: lg.vid(pos),
        pos: at,
        kind,
        last_activate: model.scatter_bit(lg, pos),
        master_node: lg.master_node(pos),
        value: lg.value(pos).clone(),
    };
    for pos in 0..lg.len() as u32 {
        // The crashed node whose master this copy stands in for, if any.
        let stands_in = match lg.kind(pos) {
            CopyKind::Master => None,
            CopyKind::Mirror => {
                let master = lg.master_node(pos);
                let Some(mi) = dead.iter().position(|&d| d == master) else {
                    continue;
                };
                if responsible_mirror(lg.full(pos), &cx.st.alive) != Some(me) {
                    continue;
                }
                // Recover the master at its original position...
                let state = lg.exported(pos);
                out[mi]
                    .records
                    .push(record(pos, state.locations.master_pos(), CopyKind::Master));
                held[mi].push((pos, EdgeLists::ALL));
                edges += state.in_edges.len() as u64;
                promoted.push(lg.vid(pos));
                Some(mi)
            }
            CopyKind::Replica => continue,
        };
        // ...and every master recovers its own lost replicas — a recovered
        // one, under multiple failures, those lost on *other* crashed nodes.
        let state = lg.exported(pos);
        let others = dead
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != stands_in);
        for (i, &d) in others {
            let Some(rpos) = state.locations.replica_position_on(d) else {
                continue;
            };
            let batch = &mut out[i];
            if state.locations.mirror_nodes().contains(&d) {
                batch.records.push(record(pos, rpos, CopyKind::Mirror));
                held[i].push((pos, EdgeLists::ALL));
            } else {
                batch.records.push(record(pos, rpos, CopyKind::Replica));
                let feeds = state.out_remote.iter().map(|r| r.consumer);
                let feeds = feeds.filter(|&c| cx.st.master_of(&cx.shared.owners, c) == d);
                let before = batch.consumers.len();
                batch.consumers.extend(feeds);
                batch
                    .replica_lists
                    .push((batch.consumers.len() - before) as u32);
            }
        }
    }
    for (batch, held) in out.iter_mut().zip(&held) {
        (batch.states, batch.lists) = lg.export_full_states(held);
    }
    (out, promoted, edges)
}

pub(super) fn rebirth_survivor<M: ComputeModel>(
    cx: &mut AttemptCx<'_, M>,
    lg: &mut M::Graph,
) -> Attempt<RecoveryReport> {
    // An empty standby pool degrades to Migration onto the survivors.
    if !cx.standbys_dispatched()? {
        return migrate(cx, lg, "rebirth→migration");
    }

    // Reloading (§5.1.1): scan local masters and mirrors, build one batch
    // per crashed node. The responsible mirror (first surviving node in
    // mirror-ID order) recovers the master; every master recovers its own
    // lost replicas. The step's barrier is the one the newbies wait at.
    let (recovered, recovered_edges, mut promoted) = cx.round(&RELOAD, |cx| {
        let (batches, promoted, edges) = reload_scan(cx, lg);
        let mut recovered = 0;
        // Every crashed node gets a batch, even an empty one — the newbie
        // checks that it got `num_survivors` of them.
        for (&d, batch) in cx.dead.iter().zip(batches) {
            recovered += batch.records.len() as u64;
            cx.send(d, ProtoMsg::Rebirth(Box::new(batch), PhantomData));
        }
        (recovered, edges, promoted)
    })?;
    cx.fence()?;

    // Membership restored: the newbies carry the crashed identities.
    for d in cx.dead {
        cx.st.alive[d.index()] = true;
    }
    promoted.sort_unstable();
    let mut report = cx.report("rebirth");
    (report.vertices_recovered, report.edges_recovered) = (recovered, recovered_edges);
    (report.promoted, report.contacted) = (promoted, cx.dead.to_vec());
    Ok(report)
}

/// The graph of `me` rebuilt from Rebirth batches (§5.1.2): an empty one,
/// every batch placed where it says, then the model's reload files wired in.
pub(super) fn reborn<M: ComputeModel>(
    shared: &Shared<M>,
    me: NodeId,
    batches: impl IntoIterator<Item = RebirthBatch<M::Value>>,
    files: impl Iterator<Item = Arc<Vec<u8>>>,
) -> M::Graph {
    let model = &shared.model;
    let mut lg = model.empty_graph(me);
    model.place_reborn(&mut lg, batches.into_iter().collect(), &shared.degrees);
    for file in files {
        model.rebirth_reload_extra(&mut lg, &file);
    }
    lg
}

/// A newbie reconstructing a crashed identity: take one batch from every
/// survivor at the reload barrier, rebuild from them and the model's reload
/// files ([`reborn`]), validate, and replay (§5.1.3).
///
/// Fails when the attempt aborted, which the newbie learns as every survivor
/// does: at a failed barrier. It has no pre-episode state to restore, so its
/// caller crashes it (suicide-on-abort) and the next attempt consumes a
/// fresh standby.
pub(crate) fn rebirth_newbie<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Shared<M>,
    st: &mut St<M>,
) -> Attempt<M::Graph> {
    let me = [ctx.id()];
    let cx = &mut AttemptCx::new(ctx, shared, st, &me, 0);
    let model = &shared.model;
    // The survivors' decision and reload barriers; the DFS reads run behind
    // their scan, and every batch is queued behind the second barrier.
    cx.decide(0)?;
    cx.prefetch();
    barrier_ok(ctx)?;

    // In sender order, so placement order does not follow arrival order.
    let batches = cx.take(|msg| match msg {
        ProtoMsg::Rebirth(batch, _) => Ok(batch),
        other => Err(other),
    });
    let (_, first) = batches
        .first()
        .expect("a clean reload barrier delivers every survivor's batch");
    assert_eq!(
        batches.len(),
        first.num_survivors as usize,
        "{}: a Rebirth batch per survivor",
        ctx.id()
    );
    // A batch tells the newbie where the episode resumes, which its fail
    // points key on.
    cx.resume_iter = first.resume_iter;
    cx.fail_here(RELOAD.1)?;
    let batches = batches.into_iter().map(|(_, batch)| *batch);
    let files = std::iter::from_fn(|| cx.prefetched(RELOAD.0));
    let mut lg = reborn(shared, ctx.id(), batches, files);
    cx.mark(RELOAD.0);

    // Reconstruction is implicit; validate the rebuilt layout, then run the
    // model's replay (activation fix-ups for the sparse engine; the dense
    // engine's next apply refreshes everything, so its replay is zero).
    cx.phase(&RECONSTRUCT, |_| {
        model.validate(&lg);
        Ok(())
    })?;
    cx.fail_here(REPLAY.1)?;
    let replayed = model.rebirth_replay(&mut lg, shared, cx.resume_iter);
    let replay = cx.lap();
    let replay = if replayed { replay } else { Duration::ZERO };
    cx.phases.record(REPLAY.0, replay);

    cx.st.iter = cx.resume_iter;
    // Reconstruction barrier: only a clean outcome makes the rebirth real.
    cx.fence()?;
    let mut report = cx.report("rebirth");
    (report.vertices_recovered, report.edges_recovered) = model.graph_stats(&lg);
    cx.st.recoveries.push(report);
    Ok(lg)
}
