//! Rebirth (§5.1): the survivors reload a hot standby with the crashed
//! node's copies, in the crashed layout, and the standby replays.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use imitator_cluster::Envelope;
use imitator_engine::{CopyKind, EdgeLists, FullState, FullStateBatches};
use imitator_graph::Vid;

use super::migration::migrate;
use super::rounds::{barrier_ok, AttemptCx, RECONSTRUCT, RELOAD, REPLAY};
use super::{Abort, Attempt, Undo};
use crate::driver::{ComputeModel, Ctx, ModelGraph, Shared, St, RECOVERY_PATIENCE};
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
        .map(|_| RebirthBatch {
            resume_iter: cx.resume_iter,
            num_survivors: cx.survivors.len() as u32,
            records: Vec::new(),
            replica_lists: Vec::new(),
            consumers: Vec::new(),
            states: FullState::default(),
            lists: Vec::new(),
        })
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
                let feeds = state.out_remote.iter().filter(|r| r.node == d);
                let before = batch.consumers.len();
                batch.consumers.extend(feeds.map(|r| r.pos));
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
    undo: &mut Undo,
) -> Attempt<RecoveryReport> {
    // An empty standby pool degrades to Migration onto the survivors.
    if !cx.standbys_dispatched()? {
        return migrate(cx, lg, undo, "rebirth→migration");
    }

    // Reloading (§5.1.1): scan local masters and mirrors, build one batch
    // per crashed node. The responsible mirror (first surviving node in
    // mirror-ID order) recovers the master; every master recovers its own
    // lost replicas.
    let (recovered, recovered_edges, mut promoted) = cx.phase(&RELOAD, |cx| {
        let (batches, promoted, edges) = reload_scan(cx, lg);
        let mut recovered = 0;
        // Every crashed node gets a batch, even an empty one — the newbie
        // counts `num_survivors` batches before it considers itself reloaded.
        for (&d, batch) in cx.dead.iter().zip(batches) {
            recovered += batch.records.len() as u64;
            cx.send(d, ProtoMsg::Rebirth(Box::new(batch), PhantomData));
        }
        Ok((recovered, edges, promoted))
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

/// A newbie reconstructing a crashed identity: receive one batch from every
/// survivor (placement is position-addressed, so reconstruction happens on
/// the fly, §5.1.2), reload any model-specific extra state, validate, and
/// replay (§5.1.3).
///
/// Fails when the attempt aborted: the newbie has no pre-episode state to
/// restore, so its caller crashes it (suicide-on-abort) and the next attempt
/// consumes a fresh standby. It detects aborts two ways — a failed barrier,
/// or (while blocked waiting for batches a crashed survivor will never send)
/// the coordinator reporting an unrecovered failure, upon which it joins the
/// survivors' next barrier to observe the failure officially.
pub(crate) fn rebirth_newbie<M: ComputeModel>(
    ctx: &Ctx<M>,
    shared: &Shared<M>,
    st: &mut St<M>,
) -> Attempt<M::Graph> {
    let me = [ctx.id()];
    let cx = &mut AttemptCx::new(ctx, shared, st, &me, 0);
    let model = &shared.model;
    // Membership barrier (the survivors' decision barrier). The DFS reads
    // run behind the survivors' scan and batches from here on.
    cx.decide(0)?;
    cx.prefetch();

    let mut lg = model.empty_graph(ctx.id());
    let mut got = 0u32;
    let mut expected: Option<u32> = None;
    let deadline = Instant::now() + RECOVERY_PATIENCE;
    while expected.is_none_or(|e| got < e) {
        let Some(env) = ctx.recv_timeout(Duration::from_millis(1)) else {
            if ctx.cluster().coordinator().has_unrecovered_failure() {
                // A survivor crashed mid-attempt; its batch will never
                // arrive. Enter the barrier the survivors are converging on
                // (it must report the failure) and abort with them.
                barrier_ok(ctx)?;
                return Err(Abort::Failures(Vec::new()));
            }
            assert!(
                Instant::now() < deadline,
                "rebirth batch from survivor (recovery wedged)"
            );
            continue;
        };
        match env.msg {
            ProtoMsg::Rebirth(batch, _) => {
                got += 1;
                let (num_survivors, resume_iter) = (batch.num_survivors, batch.resume_iter);
                model.place_reborn(&mut lg, *batch, &shared.degrees);
                if expected.replace(num_survivors).is_none() {
                    // The first batch tells the newbie where the episode
                    // resumes, which its fail points key on.
                    cx.resume_iter = resume_iter;
                    cx.fail_here(RELOAD.1)?;
                }
            }
            other => cx.st.stash.push(Envelope {
                from: env.from,
                msg: other,
            }),
        }
    }
    while let Some(file) = cx.prefetched(RELOAD.0) {
        model.rebirth_reload_extra(&mut lg, &file);
    }
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
