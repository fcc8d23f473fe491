//! The model-generic, **restartable** recovery state machine.
//!
//! One implementation of the paper's three recovery paths — Rebirth (§5.1,
//! `rebirth`), Migration (§5.2, `migration`), and the checkpoint baseline
//! (§2.2-2.3, `ckpt`) — driven through the [`ComputeModel`] reconstruction
//! primitives. Strategy selection, standby dispatch, the barrier-separated
//! migration rounds R1-R8, the snapshot-chain replay, and the post-reload
//! full-sync round all live here exactly once; the models contribute only
//! entry encoding/placement and their genuinely different reload sources
//! (edge-ckpt files, activation replay).
//!
//! Every path has the paper's one shape — barrier-separated rounds of "read
//! what the last round sent, rewrite the local graph, send every survivor
//! its share" — so each is a sequence of bodies handed to the round driver
//! of `rounds` ([`AttemptCx`]), which owns the fail point in front of a
//! round, the barrier behind it and its phase key (DESIGN.md §4.2).
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
//! A newbie that observes a failed barrier while it is being reborn cannot
//! restore anything (it has no pre-episode state): it crashes itself and
//! lets the next attempt dispatch a fresh one. Consequently each aborted
//! attempt may consume standbys, and recovery carries on when the standby
//! pool runs dry: Rebirth falls back to Migration onto the survivors
//! ("rebirth→migration"), and checkpoint recovery rebuilds each dead slot
//! under its own identity on a thread a survivor hosts
//! ("checkpoint→hosted"), which fails with its host — no panic, no wedged
//! cluster.
//!
//! Recovery runs on the node's protocol thread, as plain loops over its
//! `&mut` graph: the paper's recovery is parallel across the surviving
//! machines (§5.1-5.2), and the worker pool is for the superstep's compute
//! kernels alone (DESIGN.md §4.4).

use std::time::Duration;

use imitator_cluster::{BarrierOutcome, NodeCtx, NodeId};
use imitator_engine::Episode;
use imitator_graph::VidMap;
use imitator_metrics::{RecoveryCounters, Stopwatch};
use imitator_storage::codec::Encode;

use crate::driver::{ComputeModel, Ctx, ModelGraph, Shared, St};
use crate::{FtMode, RecoveryStrategy};

mod ckpt;
mod migration;
mod rebirth;
mod rounds;

pub(crate) use ckpt::ckpt_newbie;
pub(crate) use migration::{Mig, MigEnv};
pub(crate) use rebirth::rebirth_newbie;
use rounds::AttemptCx;

#[cfg(test)]
use migration::R7_TALLY;

// --------------------------------------------------------------------------
// Attempt plumbing: aborts, undo
// --------------------------------------------------------------------------

/// Why a recovery attempt stopped before completing.
pub(crate) enum Abort {
    /// A barrier inside the attempt reported further failures; every
    /// survivor restores its pre-episode state and restarts with the
    /// enlarged failure set.
    Failures(Vec<NodeId>),
    /// This node itself crashed at an injected fail point, or found itself
    /// fenced by the detector; it unwinds out of the recovery machinery and
    /// its thread exits.
    Crashed,
}

/// The result of (part of) one recovery attempt.
pub(crate) type Attempt<T> = Result<T, Abort>;

/// Everything a survivor must restore to retry a recovery attempt as if the
/// aborted one never ran: the local graph (copy kinds, metas, edge wiring,
/// values, appended copies) and every piece of node state the recovery
/// paths mutate.
///
/// The node state is copied when the episode starts. The graph undoes
/// itself: an attempt that writes it opens an episode on it
/// ([`Episode::begin_episode`], before its first write — Migration and a
/// checkpoint attempt alike), from where
/// its stores only grow and its mutators save what they overwrite, the
/// value column imaged whole on its first value write (`imitator_engine`'s
/// `episode` module). [`Undo::restore`] rolls the episode back; success
/// commits it. Both cost what the attempt changed, and setting up costs
/// nothing. A Rebirth attempt only reads its graph and opens none, so its
/// rollback does nothing. Every undo takes the graph back to exactly its
/// pre-episode state, so an episode can abort any number of times.
///
/// Debug builds check every undo against a clone of the pre-episode graph:
/// a rollback must leave a graph equal to it, field for field and list for
/// list, values by their encoding (not `==`: programs stuck on NaN).
struct Undo<G: ModelGraph> {
    #[cfg(debug_assertions)]
    oracle: G,
    #[cfg(not(debug_assertions))]
    oracle: std::marker::PhantomData<G>,
    overlay: VidMap<NodeId>,
    mirror_assign: Vec<usize>,
    alive: Vec<bool>,
    dirty: Vec<u32>,
    iter: u64,
    replay_until: u64,
}

impl<G: ModelGraph<Value: Encode> + Clone> Undo<G> {
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn capture<T>(st: &crate::rt::NodeState<T>, lg: &G) -> Self {
        Undo {
            #[cfg(debug_assertions)]
            oracle: lg.clone(),
            #[cfg(not(debug_assertions))]
            oracle: std::marker::PhantomData,
            overlay: st.overlay.clone(),
            mirror_assign: st.mirror_assign.clone(),
            alive: st.alive.clone(),
            dirty: st.dirty.clone(),
            iter: st.iter,
            replay_until: st.replay_until,
        }
    }

    fn restore<T>(&self, lg: &mut G, st: &mut crate::rt::NodeState<T>) {
        lg.rollback();
        #[cfg(debug_assertions)]
        assert!(
            lg.eq_by(&self.oracle, |a, b| a.to_bytes() == b.to_bytes()),
            "the rolled-back graph is not the pre-episode one"
        );
        st.overlay = self.overlay.clone();
        st.mirror_assign = self.mirror_assign.clone();
        st.alive = self.alive.clone();
        st.dirty = self.dirty.clone();
        st.iter = self.iter;
        st.replay_until = self.replay_until;
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
/// costs outside the attempt is inside `RecoveryReport::total` too: the
/// model's `after_recovery` hook and letting the undo go — committing the
/// journal — are booked to `reconstruct` (phase key `after_recovery`). Time
/// spent fencing aborted attempts accumulates into the report's `fence`
/// phase — it is wall-clock the episode really cost.
pub(crate) fn recover<M: ComputeModel>(
    ctx: &Ctx<M>,
    lg: &mut M::Graph,
    shared: &Shared<M>,
    st: &mut St<M>,
    dead: &[NodeId],
    resume_iter: u64,
) -> bool {
    // The survivors' path under the configured strategy.
    let path: fn(&mut AttemptCx<'_, M>, &mut M::Graph) -> Attempt<_> = match shared.cfg.ft {
        FtMode::None => panic!("node failure injected with fault tolerance disabled"),
        FtMode::Checkpoint { .. } => ckpt::ckpt_survivor,
        FtMode::Replication { recovery, .. } => match recovery {
            RecoveryStrategy::Rebirth => rebirth::rebirth_survivor,
            RecoveryStrategy::Migration => |cx, lg| migration::migrate(cx, lg, "migration"),
        },
    };
    if dead.contains(&ctx.id()) {
        // The detector fenced *us* — from the cluster's point of view this
        // node is dead and a recovery episode for it is already under way
        // elsewhere. Exit like a crash; do not fight the fence.
        return true;
    }
    let undo = Undo::capture(st, lg);
    let mut episode = Vec::new();
    union_into(&mut episode, dead.to_vec());
    let mut counters = RecoveryCounters::default();
    let mut fence_time = Duration::ZERO;
    loop {
        counters.attempts += 1;
        st.mark_dead(&episode);
        let mut cx = AttemptCx::new(ctx, shared, st, &episode, resume_iter);
        match path(&mut cx, lg) {
            Ok(mut report) => {
                (report.counters, report.journal_bytes) = (counters, lg.journal_bytes() as u64);
                report.phases.record("fence", fence_time);
                let sw = Stopwatch::start();
                shared.model.after_recovery(lg);
                lg.commit();
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
                union_into(&mut episode, new_dead);
                undo.restore(lg, st);
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

/// Unions newly failed nodes into the episode's failure set, kept ascending.
fn union_into(episode: &mut Vec<NodeId>, failed: Vec<NodeId>) {
    episode.extend(failed);
    episode.sort_unstable();
    episode.dedup();
}

/// Re-synchronises the survivors after an aborted attempt: discard every
/// message belonging to it (stash and queue), then loop barriers until one
/// completes clean. A barrier that reports further failures — including the
/// suicide marks of newbies dispatched for the aborted attempt — unions
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
            BarrierOutcome::Failed(list) => union_into(episode, list),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests;
