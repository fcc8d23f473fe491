//! One recovery attempt's context and the round driver every path runs on.
//!
//! A path is a sequence of *steps* ([`Step`]: a phase key and a fail point,
//! from the tables below) whose bodies it supplies. [`AttemptCx::phase`]
//! consults the fail point, runs the body and books the time since the last
//! booking under the key; [`AttemptCx::round`] also closes the step with the
//! barrier that doubles as a failure detector. A body reads what the last
//! round sent with [`AttemptCx::take`], sends every other survivor its share
//! with [`AttemptCx::send_others`] (each charged what it encodes to), and
//! returns what a later round needs;
//! what else it may and may not do is DESIGN.md §4.2.

use std::sync::Arc;

use imitator_cluster::{BarrierOutcome, FailPoint, NodeCtx, NodeId};
use imitator_metrics::{CommKind, CommStats, PhaseTimes, Stopwatch};
use imitator_storage::codec::Encode;
use imitator_storage::ReadAhead;

use super::{Abort, Attempt};
use crate::driver::{self, ComputeModel, Ctx, Msg, Shared, St};
use crate::report::RecoveryReport;

/// One step of a recovery path: the phase key its time is booked under and
/// the fail point consulted as it starts.
pub(super) type Step = (&'static str, FailPoint);

/// Migration's eight rounds (§5.2).
pub(super) const MIGRATION_ROUNDS: [Step; 8] = [
    ("migration_round1", FailPoint::MigrationRound(1)),
    ("migration_round2", FailPoint::MigrationRound(2)),
    ("migration_round3", FailPoint::MigrationRound(3)),
    ("migration_round4", FailPoint::MigrationRound(4)),
    ("migration_round5", FailPoint::MigrationRound(5)),
    ("migration_round6", FailPoint::MigrationRound(6)),
    ("migration_round7", FailPoint::MigrationRound(7)),
    ("migration_round8", FailPoint::MigrationRound(8)),
];

/// The three phases of a standby-based recovery (§5.1); checkpoint recovery
/// reloads under the first.
pub(super) const RELOAD: Step = ("reload", FailPoint::RebirthReload);
pub(super) const RECONSTRUCT: Step = ("reconstruct", FailPoint::RebirthReconstruct);
pub(super) const REPLAY: Step = ("replay", FailPoint::RebirthReplay);

/// Enters a barrier inside recovery, contributing `v` to its sum; a failed
/// outcome aborts the attempt. Finding *this node* in the failure list means
/// the detector fenced it (a false suspicion that outlived the fence
/// window): it is no longer a cluster member and must unwind exactly like a
/// crashed node.
fn barrier_sum_ok<T: Send + 'static>(ctx: &NodeCtx<T>, v: u64) -> Attempt<u64> {
    match ctx.enter_barrier_sum(v) {
        (BarrierOutcome::Clean, sum) => Ok(sum),
        (BarrierOutcome::Failed(list), _) if list.contains(&ctx.id()) => Err(Abort::Crashed),
        (BarrierOutcome::Failed(list), _) => Err(Abort::Failures(list)),
    }
}

/// [`barrier_sum_ok`] for a barrier that decides nothing.
pub(super) fn barrier_ok<T: Send + 'static>(ctx: &NodeCtx<T>) -> Attempt<()> {
    barrier_sum_ok(ctx, 0).map(drop)
}

/// One recovery attempt of one node: what every step of it needs and what
/// it has booked so far. A newbie's is over the identity it is reborn as.
pub(super) struct AttemptCx<'a, M: ComputeModel> {
    pub ctx: &'a Ctx<M>,
    pub shared: &'a Shared<M>,
    pub st: &'a mut St<M>,
    /// The episode's crashed nodes, ascending.
    pub dead: &'a [NodeId],
    /// Where the cluster resumes (fail points key on it); a newbie learns it.
    pub resume_iter: u64,
    /// The nodes this node sees alive, itself included, ascending.
    pub survivors: Vec<NodeId>,
    /// `survivors` without this node.
    pub others: Vec<NodeId>,
    /// The attempt's phase breakdown, in booking order.
    pub phases: PhaseTimes,
    /// Recovery traffic sent by this node.
    pub comm: CommStats,
    /// Runs since the last booking.
    since: Stopwatch,
    /// What the model reloads from the DFS, on its way.
    prefetch: Option<ReadAhead>,
}

impl<'a, M: ComputeModel> AttemptCx<'a, M> {
    /// The context of an attempt starting now. `st` already holds `dead`
    /// as dead (a survivor's) or knows of no failure (a newbie's).
    pub(super) fn new(
        ctx: &'a Ctx<M>,
        shared: &'a Shared<M>,
        st: &'a mut St<M>,
        dead: &'a [NodeId],
        resume_iter: u64,
    ) -> Self {
        let survivors = st.alive_nodes();
        let others = survivors.iter().copied().filter(|&n| n != ctx.id());
        AttemptCx {
            ctx,
            shared,
            dead,
            resume_iter,
            others: others.collect(),
            survivors,
            st,
            phases: PhaseTimes::new(),
            comm: CommStats::default(),
            since: Stopwatch::start(),
            prefetch: None,
        }
    }

    pub(super) fn me(&self) -> NodeId {
        self.ctx.id()
    }

    /// Consults the failure injector for a recovery-phase crash at this
    /// point; on a hit the node crashes: it unwinds without another send,
    /// drain or barrier, and its context's close event is what the peers'
    /// heartbeat scans confirm.
    pub(super) fn fail_here(&mut self, point: FailPoint) -> Attempt<()> {
        let injector = &self.shared.injector;
        if injector.should_fail(self.me(), self.resume_iter, point) {
            self.st.settle();
            return Err(Abort::Crashed);
        }
        Ok(())
    }

    /// The time since the last booking, which starts over.
    pub(super) fn lap(&mut self) -> std::time::Duration {
        self.since.lap()
    }

    /// Books the time since the last booking under `key`.
    pub(super) fn mark(&mut self, key: &'static str) {
        let lap = self.lap();
        self.phases.record(key, lap);
    }

    /// Starts reading the model's reload files ([`ComputeModel::reload_files`])
    /// ahead of the step that consumes them.
    pub(super) fn prefetch(&mut self) {
        let (dfs, model, leader) = (&self.shared.dfs, &self.shared.model, self.st.leader());
        let extents = model.reload_files(self.dead, self.me(), leader);
        self.prefetch = (!extents.is_empty()).then(|| dfs.read_ahead(extents));
    }

    /// The next reload file or section, once landed. Books the step so far
    /// under `key`, and what this call blocked for apart, as `prefetch_wait`.
    pub(super) fn prefetched(&mut self, key: &'static str) -> Option<Arc<Vec<u8>>> {
        self.mark(key);
        let file = self.prefetch.as_mut()?.next();
        self.mark("prefetch_wait");
        Some(file?.expect("table decodes"))
    }

    /// One step without a closing barrier: fail point, `body`, booking.
    pub(super) fn phase<T>(
        &mut self,
        &(key, point): &Step,
        body: impl FnOnce(&mut Self) -> Attempt<T>,
    ) -> Attempt<T> {
        self.fail_here(point)?;
        let out = body(self)?;
        self.mark(key);
        Ok(out)
    }

    /// One barrier-separated round: fail point, `body`, the barrier every
    /// participant of the attempt enters — a failed one aborts the attempt —
    /// and the booking, barrier wait included.
    pub(super) fn round<T>(
        &mut self,
        step: &Step,
        body: impl FnOnce(&mut Self) -> T,
    ) -> Attempt<T> {
        self.phase(step, |cx| {
            let out = body(cx);
            barrier_ok(cx.ctx)?;
            Ok(out)
        })
    }

    /// A barrier between two steps, its wait booked as `fence`.
    pub(super) fn fence(&mut self) -> Attempt<()> {
        self.lap();
        barrier_ok(self.ctx)?;
        self.mark("fence");
        Ok(())
    }

    /// The decision barrier of the standby-based strategies, which the
    /// dispatched standbys enter as their membership barrier: returns the
    /// summed votes, and the attempt's bookings start behind it.
    pub(super) fn decide(&mut self, vote: u64) -> Attempt<u64> {
        let votes = barrier_sum_ok(self.ctx, vote)?;
        self.lap();
        Ok(votes)
    }

    /// Whether the episode recovers onto hot standbys. The leader dispatches
    /// one per crashed identity if the pool covers the whole episode (all or
    /// none — partial dispatch would leave survivors and newbies disagreeing
    /// about the protocol shape), before entering the decision barrier, so it
    /// cannot complete without the newbies, and votes the outcome.
    pub(super) fn standbys_dispatched(&mut self) -> Attempt<bool> {
        let cluster = self.ctx.cluster();
        let covered = self.me() == self.st.leader()
            && cluster.coordinator().standbys_available() >= self.dead.len();
        if covered {
            for &d in self.dead {
                let dispatched = cluster.dispatch_standby(d);
                debug_assert!(dispatched, "standby pool shrank under the leader");
            }
        }
        Ok(self.decide(u64::from(covered))? != 0)
    }

    /// Checkpoint recovery's decision: the leader starts a newbie under
    /// every crashed identity before entering the decision barrier, which
    /// cannot complete without them — on a standby while the pool lasts,
    /// else on a thread a survivor hosts, round-robin over the survivors
    /// that are no hosted slots themselves. Returns how many it hosted.
    pub(super) fn newbies_dispatched(&mut self) -> Attempt<u64> {
        let (cluster, mut hosted) = (self.ctx.cluster(), 0);
        if self.me() == self.st.leader() {
            let coord = cluster.coordinator();
            let hosts = self.survivors.iter().filter(|&&n| coord.host(n).is_none());
            for (&d, &host) in self.dead.iter().zip(hosts.cycle()) {
                if !cluster.dispatch_standby(d) {
                    cluster.dispatch_hosted(d, host);
                    hosted += 1;
                }
            }
        }
        self.decide(hosted)
    }

    /// The leader acknowledges the episode's crashed nodes as recovered onto
    /// the survivors.
    pub(super) fn ack_recovered(&self) {
        if self.me() == self.st.leader() {
            for &d in self.dead {
                self.ctx.cluster().coordinator().ack_recovered(d);
            }
        }
    }

    /// This round's messages of one kind ([`driver::kind`]) with their
    /// senders, in sender order; anything else stays stashed.
    pub(super) fn take<T>(
        &mut self,
        kind: impl Fn(Msg<M>) -> Result<T, Msg<M>>,
    ) -> Vec<(NodeId, T)> {
        driver::take::<M, T>(self.ctx, self.st, kind)
    }

    /// Sends every other survivor its `share` of this round; an empty one is
    /// barrier traffic that still costs its header.
    pub(super) fn send_others(&mut self, mut share: impl FnMut(NodeId) -> Msg<M>) {
        for i in 0..self.others.len() {
            let n = self.others[i];
            self.send(n, share(n));
        }
    }

    /// Sends `msg` to `to` as recovery traffic, charged what it encodes to.
    pub(super) fn send(&mut self, to: NodeId, msg: Msg<M>) {
        let bytes = msg.encoded_len() as u64;
        self.comm.record(1, bytes);
        self.ctx.send_kind(to, msg, bytes, CommKind::Recovery);
    }

    /// Closes the attempt's books into a report; what was recovered is the
    /// path's to fill in. The coarse phases are the keys of the same name
    /// (`reload` with `undo_capture` and `prefetch_wait`); Migration books
    /// rounds and sets them.
    pub(super) fn report(&mut self, strategy: &'static str) -> RecoveryReport {
        let booked = |key| self.phases.get(key).unwrap_or_default();
        RecoveryReport {
            reload: booked("undo_capture") + booked("reload") + booked("prefetch_wait"),
            reconstruct: booked("reconstruct"),
            replay: booked("replay"),
            suspicion: self.ctx.cluster().coordinator().suspicion_stats(),
            comm: std::mem::take(&mut self.comm),
            phases: std::mem::take(&mut self.phases),
            ..RecoveryReport::new(strategy, self.dead.len())
        }
    }
}
