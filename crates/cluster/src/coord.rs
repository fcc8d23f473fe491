//! The coordination service (ZooKeeper's role in the paper).
//!
//! Provides epoch-numbered global barriers whose *outcome* carries failure
//! information, membership tracking driven by the heartbeat
//! [`FailureDetector`], and bookkeeping for standby adoption and for the
//! slots a survivor hosts. Algorithm 1's
//! `enter_barrier` / `leave_barrier` map directly onto
//! [`Coordinator::barrier`]: consecutive calls are consecutive barrier
//! instances.
//!
//! Liveness transitions flow through exactly one funnel: the detector's
//! `scan` decides *who* is down, [`Coordinator::mark_failed`] applies it.
//! Barrier waits are sliced by [`PUMP_QUANTUM`], so detection progresses
//! even while every node is blocked.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use imitator_metrics::SuspicionStats;
use parking_lot::{Condvar, Mutex};

use crate::detector::{DetectorConfig, FailureDetector, PUMP_QUANTUM};
use crate::NodeId;

/// The result every participant observes for one barrier instance.
///
/// All nodes arriving at the same barrier instance observe the *same*
/// outcome — the agreement Algorithm 1 relies on to make all survivors
/// roll back and recover together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// No failure was pending when the barrier completed.
    Clean,
    /// These nodes have failed and not yet been recovered. Survivors must
    /// run recovery before resuming (Algorithm 1 lines 8-12 / 17-19).
    Failed(Vec<NodeId>),
}

impl BarrierOutcome {
    /// Whether this outcome reports failures (Algorithm 1's `state.is_fail()`).
    pub fn is_fail(&self) -> bool {
        matches!(self, BarrierOutcome::Failed(_))
    }
}

#[derive(Debug)]
struct Inner {
    /// Liveness per logical node (indexed by `NodeId`).
    alive: Vec<bool>,
    /// Nodes that have arrived at the current barrier epoch.
    arrived: Vec<bool>,
    arrived_count: usize,
    /// Current (incomplete) barrier epoch.
    epoch: u64,
    /// Sum of the values contributed by arrivals at the current epoch.
    sum: u64,
    /// Completed epochs, their outcomes, and their all-reduce sums
    /// (bounded history).
    results: VecDeque<(u64, BarrierOutcome, u64)>,
    /// Failures detected since the last completed barrier.
    pending_failure: bool,
    /// Failed nodes whose state has not been recovered yet.
    unrecovered: Vec<NodeId>,
    /// Standby nodes not yet assigned.
    standbys_available: usize,
    /// The survivor whose machine carries each slot, if not its own: a
    /// slot recovered with no standby left runs on a thread its host
    /// starts, and fails with it.
    hosts: Vec<Option<NodeId>>,
}

impl Inner {
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Completes the current epoch if every alive node has arrived.
    fn try_complete(&mut self) -> bool {
        let alive = self.alive_count();
        if alive == 0 || self.arrived_count < alive {
            return false;
        }
        // Only count arrivals from currently-alive nodes.
        let all_in = self
            .alive
            .iter()
            .zip(&self.arrived)
            .all(|(&a, &arr)| !a || arr);
        if !all_in {
            return false;
        }
        let outcome = if self.pending_failure {
            BarrierOutcome::Failed(self.unrecovered.clone())
        } else {
            BarrierOutcome::Clean
        };
        self.pending_failure = false;
        self.results.push_back((self.epoch, outcome, self.sum));
        if self.results.len() > 128 {
            self.results.pop_front();
        }
        self.epoch += 1;
        self.sum = 0;
        self.arrived.iter_mut().for_each(|a| *a = false);
        self.arrived_count = 0;
        true
    }

    /// Marks `node` failed: it stops being required at the current barrier
    /// and is reported until recovered.
    fn fail(&mut self, node: NodeId, alive_fast: &[AtomicBool]) {
        if !self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = false;
        alive_fast[node.index()].store(false, Ordering::Release);
        if self.arrived[node.index()] {
            self.arrived[node.index()] = false;
            self.arrived_count -= 1;
        }
        self.pending_failure = true;
        if !self.unrecovered.contains(&node) {
            self.unrecovered.push(node);
        }
    }

    fn result_for(&self, epoch: u64) -> Option<(BarrierOutcome, u64)> {
        self.results
            .iter()
            .find(|(e, _, _)| *e == epoch)
            .map(|(_, o, s)| (o.clone(), *s))
    }
}

/// The central coordination service shared by all nodes of a [`Cluster`].
///
/// [`Cluster`]: crate::Cluster
#[derive(Debug)]
pub struct Coordinator {
    inner: Mutex<Inner>,
    cond: Condvar,
    detector: Arc<FailureDetector>,
    /// Lock-free mirror of `Inner::alive`, maintained under the lock on
    /// every liveness transition. [`Coordinator::is_alive`] sits on the
    /// per-message fabric send path, where taking the barrier mutex would
    /// serialize all senders against waiting barriers.
    alive_fast: Box<[AtomicBool]>,
}

impl Coordinator {
    /// Creates a coordinator for `num_nodes` initially-alive nodes and
    /// `num_standbys` hot standbys, detecting failures by heartbeat under
    /// `cfg`. `wall_clock` selects real time over deterministic virtual
    /// ticks (used by the TCP transport).
    pub fn new(
        num_nodes: usize,
        num_standbys: usize,
        cfg: DetectorConfig,
        wall_clock: bool,
    ) -> Self {
        Coordinator {
            inner: Mutex::new(Inner {
                alive: vec![true; num_nodes],
                arrived: vec![false; num_nodes],
                arrived_count: 0,
                epoch: 0,
                results: VecDeque::new(),
                sum: 0,
                pending_failure: false,
                unrecovered: Vec::new(),
                standbys_available: num_standbys,
                hosts: vec![None; num_nodes],
            }),
            cond: Condvar::new(),
            detector: Arc::new(FailureDetector::new(num_nodes, cfg, wall_clock)),
            alive_fast: (0..num_nodes).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// The failure detector driving this coordinator's liveness.
    pub fn detector(&self) -> &Arc<FailureDetector> {
        &self.detector
    }

    /// Point-in-time suspicion counters from the detector.
    pub fn suspicion_stats(&self) -> SuspicionStats {
        self.detector.stats()
    }

    /// Number of logical node slots (alive or not).
    pub fn num_nodes(&self) -> usize {
        self.inner.lock().alive.len()
    }

    /// Currently alive logical nodes, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.inner
            .lock()
            .alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Whether `node` is currently considered alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive_fast
            .get(node.index())
            .is_some_and(|a| a.load(Ordering::Acquire))
    }

    /// Enters the next barrier instance and blocks until every alive node
    /// has arrived; returns that instance's agreed outcome.
    ///
    /// A node that is marked failed while peers wait stops being required,
    /// so the barrier still completes (with a `Failed` outcome) — this is
    /// how the paper's delayed recovery "at the next global barrier" works.
    pub fn barrier(&self, me: NodeId) -> BarrierOutcome {
        self.barrier_sum(me, 0).0
    }

    /// Like [`Coordinator::barrier`] but also all-reduces a sum: every
    /// participant contributes `value` and observes the total across the
    /// alive nodes of this barrier instance. The engines use this for the
    /// global active-vertex count that drives convergence.
    ///
    /// A node marked failed mid-barrier contributes nothing (its value, like
    /// its messages, is lost with it).
    pub fn barrier_sum(&self, me: NodeId, value: u64) -> (BarrierOutcome, u64) {
        self.barrier_sum_pump(me, value, &mut || {})
    }

    /// Like [`Coordinator::barrier_sum`], but while blocked the caller also
    /// pumps the failure detector: each [`PUMP_QUANTUM`] slice advances the
    /// clock, self-stamps the waiter's liveness (a barrier waiter is alive
    /// by construction — only silent *non*-waiters can stay suspected),
    /// runs `emit` (the node's heartbeat-emission hook), and scans for
    /// confirmable failures.
    ///
    /// A node that was fenced out by a false suspicion observes its own
    /// death here: instead of asserting, the barrier refuses the arrival
    /// and reports the node to itself so it can exit cleanly.
    pub fn barrier_sum_pump(
        &self,
        me: NodeId,
        value: u64,
        emit: &mut dyn FnMut(),
    ) -> (BarrierOutcome, u64) {
        let mut inner = self.inner.lock();
        if !inner.alive[me.index()] {
            let mut dead = inner.unrecovered.clone();
            if !dead.contains(&me) {
                dead.push(me);
            }
            return (BarrierOutcome::Failed(dead), 0);
        }
        debug_assert!(!inner.arrived[me.index()], "{me} entered the barrier twice");
        let my_epoch = inner.epoch;
        inner.arrived[me.index()] = true;
        inner.arrived_count += 1;
        inner.sum += value;
        if inner.try_complete() {
            self.cond.notify_all();
        }
        loop {
            if let Some(result) = inner.result_for(my_epoch) {
                return result;
            }
            if self.cond.wait_for(&mut inner, PUMP_QUANTUM) {
                drop(inner);
                self.detector.tick();
                self.detector.note_alive(me);
                emit();
                self.pump_detector();
                inner = self.inner.lock();
            }
        }
    }

    /// One detection pass: asks the detector for newly-confirmed failures
    /// and applies them. This is the *only* caller of [`mark_failed`] in
    /// production paths — the funnel the transport-seam guard enforces.
    ///
    /// [`mark_failed`]: Coordinator::mark_failed
    pub fn pump_detector(&self) {
        for node in self.detector.scan(&|n| self.is_alive(n)) {
            self.mark_failed(node);
        }
    }

    /// Immediately marks `node` failed, and every slot its machine hosts
    /// with it, so one barrier outcome names them all. Production paths
    /// reach it only through [`Coordinator::pump_detector`]; a test that
    /// needs a node dead *now* calls it directly.
    pub fn mark_failed(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        inner.fail(node, &self.alive_fast);
        for slot in 0..inner.hosts.len() {
            if inner.hosts[slot] == Some(node) {
                inner.fail(NodeId::from_index(slot), &self.alive_fast);
            }
        }
        inner.try_complete();
        self.cond.notify_all();
    }

    /// Marks `node` alive again with recovered state: a standby (`host`
    /// `None`) or a thread `host`'s machine runs (Rebirth, checkpoint
    /// recovery) adopted its logical ID. A hosted slot fails with its host,
    /// at once if the host is gone already. The node is expected at
    /// subsequent barriers.
    pub fn revive(&self, node: NodeId, host: Option<NodeId>) {
        let mut inner = self.inner.lock();
        assert!(!inner.alive[node.index()], "revive of live node {node}");
        inner.alive[node.index()] = true;
        self.alive_fast[node.index()].store(true, Ordering::Release);
        inner.unrecovered.retain(|&n| n != node);
        inner.hosts[node.index()] = host;
        // New incarnation: fresh liveness, stale heartbeat evidence fenced.
        self.detector.on_revive(node);
        if host.is_some_and(|h| !inner.alive[h.index()]) {
            inner.fail(node, &self.alive_fast);
        }
        self.cond.notify_all();
    }

    /// The survivor whose machine carries `slot`, if not its own.
    pub fn host(&self, slot: NodeId) -> Option<NodeId> {
        self.inner.lock().hosts[slot.index()]
    }

    /// Acknowledges that the state of `node` has been migrated to the
    /// survivors (Migration recovery): it stays dead but stops being
    /// reported by barrier outcomes.
    pub fn ack_recovered(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        inner.unrecovered.retain(|&n| n != node);
    }

    /// Claims one hot standby, if any remain. Returns whether a standby was
    /// available (the caller then revives the target node and routes a fresh
    /// inbox to the adopting thread).
    pub fn claim_standby(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.standbys_available == 0 {
            return false;
        }
        inner.standbys_available -= 1;
        true
    }

    /// Standbys not yet claimed.
    pub fn standbys_available(&self) -> usize {
        self.inner.lock().standbys_available
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn coord(n: usize) -> Arc<Coordinator> {
        Arc::new(Coordinator::new(n, 0, DetectorConfig::default(), false))
    }

    #[test]
    fn clean_barrier_with_two_nodes() {
        let c = coord(2);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || c2.barrier(NodeId::new(1)));
        assert_eq!(c.barrier(NodeId::new(0)), BarrierOutcome::Clean);
        assert_eq!(t.join().unwrap(), BarrierOutcome::Clean);
    }

    #[test]
    fn barrier_instances_are_sequential() {
        let c = coord(1);
        for _ in 0..5 {
            assert_eq!(c.barrier(NodeId::new(0)), BarrierOutcome::Clean);
        }
    }

    #[test]
    fn failure_releases_waiting_barrier_with_failed_outcome() {
        let c = coord(2);
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.barrier(NodeId::new(0)));
        // Node 1 crashes instead of arriving.
        std::thread::sleep(Duration::from_millis(20));
        c.mark_failed(NodeId::new(1));
        assert_eq!(
            waiter.join().unwrap(),
            BarrierOutcome::Failed(vec![NodeId::new(1)])
        );
    }

    #[test]
    fn failure_after_arrival_is_reported_next_barrier() {
        let c = coord(2);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || c2.barrier(NodeId::new(1)));
        assert_eq!(c.barrier(NodeId::new(0)), BarrierOutcome::Clean);
        t.join().unwrap();
        c.mark_failed(NodeId::new(1));
        assert_eq!(
            c.barrier(NodeId::new(0)),
            BarrierOutcome::Failed(vec![NodeId::new(1)])
        );
    }

    #[test]
    fn revive_clears_unrecovered_and_rejoins_barrier() {
        let c = coord(2);
        c.mark_failed(NodeId::new(1));
        assert_eq!(
            c.barrier(NodeId::new(0)),
            BarrierOutcome::Failed(vec![NodeId::new(1)])
        );
        c.revive(NodeId::new(1), None);
        assert!(c.is_alive(NodeId::new(1)));
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || c2.barrier(NodeId::new(1)));
        assert_eq!(c.barrier(NodeId::new(0)), BarrierOutcome::Clean);
        t.join().unwrap();
    }

    #[test]
    fn ack_recovered_keeps_node_dead_but_clean() {
        let c = coord(3);
        c.mark_failed(NodeId::new(2));
        let c1 = Arc::clone(&c);
        let t = std::thread::spawn(move || c1.barrier(NodeId::new(1)));
        assert!(c.barrier(NodeId::new(0)).is_fail());
        t.join().unwrap();
        c.ack_recovered(NodeId::new(2));
        assert!(!c.is_alive(NodeId::new(2)));
        assert_eq!(c.alive_nodes(), vec![NodeId::new(0), NodeId::new(1)]);
        let c1 = Arc::clone(&c);
        let t = std::thread::spawn(move || c1.barrier(NodeId::new(1)));
        assert_eq!(c.barrier(NodeId::new(0)), BarrierOutcome::Clean);
        t.join().unwrap();
    }

    #[test]
    fn double_failure_reports_both() {
        let c = coord(3);
        c.mark_failed(NodeId::new(1));
        c.mark_failed(NodeId::new(2));
        match c.barrier(NodeId::new(0)) {
            BarrierOutcome::Failed(mut nodes) => {
                nodes.sort();
                assert_eq!(nodes, vec![NodeId::new(1), NodeId::new(2)]);
            }
            o => panic!("expected failure outcome, got {o:?}"),
        }
    }

    #[test]
    fn mark_failed_is_idempotent() {
        let c = coord(2);
        c.mark_failed(NodeId::new(1));
        c.mark_failed(NodeId::new(1));
        match c.barrier(NodeId::new(0)) {
            BarrierOutcome::Failed(nodes) => assert_eq!(nodes.len(), 1),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn heartbeat_close_event_fails_waiting_barrier() {
        let cfg = DetectorConfig::heartbeat(Duration::from_millis(1), Duration::from_millis(4));
        let c = Arc::new(Coordinator::new(2, 0, cfg, false));
        // Node 1 crashes: its context close is the only trace it leaves.
        c.detector().observe_close(NodeId::new(1), 0);
        // Node 0's pumped barrier wait must advance virtual time, suspect
        // the silent node, confirm via the close event, and fail the epoch.
        let outcome = c.barrier(NodeId::new(0));
        assert_eq!(outcome, BarrierOutcome::Failed(vec![NodeId::new(1)]));
        let st = c.suspicion_stats();
        assert_eq!(st.confirmed, 1);
        assert!(st.detect_ticks > 0, "observed latency recorded");
    }

    #[test]
    fn fenced_node_observes_own_death_at_barrier() {
        let c = coord(2);
        c.mark_failed(NodeId::new(0));
        let (outcome, sum) = c.barrier_sum(NodeId::new(0), 7);
        match outcome {
            BarrierOutcome::Failed(dead) => assert!(dead.contains(&NodeId::new(0))),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(sum, 0, "a dead node's contribution is lost");
    }

    /// A host's failure is its slots': one outcome names them all, and a
    /// slot revived on a standby of its own no longer falls with the host.
    #[test]
    fn failing_a_host_fails_its_slots_and_revive_clears_the_host() {
        let (host, slot, other) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let c = coord(3);
        c.mark_failed(slot);
        c.revive(slot, Some(host));
        assert_eq!(c.host(slot), Some(host));
        c.mark_failed(host);
        assert!(!c.is_alive(slot));
        assert_eq!(c.barrier(other), BarrierOutcome::Failed(vec![host, slot]));

        c.revive(host, None);
        c.revive(slot, None);
        assert_eq!(c.host(slot), None);
        c.mark_failed(host);
        assert!(c.is_alive(slot));
        let c1 = Arc::clone(&c);
        let t = std::thread::spawn(move || c1.barrier(slot));
        assert_eq!(c.barrier(other), BarrierOutcome::Failed(vec![host]));
        t.join().unwrap();

        // A slot revived on a host that is gone already fails at once.
        c.revive(host, None);
        c.mark_failed(host);
        c.mark_failed(slot);
        c.revive(slot, Some(host));
        assert!(!c.is_alive(slot));
    }

    #[test]
    fn standby_pool_depletes() {
        let c = Arc::new(Coordinator::new(2, 1, DetectorConfig::default(), false));
        assert_eq!(c.standbys_available(), 1);
        assert!(c.claim_standby());
        assert!(!c.claim_standby());
    }

    #[test]
    fn many_nodes_many_rounds() {
        let n = 8;
        let c = coord(n);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(c.barrier(NodeId::from_index(i)), BarrierOutcome::Clean);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
