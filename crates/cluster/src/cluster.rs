//! The routing fabric and per-node handles.
//!
//! Protocol logic lives here; *wire plumbing* lives behind the
//! [`Transport`]/[`Pipe`] seam in [`crate::transport`]. A [`Cluster`] owns
//! one transport backend (selected by
//! [`TransportKind`](crate::TransportKind)) plus the shared [`Fabric`] of
//! local inbox queues every backend ultimately delivers into; a
//! [`NodeCtx`] owns one node's [`Pipe`] endpoint.
//!
//! # Fast-path design
//!
//! `NodeCtx::send*` is the hottest call in a superstep (one per destination
//! envelope, formerly one per sync record). The sender table is therefore
//! published as an immutable `Arc<[Sender]>` snapshot guarded by a
//! generation counter: every send does one atomic load and an indexed send
//! on a thread-local cached snapshot — no lock, no `Sender` clone. The
//! table is only rebuilt (and the generation bumped) by [`Cluster::adopt`]
//! during recovery. The channel backend uses this path directly; the lossy
//! and TCP backends route *delivery* (not sending) through the same
//! [`Fabric::push_cached`] primitive, so the fast path is shared, not
//! forked.
//!
//! Why a stale cache is harmless: table slots change only when a node dies
//! and a replacement adopts its identity. A sender that still holds the old
//! snapshot either (a) observes the destination as dead in
//! [`Coordinator::is_alive`] and drops the message — exactly what the old
//! locked path did — or (b) observes it alive. Observing it alive means the
//! sender acquired the coordinator lock *after* `revive` released it, which
//! makes the adopting thread's generation bump (sequenced before `revive`)
//! visible to the sender's `Acquire` load, forcing a refresh. So a message
//! accepted for a live node always goes to that node's current inbox. The
//! same sequencing covers the transports' slot epochs: `on_adopt` bumps the
//! epoch before `revive`, so a sender that observes the node alive stamps
//! frames with the *new* destination epoch.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use imitator_metrics::{AtomicCommStats, CommKind};
use parking_lot::Mutex;

use crate::coord::{BarrierOutcome, Coordinator};
use crate::detector::{DetectorConfig, PUMP_QUANTUM};
use crate::injector::TransportKind;
use crate::transport::{
    ChannelTransport, LossyTransport, Pipe, TcpTransport, Transport, WireCodec, HB_WIRE_BYTES,
};
use crate::NodeId;

/// A delivered message with its sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The logical node that sent the message.
    pub from: NodeId,
    /// The payload.
    pub msg: M,
}

/// What a blocked standby thread is woken with.
pub(crate) enum StandbyEvent<M> {
    /// A crashed node's identity to adopt.
    Adopt(NodeCtx<M>),
    /// The job is over; relayed from waiter to waiter so one signal wakes
    /// the whole pool.
    Shutdown,
}

/// The shared local-queue fabric: the published sender table, the parked
/// not-yet-claimed inboxes, and the standby wake-up channel. Every
/// transport backend delivers into these queues; they differ in the path a
/// message takes to reach [`Fabric::push_cached`].
#[derive(Debug)]
pub(crate) struct Fabric<M> {
    /// The published sender table. Mutated only under this lock (adopt);
    /// readers refresh their cached snapshot from it when `generation`
    /// moves.
    routes: Mutex<Arc<[Sender<Envelope<M>>]>>,
    /// Bumped (under the `routes` lock) every time the table is republished.
    generation: AtomicU64,
    /// Receivers parked here until a thread claims its `NodeCtx`.
    parked: Mutex<Vec<Option<Receiver<Envelope<M>>>>>,
    /// Wake-up channel for hot-standby threads (Rebirth recovery).
    pub(crate) standby_tx: Sender<StandbyEvent<M>>,
    pub(crate) standby_rx: Receiver<StandbyEvent<M>>,
    /// Set when the job is over; waiting standbys return `None`.
    done: AtomicBool,
}

impl<M> Fabric<M> {
    pub(crate) fn new(num_nodes: usize) -> Arc<Self> {
        let mut senders = Vec::with_capacity(num_nodes);
        let mut parked = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let (tx, rx) = unbounded();
            senders.push(tx);
            parked.push(Some(rx));
        }
        let (standby_tx, standby_rx) = unbounded();
        Arc::new(Fabric {
            routes: Mutex::new(senders.into()),
            generation: AtomicU64::new(0),
            parked: Mutex::new(parked),
            standby_tx,
            standby_rx,
            done: AtomicBool::new(false),
        })
    }

    /// A fresh coherent snapshot of the sender table.
    pub(crate) fn snapshot(&self) -> RouteCache<M> {
        let routes = self.routes.lock();
        RouteCache {
            generation: self.generation.load(Ordering::Acquire),
            table: Arc::clone(&routes),
        }
    }

    /// The send fast path: one atomic generation check against the cached
    /// snapshot, then an indexed lock-free send. Returns `false` if the
    /// destination inbox is gone (cluster torn down mid-send).
    pub(crate) fn push_cached(
        &self,
        cache: &mut RouteCache<M>,
        to: NodeId,
        env: Envelope<M>,
    ) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if cache.generation != generation {
            let routes = self.routes.lock();
            cache.generation = self.generation.load(Ordering::Acquire);
            cache.table = Arc::clone(&routes);
        }
        cache.table[to.index()].send(env).is_ok()
    }
}

impl<M> fmt::Debug for StandbyEvent<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StandbyEvent::Adopt(_) => f.write_str("Adopt(..)"),
            StandbyEvent::Shutdown => f.write_str("Shutdown"),
        }
    }
}

/// A simulated cluster: `n` logical nodes plus a pool of hot standbys,
/// connected by a pluggable wire backend and a shared [`Coordinator`].
///
/// Cloning yields another handle on the same cluster.
pub struct Cluster<M> {
    fabric: Arc<Fabric<M>>,
    transport: Arc<dyn Transport<M>>,
    coord: Arc<Coordinator>,
    comm: Arc<AtomicCommStats>,
}

// Manual impl: a handle clone must not require `M: Clone`.
impl<M> Clone for Cluster<M> {
    fn clone(&self) -> Self {
        Cluster {
            fabric: Arc::clone(&self.fabric),
            transport: Arc::clone(&self.transport),
            coord: Arc::clone(&self.coord),
            comm: Arc::clone(&self.comm),
        }
    }
}

/// Why [`Cluster::new`] and [`Cluster::with_transport`] refuse a delay.
const NO_DELAY: &str = "a crash is noticed by missed heartbeats; there is no detection delay";

impl<M> fmt::Debug for Cluster<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("coord", &self.coord)
            .finish_non_exhaustive()
    }
}

impl<M: Send + 'static> Cluster<M> {
    /// Creates a cluster of `num_nodes` logical nodes and `num_standbys`
    /// hot standbys over the default in-process channel transport, with the
    /// default heartbeat detector.
    ///
    /// `delay` must be zero: a crash is noticed by missed heartbeats only.
    /// The argument stays only because the frozen `benchmark/src/layers.rs`
    /// passes it; ROADMAP item 2's benchmark change deletes it.
    pub fn new(num_nodes: usize, num_standbys: usize, delay: Duration) -> Self {
        assert!(delay.is_zero(), "{NO_DELAY}");
        assert!(num_nodes > 0, "cluster needs at least one node");
        let fabric = Fabric::new(num_nodes);
        let transport: Arc<dyn Transport<M>> = Arc::new(ChannelTransport::new(Arc::clone(&fabric)));
        Self::assemble(
            fabric,
            transport,
            num_nodes,
            num_standbys,
            DetectorConfig::default(),
            false,
        )
    }

    fn assemble(
        fabric: Arc<Fabric<M>>,
        transport: Arc<dyn Transport<M>>,
        num_nodes: usize,
        num_standbys: usize,
        detector: DetectorConfig,
        wall_clock: bool,
    ) -> Self {
        Cluster {
            fabric,
            transport,
            coord: Arc::new(Coordinator::new(
                num_nodes,
                num_standbys,
                detector,
                wall_clock,
            )),
            comm: Arc::default(),
        }
    }

    /// Number of logical node slots.
    pub fn num_nodes(&self) -> usize {
        self.coord.num_nodes()
    }

    /// The shared coordination service.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coord
    }

    /// Aggregate message statistics across all nodes.
    pub fn comm_stats(&self) -> imitator_metrics::CommStats {
        self.comm.snapshot()
    }

    /// Aggregate per-kind traffic split, transport retry/redelivery
    /// counters, and barrier-wait total.
    pub fn comm_breakdown(&self) -> imitator_metrics::CommBreakdown {
        self.comm.breakdown()
    }

    /// Releases transport-owned resources (listener sockets, reader
    /// threads). A no-op for in-process backends; idempotent everywhere.
    /// Call after the last node thread has been joined.
    pub fn shutdown_transport(&self) {
        self.transport.shutdown();
    }

    fn make_ctx(&self, id: NodeId, inbox: Receiver<Envelope<M>>) -> NodeCtx<M> {
        NodeCtx {
            id,
            birth: self.coord.detector().birth(id),
            pipe: self.transport.open(self, id, inbox),
            cluster: self.clone(),
        }
    }

    /// Claims the execution context for logical node `id`.
    ///
    /// # Panics
    ///
    /// Panics if the context for `id` was already claimed.
    pub fn take_ctx(&self, id: NodeId) -> NodeCtx<M> {
        let rx = self.fabric.parked.lock()[id.index()]
            .take()
            .unwrap_or_else(|| panic!("context for {id} already claimed"));
        self.make_ctx(id, rx)
    }

    /// Routes a fresh inbox to logical node `id` (whose previous owner died)
    /// and returns the context a standby thread adopts. Also revives the
    /// node in the coordinator, so it is expected at subsequent barriers.
    ///
    /// The caller must have claimed a standby via
    /// [`Coordinator::claim_standby`] first.
    pub fn adopt(&self, id: NodeId) -> NodeCtx<M> {
        let (tx, rx) = unbounded();
        {
            let mut routes = self.fabric.routes.lock();
            let mut table: Vec<Sender<Envelope<M>>> = routes.iter().cloned().collect();
            table[id.index()] = tx;
            *routes = table.into();
            // Bumped before `revive` so any sender that sees the node alive
            // also sees (and refreshes to) the new table — see module docs.
            self.fabric.generation.fetch_add(1, Ordering::Release);
        }
        // Likewise before `revive`: senders that observe the node alive
        // stamp frames with the slot's new epoch, so nothing addressed to
        // the dead identity can surface in the adopted inbox.
        self.transport.on_adopt(id);
        self.coord.revive(id);
        self.make_ctx(id, rx)
    }

    /// Claims a standby (if any remain), routes a fresh inbox to logical
    /// node `id`, revives it, and hands the context to one thread blocked in
    /// [`Cluster::wait_standby`]. Returns whether a standby was available.
    ///
    /// Called by the recovery leader (the lowest-ID survivor) when Rebirth
    /// needs a replacement machine.
    pub fn dispatch_standby(&self, id: NodeId) -> bool {
        if !self.coord.claim_standby() {
            return false;
        }
        let ctx = self.adopt(id);
        self.transport.standby_send(StandbyEvent::Adopt(ctx));
        true
    }

    /// Blocks a hot-standby thread until it is assigned a crashed node's
    /// identity, or returns `None` once the job completes (or `patience`
    /// elapses with neither).
    ///
    /// Fully event-driven: the thread parks on the transport's standby
    /// channel for the whole remaining patience and is woken by
    /// [`Cluster::dispatch_standby`] or by the shutdown signal — no poll
    /// loop.
    pub fn wait_standby(&self, patience: Duration) -> Option<NodeCtx<M>> {
        if self.fabric.done.load(Ordering::Acquire) {
            return None;
        }
        match self.transport.standby_wait(patience) {
            Some(StandbyEvent::Adopt(ctx)) => Some(ctx),
            Some(StandbyEvent::Shutdown) => {
                // Relay so one signal drains the whole waiting pool.
                self.transport.standby_send(StandbyEvent::Shutdown);
                None
            }
            None => None, // patience elapsed (or fabric gone)
        }
    }

    /// Signals waiting standby threads that the job is over.
    pub fn shutdown_standbys(&self) {
        self.fabric.done.store(true, Ordering::Release);
        self.transport.standby_send(StandbyEvent::Shutdown);
    }
}

impl<M: Send + Clone + WireCodec + 'static> Cluster<M> {
    /// Creates a cluster over the wire backend selected by `kind`, with
    /// the default heartbeat detector.
    ///
    /// [`TransportKind::Channel`](crate::TransportKind::Channel) behaves
    /// exactly like [`Cluster::new`]; the lossy and TCP backends require
    /// `M: Clone + WireCodec` for duplication and on-the-wire encoding
    /// respectively. `delay` must be zero, as for [`Cluster::new`], whose
    /// frozen caller is also this one's.
    pub fn with_transport(
        num_nodes: usize,
        num_standbys: usize,
        delay: Duration,
        kind: TransportKind,
    ) -> Self {
        assert!(delay.is_zero(), "{NO_DELAY}");
        Self::with_detector(num_nodes, num_standbys, DetectorConfig::default(), kind)
    }

    /// Creates a cluster over the wire backend selected by `kind` with an
    /// explicit failure-detector configuration. The clock is virtual
    /// (deterministic) under Channel and Lossy backends, and real under
    /// TCP.
    pub fn with_detector(
        num_nodes: usize,
        num_standbys: usize,
        detector: DetectorConfig,
        kind: TransportKind,
    ) -> Self {
        assert!(num_nodes > 0, "cluster needs at least one node");
        let fabric = Fabric::new(num_nodes);
        let wall_clock = matches!(kind, TransportKind::Tcp);
        let mut cluster = Self::assemble(
            Arc::clone(&fabric),
            Arc::new(ChannelTransport::new(Arc::clone(&fabric))),
            num_nodes,
            num_standbys,
            detector,
            wall_clock,
        );
        cluster.transport = match kind {
            TransportKind::Channel => cluster.transport,
            TransportKind::Lossy(faults) => Arc::new(LossyTransport::new(
                Arc::clone(&fabric),
                num_nodes,
                faults,
                Arc::clone(&cluster.comm),
            )),
            TransportKind::Tcp => Arc::new(TcpTransport::new(
                Arc::clone(&fabric),
                num_nodes,
                Arc::clone(&cluster.comm),
                Arc::clone(cluster.coord.detector()),
            )),
        };
        cluster
    }
}

/// A node's cached snapshot of the sender table.
#[derive(Debug)]
pub(crate) struct RouteCache<M> {
    pub(crate) generation: u64,
    pub(crate) table: Arc<[Sender<Envelope<M>>]>,
}

/// The execution context of one logical node: its identity, its wire
/// endpoint ([`Pipe`]), and access to the cluster and coordinator.
///
/// Exactly one thread owns each `NodeCtx` at a time (the endpoint is not
/// clonable), matching one process per machine.
pub struct NodeCtx<M> {
    id: NodeId,
    /// The detector incarnation this context was created under; stale-birth
    /// evidence (a zombie's close event, late heartbeats) is fenced out.
    birth: u64,
    pipe: Box<dyn Pipe<M>>,
    cluster: Cluster<M>,
}

impl<M> Drop for NodeCtx<M> {
    /// Dropping the context is the node's process exit — clean completion
    /// or crash alike. The detector's close event lets a *suspected* node
    /// be confirmed without waiting out the fence: one tick after the
    /// timeout, at the same barrier epoch in every run.
    fn drop(&mut self) {
        self.cluster
            .coord
            .detector()
            .observe_close(self.id, self.birth);
    }
}

impl<M> fmt::Debug for NodeCtx<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<M: Send + 'static> NodeCtx<M> {
    /// This node's logical ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The owning cluster handle.
    pub fn cluster(&self) -> &Cluster<M> {
        &self.cluster
    }

    fn send_from(&self, to: NodeId, msg: M, bytes: u64, kind: CommKind) -> bool {
        if !self.cluster.coord.is_alive(to) {
            return false; // dropped on the wire: destination crashed
        }
        // Logical accounting happens exactly once, here — transport-level
        // retransmissions and duplicates are physical events tallied in the
        // separate retry/redelivery counters, so per-kind traffic splits
        // are identical across backends.
        self.cluster.comm.record_kind(kind, 1, bytes);
        self.pipe.send(to, Envelope { from: self.id, msg }, kind)
    }

    /// Sends `msg` to `to`, charging zero accounted bytes. Returns `false`
    /// if the destination is dead (message dropped, as on a real network).
    pub fn send(&self, to: NodeId, msg: M) -> bool {
        self.send_from(to, msg, 0, CommKind::Control)
    }

    /// Sends `msg` to `to`, accounting `bytes` of wire traffic.
    pub fn send_sized(&self, to: NodeId, msg: M, bytes: u64) -> bool {
        self.send_from(to, msg, bytes, CommKind::Control)
    }

    /// Sends `msg` to `to`, accounting `bytes` of wire traffic under the
    /// given traffic kind.
    pub fn send_kind(&self, to: NodeId, msg: M, bytes: u64, kind: CommKind) -> bool {
        self.send_from(to, msg, bytes, kind)
    }

    /// Drains every message currently queued (all messages sent before the
    /// senders entered the last barrier are guaranteed to be here — every
    /// backend fences in-flight traffic before entering a barrier).
    pub fn drain(&self) -> Vec<Envelope<M>> {
        self.pipe.drain()
    }

    /// Blocks up to `timeout` for one message. The wait is sliced by
    /// [`PUMP_QUANTUM`] so detection (and heartbeat emission) progresses
    /// even inside long receives.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                // One last non-blocking look so a zero/elapsed timeout still
                // returns an already-queued message.
                return self.pipe.recv_timeout(Duration::ZERO);
            }
            let slice = PUMP_QUANTUM.min(deadline - now);
            if let Some(env) = self.pipe.recv_timeout(slice) {
                return Some(env);
            }
            self.pump();
        }
    }

    /// One failure-detector pump slice: advance the clock, self-stamp
    /// liveness, emit a heartbeat if one is due, and apply any
    /// newly-confirmed failures. Called automatically from pumped waits;
    /// harmless to call from anywhere a node is demonstrably alive.
    pub fn pump(&self) {
        let det = self.cluster.coord.detector();
        det.tick();
        det.note_alive(self.id);
        self.emit_heartbeats();
        self.cluster.coord.pump_detector();
    }

    /// Emits one sequence-numbered heartbeat to every alive peer when the
    /// emission interval has elapsed.
    /// Heartbeats are fire-and-forget: never fenced, never retransmitted.
    fn emit_heartbeats(&self) {
        let coord = &self.cluster.coord;
        let Some(seq) = coord.detector().should_emit(self.id) else {
            return;
        };
        let mut sent = 0u64;
        for i in 0..coord.num_nodes() {
            let peer = NodeId::from_index(i);
            if peer != self.id && coord.is_alive(peer) {
                self.pipe.send_heartbeat(peer, seq);
                sent += 1;
            }
        }
        if sent > 0 {
            self.cluster
                .comm
                .record_kind(CommKind::Heartbeat, sent, sent * HB_WIRE_BYTES);
        }
    }

    /// Goes silent for `ticks` detector ticks without crashing — the
    /// injector's [`FailPoint::Stall`](crate::FailPoint::Stall). The node
    /// keeps the clock moving but emits no liveness evidence, so under the
    /// heartbeat detector a long stall gets it suspected (and, past the
    /// fence, confirmed dead). Returns `true` when the node is still a
    /// cluster member afterwards; `false` means it was fenced out and must
    /// exit exactly as if it had crashed.
    pub fn stall(&self, ticks: u64) -> bool {
        let det = self.cluster.coord.detector();
        let end = det.now() + ticks;
        while det.now() < end {
            std::thread::sleep(PUMP_QUANTUM);
            det.tick();
            self.cluster.coord.pump_detector();
            if det.is_stale(self.id, self.birth) {
                return false; // fenced out mid-stall
            }
        }
        if det.is_stale(self.id, self.birth) {
            return false;
        }
        // Back from the dead-to-the-world pause: stamp liveness so a
        // pre-fence suspicion is retracted deterministically right here.
        det.note_alive(self.id);
        true
    }

    /// Enters the next global barrier (Algorithm 1's `enter_barrier` /
    /// `leave_barrier`) and returns the agreed outcome. Time spent blocked
    /// is added to the cluster's barrier-wait tally.
    ///
    /// Before arriving at the coordinator, the node fences its wire
    /// endpoint: everything it sent is retransmitted/settled as needed so
    /// the pre-barrier delivery guarantee holds on unreliable backends.
    pub fn enter_barrier(&self) -> BarrierOutcome {
        self.enter_barrier_sum(0).0
    }

    /// Enters the next global barrier contributing `value` to the
    /// all-reduced sum (e.g. this node's active-vertex count). While
    /// blocked, the node pumps the failure detector and keeps emitting
    /// heartbeats — a barrier waiter is alive and must look alive.
    pub fn enter_barrier_sum(&self, value: u64) -> (BarrierOutcome, u64) {
        self.pipe.flush();
        let start = Instant::now();
        let out = self
            .cluster
            .coord
            .barrier_sum_pump(self.id, value, &mut || self.emit_heartbeats());
        self.cluster.comm.record_barrier_wait(start.elapsed());
        out
    }

    /// Crashes this node: drops the context, whose close event is all the
    /// evidence the survivors' heartbeat scans get. Deliberately does *not*
    /// fence the endpoint: in-flight messages from a crashing node may or
    /// may not arrive, exactly like a real crash.
    pub fn die(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> (Cluster<u64>, NodeCtx<u64>, NodeCtx<u64>) {
        let c: Cluster<u64> = Cluster::new(2, 1, Duration::ZERO);
        let a = c.take_ctx(NodeId::new(0));
        let b = c.take_ctx(NodeId::new(1));
        (c, a, b)
    }

    #[test]
    fn messages_arrive_with_sender() {
        let (_c, a, b) = two();
        assert!(a.send(NodeId::new(1), 99));
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.from, NodeId::new(0));
        assert_eq!(got.msg, 99);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_panics() {
        let c: Cluster<u64> = Cluster::new(1, 0, Duration::ZERO);
        let _a = c.take_ctx(NodeId::new(0));
        let _b = c.take_ctx(NodeId::new(0));
    }

    #[test]
    fn send_to_dead_node_is_dropped() {
        let (c, a, b) = two();
        c.coordinator().mark_failed(NodeId::new(1));
        assert!(!a.send(NodeId::new(1), 1));
        drop(b);
        assert_eq!(c.comm_stats().messages, 0);
    }

    #[test]
    fn drain_returns_all_pre_barrier_messages() {
        let (_c, a, b) = two();
        let t = std::thread::spawn(move || {
            for i in 0..100u64 {
                b.send(NodeId::new(0), i);
            }
            b.enter_barrier();
            b
        });
        a.enter_barrier();
        let msgs = a.drain();
        assert_eq!(msgs.len(), 100);
        t.join().unwrap();
    }

    #[test]
    fn die_then_adopt_replaces_inbox() {
        let (c, a, b) = two();
        // Old messages rot in the dead inbox.
        a.send(NodeId::new(1), 7);
        b.die();
        let outcome = a.enter_barrier();
        assert!(outcome.is_fail());
        assert!(c.coordinator().claim_standby());
        let b2 = c.adopt(NodeId::new(1));
        assert!(c.coordinator().is_alive(NodeId::new(1)));
        // New inbox starts empty; fresh messages flow — `a`'s cached route
        // table is stale here and must refresh via the generation bump.
        assert!(b2.drain().is_empty());
        a.send(NodeId::new(1), 8);
        assert_eq!(b2.recv_timeout(Duration::from_secs(1)).unwrap().msg, 8);
    }

    #[test]
    fn comm_stats_account_bytes() {
        let (c, a, _b) = two();
        a.send_sized(NodeId::new(1), 1, 64);
        a.send_sized(NodeId::new(1), 2, 36);
        let s = c.comm_stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 100);
    }

    #[test]
    fn comm_breakdown_splits_kinds_and_times_barriers() {
        let (c, a, b) = two();
        a.send_kind(NodeId::new(1), 1, 64, CommKind::Sync);
        a.send_kind(NodeId::new(1), 2, 16, CommKind::Recovery);
        a.send_sized(NodeId::new(1), 3, 4);
        let br = c.comm_breakdown();
        assert_eq!(br.kind(CommKind::Sync).bytes, 64);
        assert_eq!(br.kind(CommKind::Recovery).bytes, 16);
        assert_eq!(br.kind(CommKind::Control).bytes, 4);
        assert_eq!(br.total(), c.comm_stats());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b.enter_barrier()
        });
        a.enter_barrier();
        t.join().unwrap();
        // `a` blocked for ~10ms waiting on `b`.
        assert!(c.comm_breakdown().barrier_wait >= Duration::from_millis(5));
    }

    #[test]
    fn barrier_roundtrip_through_ctx() {
        let (_c, a, b) = two();
        let t = std::thread::spawn(move || b.enter_barrier());
        assert_eq!(a.enter_barrier(), BarrierOutcome::Clean);
        assert_eq!(t.join().unwrap(), BarrierOutcome::Clean);
    }

    #[test]
    fn wait_standby_wakes_on_dispatch_not_poll() {
        let c: Cluster<u64> = Cluster::new(2, 1, Duration::ZERO);
        let _a = c.take_ctx(NodeId::new(0));
        let b = c.take_ctx(NodeId::new(1));
        b.die();
        c.coordinator().mark_failed(NodeId::new(1));
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.wait_standby(Duration::from_secs(30)))
        };
        assert!(c.dispatch_standby(NodeId::new(1)));
        let ctx = waiter.join().unwrap().expect("standby adopted");
        assert_eq!(ctx.id(), NodeId::new(1));
    }

    #[test]
    fn shutdown_wakes_every_waiting_standby() {
        let c: Cluster<u64> = Cluster::new(1, 3, Duration::ZERO);
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || c.wait_standby(Duration::from_secs(30)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        c.shutdown_standbys();
        for w in waiters {
            assert!(w.join().unwrap().is_none());
        }
        // Event-driven wake-up: nowhere near the 30s patience.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn with_transport_channel_matches_new() {
        let c: Cluster<u64> = Cluster::with_transport(2, 0, Duration::ZERO, TransportKind::Channel);
        let a = c.take_ctx(NodeId::new(0));
        let b = c.take_ctx(NodeId::new(1));
        assert!(a.send_kind(NodeId::new(1), 5, 16, CommKind::Sync));
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().msg, 5);
        let br = c.comm_breakdown();
        assert_eq!(br.kind(CommKind::Sync).bytes, 16);
        assert_eq!(br.retries, 0);
        assert_eq!(br.redelivered, 0);
        c.shutdown_transport(); // no-op for channels, must be callable
    }
}
