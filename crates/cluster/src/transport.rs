//! The pluggable wire layer.
//!
//! Everything above this module speaks to the network through two seams:
//!
//! * [`Transport`] — cluster-wide plumbing: claiming a node's wire
//!   endpoint, rerouting it when a standby adopts a crashed identity, the
//!   standby wake-up channel, and shutdown.
//! * [`Pipe`] — one node's endpoint: `send` / `drain` / `recv_timeout`
//!   plus the pre-barrier `flush` fence.
//!
//! Three backends implement the seam:
//!
//! * [`ChannelTransport`] — today's in-process crossbeam channels with the
//!   lock-free snapshot-routing fast path, byte-for-byte the pre-refactor
//!   behaviour (it is `lockstep`: reliable, ordered, settled-by-send, so
//!   no sequence numbers are stamped and `flush` is a no-op).
//! * [`LossyTransport`] — the channel backend wrapped in deterministic
//!   seeded per-link faults ([`NetFaults`]): drop, duplicate, reorder,
//!   delay, applied per [`CommKind`].
//! * [`TcpTransport`] — real loopback TCP sockets; each logical node keeps
//!   persistent connections to its peers and ships length-prefixed frames
//!   encoded via [`WireCodec`]; fabric-owned reader threads decode and
//!   enqueue into the destination's local inbox.
//!
//! # Reliability model
//!
//! The BSP protocols upstairs assume *all messages sent before a barrier
//! are queued at their receiver when the barrier completes*. Channels give
//! this for free. The unreliable backends restore it with transport-level
//! interposition, never with receiver cooperation (a receiver blocked in a
//! barrier cannot cooperate — any handshake that needs it deadlocks):
//!
//! * every first transmission on a link `(from, to)` carries a sequence
//!   number and the sender/receiver *slot epochs* (bumped when a standby
//!   adopts the slot);
//! * delivery bookkeeping ([`NetLayer`]) is updated synchronously at
//!   enqueue time — by the sending thread for the lossy backend, by the
//!   fabric reader thread for TCP — so duplicate and stale-epoch frames
//!   are suppressed before they can reach an inbox;
//! * [`Pipe::flush`], called by `enter_barrier*` before arriving at the
//!   coordinator, retransmits everything the wire lost and waits (bounded
//!   backoff) until the [`NetLayer`] confirms every frame this endpoint
//!   sent has been resolved at its destination.
//!
//! Because the fence runs strictly before the sender arrives at the
//! barrier, and the barrier cannot complete until every participant
//! arrives, the lockstep invariant holds on every backend — which is why
//! the failure-free goldens are bit-identical across all three.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use imitator_metrics::{AtomicCommStats, CommKind};
use parking_lot::Mutex;

use crate::cluster::{Cluster, Envelope, Fabric, RouteCache, StandbyEvent};
use crate::detector::FailureDetector;
use crate::injector::NetFaults;
use crate::NodeId;

/// How long a fence waits for in-flight frames before declaring the
/// transport wedged. Matches the recovery patience upstairs: anything this
/// slow is a bug, not a slow network.
const FENCE_PATIENCE: Duration = Duration::from_secs(30);

/// Nominal wire cost of one heartbeat, charged uniformly on every backend
/// so overhead numbers are comparable across transports: the TCP frame
/// size (4-byte length prefix + [`TCP_HEADER`], empty payload).
pub(crate) const HB_WIRE_BYTES: u64 = 4 + TCP_HEADER as u64;

/// Binary encoding for messages that cross a real (serialised) wire.
///
/// The channel and lossy backends move owned values and never touch this;
/// [`TcpTransport`] requires it. Implementations must round-trip:
/// `decode_wire(encode_wire(m)) == Some(m)`.
pub trait WireCodec: Sized {
    /// Appends the encoded message to `buf`.
    fn encode_wire(&self, buf: &mut Vec<u8>);
    /// Decodes one message from `bytes` (`None` on corruption).
    fn decode_wire(bytes: &[u8]) -> Option<Self>;
}

impl WireCodec for u64 {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl WireCodec for u32 {
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl WireCodec for () {
    fn encode_wire(&self, _buf: &mut Vec<u8>) {}
    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(())
    }
}

/// Cluster-wide wire plumbing: the seam [`Cluster`](crate::Cluster) talks
/// through. One instance per cluster, shared by every handle.
pub(crate) trait Transport<M: Send + 'static>: Send + Sync {
    /// The shared local-queue fabric (routing table, parked inboxes,
    /// standby channel). All backends deliver into these queues; they
    /// differ in the path a message takes to get there.
    fn fabric(&self) -> &Fabric<M>;

    /// Claims the wire endpoint for node `id` around its local inbox.
    fn open(
        &self,
        cluster: &Cluster<M>,
        id: NodeId,
        inbox: Receiver<Envelope<M>>,
    ) -> Box<dyn Pipe<M>>;

    /// Called under the routing-table republish when a standby adopts slot
    /// `id`: bump the slot epoch so stale in-flight frames are discarded
    /// and the adopter's fresh sequence numbers cannot collide.
    fn on_adopt(&self, _id: NodeId) {}

    /// Hands a wake-up event to one thread blocked in `standby_wait`.
    fn standby_send(&self, ev: StandbyEvent<M>) {
        self.fabric()
            .standby_tx
            .send(ev)
            .expect("standby channel lives as long as the fabric");
    }

    /// Blocks a standby thread until an event arrives or `patience`
    /// elapses.
    fn standby_wait(&self, patience: Duration) -> Option<StandbyEvent<M>> {
        self.fabric().standby_rx.recv_timeout(patience).ok()
    }

    /// Releases transport resources (listener sockets, reader threads).
    /// Idempotent; also invoked on drop by backends that own OS handles.
    fn shutdown(&self) {}
}

/// One node's wire endpoint. Owned by its `NodeCtx`; exactly one thread
/// uses it at a time (interior mutability, like the route cache it wraps).
pub(crate) trait Pipe<M>: Send {
    /// Enqueues `env` toward `to`. The traffic `kind` is metadata for
    /// fault injection only — accounting happened upstairs.
    fn send(&self, to: NodeId, env: Envelope<M>, kind: CommKind) -> bool;

    /// Drains every message currently queued locally.
    fn drain(&self) -> Vec<Envelope<M>>;

    /// Blocks up to `timeout` for one message.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>>;

    /// The pre-barrier fence: retransmits what the wire lost and waits
    /// until everything this endpoint sent has been resolved at its
    /// destination. No-op on lockstep backends.
    fn flush(&self) {}

    /// Best-effort, unacknowledged liveness beacon toward `to`. Unlike
    /// [`send`](Pipe::send), heartbeats carry no payload, take no part in
    /// the fence (a lost heartbeat is *information*, not data loss — the
    /// next one supersedes it), and are routed to the shared
    /// [`FailureDetector`] rather than to an inbox.
    fn send_heartbeat(&self, to: NodeId, seq: u64);
}

// ---------------------------------------------------------------------------
// Channel backend — the pre-refactor fast path, verbatim.
// ---------------------------------------------------------------------------

/// The in-process channel backend: reliable, ordered, settled-by-send.
pub(crate) struct ChannelTransport<M> {
    fabric: Arc<Fabric<M>>,
}

impl<M> ChannelTransport<M> {
    pub(crate) fn new(fabric: Arc<Fabric<M>>) -> Self {
        ChannelTransport { fabric }
    }
}

impl<M: Send + 'static> Transport<M> for ChannelTransport<M> {
    fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    fn open(
        &self,
        cluster: &Cluster<M>,
        id: NodeId,
        inbox: Receiver<Envelope<M>>,
    ) -> Box<dyn Pipe<M>> {
        let det = Arc::clone(cluster.coordinator().detector());
        let birth = det.birth(id);
        Box::new(ChannelPipe {
            me: id,
            birth,
            inbox,
            cache: RefCell::new(self.fabric.snapshot()),
            fabric: Arc::clone(&self.fabric),
            det,
        })
    }
}

/// The channel endpoint: a private inbox plus the generation-checked
/// cached snapshot of the sender table (see the fast-path notes in
/// `cluster.rs`).
struct ChannelPipe<M> {
    me: NodeId,
    birth: u64,
    inbox: Receiver<Envelope<M>>,
    cache: RefCell<RouteCache<M>>,
    fabric: Arc<Fabric<M>>,
    det: Arc<FailureDetector>,
}

impl<M: Send + 'static> Pipe<M> for ChannelPipe<M> {
    fn send(&self, to: NodeId, env: Envelope<M>, _kind: CommKind) -> bool {
        self.fabric
            .push_cached(&mut self.cache.borrow_mut(), to, env)
    }

    fn drain(&self) -> Vec<Envelope<M>> {
        let mut q = self.inbox.drain_all();
        let out: Vec<Envelope<M>> = q.drain(..).collect();
        self.inbox.recycle(q);
        out
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn send_heartbeat(&self, _to: NodeId, seq: u64) {
        // Lockstep wire: the beacon lands instantly. Per-peer copies of
        // the same seq collapse in the detector's dedup.
        self.det.observe_hb(self.me, self.birth, seq);
    }
}

// ---------------------------------------------------------------------------
// Shared reliability bookkeeping for the non-lockstep backends.
// ---------------------------------------------------------------------------

/// Receiver-side per-link delivery state. `seen`/`delivered` are scoped to
/// the *sender's* slot epoch: when a standby adopts the sender's identity
/// its fresh sequence numbers must not collide with the dead
/// predecessor's, so a frame from a newer epoch resets the link.
struct LinkRx {
    src_epoch: u64,
    delivered: u64,
    seen: HashSet<u64>,
}

/// Shared delivery bookkeeping: per-slot epochs plus per-ordered-link
/// receive state, updated synchronously at enqueue time.
pub(crate) struct NetLayer {
    n: usize,
    epochs: Box<[AtomicU64]>,
    links: Box<[Mutex<LinkRx>]>,
}

impl NetLayer {
    fn new(n: usize) -> Self {
        NetLayer {
            n,
            epochs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            links: (0..n * n)
                .map(|_| {
                    Mutex::new(LinkRx {
                        src_epoch: 0,
                        delivered: 0,
                        seen: HashSet::new(),
                    })
                })
                .collect(),
        }
    }

    fn epoch(&self, id: NodeId) -> u64 {
        self.epochs[id.index()].load(Ordering::Acquire)
    }

    fn bump_epoch(&self, id: NodeId) {
        self.epochs[id.index()].fetch_add(1, Ordering::Release);
    }

    fn link(&self, from: NodeId, to: NodeId) -> &Mutex<LinkRx> {
        &self.links[from.index() * self.n + to.index()]
    }

    /// How many distinct frames of `src_epoch` have been resolved on
    /// `(from, to)` — zero until the first frame of that epoch arrives.
    fn delivered(&self, from: NodeId, to: NodeId, src_epoch: u64) -> u64 {
        let l = self.link(from, to).lock();
        if l.src_epoch == src_epoch {
            l.delivered
        } else {
            0
        }
    }

    /// Resolves one frame at its destination: suppresses duplicates and
    /// stale-sender frames, enqueues it into the destination inbox unless
    /// the destination slot was re-identified since the frame was stamped
    /// (in which case the message is lost, exactly like a send into a
    /// crashed node's rotting inbox), and then counts it delivered.
    fn resolve<M>(
        &self,
        fabric: &Fabric<M>,
        cache: &mut RouteCache<M>,
        comm: &AtomicCommStats,
        to: NodeId,
        frame: Frame<M>,
    ) {
        let cur_dst = self.epoch(to);
        let mut l = self.link(frame.env.from, to).lock();
        if frame.src_epoch < l.src_epoch {
            return; // frame from a sender identity that no longer exists
        }
        if frame.src_epoch > l.src_epoch {
            l.src_epoch = frame.src_epoch;
            l.delivered = 0;
            l.seen.clear();
        }
        if !l.seen.insert(frame.seq) {
            comm.record_redelivered(1);
            return;
        }
        if frame.dst_epoch == cur_dst {
            fabric.push_cached(cache, to, frame.env);
        }
        // Counted only now, under the link lock a flushing sender reads
        // `delivered` through: its fence must not release the barrier while
        // the frame is still on its way into the inbox.
        l.delivered += 1;
    }
}

/// One stamped in-flight message.
struct Frame<M> {
    seq: u64,
    src_epoch: u64,
    dst_epoch: u64,
    env: Envelope<M>,
}

/// Spins with bounded exponential backoff until `done()` holds.
///
/// # Panics
///
/// Panics after [`FENCE_PATIENCE`] — a fence that cannot settle means the
/// transport lost track of a frame, which must surface, not hang.
fn backoff_until(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut pause = Duration::from_micros(50);
    while !done() {
        assert!(
            start.elapsed() < FENCE_PATIENCE,
            "transport fence wedged waiting for {what}"
        );
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------------
// Lossy backend.
// ---------------------------------------------------------------------------

/// The channel backend wrapped in deterministic seeded per-link faults.
pub(crate) struct LossyTransport<M> {
    fabric: Arc<Fabric<M>>,
    net: Arc<NetLayer>,
    faults: NetFaults,
    comm: Arc<AtomicCommStats>,
}

impl<M> LossyTransport<M> {
    pub(crate) fn new(
        fabric: Arc<Fabric<M>>,
        n: usize,
        faults: NetFaults,
        comm: Arc<AtomicCommStats>,
    ) -> Self {
        LossyTransport {
            fabric,
            net: Arc::new(NetLayer::new(n)),
            faults,
            comm,
        }
    }
}

impl<M: Send + Clone + 'static> Transport<M> for LossyTransport<M> {
    fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    fn open(
        &self,
        cluster: &Cluster<M>,
        id: NodeId,
        inbox: Receiver<Envelope<M>>,
    ) -> Box<dyn Pipe<M>> {
        let det = Arc::clone(cluster.coordinator().detector());
        let birth = det.birth(id);
        Box::new(LossyPipe {
            me: id,
            birth,
            my_epoch: self.net.epoch(id),
            inbox,
            cache: RefCell::new(self.fabric.snapshot()),
            fabric: Arc::clone(&self.fabric),
            net: Arc::clone(&self.net),
            faults: self.faults,
            comm: Arc::clone(&self.comm),
            det,
            tx: RefCell::new(HashMap::new()),
            hb_rng: RefCell::new(HashMap::new()),
        })
    }

    fn on_adopt(&self, id: NodeId) {
        self.net.bump_epoch(id);
    }
}

/// Per-destination sender state of one lossy endpoint.
struct TxLink<M> {
    rng: u64,
    next_seq: u64,
    /// Frames the wire "lost"; retransmitted fault-free at the fence.
    dropped: Vec<Frame<M>>,
    /// A frame held back for reorder (released after the next send on the
    /// link) or delay (released at the fence).
    held: Option<(Frame<M>, bool /* release on next send */)>,
}

impl<M> TxLink<M> {
    fn new(seed: u64, me: NodeId, to: NodeId, epoch: u64) -> Self {
        // Per-link stream: depends only on identities and the seed, never
        // on thread timing.
        let salt = (u64::from(me.raw()) << 40) ^ (u64::from(to.raw()) << 16) ^ epoch;
        TxLink {
            rng: seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407),
            next_seq: 0,
            dropped: Vec::new(),
            held: None,
        }
    }

    fn roll(&mut self) -> u64 {
        splitmix_roll(&mut self.rng)
    }
}

/// One step of the seeded per-link splitmix stream, reduced to a
/// per-mille roll.
fn splitmix_roll(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1000
}

struct LossyPipe<M> {
    me: NodeId,
    birth: u64,
    my_epoch: u64,
    inbox: Receiver<Envelope<M>>,
    cache: RefCell<RouteCache<M>>,
    fabric: Arc<Fabric<M>>,
    net: Arc<NetLayer>,
    faults: NetFaults,
    comm: Arc<AtomicCommStats>,
    det: Arc<FailureDetector>,
    /// Per-destination heartbeat fault stream, deliberately separate from
    /// the data [`TxLink`] stream so enabling heartbeats cannot perturb
    /// the seeded fault pattern the data traffic sees.
    hb_rng: RefCell<HashMap<u32, u64>>,
    tx: RefCell<HashMap<u32, TxLink<M>>>,
}

impl<M: Send + Clone + 'static> LossyPipe<M> {
    fn resolve(&self, to: NodeId, frame: Frame<M>) {
        self.net.resolve(
            &self.fabric,
            &mut self.cache.borrow_mut(),
            &self.comm,
            to,
            frame,
        );
    }
}

impl<M: Send + Clone + 'static> Pipe<M> for LossyPipe<M> {
    fn send(&self, to: NodeId, env: Envelope<M>, kind: CommKind) -> bool {
        let mut tx = self.tx.borrow_mut();
        let link = tx
            .entry(to.raw())
            .or_insert_with(|| TxLink::new(self.faults.seed, self.me, to, self.my_epoch));
        let frame = Frame {
            seq: link.next_seq,
            src_epoch: self.my_epoch,
            dst_epoch: self.net.epoch(to),
            env,
        };
        link.next_seq += 1;

        let f = self.faults.for_kind(kind);
        let roll = link.roll();
        let dup_at = u64::from(f.drop_pm) + u64::from(f.dup_pm);
        let reorder_at = dup_at + u64::from(f.reorder_pm);
        let delay_at = reorder_at + u64::from(f.delay_pm);
        if roll < u64::from(f.drop_pm) {
            link.dropped.push(frame);
            return true; // lost on the wire; the fence will resend it
        }
        if roll >= dup_at && roll < delay_at && link.held.is_none() {
            // Hold back: reorder releases after the next delivery on the
            // link, delay not before the fence. Nothing was delivered, so
            // any previously held frame (there is none) stays put.
            link.held = Some((frame, roll < reorder_at));
            return true;
        }
        let dup = roll < dup_at;
        let copy = dup.then(|| Frame {
            seq: frame.seq,
            src_epoch: frame.src_epoch,
            dst_epoch: frame.dst_epoch,
            env: frame.env.clone(),
        });
        self.resolve(to, frame);
        if let Some(copy) = copy {
            self.resolve(to, copy); // suppressed by the sequence filter
        }
        if matches!(link.held, Some((_, true))) {
            // A later message was just delivered past the held frame;
            // release it now — the two arrive in swapped order.
            let (held, _) = link.held.take().expect("matched Some above");
            self.resolve(to, held);
        }
        true
    }

    fn drain(&self) -> Vec<Envelope<M>> {
        let mut q = self.inbox.drain_all();
        let out: Vec<Envelope<M>> = q.drain(..).collect();
        self.inbox.recycle(q);
        out
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn flush(&self) {
        let mut tx = self.tx.borrow_mut();
        let mut retries = 0u64;
        for (to, link) in tx.iter_mut() {
            let to = NodeId::new(*to);
            if let Some((held, _)) = link.held.take() {
                self.net.resolve(
                    &self.fabric,
                    &mut self.cache.borrow_mut(),
                    &self.comm,
                    to,
                    held,
                );
            }
            for frame in link.dropped.drain(..) {
                self.net.resolve(
                    &self.fabric,
                    &mut self.cache.borrow_mut(),
                    &self.comm,
                    to,
                    frame,
                );
                retries += 1;
            }
        }
        if retries > 0 {
            self.comm.record_retries(retries);
        }
    }

    fn send_heartbeat(&self, to: NodeId, seq: u64) {
        let mut hb = self.hb_rng.borrow_mut();
        let state = hb.entry(to.raw()).or_insert_with(|| {
            // Same shape as the TxLink seeding but a different multiplier:
            // an independent stream keyed by the same identities.
            let salt =
                (u64::from(self.me.raw()) << 40) ^ (u64::from(to.raw()) << 16) ^ self.my_epoch;
            self.faults.seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        });
        let f = self.faults.heartbeat;
        let roll = splitmix_roll(state);
        let dup_at = u64::from(f.drop_pm) + u64::from(f.dup_pm);
        let reorder_at = dup_at + u64::from(f.reorder_pm);
        let delay_at = reorder_at + u64::from(f.delay_pm);
        if roll < u64::from(f.drop_pm) || (roll >= reorder_at && roll < delay_at) {
            // Dropped or delayed: a heartbeat is never retransmitted — the
            // next beacon supersedes it. (A reordered one still arrives;
            // the detector's monotonic seq check absorbs the disorder.)
            return;
        }
        self.det.observe_hb(self.me, self.birth, seq);
        if roll < dup_at {
            self.det.observe_hb(self.me, self.birth, seq); // dup, seq-dedup'd
        }
    }
}

// ---------------------------------------------------------------------------
// TCP backend.
// ---------------------------------------------------------------------------

/// Wire frame header: `[len u32][kind u8][from u32][src_epoch u64]
/// [dst_epoch u64][seq u64][payload]`, everything little-endian, `len`
/// covering all that follows it. `kind` selects the frame's routing:
/// [`FRAME_DATA`] goes through [`NetLayer::resolve`] into an inbox,
/// [`FRAME_HEARTBEAT`] (empty payload; the `src_epoch` slot carries the
/// detector *birth*, the `dst_epoch` slot is unused) goes straight to the
/// shared [`FailureDetector`].
const TCP_HEADER: usize = 1 + 4 + 8 + 8 + 8;

/// Frame kind: an application message.
const FRAME_DATA: u8 = 0;
/// Frame kind: a liveness beacon for the failure detector.
const FRAME_HEARTBEAT: u8 = 1;

/// How many times a transient connect or accept failure is retried before
/// the endpoint gives up (exponential backoff with deterministic jitter
/// between attempts).
const NET_RETRY_ATTEMPTS: u32 = 5;

/// Reader-thread poll quantum: readers block at most this long before
/// re-checking the shutdown flag, so `shutdown` can join them without
/// racing a blocked `read`.
const READ_POLL: Duration = Duration::from_millis(25);

/// Connects to `addr` with bounded exponential backoff. The jitter is
/// derived from the link identity and attempt number — deterministic, but
/// de-synchronised across links so a thundering herd of reconnects
/// spreads out.
fn connect_with_retry(addr: SocketAddr, me: NodeId, to: NodeId) -> Option<TcpStream> {
    let mut pause = Duration::from_micros(200);
    for attempt in 0..NET_RETRY_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Some(s);
            }
            Err(_) if attempt + 1 < NET_RETRY_ATTEMPTS => {
                let mut h = (u64::from(me.raw()) << 32) ^ u64::from(to.raw()) ^ u64::from(attempt);
                let jitter = Duration::from_micros(splitmix_roll(&mut h) % 200);
                std::thread::sleep(pause + jitter);
                pause *= 2;
            }
            Err(_) => return None,
        }
    }
    None
}

/// Real loopback TCP sockets: one listener per node slot, persistent
/// outbound connections per sender, fabric-owned reader threads decoding
/// frames into the destination's local inbox (data) or the shared
/// failure detector (heartbeats).
pub(crate) struct TcpTransport<M> {
    fabric: Arc<Fabric<M>>,
    net: Arc<NetLayer>,
    det: Arc<FailureDetector>,
    addrs: Arc<Vec<SocketAddr>>,
    done: Arc<AtomicBool>,
    acceptors: Mutex<Vec<std::thread::JoinHandle<()>>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl<M: Send + WireCodec + 'static> TcpTransport<M> {
    pub(crate) fn new(
        fabric: Arc<Fabric<M>>,
        n: usize,
        comm: Arc<AtomicCommStats>,
        det: Arc<FailureDetector>,
    ) -> Self {
        let net = Arc::new(NetLayer::new(n));
        let done = Arc::new(AtomicBool::new(false));
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for slot in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("bind loopback listener for slot {slot}: {e}"));
            addrs.push(l.local_addr().expect("listener has a local address"));
            listeners.push(l);
        }
        let mut acceptors = Vec::with_capacity(n);
        for (slot, listener) in listeners.into_iter().enumerate() {
            let fabric = Arc::clone(&fabric);
            let net = Arc::clone(&net);
            let comm = Arc::clone(&comm);
            let det = Arc::clone(&det);
            let done = Arc::clone(&done);
            let readers = Arc::clone(&readers);
            acceptors.push(std::thread::spawn(move || {
                let to = NodeId::from_index(slot);
                let mut errors = 0u32;
                let mut pause = Duration::from_micros(200);
                loop {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => {
                            errors = 0;
                            pause = Duration::from_micros(200);
                            stream
                        }
                        Err(_) => {
                            // Transient accept failures (EMFILE, ECONNABORTED)
                            // are retried a bounded number of times.
                            errors += 1;
                            if done.load(Ordering::Acquire) || errors >= NET_RETRY_ATTEMPTS {
                                break;
                            }
                            std::thread::sleep(pause);
                            pause *= 2;
                            continue;
                        }
                    };
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let fabric = Arc::clone(&fabric);
                    let net = Arc::clone(&net);
                    let comm = Arc::clone(&comm);
                    let det = Arc::clone(&det);
                    let done = Arc::clone(&done);
                    readers.lock().push(std::thread::spawn(move || {
                        read_frames(stream, to, &fabric, &net, &comm, &det, &done)
                    }));
                }
            }));
        }
        TcpTransport {
            fabric,
            net,
            det,
            addrs: Arc::new(addrs),
            done,
            acceptors: Mutex::new(acceptors),
            readers,
        }
    }
}

impl<M> TcpTransport<M> {
    /// Idempotent teardown: raise the flag, nudge every acceptor awake,
    /// then join acceptors and readers so no thread outlives the
    /// transport (readers poll the flag every [`READ_POLL`]).
    fn shutdown_impl(&self) {
        if self.done.swap(true, Ordering::AcqRel) {
            return;
        }
        for addr in self.addrs.iter() {
            let _ = TcpStream::connect(addr);
        }
        for h in self.acceptors.lock().drain(..) {
            let _ = h.join();
        }
        for h in self.readers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Reads exactly `buf.len()` bytes, treating read timeouts as a cue to
/// re-check the shutdown flag. Returns `false` on EOF, error, or
/// shutdown.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], done: &AtomicBool) -> bool {
    use std::io::ErrorKind;
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return false, // peer closed (endpoint dropped)
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if done.load(Ordering::Acquire) {
                    return false; // shutting down; abandon the stream
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// One connection's reader loop: length-prefixed frames → decode →
/// resolve (dedup + epoch check) → local inbox; heartbeat frames short-
/// circuit into the failure detector, birth-guarded.
fn read_frames<M: Send + WireCodec + 'static>(
    mut stream: TcpStream,
    to: NodeId,
    fabric: &Fabric<M>,
    net: &NetLayer,
    comm: &AtomicCommStats,
    det: &FailureDetector,
    done: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut cache = fabric.snapshot();
    let mut len = [0u8; 4];
    let mut payload = Vec::new();
    loop {
        if !read_full(&mut stream, &mut len, done) {
            return; // peer closed, shutdown, or error
        }
        let len = u32::from_le_bytes(len) as usize;
        if len < TCP_HEADER {
            return;
        }
        payload.resize(len, 0);
        if !read_full(&mut stream, &mut payload, done) {
            return;
        }
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        let kind = payload[0];
        let from = NodeId::new(u32::from_le_bytes(payload[1..5].try_into().unwrap()));
        let (src_epoch, dst_epoch, seq) = (word(5), word(13), word(21));
        match kind {
            FRAME_HEARTBEAT => {
                // src_epoch carries the sender's detector birth; a beacon
                // from a fenced predecessor incarnation is ignored there.
                det.observe_hb(from, src_epoch, seq);
            }
            FRAME_DATA => {
                let Some(msg) = M::decode_wire(&payload[TCP_HEADER..]) else {
                    return; // corrupt stream; drop the connection
                };
                net.resolve(
                    fabric,
                    &mut cache,
                    comm,
                    to,
                    Frame {
                        seq,
                        src_epoch,
                        dst_epoch,
                        env: Envelope { from, msg },
                    },
                );
            }
            _ => return, // unknown kind: corrupt stream
        }
    }
}

impl<M: Send + WireCodec + 'static> Transport<M> for TcpTransport<M> {
    fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    fn open(
        &self,
        _cluster: &Cluster<M>,
        id: NodeId,
        inbox: Receiver<Envelope<M>>,
    ) -> Box<dyn Pipe<M>> {
        Box::new(TcpPipe {
            me: id,
            birth: self.det.birth(id),
            my_epoch: self.net.epoch(id),
            inbox,
            net: Arc::clone(&self.net),
            addrs: Arc::clone(&self.addrs),
            conns: RefCell::new(HashMap::new()),
            sent: RefCell::new(HashMap::new()),
            buf: RefCell::new(Vec::new()),
        })
    }

    fn on_adopt(&self, id: NodeId) {
        self.net.bump_epoch(id);
    }

    fn shutdown(&self) {
        self.shutdown_impl();
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

struct TcpPipe<M> {
    me: NodeId,
    birth: u64,
    my_epoch: u64,
    inbox: Receiver<Envelope<M>>,
    net: Arc<NetLayer>,
    addrs: Arc<Vec<SocketAddr>>,
    conns: RefCell<HashMap<u32, TcpStream>>,
    /// Per-destination `(next_seq, cumulative frames written)`.
    sent: RefCell<HashMap<u32, u64>>,
    buf: RefCell<Vec<u8>>,
}

impl<M> TcpPipe<M> {
    /// Writes the frame in `self.buf` to the connection toward `to`,
    /// dialling it (bounded retry) on first use. A connection that errors
    /// mid-write is discarded so the next frame redials instead of
    /// writing into a dead socket.
    fn write_frame(&self, to: NodeId) -> bool {
        let mut conns = self.conns.borrow_mut();
        let stream = match conns.entry(to.raw()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                match connect_with_retry(self.addrs[to.index()], self.me, to) {
                    Some(s) => v.insert(s),
                    None => return false, // transport shut down
                }
            }
        };
        if stream.write_all(&self.buf.borrow()).is_err() {
            conns.remove(&to.raw());
            return false;
        }
        true
    }
}

impl<M: Send + WireCodec + 'static> Pipe<M> for TcpPipe<M> {
    fn send(&self, to: NodeId, env: Envelope<M>, _kind: CommKind) -> bool {
        let mut sent = self.sent.borrow_mut();
        let seq = sent.entry(to.raw()).or_insert(0);
        {
            let mut buf = self.buf.borrow_mut();
            buf.clear();
            buf.extend_from_slice(&[0u8; 4]); // length, patched below
            buf.push(FRAME_DATA);
            buf.extend_from_slice(&env.from.raw().to_le_bytes());
            buf.extend_from_slice(&self.my_epoch.to_le_bytes());
            buf.extend_from_slice(&self.net.epoch(to).to_le_bytes());
            buf.extend_from_slice(&seq.to_le_bytes());
            env.msg.encode_wire(&mut buf);
            let len = (buf.len() - 4) as u32;
            buf[0..4].copy_from_slice(&len.to_le_bytes());
        }
        if !self.write_frame(to) {
            return false;
        }
        *seq += 1;
        true
    }

    fn drain(&self) -> Vec<Envelope<M>> {
        let mut q = self.inbox.drain_all();
        let out: Vec<Envelope<M>> = q.drain(..).collect();
        self.inbox.recycle(q);
        out
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn flush(&self) {
        // TCP never loses a frame in-process; the fence only has to wait
        // until the destination reader threads have resolved everything
        // this endpoint wrote (the ack side of ack/retry — kernel TCP is
        // the retry side).
        let sent = self.sent.borrow();
        for (&to, &n) in sent.iter() {
            if n == 0 {
                continue;
            }
            let to = NodeId::new(to);
            backoff_until("tcp frame resolution", || {
                self.net.delivered(self.me, to, self.my_epoch) >= n
            });
        }
    }

    fn send_heartbeat(&self, to: NodeId, seq: u64) {
        {
            let mut buf = self.buf.borrow_mut();
            buf.clear();
            buf.extend_from_slice(&[0u8; 4]);
            buf.push(FRAME_HEARTBEAT);
            buf.extend_from_slice(&self.me.raw().to_le_bytes());
            buf.extend_from_slice(&self.birth.to_le_bytes()); // src_epoch slot: detector birth
            buf.extend_from_slice(&0u64.to_le_bytes()); // dst_epoch slot: unused
            buf.extend_from_slice(&seq.to_le_bytes());
            let len = (buf.len() - 4) as u32;
            buf[0..4].copy_from_slice(&len.to_le_bytes());
        }
        // Best-effort: no seq accounting, no fence participation — a lost
        // beacon is superseded by the next one.
        let _ = self.write_frame(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::{LinkFaults, TransportKind};
    use crate::{BarrierOutcome, Cluster};

    fn lossy_kind(seed: u64, f: LinkFaults) -> TransportKind {
        TransportKind::Lossy(NetFaults::uniform(seed, f))
    }

    fn pair(kind: TransportKind) -> (Cluster<u64>, crate::NodeCtx<u64>, crate::NodeCtx<u64>) {
        let c: Cluster<u64> = Cluster::with_transport(2, 1, Duration::ZERO, kind);
        let a = c.take_ctx(NodeId::new(0));
        let b = c.take_ctx(NodeId::new(1));
        (c, a, b)
    }

    /// Everything sent before the sender's barrier is drainable after it,
    /// no matter how hostile the link: the fence restores the lockstep
    /// invariant.
    #[test]
    fn lossy_fence_restores_pre_barrier_delivery() {
        let faults = LinkFaults {
            drop_pm: 300,
            dup_pm: 200,
            reorder_pm: 200,
            delay_pm: 100,
        };
        let (c, a, b) = pair(lossy_kind(7, faults));
        let t = std::thread::spawn(move || {
            for i in 0..500u64 {
                b.send(NodeId::new(0), i);
            }
            b.enter_barrier();
            b
        });
        a.enter_barrier();
        let mut got: Vec<u64> = a.drain().into_iter().map(|e| e.msg).collect();
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<u64>>());
        t.join().unwrap();
        let br = c.comm_breakdown();
        assert!(br.retries > 0, "drops must surface as fence retries");
        assert!(br.redelivered > 0, "dups must be suppressed and counted");
        c.shutdown_transport();
    }

    /// The same seed produces the same fault pattern.
    #[test]
    fn lossy_faults_are_deterministic() {
        let faults = LinkFaults {
            drop_pm: 250,
            dup_pm: 250,
            reorder_pm: 0,
            delay_pm: 0,
        };
        let run = || {
            let (c, a, b) = pair(lossy_kind(99, faults));
            for i in 0..200u64 {
                a.send(NodeId::new(1), i);
            }
            let t = std::thread::spawn(move || b.enter_barrier());
            a.enter_barrier();
            t.join().unwrap();
            let br = c.comm_breakdown();
            (br.retries, br.redelivered)
        };
        assert_eq!(run(), run());
        let (retries, redelivered) = run();
        assert!(retries > 0 && redelivered > 0);
    }

    #[test]
    fn tcp_roundtrip_with_sender_identity() {
        let (c, a, b) = pair(TransportKind::Tcp);
        assert!(a.send(NodeId::new(1), 4242));
        let got = b.recv_timeout(Duration::from_secs(5)).expect("delivered");
        assert_eq!(got.from, NodeId::new(0));
        assert_eq!(got.msg, 4242);
        drop((a, b));
        c.shutdown_transport();
    }

    #[test]
    fn tcp_fence_holds_pre_barrier_invariant() {
        let (c, a, b) = pair(TransportKind::Tcp);
        let t = std::thread::spawn(move || {
            for i in 0..1000u64 {
                b.send(NodeId::new(0), i);
            }
            assert_eq!(b.enter_barrier(), BarrierOutcome::Clean);
            b
        });
        a.enter_barrier();
        let got: Vec<u64> = a.drain().into_iter().map(|e| e.msg).collect();
        // One link, one connection: TCP also preserves order.
        assert_eq!(got, (0..1000).collect::<Vec<u64>>());
        t.join().unwrap();
        c.shutdown_transport();
    }

    #[test]
    fn tcp_die_then_adopt_drops_stale_frames() {
        let (c, a, b) = pair(TransportKind::Tcp);
        a.send(NodeId::new(1), 7);
        b.die();
        assert!(a.enter_barrier().is_fail());
        assert!(c.coordinator().claim_standby());
        let b2 = c.adopt(NodeId::new(1));
        // The pre-crash frame must not surface in the adopted inbox even
        // if its reader thread resolves it after the adoption.
        std::thread::sleep(Duration::from_millis(50));
        assert!(b2.drain().is_empty());
        a.send(NodeId::new(1), 8);
        assert_eq!(b2.recv_timeout(Duration::from_secs(5)).unwrap().msg, 8);
        drop((a, b2));
        c.shutdown_transport();
    }

    #[test]
    fn wire_codec_scalar_roundtrip() {
        let mut buf = Vec::new();
        0xDEAD_BEEF_u32.encode_wire(&mut buf);
        assert_eq!(u32::decode_wire(&buf), Some(0xDEAD_BEEF));
        buf.clear();
        42u64.encode_wire(&mut buf);
        assert_eq!(u64::decode_wire(&buf), Some(42));
        assert_eq!(u64::decode_wire(&buf[1..]), None);
    }
}
