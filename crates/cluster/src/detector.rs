//! Failure detection by heartbeat and suspicion.
//!
//! The paper assumes a conservative heartbeat detector ("about 500 ms").
//! Nodes emit sequence-numbered heartbeats through the transport seam. A
//! node whose heartbeats go silent past `hb_timeout` becomes *suspected*;
//! fresh evidence of life (a later heartbeat, a barrier-wait self-stamp)
//! *retracts* the suspicion; silence past the fence — or a process-exit
//! close event — *confirms* it, and only confirmed nodes are handed to
//! recovery. A crashed node announces nothing: dropping its context closes
//! its slot, and the survivors' scans do the rest.
//!
//! Determinism rests on the [`Clock`] trait: under the Channel and Lossy
//! transports time is *virtual* — a shared tick counter advanced only while
//! some node is pumping (waiting in a barrier or a timed receive), rate
//! limited to one tick per [`PUMP_QUANTUM`] of wall time no matter how many
//! pumpers race. A dead node's slot is already closed when it is first
//! suspected, so it is confirmed one tick after the timeout, and the
//! confirmation lands at the same barrier epoch in every run — which is all
//! the golden hashes observe. Under TCP a wall clock is used instead (real
//! sockets already imply real time).
//!
//! False positives are fenced idempotently: a confirm of a node that never
//! closed marks its slot down all the same; the zombie discovers this through
//! [`FailureDetector::is_stale`] (its `birth` epoch no longer matches, or
//! its slot is down) and exits instead of racing its replacement.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use imitator_metrics::SuspicionStats;
use parking_lot::Mutex;

use crate::NodeId;

/// The wall-time width of one detector tick, and the slice length of every
/// pumped wait (barrier waits, timed receives, stalls).
pub const PUMP_QUANTUM: Duration = Duration::from_micros(200);

/// Detector ticks per millisecond (`1 ms / PUMP_QUANTUM`).
pub const TICKS_PER_MS: u64 = 5;

/// Converts a configured duration to detector ticks (at least 1 for any
/// nonzero duration, so a sub-quantum delay still takes effect).
pub fn duration_ticks(d: Duration) -> u64 {
    if d.is_zero() {
        0
    } else {
        ((d.as_micros() / PUMP_QUANTUM.as_micros()) as u64).max(1)
    }
}

/// A monotone tick source. Implementations must be cheap and thread-safe:
/// `now` sits on hot pump paths, `advance` is called once per pump slice.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current tick.
    fn now(&self) -> u64;
    /// Gives the clock an opportunity to move forward (no-op for clocks
    /// that track real time on their own).
    fn advance(&self);
}

/// Deterministic virtual time: ticks advance only when pumped, and at most
/// once per [`PUMP_QUANTUM`] of wall time across *all* pumpers — so four
/// barrier waiters don't make time run four times faster than one, and time
/// stands still while every node is busy computing.
#[derive(Debug)]
pub struct VirtualClock {
    start: Instant,
    ticks: AtomicU64,
    last_advance_us: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at tick zero.
    pub fn new() -> Self {
        VirtualClock {
            start: Instant::now(),
            ticks: AtomicU64::new(0),
            last_advance_us: AtomicU64::new(0),
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }

    fn advance(&self) {
        let now_us = self.start.elapsed().as_micros() as u64;
        let last = self.last_advance_us.load(Ordering::Acquire);
        if now_us.saturating_sub(last) >= PUMP_QUANTUM.as_micros() as u64
            && self
                .last_advance_us
                .compare_exchange(last, now_us, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.ticks.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Real time quantised to detector ticks; used under the TCP transport
/// where sockets already make timing physical.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A wall clock starting at tick zero.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        (self.start.elapsed().as_micros() / PUMP_QUANTUM.as_micros()) as u64
    }

    fn advance(&self) {}
}

/// Which failure-detection subsystem a run uses: survivors notice a crash
/// through missed heartbeats, and a suspicion must outlive the fence (or
/// see a close event) before recovery starts. The type stays only because
/// the frozen `benchmark/src/config.rs` names its one variant; ROADMAP item
/// 2's benchmark change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorKind {
    /// The heartbeat/suspicion detector of this module.
    #[default]
    Heartbeat,
}

/// Failure-detection configuration carried on `RunConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// How often each node emits a heartbeat.
    pub hb_interval: Duration,
    /// Silence longer than this makes a node *suspected*.
    pub hb_timeout: Duration,
    /// Silence longer than `fence_multiplier × hb_timeout` *confirms* a
    /// suspicion even without a close event (the node is fenced out; if it
    /// was merely slow it must exit, not rejoin).
    pub fence_multiplier: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            hb_interval: Duration::from_millis(10),
            hb_timeout: Duration::from_millis(60),
            fence_multiplier: 40,
        }
    }
}

impl DetectorConfig {
    /// A heartbeat detector with the given emission interval and suspicion
    /// timeout.
    pub fn heartbeat(hb_interval: Duration, hb_timeout: Duration) -> Self {
        DetectorConfig {
            hb_interval,
            hb_timeout,
            ..DetectorConfig::default()
        }
    }
}

/// Per-logical-node detector state.
#[derive(Debug, Clone)]
struct Slot {
    /// Incarnation counter, bumped on revive. Evidence (heartbeats, close
    /// events) stamped with an older birth is ignored — a fenced zombie
    /// cannot disturb its replacement.
    birth: u64,
    /// Tick of the last evidence of life.
    last_hb: u64,
    /// Highest heartbeat sequence number accepted (duplicates from lossy
    /// links or redundant per-peer delivery are ignored).
    last_seq: u64,
    /// Next sequence number this node will emit.
    next_seq: u64,
    /// Tick of the last emitted heartbeat (`None` = emit immediately).
    last_emit: Option<u64>,
    suspected: bool,
    /// The node's context was dropped (clean exit or crash).
    closed: bool,
    /// Confirmed dead as far as the detector is concerned (until revive).
    /// A node confirmed without a close event may still be running and
    /// discovers through [`FailureDetector::is_stale`] that it was fenced
    /// out.
    down: bool,
}

impl Slot {
    fn fresh(birth: u64, now: u64) -> Self {
        Slot {
            birth,
            last_hb: now,
            last_seq: 0,
            next_seq: 0,
            last_emit: None,
            suspected: false,
            closed: false,
            down: false,
        }
    }
}

/// The shared failure detector: one per cluster, owned by the coordinator.
#[derive(Debug)]
pub struct FailureDetector {
    clock: Box<dyn Clock>,
    interval_ticks: u64,
    timeout_ticks: u64,
    fence_ticks: u64,
    slots: Mutex<Vec<Slot>>,
    suspected: AtomicU64,
    retracted: AtomicU64,
    confirmed: AtomicU64,
    detect_ticks: AtomicU64,
}

impl FailureDetector {
    /// Creates a detector for `num_nodes` logical slots. `wall_clock`
    /// selects real time (TCP transport) over deterministic virtual ticks.
    ///
    /// # Panics
    ///
    /// Panics if the timeout does not exceed the interval: every live node would fall silent past it between two of
    /// its own heartbeats, and past the fence soon after.
    pub fn new(num_nodes: usize, cfg: DetectorConfig, wall_clock: bool) -> Self {
        let clock: Box<dyn Clock> = if wall_clock {
            Box::new(WallClock::new())
        } else {
            Box::new(VirtualClock::new())
        };
        let interval_ticks = duration_ticks(cfg.hb_interval).max(1);
        let timeout_ticks = duration_ticks(cfg.hb_timeout);
        assert!(
            timeout_ticks > interval_ticks,
            "heartbeat timeout {:?} does not exceed the interval {:?}",
            cfg.hb_timeout,
            cfg.hb_interval
        );
        FailureDetector {
            clock,
            interval_ticks,
            timeout_ticks,
            fence_ticks: timeout_ticks.saturating_mul(u64::from(cfg.fence_multiplier.max(1))),
            slots: Mutex::new(vec![Slot::fresh(0, 0); num_nodes]),
            suspected: AtomicU64::new(0),
            retracted: AtomicU64::new(0),
            confirmed: AtomicU64::new(0),
            detect_ticks: AtomicU64::new(0),
        }
    }

    /// The current detector tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Gives the clock one advance opportunity (called once per pump slice).
    pub fn tick(&self) {
        self.clock.advance();
    }

    /// Direct evidence that `node` is alive right now (barrier-wait
    /// self-stamp, pump-loop self-stamp). Retracts a pre-fence suspicion.
    pub fn note_alive(&self, node: NodeId) {
        let now = self.now();
        let mut slots = self.slots.lock();
        let Some(s) = slots.get_mut(node.index()) else {
            return;
        };
        if s.down {
            return;
        }
        s.last_hb = now;
        if s.suspected {
            s.suspected = false;
            self.retracted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A heartbeat from `node` arrived over the wire. Ignored when stamped
    /// with a stale birth or an already-seen sequence number.
    pub fn observe_hb(&self, node: NodeId, birth: u64, seq: u64) {
        let now = self.now();
        let mut slots = self.slots.lock();
        let Some(s) = slots.get_mut(node.index()) else {
            return;
        };
        if s.down || s.birth != birth || seq <= s.last_seq {
            return;
        }
        s.last_seq = seq;
        s.last_hb = now;
        if s.suspected {
            s.suspected = false;
            self.retracted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The node's context was dropped (clean exit or crash). A closed node
    /// is confirmed as soon as it is suspected — no fence wait needed, so a
    /// crash is confirmed one tick after the timeout.
    pub fn observe_close(&self, node: NodeId, birth: u64) {
        let mut slots = self.slots.lock();
        let Some(s) = slots.get_mut(node.index()) else {
            return;
        };
        if s.birth != birth {
            return;
        }
        s.closed = true;
    }

    /// Emission gate: returns the next sequence number when `node` is due
    /// to emit (at most once per `hb_interval`).
    pub fn should_emit(&self, node: NodeId) -> Option<u64> {
        let now = self.now();
        let mut slots = self.slots.lock();
        let s = slots.get_mut(node.index())?;
        if s.down {
            return None;
        }
        let due = s
            .last_emit
            .is_none_or(|t| now.saturating_sub(t) >= self.interval_ticks);
        if !due {
            return None;
        }
        s.last_emit = Some(now);
        s.next_seq += 1;
        Some(s.next_seq)
    }

    /// The current incarnation of `node`'s slot.
    pub fn birth(&self, node: NodeId) -> u64 {
        self.slots.lock()[node.index()].birth
    }

    /// Whether the incarnation `birth` of `node` has been superseded or
    /// fenced out. A stalled-but-alive node checks this on waking: `true`
    /// means the cluster gave up on it and it must exit, not rejoin.
    pub fn is_stale(&self, node: NodeId, birth: u64) -> bool {
        let slots = self.slots.lock();
        match slots.get(node.index()) {
            Some(s) => s.birth != birth || s.down,
            None => true,
        }
    }

    /// A standby adopted `node`'s logical ID: new incarnation, fresh
    /// liveness, stale evidence fenced out by the birth bump.
    pub fn on_revive(&self, node: NodeId) {
        let now = self.now();
        let mut slots = self.slots.lock();
        let s = &mut slots[node.index()];
        *s = Slot::fresh(s.birth + 1, now);
    }

    /// One detection pass. Advances suspicion (suspect → retract/confirm)
    /// and returns the nodes whose failure is now *confirmed*; the caller
    /// marks them failed. `is_alive` reflects coordinator liveness so
    /// already-failed nodes are skipped.
    pub fn scan(&self, is_alive: &dyn Fn(NodeId) -> bool) -> Vec<NodeId> {
        let now = self.now();
        let mut confirms = Vec::new();
        let mut slots = self.slots.lock();
        for (i, s) in slots.iter_mut().enumerate() {
            let node = NodeId::from_index(i);
            if s.down || !is_alive(node) {
                continue;
            }
            let silent = now.saturating_sub(s.last_hb);
            if silent <= self.timeout_ticks {
                continue;
            }
            if !s.suspected {
                s.suspected = true;
                self.suspected.fetch_add(1, Ordering::Relaxed);
            }
            if s.closed || silent > self.fence_ticks {
                s.suspected = false;
                s.down = true;
                self.confirmed.fetch_add(1, Ordering::Relaxed);
                self.detect_ticks.fetch_add(silent, Ordering::Relaxed);
                confirms.push(node);
            }
        }
        confirms
    }

    /// Point-in-time suspicion counters.
    pub fn stats(&self) -> SuspicionStats {
        SuspicionStats {
            suspected: self.suspected.load(Ordering::Relaxed),
            retracted: self.retracted.load(Ordering::Relaxed),
            confirmed: self.confirmed.load(Ordering::Relaxed),
            detect_ticks: self.detect_ticks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test clock whose hands only move when the test says so.
    #[derive(Debug, Default)]
    struct ManualClock(AtomicU64);

    impl Clock for ManualClock {
        fn now(&self) -> u64 {
            self.0.load(Ordering::Acquire)
        }
        fn advance(&self) {
            self.0.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn hb_detector(n: usize, timeout_ticks: u64, fence_mult: u32) -> FailureDetector {
        let cfg = DetectorConfig {
            hb_interval: PUMP_QUANTUM,
            hb_timeout: PUMP_QUANTUM * timeout_ticks as u32,
            fence_multiplier: fence_mult,
        };
        let mut det = FailureDetector::new(n, cfg, false);
        det.clock = Box::new(ManualClock::default());
        det
    }

    fn advance(det: &FailureDetector, ticks: u64) {
        for _ in 0..ticks {
            det.tick();
        }
    }

    const ALL_ALIVE: &dyn Fn(NodeId) -> bool = &|_| true;

    #[test]
    fn duration_tick_conversion() {
        assert_eq!(duration_ticks(Duration::ZERO), 0);
        assert_eq!(duration_ticks(Duration::from_micros(50)), 1);
        assert_eq!(duration_ticks(Duration::from_millis(1)), TICKS_PER_MS);
        assert_eq!(duration_ticks(Duration::from_millis(60)), 300);
    }

    #[test]
    fn virtual_clock_is_rate_limited() {
        let c = VirtualClock::new();
        let start = c.now();
        // A burst of advances within one quantum moves the clock at most
        // once per elapsed quantum, not once per call.
        for _ in 0..1000 {
            c.advance();
        }
        assert!(c.now() - start <= 2, "burst advanced {} ticks", c.now());
    }

    #[test]
    fn silence_suspects_then_evidence_retracts() {
        let det = hb_detector(2, 10, 100);
        advance(&det, 11);
        let confirms = det.scan(ALL_ALIVE);
        assert!(confirms.is_empty(), "suspicion is not confirmation");
        assert_eq!(det.stats().suspected, 2);
        det.note_alive(NodeId::new(0));
        det.observe_hb(NodeId::new(1), 0, 1);
        assert_eq!(det.stats().retracted, 2);
        assert_eq!(det.stats().confirmed, 0);
        assert!(det.scan(ALL_ALIVE).is_empty());
    }

    #[test]
    fn close_event_confirms_at_timeout_not_fence() {
        let det = hb_detector(2, 10, 100);
        det.observe_close(NodeId::new(1), 0);
        advance(&det, 11);
        det.note_alive(NodeId::new(0));
        let confirms = det.scan(ALL_ALIVE);
        assert_eq!(confirms, vec![NodeId::new(1)]);
        let st = det.stats();
        assert_eq!((st.suspected, st.confirmed), (1, 1));
        assert!(st.detect_ticks >= 11);
        // Idempotent: a second scan does not re-confirm.
        assert!(det.scan(ALL_ALIVE).is_empty());
    }

    #[test]
    fn fence_confirms_unclosed_node_and_marks_it_stale() {
        let det = hb_detector(2, 10, 3);
        advance(&det, 11);
        det.note_alive(NodeId::new(0));
        assert!(det.scan(ALL_ALIVE).is_empty()); // suspected only
        assert!(!det.is_stale(NodeId::new(1), 0));
        advance(&det, 20); // past fence = 30 ticks
        det.note_alive(NodeId::new(0));
        let confirms = det.scan(ALL_ALIVE);
        assert_eq!(confirms, vec![NodeId::new(1)]);
        assert!(det.is_stale(NodeId::new(1), 0), "fenced zombie is stale");
        // Late evidence from the fenced incarnation is ignored.
        det.observe_hb(NodeId::new(1), 0, 7);
        assert_eq!(det.stats().retracted, 0);
    }

    #[test]
    fn revive_bumps_birth_and_fences_old_evidence() {
        let det = hb_detector(2, 10, 3);
        det.observe_close(NodeId::new(1), 0);
        advance(&det, 11);
        assert_eq!(det.scan(ALL_ALIVE), vec![NodeId::new(1)]);
        det.on_revive(NodeId::new(1));
        assert_eq!(det.birth(NodeId::new(1)), 1);
        assert!(!det.is_stale(NodeId::new(1), 1));
        assert!(det.is_stale(NodeId::new(1), 0));
        det.observe_close(NodeId::new(1), 0); // stale close: ignored
        advance(&det, 11);
        det.note_alive(NodeId::new(0));
        det.note_alive(NodeId::new(1));
        assert!(det.scan(ALL_ALIVE).is_empty());
    }

    #[test]
    fn heartbeat_seqs_dedup_and_emission_respects_interval() {
        let det = hb_detector(2, 10, 100);
        assert_eq!(det.should_emit(NodeId::new(0)), Some(1));
        assert_eq!(det.should_emit(NodeId::new(0)), None, "interval gate");
        advance(&det, 1);
        assert_eq!(det.should_emit(NodeId::new(0)), Some(2));
        det.observe_hb(NodeId::new(0), 0, 2); // stamps at tick 1
        advance(&det, 11);
        det.observe_hb(NodeId::new(0), 0, 2); // duplicate seq: ignored
        det.note_alive(NodeId::new(1));
        det.scan(ALL_ALIVE);
        assert_eq!(
            det.stats().suspected,
            1,
            "duplicate delivery must not count as fresh life"
        );
    }

    #[test]
    #[should_panic(expected = "does not exceed the interval")]
    fn heartbeat_timeout_must_exceed_the_interval() {
        let cfg = DetectorConfig::heartbeat(Duration::from_millis(10), Duration::ZERO);
        FailureDetector::new(2, cfg, false);
    }
}
