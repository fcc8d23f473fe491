//! Deterministic fail-stop and network-fault injection.
//!
//! The paper's case study (§6.9) injects a machine failure between the 6th
//! and 7th iterations of a PageRank run. [`FailureInjector`] expresses such
//! schedules: a set of `(node, iteration, point)` plans that the engine
//! consults at the two protocol points where a crash produces distinct
//! recovery behaviour (before the barrier → peers roll back the iteration;
//! after the barrier → the committed iteration survives).
//!
//! Crashes are only half of what a real network does to a protocol. The
//! same module therefore also describes *message*-level faults —
//! [`NetFaults`] / [`LinkFaults`] — which the lossy transport backend
//! applies per link and per [`CommKind`]: drop, duplicate, reorder, and
//! delay, all derived from one seed so a chaos schedule reproduces from its
//! index alone. [`TransportKind`] selects which wire backend a cluster runs
//! on.

use imitator_metrics::CommKind;
use parking_lot::Mutex;

use crate::NodeId;

/// Where within an iteration the crash strikes.
///
/// The first two points strike during normal superstep execution; the
/// remaining ones strike *inside* the recovery protocol itself, modelling
/// the paper's cascading-failure scenarios (§5.3). For recovery-phase
/// points the `iteration` of the [`FailurePlan`] is the iteration that the
/// in-flight recovery episode resumes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailPoint {
    /// During compute/communicate, i.e. detected at `enter_barrier`;
    /// survivors must roll back the current iteration (Algorithm 1 line 9).
    BeforeBarrier,
    /// After commit, i.e. detected at `leave_barrier`; no rollback needed
    /// (Algorithm 1 lines 16-19).
    AfterBarrier,
    /// At the start of the given Migration round (1..=8), before the node
    /// drains or applies that round's protocol traffic.
    MigrationRound(u8),
    /// During the reload phase of a standby-based recovery: survivors crash
    /// right after the standby-dispatch decision, the reborn node after
    /// receiving its first batch. Checkpoint recovery reuses this point for
    /// its reload; note that a checkpoint *newbie* keys the plan's
    /// `iteration` by the snapshot epoch it reloaded to (it never learns
    /// the episode's resume iteration), while every other use keys by the
    /// resume iteration.
    RebirthReload,
    /// While the reborn node reconstructs its graph from received batches.
    RebirthReconstruct,
    /// While the reborn node replays activation state to rejoin the run.
    RebirthReplay,
    /// Mid checkpoint write: the node dies after writing a torn snapshot
    /// part (no trailer), and its death fails the barrier that would have
    /// committed the epoch.
    CkptWrite,
    /// The node does not crash at all: it goes silent for the given number
    /// of detector ticks at the start of the iteration (GC pause, overload).
    /// Under the heartbeat detector a long enough stall gets the node
    /// suspected — and, past the fence, treated exactly like a crash — so
    /// this point exercises false-suspicion retraction and fencing.
    Stall(u64),
}

/// One scheduled crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailurePlan {
    /// The node to crash.
    pub node: NodeId,
    /// The (0-based) iteration during which it crashes.
    pub iteration: u64,
    /// The protocol point at which it crashes.
    pub point: FailPoint,
}

/// Per-link message-fault probabilities, in per-mille (`150` = 15 %).
///
/// Applied independently to each first transmission on a link; at most one
/// fault fires per message (the thresholds are cumulative over one roll).
/// Retransmissions issued by the pre-barrier fence are exempt, so a lossy
/// run always makes progress — exactly the kernel-TCP contract a real
/// deployment would rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaults {
    /// Probability the message is silently dropped (resent at the fence).
    pub drop_pm: u16,
    /// Probability the message is delivered twice (the duplicate must be
    /// suppressed by the receiver-side sequence filter).
    pub dup_pm: u16,
    /// Probability the message is held back and delivered *after* the next
    /// message on the same link (adjacent reorder).
    pub reorder_pm: u16,
    /// Probability the message is delayed until the sender's next fence.
    pub delay_pm: u16,
}

impl LinkFaults {
    /// No faults on this link class.
    pub const NONE: LinkFaults = LinkFaults {
        drop_pm: 0,
        dup_pm: 0,
        reorder_pm: 0,
        delay_pm: 0,
    };

    /// Whether every probability is zero.
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }
}

/// A deterministic network-fault schedule for the lossy transport: one
/// [`LinkFaults`] knob per traffic [`CommKind`], plus the seed every
/// per-link random stream derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaults {
    /// Seed for the per-link deterministic fault streams.
    pub seed: u64,
    /// Faults applied to replica-synchronisation traffic.
    pub sync: LinkFaults,
    /// Faults applied to vertex-cut gather traffic.
    pub gather: LinkFaults,
    /// Faults applied to recovery traffic (rebirth batches, migration
    /// rounds, full-sync replays).
    pub recovery: LinkFaults,
    /// Faults applied to everything else.
    pub control: LinkFaults,
    /// Faults applied to failure-detector heartbeat probes. Heartbeats are
    /// fire-and-forget (never fenced or retransmitted), so a dropped probe
    /// is simply lost — the detector must tolerate it via its timeout.
    pub heartbeat: LinkFaults,
}

impl NetFaults {
    /// The same fault knobs for every traffic kind.
    pub fn uniform(seed: u64, f: LinkFaults) -> Self {
        NetFaults {
            seed,
            sync: f,
            gather: f,
            recovery: f,
            control: f,
            heartbeat: f,
        }
    }

    /// A moderate seeded schedule for chaos sweeps: every kind sees a
    /// nonzero drop *and* duplicate probability (so any schedule exercises
    /// retransmission and duplicate suppression), with the exact mix varied
    /// by `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed ^ 0x6C62_272E_07BB_0142;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut knob = || LinkFaults {
            drop_pm: 40 + (next() % 110) as u16,
            dup_pm: 40 + (next() % 110) as u16,
            reorder_pm: (next() % 120) as u16,
            delay_pm: (next() % 80) as u16,
        };
        // The heartbeat knob is drawn *after* the four original kinds so
        // pre-existing seeded schedules keep their exact fault streams.
        NetFaults {
            seed,
            sync: knob(),
            gather: knob(),
            recovery: knob(),
            control: knob(),
            heartbeat: knob(),
        }
    }

    /// The fault knobs for one traffic kind.
    pub fn for_kind(&self, kind: CommKind) -> LinkFaults {
        match kind {
            CommKind::Sync => self.sync,
            CommKind::Gather => self.gather,
            CommKind::Recovery => self.recovery,
            CommKind::Control => self.control,
            CommKind::Heartbeat => self.heartbeat,
        }
    }
}

/// Which wire backend a [`Cluster`](crate::Cluster) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process lock-free channels: reliable, ordered, zero-copy. The
    /// default, and the backend the refactor goldens pin bit-identically.
    #[default]
    Channel,
    /// The channel backend wrapped in deterministic seeded message faults.
    Lossy(NetFaults),
    /// Real loopback TCP sockets: each node keeps persistent connections
    /// to its peers and ships length-prefixed encoded frames.
    Tcp,
}

/// A schedule of fail-stop crashes, consumed as they fire.
///
/// # Examples
///
/// ```
/// use imitator_cluster::{FailPoint, FailureInjector, FailurePlan, NodeId};
///
/// let inj = FailureInjector::new();
/// inj.schedule(FailurePlan {
///     node: NodeId::new(2),
///     iteration: 6,
///     point: FailPoint::BeforeBarrier,
/// });
/// assert!(!inj.should_fail(NodeId::new(2), 5, FailPoint::BeforeBarrier));
/// assert!(inj.should_fail(NodeId::new(2), 6, FailPoint::BeforeBarrier));
/// // consumed: fires exactly once
/// assert!(!inj.should_fail(NodeId::new(2), 6, FailPoint::BeforeBarrier));
/// ```
#[derive(Debug, Default)]
pub struct FailureInjector {
    plans: Mutex<Vec<FailurePlan>>,
}

impl FailureInjector {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a crash to the schedule.
    pub fn schedule(&self, plan: FailurePlan) {
        self.plans.lock().push(plan);
    }

    /// Returns `true` (and consumes the plan) if `node` is scheduled to
    /// crash at this iteration and point.
    pub fn should_fail(&self, node: NodeId, iteration: u64, point: FailPoint) -> bool {
        let mut plans = self.plans.lock();
        if let Some(pos) = plans
            .iter()
            .position(|p| p.node == node && p.iteration == iteration && p.point == point)
        {
            plans.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Returns the stall length in detector ticks (and consumes the plan)
    /// if `node` is scheduled to stall at this iteration.
    pub fn should_stall(&self, node: NodeId, iteration: u64) -> Option<u64> {
        let mut plans = self.plans.lock();
        let pos = plans.iter().position(|p| {
            p.node == node && p.iteration == iteration && matches!(p.point, FailPoint::Stall(_))
        })?;
        match plans.swap_remove(pos).point {
            FailPoint::Stall(ticks) => Some(ticks),
            _ => unreachable!("position matched Stall"),
        }
    }

    /// Crashes not yet fired.
    pub fn pending(&self) -> usize {
        self.plans.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_never_fires() {
        let inj = FailureInjector::new();
        assert!(!inj.should_fail(NodeId::new(0), 0, FailPoint::BeforeBarrier));
    }

    #[test]
    fn point_and_iteration_must_match() {
        let inj = FailureInjector::new();
        inj.schedule(FailurePlan {
            node: NodeId::new(1),
            iteration: 3,
            point: FailPoint::AfterBarrier,
        });
        assert!(!inj.should_fail(NodeId::new(1), 3, FailPoint::BeforeBarrier));
        assert!(!inj.should_fail(NodeId::new(1), 2, FailPoint::AfterBarrier));
        assert!(!inj.should_fail(NodeId::new(0), 3, FailPoint::AfterBarrier));
        assert!(inj.should_fail(NodeId::new(1), 3, FailPoint::AfterBarrier));
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn recovery_phase_points_are_distinct() {
        let inj = FailureInjector::new();
        inj.schedule(FailurePlan {
            node: NodeId::new(2),
            iteration: 4,
            point: FailPoint::MigrationRound(3),
        });
        inj.schedule(FailurePlan {
            node: NodeId::new(2),
            iteration: 4,
            point: FailPoint::RebirthReload,
        });
        assert!(!inj.should_fail(NodeId::new(2), 4, FailPoint::MigrationRound(2)));
        assert!(!inj.should_fail(NodeId::new(2), 4, FailPoint::CkptWrite));
        assert!(inj.should_fail(NodeId::new(2), 4, FailPoint::MigrationRound(3)));
        assert!(inj.should_fail(NodeId::new(2), 4, FailPoint::RebirthReload));
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn stall_plans_consume_separately_from_crashes() {
        let inj = FailureInjector::new();
        inj.schedule(FailurePlan {
            node: NodeId::new(1),
            iteration: 2,
            point: FailPoint::Stall(400),
        });
        inj.schedule(FailurePlan {
            node: NodeId::new(1),
            iteration: 2,
            point: FailPoint::BeforeBarrier,
        });
        assert_eq!(inj.should_stall(NodeId::new(1), 1), None);
        assert_eq!(inj.should_stall(NodeId::new(0), 2), None);
        assert_eq!(inj.should_stall(NodeId::new(1), 2), Some(400));
        assert_eq!(inj.should_stall(NodeId::new(1), 2), None); // consumed
        assert!(inj.should_fail(NodeId::new(1), 2, FailPoint::BeforeBarrier));
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn simultaneous_failures_supported() {
        let inj = FailureInjector::new();
        for n in [1u32, 2, 3] {
            inj.schedule(FailurePlan {
                node: NodeId::new(n),
                iteration: 5,
                point: FailPoint::BeforeBarrier,
            });
        }
        assert_eq!(inj.pending(), 3);
        for n in [1u32, 2, 3] {
            assert!(inj.should_fail(NodeId::new(n), 5, FailPoint::BeforeBarrier));
        }
    }
}
