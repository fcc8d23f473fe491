//! Simulated cluster runtime for the Imitator reproduction.
//!
//! Stands in for the paper's 50-node EC2-like cluster: every logical node is
//! a thread with private state and a typed message inbox; nodes communicate
//! *only* through messages and the coordination service, exactly as the real
//! system communicates only through the network and ZooKeeper.
//!
//! * [`Cluster`] owns the routing fabric and hands each node a [`NodeCtx`].
//! * [`Coordinator`] provides the ZooKeeper role (§3.2): global barriers
//!   whose outcome reports node failures (Algorithm 1's
//!   `enter_barrier`/`leave_barrier`), membership, and standby assignment.
//! * [`FailureInjector`] schedules fail-stop crashes at chosen iterations
//!   and protocol points, like the paper's injected machine failures (§6.9).
//!
//! Fail-stop is modelled faithfully: a killed node simply stops executing
//! and is detected by its missed heartbeats; messages it sent
//! before dying may already be queued at peers (who roll back, per
//! Algorithm 1), and messages sent *to* it are dropped.
//!
//! # Examples
//!
//! ```
//! use imitator_cluster::{Cluster, BarrierOutcome};
//! use std::time::Duration;
//!
//! let cluster: Cluster<u32> = Cluster::new(2, 0, Duration::ZERO);
//! let a = cluster.take_ctx(imitator_cluster::NodeId::new(0));
//! let b = cluster.take_ctx(imitator_cluster::NodeId::new(1));
//! let t = std::thread::spawn(move || {
//!     b.send(imitator_cluster::NodeId::new(0), 42);
//!     b.enter_barrier()
//! });
//! assert_eq!(a.enter_barrier(), BarrierOutcome::Clean);
//! assert_eq!(t.join().unwrap(), BarrierOutcome::Clean);
//! assert_eq!(a.drain()[0].msg, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod coord;
mod detector;
mod injector;
mod transport;

pub use cluster::{Cluster, Envelope, NodeCtx};
pub use coord::{BarrierOutcome, Coordinator};
pub use detector::{
    Clock, DetectorConfig, DetectorKind, FailureDetector, VirtualClock, WallClock, PUMP_QUANTUM,
    TICKS_PER_MS,
};
pub use injector::{FailPoint, FailureInjector, FailurePlan, LinkFaults, NetFaults, TransportKind};
pub use transport::WireCodec;

use std::fmt;

/// A logical node (machine) identifier, stable across recovery: when a
/// standby is adopted through Rebirth it assumes the crashed node's logical
/// ID, as in the paper (§5.3.1, "the new coming node's logic ID of this
/// job").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node ID from a raw index.
    pub fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Creates a node ID from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// The raw `u32` value.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The ID as a `usize` array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}
