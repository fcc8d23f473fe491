//! Measurement substrate for the Imitator reproduction.
//!
//! The paper's evaluation reports four kinds of quantities:
//!
//! * **communication cost** — message and byte counts per node and per iteration
//!   (Fig. 8(b), Table 6), provided here by [`CommStats`] / [`AtomicCommStats`];
//! * **time breakdowns** — per-phase wall-clock times such as the
//!   reload/reconstruct/replay split of recovery (Fig. 2(c), Fig. 9),
//!   provided by [`Stopwatch`] and [`PhaseTimes`];
//! * **memory consumption** — deep byte sizes of resident graph state
//!   (Tables 3 and 7), provided by the [`MemSize`] trait;
//! * **distributions** — iteration-time summaries, provided by [`Summary`].
//!
//! Everything here is engine-agnostic so that both the edge-cut (Cyclops) and
//! vertex-cut (PowerLyra) engines, as well as the fault-tolerance layers,
//! report through one vocabulary.
//!
//! # Examples
//!
//! ```
//! use imitator_metrics::{CommStats, MemSize, Stopwatch};
//!
//! let mut comm = CommStats::default();
//! comm.record(3, 1024);
//! assert_eq!(comm.messages, 3);
//!
//! let values: Vec<u64> = vec![1, 2, 3];
//! assert!(values.mem_bytes() >= 24);
//!
//! let sw = Stopwatch::start();
//! let _elapsed = sw.elapsed();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod counters;
mod memsize;
mod summary;
mod suspicion;
mod timer;

pub use comm::{AtomicCommStats, CommBreakdown, CommKind, CommStats};
pub use counters::RecoveryCounters;
pub use memsize::MemSize;
pub use summary::Summary;
pub use suspicion::SuspicionStats;
pub use timer::{PhaseTimes, Stopwatch};
