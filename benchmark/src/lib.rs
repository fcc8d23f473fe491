//! Job-level benchmark of the Imitator reproduction: six workloads, ten
//! end-to-end metrics and a per-layer budget. See `README.md`.

pub mod compare;
pub mod config;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod op;
pub mod report;
pub mod sched;
pub mod stats;
pub mod trace;
