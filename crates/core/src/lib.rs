//! **Imitator** — replication-based fault tolerance for large-scale graph
//! processing (Chen et al., DSN'14 / TPDS'18), reproduced in Rust.
//!
//! Imitator's observation: distributed graph engines already replicate
//! vertices so computation can read neighbours locally. By (1) guaranteeing
//! every vertex has at least `K` replicas, (2) upgrading one replica per
//! vertex to a full-state **mirror** kept fresh by piggybacking on the
//! normal synchronisation messages, and (3) reconstructing a crashed node's
//! state *from cluster memory, in parallel*, fault tolerance becomes almost
//! free during normal execution and recovery takes seconds instead of a
//! checkpoint reload.
//!
//! This crate is the policy layer on top of the `imitator-engine` mechanism:
//!
//! * [`plan`] — fault-tolerance replica placement (§4): extra FT replicas
//!   for vertices without replicas, balanced mirror selection, the
//!   selfish-vertex optimisation;
//! * [`run_edge_cut`] — the distributed BSP runner (Algorithm 1) for the
//!   edge-cut engine (Cyclops), with [`FtMode::Replication`] (Rebirth and
//!   Migration recovery, §5), [`FtMode::Checkpoint`] (the Imitator-CKPT
//!   baseline, §2.2), or no fault tolerance;
//! * [`run_vertex_cut`] — the same for the vertex-cut engine (PowerLyra),
//!   including edge-ckpt files on the DFS (§4.3).
//!
//! # Examples
//!
//! Configure a run with replication-based fault tolerance (see `examples/`
//! for complete programs):
//!
//! ```
//! use imitator::{FtMode, RecoveryStrategy, RunConfig};
//!
//! let cfg = RunConfig {
//!     num_nodes: 4,
//!     max_iters: 10,
//!     ft: FtMode::Replication {
//!         tolerance: 1,
//!         selfish_opt: true,
//!         recovery: RecoveryStrategy::Rebirth,
//!     },
//!     ..RunConfig::default()
//! };
//! assert_eq!(cfg.standbys_needed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ckpt;
mod columns;
mod driver;
mod msg;
pub mod plan;
mod recovery;
mod report;
mod rt;
mod runner_ec;
mod runner_vc;
pub mod wire;

pub use ckpt::edge_ckpt_files;
pub use imitator_cluster::{DetectorConfig, DetectorKind, LinkFaults, NetFaults, TransportKind};
pub use msg::{EcMsg, VcMsg, VertexSync};
pub use report::{RecoveryReport, RunReport};
pub use runner_ec::run_edge_cut;
pub use runner_vc::run_vertex_cut;

use std::time::Duration;

/// How a failed node's state is brought back (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Reconstruct the crashed node's exact state on a hot-standby machine
    /// that adopts its logical identity (§5.1).
    Rebirth,
    /// Scatter the crashed node's masters over the surviving machines by
    /// promoting their mirrors in place (§5.2) — no standby needed.
    Migration,
}

/// The fault-tolerance mode of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// No fault tolerance (the BASE configuration of Figs. 7 and 13).
    /// Any injected failure aborts the run.
    None,
    /// Checkpoint-based fault tolerance (Imitator-CKPT, §2.2): every
    /// `interval` iterations each node snapshots its masters' state to the
    /// DFS inside the global barrier; recovery rolls the whole cluster back
    /// to the last snapshot and replays lost iterations.
    Checkpoint {
        /// Snapshot period in iterations.
        interval: u64,
        /// Incremental snapshots (§2.3): persist only the masters whose
        /// values changed since the last snapshot (plus the full activation
        /// bitmap, which is cheap); recovery replays the snapshot chain.
        /// `false` writes the full master state every time.
        incremental: bool,
    },
    /// Replication-based fault tolerance (Imitator, §3-5).
    Replication {
        /// Number of simultaneous machine failures to tolerate (`K`): every
        /// vertex gets at least `K` mirrors (§5.3.1).
        tolerance: usize,
        /// Enable the selfish-vertex optimisation (§4.4): vertices with no
        /// out-edges get an FT replica but are never synchronised.
        selfish_opt: bool,
        /// Recovery strategy on failure.
        recovery: RecoveryStrategy,
    },
}

impl FtMode {
    /// Whether checkpoints are incremental: only dirtied masters are tracked
    /// and written, and recovery replays the base + delta chain.
    pub(crate) fn is_incremental_ckpt(&self) -> bool {
        match self {
            FtMode::Checkpoint { incremental, .. } => *incremental,
            _ => false,
        }
    }
}

/// Configuration of one distributed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Number of (initially alive) logical nodes.
    pub num_nodes: usize,
    /// Iteration budget; the run also stops early once no vertex is active.
    pub max_iters: u64,
    /// Fault-tolerance mode.
    pub ft: FtMode,
    /// How node failures are noticed. Its one value,
    /// [`DetectorKind::Heartbeat`], infers crashes from missed
    /// sequence-numbered heartbeats and retracts suspicions when late
    /// evidence of life arrives. The field stays only because the frozen
    /// `benchmark/src/config.rs` spells it; ROADMAP item 2's benchmark
    /// change deletes it.
    pub detector: DetectorKind,
    /// Heartbeat emission period.
    pub hb_interval: Duration,
    /// Silence threshold before a node is *suspected* (the paper uses a
    /// conservative 500 ms). Suspicion is retracted if evidence of life
    /// arrives before the fence confirms it; a crashed node's closed slot
    /// is confirmed one tick after it.
    pub hb_timeout: Duration,
    /// Hot standby machines for Rebirth (and for checkpoint recovery, which
    /// also replaces crashed machines).
    pub standbys: usize,
    /// Must be 0 or 1: a node is one thread, which runs its kernels, its
    /// protocol and its recovery (DESIGN.md §4.4). The field stays only
    /// because the frozen `benchmark/src/config.rs` spells it; ROADMAP item
    /// 2's benchmark change deletes it.
    pub threads_per_node: usize,
    /// The wire backend nodes communicate over. The default in-process
    /// channels are reliable and ordered; [`TransportKind::Lossy`] injects
    /// seeded drop/duplicate/reorder/delay faults per traffic kind, and
    /// [`TransportKind::Tcp`] ships encoded frames over loopback sockets.
    /// Results are bit-identical across all backends — the transport layer
    /// restores the pre-barrier delivery guarantee with sequence-numbered
    /// idempotent redelivery and pre-barrier retransmission fences.
    pub transport: TransportKind,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            num_nodes: 4,
            max_iters: 100,
            ft: FtMode::None,
            detector: DetectorKind::Heartbeat,
            hb_interval: Duration::from_millis(10),
            hb_timeout: Duration::from_millis(60),
            standbys: 0,
            threads_per_node: 1,
            transport: TransportKind::Channel,
        }
    }
}

impl RunConfig {
    /// Standbys the configured recovery strategy requires per tolerated
    /// failure (Rebirth and Checkpoint consume one per crashed node;
    /// Migration none).
    pub fn standbys_needed(&self) -> usize {
        match self.ft {
            FtMode::Replication {
                recovery: RecoveryStrategy::Rebirth,
                tolerance,
                ..
            } => tolerance,
            FtMode::Checkpoint { .. } => 1,
            _ => 0,
        }
    }

    /// The failure-detector configuration this run requests.
    pub fn detector_config(&self) -> DetectorConfig {
        DetectorConfig::heartbeat(self.hb_interval, self.hb_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standbys_needed_by_mode() {
        let mut cfg = RunConfig::default();
        assert_eq!(cfg.standbys_needed(), 0);
        cfg.ft = FtMode::Checkpoint {
            interval: 2,
            incremental: false,
        };
        assert_eq!(cfg.standbys_needed(), 1);
        cfg.ft = FtMode::Replication {
            tolerance: 3,
            selfish_opt: false,
            recovery: RecoveryStrategy::Rebirth,
        };
        assert_eq!(cfg.standbys_needed(), 3);
        cfg.ft = FtMode::Replication {
            tolerance: 3,
            selfish_opt: false,
            recovery: RecoveryStrategy::Migration,
        };
        assert_eq!(cfg.standbys_needed(), 0);
    }
}
