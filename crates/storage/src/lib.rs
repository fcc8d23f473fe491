//! Simulated distributed persistent storage (the paper's HDFS role).
//!
//! Checkpoint-based fault tolerance is slow in the paper *because* snapshots
//! cross a globally visible, replicated, disk-backed file system while
//! replication-based fault tolerance stays in cluster memory. [`Dfs`]
//! reproduces exactly that asymmetry: a shared key→bytes store whose reads
//! and writes pay a configurable latency + bandwidth cost (with an HDFS-like
//! write amplification for 3-way replication), while remaining a real store —
//! contents round-trip byte-for-byte, so recovery genuinely reloads state.
//!
//! The [`codec`] module provides the hand-rolled binary encoding used for
//! snapshot and edge-ckpt files (deterministic, versioned, no external
//! serialization dependency), and the sectioned-file layout a reader may
//! take whole or one section of ([`Dfs::read_section`]).
//!
//! # Examples
//!
//! ```
//! use imitator_storage::{Dfs, DfsConfig};
//!
//! let dfs = Dfs::new(DfsConfig::instant());
//! dfs.write("ckpt/iter3/node0", vec![1, 2, 3]);
//! assert_eq!(dfs.read("ckpt/iter3/node0").unwrap().as_ref(), &[1u8, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod dfs;
pub mod epoch;

pub use dfs::{Dfs, DfsConfig, DfsStats, Extent, ReadAhead, WriteBehind};
pub use epoch::{EpochChain, EpochError, EpochKind};
