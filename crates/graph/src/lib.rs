//! Graph substrate for the Imitator reproduction.
//!
//! Provides the input-graph representation shared by the partitioners and the
//! two engines, plus synthetic generators standing in for the paper's
//! datasets (GWeb, LJournal, Wiki, DBLP, RoadCA, SYN-GL, UK-2005, Twitter and
//! the α-parameterised power-law family of Table 4).
//!
//! A [`Graph`] is an immutable directed multigraph with `f32` edge weights
//! (PageRank/CD ignore them, SSSP uses them as distances, ALS as ratings).
//! [`Csr`] views give O(1) per-vertex adjacency access in both directions.
//!
//! # Examples
//!
//! ```
//! use imitator_graph::{gen, Vid};
//!
//! let g = gen::power_law(1_000, 2.0, 8, 42);
//! assert_eq!(g.num_vertices(), 1_000);
//! let out = g.out_csr();
//! let _neighbors: Vec<Vid> = out.neighbors(Vid::new(0)).map(|(v, _)| v).collect();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
pub mod gen;
mod graph;
mod ids;
mod io;
mod pos_index;
mod ragged;
mod stats;

pub use csr::Csr;
pub use graph::{Edge, Graph, GraphBuilder};
pub use ids::{Vid, VidHasher, VidMap};
pub use io::ParseGraphError;
pub use pos_index::PosIndex;
pub use ragged::{BitRows, Ragged};
pub use stats::GraphStats;
