//! Graph-parallel engine substrate (the Cyclops / PowerLyra role).
//!
//! This crate provides the *mechanism* of a replica-based BSP graph engine:
//!
//! * [`VertexProgram`] — the gather/combine/apply/scatter vertex-centric
//!   programming model shared by both engines ("think as a vertex", §1);
//! * [`EcLocalGraph`] — a node's local partition under **edge-cut**
//!   (Cyclops model, §2.1): masters co-located with all their edges, plus
//!   local replicas of remote vertices for local-access semantics;
//! * [`VcLocalGraph`] — a node's local partition under **vertex-cut**
//!   (PowerLyra model): locally owned edges plus copies of every vertex
//!   adjacent to them;
//! * [`FtPlan`] — the fault-tolerance placement (which replica is the
//!   full-state *mirror*, where extra FT replicas go, which vertices are
//!   *selfish*); computed by the `imitator` crate's policy algorithms (§4)
//!   and consumed by the builders here;
//! * [`Episode`] — the journal a local graph keeps while a recovery attempt
//!   that may still abort rewrites it, so that undoing the attempt costs
//!   what it changed; [`FullState`] — the columnar store both engines keep
//!   full state in, and it travels in between nodes, a batch at a time
//!   ([`FullStateBatches`]), each record carrying the edge lists its
//!   receiver lacks ([`EdgeLists`]) as the byte runs a mirror stores them
//!   in ([`Run`]);
//! * pure, single-node compute steps ([`ec_compute`], [`ec_commit`],
//!   [`vc_partial_gather`], …) that the distributed runner in the
//!   `imitator` crate drives via the simulated cluster.
//!
//! The *policy* — Algorithm 1's execution flow, checkpointing, replica
//! maintenance and recovery — lives in the `imitator` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compute;
mod ecut;
mod episode;
mod ftplan;
mod full_state;
mod load;
mod locations;
mod program;
mod runs;
mod vcut;

pub use compute::{
    ec_commit, ec_compute, ec_compute_scan, vc_apply, vc_commit, vc_partial_gather, CommitStats,
    MasterUpdate,
};
pub use ecut::{build_edge_cut_graphs, CopyKind, EcLocalGraph, EcVertex};
pub use episode::{Episode, PosSet};
pub use ftplan::FtPlan;
pub use full_state::{
    ColumnLens, CopyVids, EdgeLists, FullState, FullStateBatches, FullStateRef, InEdges, List,
    MasterMeta, RemoteEdge, SlotId, StoreLens,
};
pub use locations::{Locations, LocationsRef, Nodes, MAX_TABLE_NODES};
pub use program::{Degrees, VertexProgram};
pub use runs::{take_run, Entry, InEdge, Run, Weights};
pub use vcut::{build_vertex_cut_graphs, VcEdge, VcLocalGraph, VcVertex};
