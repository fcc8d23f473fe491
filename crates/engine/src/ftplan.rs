//! The fault-tolerance placement plan consumed by the local-graph builders.

use imitator_cluster::NodeId;
use imitator_graph::{Ragged, Vid};

/// Where the fault-tolerance machinery of §4 placed things for each vertex:
/// which replica is the full-state **mirror**, where **extra FT replicas**
/// were created for vertices that had none, and which vertices are
/// **selfish** (never synchronised; recomputed at recovery).
///
/// A plan with no mirrors ([`FtPlan::none`]) gives the plain baseline engine
/// without fault tolerance. The `imitator` crate computes real plans; this
/// crate only carries them into graph construction. The two per-vertex
/// tables are flat ([`Ragged`]): a plan over any number of vertices is five
/// allocations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FtPlan {
    /// Per vertex: the nodes hosting its mirrors, in mirror-ID order (empty
    /// = no fault tolerance for this vertex).
    pub mirror: Ragged<NodeId>,
    /// Per vertex: nodes that get an *extra* FT replica (a copy that normal
    /// computation did not require). Always a subset of `mirror` locations.
    pub extra_replicas: Ragged<NodeId>,
    /// Per vertex: whether the selfish-vertex optimisation applies (§4.4).
    pub selfish: Vec<bool>,
}

impl FtPlan {
    /// A plan providing no fault tolerance for `num_vertices` vertices.
    pub fn none(num_vertices: usize) -> Self {
        FtPlan {
            mirror: Ragged::empty_rows(num_vertices),
            extra_replicas: Ragged::empty_rows(num_vertices),
            selfish: vec![false; num_vertices],
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.mirror.num_rows()
    }

    /// The mirror nodes of `v`, ordered by mirror ID (§5.3.1: the surviving
    /// mirror with the lowest ID performs recovery).
    pub fn mirrors(&self, v: Vid) -> &[NodeId] {
        self.mirror.row(v.index())
    }

    /// The nodes given an extra FT replica of `v`.
    pub fn extras(&self, v: Vid) -> &[NodeId] {
        self.extra_replicas.row(v.index())
    }

    /// Whether any vertex has a mirror (i.e. fault tolerance is on).
    pub fn is_enabled(&self) -> bool {
        self.mirror.num_items() > 0
    }

    /// Total number of extra FT replicas in the plan (Fig. 3(b) / Fig. 8(a)).
    pub fn extra_replica_count(&self) -> usize {
        self.extra_replicas.num_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_disabled() {
        let p = FtPlan::none(10);
        assert_eq!(p.num_vertices(), 10);
        assert!(!p.is_enabled());
        assert_eq!(p.extra_replica_count(), 0);
        assert!(p.mirrors(Vid::new(3)).is_empty());
        assert!(p.extras(Vid::new(3)).is_empty());
    }

    #[test]
    fn enabled_when_any_mirror_set() {
        let node = NodeId::new(2);
        let p = FtPlan {
            mirror: Ragged::from_rows(&[vec![], vec![node], vec![]]),
            extra_replicas: Ragged::from_rows(&[vec![], vec![node], vec![]]),
            selfish: vec![false; 3],
        };
        assert!(p.is_enabled());
        assert_eq!(p.mirrors(Vid::new(1)), &[node]);
        assert_eq!(p.extras(Vid::new(1)), &[node]);
        assert_eq!(p.extra_replica_count(), 1);
    }
}
