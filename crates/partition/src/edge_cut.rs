//! Edge-cut placements (Cyclops model).

use imitator_graph::{BitRows, Graph, Ragged, Vid};
use imitator_metrics::MemSize;

use crate::mix64;

/// A p-way edge-cut placement: every vertex has exactly one owner part that
/// holds all of its edges; a (computation) replica of `v` exists on every
/// part that masters an out-neighbour of `v` (those parts consume `v`'s
/// value through local access, §2.1).
///
/// # Examples
///
/// ```
/// use imitator_graph::gen;
/// use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};
///
/// let g = gen::from_pairs(3, &[(0, 1), (1, 2)]);
/// let cut = HashEdgeCut.partition(&g, 2);
/// assert_eq!(cut.num_parts(), 2);
/// // every vertex has an owner in range
/// for v in g.vertices() {
///     assert!(cut.owner(v) < 2);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeCut {
    num_parts: usize,
    owner: Vec<u32>,
    /// Per vertex, its replica parts ascending: one flat table, collected
    /// as a bitset row per vertex (an `|=` per edge, no per-vertex list).
    replicas: Ragged<u32>,
}

impl EdgeCut {
    /// Builds the placement from an ownership table, deriving replica
    /// locations from the graph's out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `owner.len() != g.num_vertices()` or any owner is out of
    /// range.
    pub fn from_owner(g: &Graph, num_parts: usize, owner: Vec<u32>) -> Self {
        assert_eq!(owner.len(), g.num_vertices(), "owner table size mismatch");
        assert!(num_parts > 0, "need at least one part");
        for &o in &owner {
            assert!((o as usize) < num_parts, "owner {o} out of range");
        }
        // replica parts of u = owners of u's out-neighbours, minus owner(u)
        let mut seen = BitRows::new(g.num_vertices(), num_parts);
        for e in g.edges() {
            seen.insert(e.src.index(), owner[e.dst.index()]);
        }
        for (v, &o) in owner.iter().enumerate() {
            seen.remove(v, o);
        }
        let replicas = seen.to_ragged();
        EdgeCut {
            num_parts,
            owner,
            replicas,
        }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    /// The owner (master) part of `v`.
    pub fn owner(&self, v: Vid) -> usize {
        self.owner[v.index()] as usize
    }

    /// Parts holding a computation replica of `v` (sorted, never contains
    /// the owner).
    pub fn replica_parts(&self, v: Vid) -> &[u32] {
        self.replicas.row(v.index())
    }

    /// Whether `v` has at least one computation replica.
    pub fn has_replica(&self, v: Vid) -> bool {
        self.replicas.row_len(v.index()) > 0
    }

    /// Iterates vertices mastered on `part`.
    pub fn masters_on(&self, part: usize) -> impl Iterator<Item = Vid> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter(move |(_, &o)| o as usize == part)
            .map(|(i, _)| Vid::from_index(i))
    }

    /// Number of vertices mastered on each part (load-balance view).
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &o in &self.owner {
            sizes[o as usize] += 1;
        }
        sizes
    }

    /// The replication factor: average number of copies (master + replicas)
    /// per vertex — the headline metric of Figs. 10(a) and 14(a).
    pub fn replication_factor(&self) -> f64 {
        if self.owner.is_empty() {
            return 0.0;
        }
        let copies = self.owner.len() + self.replicas.num_items();
        copies as f64 / self.owner.len() as f64
    }

    /// Fraction of vertices with no computation replica (Fig. 3(a)) —
    /// these are the vertices that would be unrecoverable without the
    /// fault-tolerance replicas of §4.1.
    pub fn fraction_without_replicas(&self) -> f64 {
        if self.owner.is_empty() {
            return 0.0;
        }
        let none = self.replicas.rows().filter(|r| r.is_empty()).count();
        none as f64 / self.owner.len() as f64
    }
}

impl MemSize for EdgeCut {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<EdgeCut>() + self.owner.heap_bytes() + self.replicas.heap_bytes()
    }
}

/// A strategy assigning vertices (with all their edges) to parts.
pub trait EdgeCutPartitioner {
    /// Short name for reports ("hash", "fennel").
    fn name(&self) -> &'static str;

    /// Partitions `g` into `num_parts` parts.
    fn partition(&self, g: &Graph, num_parts: usize) -> EdgeCut;
}

/// The default random (hash-based) edge-cut of §3.1.
///
/// Deterministic: the same graph and part count always produce the same
/// placement, so masters and replicas agree across simulated nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashEdgeCut;

impl HashEdgeCut {
    /// The part that hash placement assigns to `v`.
    pub fn part_of(v: Vid, num_parts: usize) -> usize {
        (mix64(u64::from(v.raw())) % num_parts as u64) as usize
    }
}

impl EdgeCutPartitioner for HashEdgeCut {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn partition(&self, g: &Graph, num_parts: usize) -> EdgeCut {
        assert!(num_parts > 0, "need at least one part");
        let owner = (0..g.num_vertices())
            .map(|i| Self::part_of(Vid::from_index(i), num_parts) as u32)
            .collect();
        EdgeCut::from_owner(g, num_parts, owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;
    use proptest::prelude::*;

    fn sample() -> Graph {
        gen::power_law(2_000, 2.0, 6, 17)
    }

    /// The replica table as `from_owner` built it before it was flat: a
    /// list per vertex grown by `contains` + `push`, then sorted.
    fn reference_replicas(g: &Graph, owner: &[u32]) -> Vec<Vec<u32>> {
        let mut replicas: Vec<Vec<u32>> = vec![Vec::new(); g.num_vertices()];
        for e in g.edges() {
            let consumer = owner[e.dst.index()];
            let src = e.src.index();
            if consumer != owner[src] && !replicas[src].contains(&consumer) {
                replicas[src].push(consumer);
            }
        }
        for r in &mut replicas {
            r.sort_unstable();
        }
        replicas
    }

    proptest! {
        /// Any multigraph (self-loops, repeated edges, vertices no edge
        /// names), any ownership, part counts on both sides of a bitset
        /// word: the flat table holds the reference's lists.
        #[test]
        fn flat_table_equals_the_list_per_vertex_reference(
            n in 1usize..40,
            parts in 1usize..=70,
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
            salt in any::<u64>(),
        ) {
            let pairs: Vec<(u32, u32)> =
                pairs.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect();
            let g = gen::from_pairs(n, &pairs);
            let owner: Vec<u32> =
                (0..n as u64).map(|v| (mix64(v ^ salt) % parts as u64) as u32).collect();
            let cut = EdgeCut::from_owner(&g, parts, owner.clone());
            let want = reference_replicas(&g, &owner);
            for v in g.vertices() {
                prop_assert_eq!(cut.replica_parts(v), &want[v.index()][..]);
                prop_assert_eq!(cut.has_replica(v), !want[v.index()].is_empty());
            }
            let copies: usize = want.iter().map(|r| 1 + r.len()).sum();
            prop_assert_eq!(cut.replication_factor(), copies as f64 / n as f64);
            let none = want.iter().filter(|r| r.is_empty()).count();
            prop_assert_eq!(cut.fraction_without_replicas(), none as f64 / n as f64);
        }
    }

    #[test]
    fn every_vertex_owned_exactly_once() {
        let g = sample();
        let cut = HashEdgeCut.partition(&g, 5);
        let total: usize = cut.part_sizes().iter().sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn replicas_exclude_owner_and_are_sorted() {
        let g = sample();
        let cut = HashEdgeCut.partition(&g, 5);
        for v in g.vertices() {
            let parts = cut.replica_parts(v);
            assert!(!parts.contains(&(cut.owner(v) as u32)));
            assert!(parts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn replica_exists_where_consumers_live() {
        let g = gen::from_pairs(2, &[(0, 1)]);
        let cut = HashEdgeCut.partition(&g, 2);
        let (o0, o1) = (cut.owner(Vid::new(0)), cut.owner(Vid::new(1)));
        if o0 != o1 {
            assert_eq!(cut.replica_parts(Vid::new(0)), &[o1 as u32]);
        } else {
            assert!(cut.replica_parts(Vid::new(0)).is_empty());
        }
        // v1 has no out-edges: never replicated
        assert!(cut.replica_parts(Vid::new(1)).is_empty());
    }

    #[test]
    fn single_part_has_no_replicas() {
        let g = sample();
        let cut = HashEdgeCut.partition(&g, 1);
        assert_eq!(cut.replication_factor(), 1.0);
        assert_eq!(cut.fraction_without_replicas(), 1.0);
    }

    #[test]
    fn replication_factor_grows_with_parts() {
        let g = sample();
        let rf2 = HashEdgeCut.partition(&g, 2).replication_factor();
        let rf16 = HashEdgeCut.partition(&g, 16).replication_factor();
        assert!(rf16 > rf2, "rf16 {rf16} <= rf2 {rf2}");
    }

    #[test]
    fn hash_is_roughly_balanced() {
        let g = sample();
        let sizes = HashEdgeCut.partition(&g, 4).part_sizes();
        let (min, max) = (
            *sizes.iter().min().unwrap() as f64,
            *sizes.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.3, "imbalanced: {sizes:?}");
    }

    #[test]
    fn selfish_vertices_have_no_replicas() {
        // §3.1: selfish vertices (no out-edges) are the primary source of
        // vertices without replicas under hash partitioning.
        let g = gen::power_law_selfish(3_000, 2.0, 8, 0.3, 4);
        let cut = HashEdgeCut.partition(&g, 8);
        let stats = g.stats();
        let frac = cut.fraction_without_replicas();
        assert!(
            frac >= stats.selfish_fraction() * 0.9,
            "without-replica fraction {frac} below selfish fraction {}",
            stats.selfish_fraction()
        );
    }

    #[test]
    fn masters_on_covers_all_parts() {
        let g = sample();
        let cut = HashEdgeCut.partition(&g, 3);
        let total: usize = (0..3).map(|p| cut.masters_on(p).count()).sum();
        assert_eq!(total, g.num_vertices());
    }
}
