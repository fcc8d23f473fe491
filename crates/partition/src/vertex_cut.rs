//! Vertex-cut placements (PowerLyra model, §6.10).

use imitator_graph::{BitRows, Graph, Ragged, Vid};
use imitator_metrics::MemSize;

use crate::mix64;

/// A p-way vertex-cut placement: every *edge* has exactly one owner part; a
/// vertex is present (replicated) on every part holding one of its edges,
/// and one of those copies is designated the master.
///
/// # Examples
///
/// ```
/// use imitator_graph::gen;
/// use imitator_partition::{RandomVertexCut, VertexCutPartitioner};
///
/// let g = gen::power_law(500, 2.0, 6, 1);
/// let cut = RandomVertexCut.partition(&g, 4);
/// assert_eq!(cut.edge_owner().len(), g.num_edges());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexCut {
    num_parts: usize,
    edge_owner: Vec<u32>,
    master: Vec<u32>,
    /// Per vertex, its non-master parts ascending, in one flat table.
    replicas: Ragged<u32>,
}

impl VertexCut {
    /// Builds the placement from an edge-ownership table.
    ///
    /// Masters are chosen deterministically among the parts where the vertex
    /// is present (hash-selected, mimicking PowerGraph's random mirror
    /// election); a vertex with no edges is mastered at `hash(v) % p`.
    /// `force_master` overrides that choice per vertex when provided
    /// (hybrid-cut places low-degree masters with their in-edges).
    ///
    /// # Panics
    ///
    /// Panics if `edge_owner.len() != g.num_edges()` or any owner is out of
    /// range.
    pub fn from_edge_owner(
        g: &Graph,
        num_parts: usize,
        edge_owner: Vec<u32>,
        force_master: Option<&dyn Fn(Vid) -> usize>,
    ) -> Self {
        assert_eq!(
            edge_owner.len(),
            g.num_edges(),
            "edge owner table size mismatch"
        );
        assert!(num_parts > 0, "need at least one part");
        for &o in &edge_owner {
            assert!((o as usize) < num_parts, "edge owner {o} out of range");
        }
        let n = g.num_vertices();
        // present[v] = the parts holding an edge adjacent to v, one bitset
        // row per vertex; what is left of it once the master's bit is taken
        // out are the replica parts.
        let mut present = BitRows::new(n, num_parts);
        for (e, &p) in g.edges().iter().zip(&edge_owner) {
            present.insert(e.src.index(), p);
            present.insert(e.dst.index(), p);
        }
        let mut master = vec![0u32; n];
        for (i, master) in master.iter_mut().enumerate() {
            let v = Vid::from_index(i);
            let copies = present.count(i);
            let m = if let Some(f) = force_master {
                f(v) as u32
            } else if copies == 0 {
                (mix64(u64::from(v.raw())) % num_parts as u64) as u32
            } else {
                // Deterministic pseudo-random choice among present parts.
                let k = mix64(u64::from(v.raw()) ^ 0x5151_5151) as usize % copies;
                present.nth(i, k).expect("k < copies")
            };
            assert!((m as usize) < num_parts, "master out of range");
            *master = m;
            present.remove(i, m);
        }
        let replicas = present.to_ragged();
        VertexCut {
            num_parts,
            edge_owner,
            master,
            replicas,
        }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.master.len()
    }

    /// The edge-ownership table, parallel to `Graph::edges()`.
    pub fn edge_owner(&self) -> &[u32] {
        &self.edge_owner
    }

    /// The master part of `v`.
    pub fn master(&self, v: Vid) -> usize {
        self.master[v.index()] as usize
    }

    /// Parts holding a (non-master) replica of `v`, sorted.
    pub fn replica_parts(&self, v: Vid) -> &[u32] {
        self.replicas.row(v.index())
    }

    /// Whether `v` has at least one replica besides its master.
    pub fn has_replica(&self, v: Vid) -> bool {
        self.replicas.row_len(v.index()) > 0
    }

    /// Number of edges owned by each part (load-balance view — vertex-cut
    /// balances edges, not vertices).
    pub fn edge_part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &o in &self.edge_owner {
            sizes[o as usize] += 1;
        }
        sizes
    }

    /// Average number of copies (master + replicas) per vertex —
    /// Fig. 14(a)'s replication factor.
    pub fn replication_factor(&self) -> f64 {
        if self.master.is_empty() {
            return 0.0;
        }
        let copies = self.master.len() + self.replicas.num_items();
        copies as f64 / self.master.len() as f64
    }

    /// Fraction of vertices whose only copy is the master (no replica).
    pub fn fraction_without_replicas(&self) -> f64 {
        if self.master.is_empty() {
            return 0.0;
        }
        let none = self.replicas.rows().filter(|r| r.is_empty()).count();
        none as f64 / self.master.len() as f64
    }
}

impl MemSize for VertexCut {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<VertexCut>()
            + self.edge_owner.heap_bytes()
            + self.master.heap_bytes()
            + self.replicas.heap_bytes()
    }
}

/// A strategy assigning edges to parts.
pub trait VertexCutPartitioner {
    /// Short name for reports ("random", "grid", "hybrid").
    fn name(&self) -> &'static str;

    /// Partitions `g`'s edges into `num_parts` parts.
    fn partition(&self, g: &Graph, num_parts: usize) -> VertexCut;
}

/// Random vertex-cut (PowerGraph): each edge hashed independently. Highest
/// replication factor (Fig. 14(a): 15.96 for Twitter on 50 nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomVertexCut;

impl VertexCutPartitioner for RandomVertexCut {
    fn name(&self) -> &'static str {
        "random"
    }

    fn partition(&self, g: &Graph, num_parts: usize) -> VertexCut {
        let edge_owner = g
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let h = mix64(
                    (u64::from(e.src.raw()) << 32)
                        ^ u64::from(e.dst.raw())
                        ^ (i as u64).rotate_left(17),
                );
                (h % num_parts as u64) as u32
            })
            .collect();
        VertexCut::from_edge_owner(g, num_parts, edge_owner, None)
    }
}

/// Grid (2D) vertex-cut (GraphBuilder): parts form an `r × c` grid; an edge
/// `(u, v)` is placed at cell `(row(u), col(v))`, confining each vertex's
/// replicas to one row plus one column (≤ r + c − 1 parts). Middle
/// replication factor (8.34 for Twitter in Fig. 14(a)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridVertexCut;

impl GridVertexCut {
    /// Factors `p` as `r × c` with `r` the largest divisor `≤ sqrt(p)`.
    /// Prime part counts degenerate to `1 × p` (a plain random cut); the
    /// harnesses use composite counts.
    pub fn grid_shape(num_parts: usize) -> (usize, usize) {
        let mut r = (num_parts as f64).sqrt().floor() as usize;
        while r > 1 && !num_parts.is_multiple_of(r) {
            r -= 1;
        }
        (r.max(1), num_parts / r.max(1))
    }
}

impl VertexCutPartitioner for GridVertexCut {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn partition(&self, g: &Graph, num_parts: usize) -> VertexCut {
        let (r, c) = Self::grid_shape(num_parts);
        let edge_owner = g
            .edges()
            .iter()
            .map(|e| {
                let su = mix64(u64::from(e.src.raw())) as usize % num_parts;
                let sv = mix64(u64::from(e.dst.raw())) as usize % num_parts;
                let row = su / c % r;
                let col = sv % c;
                (row * c + col) as u32
            })
            .collect();
        VertexCut::from_edge_owner(g, num_parts, edge_owner, None)
    }
}

/// Hybrid-cut (PowerLyra): in-edges of a *low* in-degree vertex `v` are all
/// placed at `hash(v)` (edge-cut-like locality, master co-located); in-edges
/// of a *high* in-degree vertex are distributed by `hash(src)`
/// (vertex-cut-like balance for hubs). Lowest replication factor on natural
/// graphs (5.56 for Twitter in Fig. 14(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridVertexCut {
    /// In-degree threshold θ separating low- from high-degree vertices
    /// (PowerLyra's default is 100).
    pub threshold: usize,
}

impl Default for HybridVertexCut {
    fn default() -> Self {
        HybridVertexCut { threshold: 100 }
    }
}

impl HybridVertexCut {
    /// Creates a hybrid-cut with the given in-degree threshold.
    pub fn with_threshold(threshold: usize) -> Self {
        HybridVertexCut { threshold }
    }

    fn hash_part(v: Vid, num_parts: usize) -> usize {
        (mix64(u64::from(v.raw())) % num_parts as u64) as usize
    }
}

impl VertexCutPartitioner for HybridVertexCut {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn partition(&self, g: &Graph, num_parts: usize) -> VertexCut {
        let mut in_deg = vec![0usize; g.num_vertices()];
        for e in g.edges() {
            in_deg[e.dst.index()] += 1;
        }
        let threshold = self.threshold;
        let edge_owner = g
            .edges()
            .iter()
            .map(|e| {
                if in_deg[e.dst.index()] < threshold {
                    Self::hash_part(e.dst, num_parts) as u32
                } else {
                    Self::hash_part(e.src, num_parts) as u32
                }
            })
            .collect();
        // Master always at hash(v): for low-degree vertices this is exactly
        // where all their in-edges live.
        let force = move |v: Vid| Self::hash_part(v, num_parts);
        VertexCut::from_edge_owner(g, num_parts, edge_owner, Some(&force))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;
    use proptest::prelude::*;

    fn skewed() -> imitator_graph::Graph {
        gen::power_law(3_000, 1.9, 12, 21)
    }

    /// `(master, replicas)` as `from_edge_owner` built them before the
    /// table was flat: a `present` list per vertex grown by `contains` +
    /// `push`, sorted, the master picked by index, the rest filtered out.
    fn reference_placement(
        g: &Graph,
        num_parts: usize,
        edge_owner: &[u32],
        force_master: Option<&dyn Fn(Vid) -> usize>,
    ) -> (Vec<u32>, Vec<Vec<u32>>) {
        let n = g.num_vertices();
        let mut present: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (e, &p) in g.edges().iter().zip(edge_owner) {
            for v in [e.src, e.dst] {
                let list = &mut present[v.index()];
                if !list.contains(&p) {
                    list.push(p);
                }
            }
        }
        let mut master = vec![0u32; n];
        let mut replicas = vec![Vec::new(); n];
        for i in 0..n {
            let v = Vid::from_index(i);
            present[i].sort_unstable();
            let m = if let Some(f) = force_master {
                f(v) as u32
            } else if present[i].is_empty() {
                (mix64(u64::from(v.raw())) % num_parts as u64) as u32
            } else {
                let k = mix64(u64::from(v.raw()) ^ 0x5151_5151) as usize % present[i].len();
                present[i][k]
            };
            master[i] = m;
            replicas[i] = present[i].iter().copied().filter(|&p| p != m).collect();
        }
        (master, replicas)
    }

    proptest! {
        /// Any multigraph (self-loops, repeated edges, vertices no edge
        /// names), any edge ownership, part counts on both sides of a
        /// bitset word, masters elected or forced (onto a part the vertex
        /// may not be present on): the flat table holds the reference's
        /// masters and lists.
        #[test]
        fn flat_table_equals_the_list_per_vertex_reference(
            n in 1usize..40,
            parts in 1usize..=70,
            pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
            salt in any::<u64>(),
            forced in any::<bool>(),
        ) {
            let pairs: Vec<(u32, u32)> =
                pairs.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect();
            let g = gen::from_pairs(n, &pairs);
            let edge_owner: Vec<u32> = (0..pairs.len() as u64)
                .map(|e| (mix64(e ^ salt) % parts as u64) as u32)
                .collect();
            let force = move |v: Vid| (mix64(u64::from(v.raw()) ^ !salt) % parts as u64) as usize;
            let force: Option<&dyn Fn(Vid) -> usize> = forced.then_some(&force);
            let cut = VertexCut::from_edge_owner(&g, parts, edge_owner.clone(), force);
            let (master, replicas) = reference_placement(&g, parts, &edge_owner, force);
            for v in g.vertices() {
                prop_assert_eq!(cut.master(v), master[v.index()] as usize);
                prop_assert_eq!(cut.replica_parts(v), &replicas[v.index()][..]);
                prop_assert_eq!(cut.has_replica(v), !replicas[v.index()].is_empty());
            }
            let copies: usize = replicas.iter().map(|r| 1 + r.len()).sum();
            prop_assert_eq!(cut.replication_factor(), copies as f64 / n as f64);
            let none = replicas.iter().filter(|r| r.is_empty()).count();
            prop_assert_eq!(cut.fraction_without_replicas(), none as f64 / n as f64);
        }
    }

    #[test]
    fn every_edge_owned_exactly_once() {
        let g = skewed();
        for cut in [
            RandomVertexCut.partition(&g, 6),
            GridVertexCut.partition(&g, 6),
            HybridVertexCut::default().partition(&g, 6),
        ] {
            assert_eq!(cut.edge_part_sizes().iter().sum::<usize>(), g.num_edges());
        }
    }

    #[test]
    fn master_is_a_present_part_when_vertex_has_edges() {
        let g = skewed();
        let cut = RandomVertexCut.partition(&g, 6);
        let mut has_edges = vec![false; g.num_vertices()];
        for e in g.edges() {
            has_edges[e.src.index()] = true;
            has_edges[e.dst.index()] = true;
        }
        for v in g.vertices() {
            if has_edges[v.index()] {
                let m = cut.master(v) as u32;
                let present = !cut.replica_parts(v).contains(&m);
                assert!(present, "master duplicated in replica list");
            }
        }
    }

    #[test]
    fn grid_confines_replicas_to_row_plus_column() {
        let g = skewed();
        let p = 16; // 4 x 4
        let (r, c) = GridVertexCut::grid_shape(p);
        assert_eq!((r, c), (4, 4));
        let cut = GridVertexCut.partition(&g, p);
        for v in g.vertices() {
            let copies = 1 + cut.replica_parts(v).len();
            assert!(
                copies <= r + c - 1 + 1, // +1 slack: master may be hash-placed off-grid-row
                "vertex {v} has {copies} copies, grid bound is {}",
                r + c - 1
            );
        }
    }

    #[test]
    fn replication_factor_ordering_matches_fig14a() {
        // Fig. 14(a): random > grid > hybrid on a skewed natural graph.
        let g = skewed();
        let p = 16;
        let rnd = RandomVertexCut.partition(&g, p).replication_factor();
        let grid = GridVertexCut.partition(&g, p).replication_factor();
        let hyb = HybridVertexCut::with_threshold(30)
            .partition(&g, p)
            .replication_factor();
        assert!(rnd > grid, "random {rnd} <= grid {grid}");
        assert!(grid > hyb, "grid {grid} <= hybrid {hyb}");
    }

    #[test]
    fn hybrid_low_degree_masters_are_co_located_with_in_edges() {
        let g = skewed();
        let p = 8;
        let cut = HybridVertexCut::with_threshold(1_000_000).partition(&g, p);
        // With an unreachable threshold every vertex is low-degree: all
        // in-edges at hash(dst), master at hash(dst).
        for (e, &owner) in g.edges().iter().zip(cut.edge_owner()) {
            assert_eq!(owner as usize, cut.master(e.dst));
        }
    }

    #[test]
    fn hybrid_high_threshold_zero_distributes_by_source() {
        let g = skewed();
        let cut = HybridVertexCut::with_threshold(0).partition(&g, 8);
        for (e, &owner) in g.edges().iter().zip(cut.edge_owner()) {
            assert_eq!(owner as usize, HybridVertexCut::hash_part(e.src, 8));
        }
    }

    #[test]
    fn grid_shape_factorizations() {
        assert_eq!(GridVertexCut::grid_shape(16), (4, 4));
        assert_eq!(GridVertexCut::grid_shape(50), (5, 10));
        assert_eq!(GridVertexCut::grid_shape(48), (6, 8));
        assert_eq!(GridVertexCut::grid_shape(7), (1, 7));
        assert_eq!(GridVertexCut::grid_shape(1), (1, 1));
    }

    #[test]
    fn isolated_vertex_gets_hash_master() {
        let g = gen::from_pairs(5, &[(0, 1)]);
        let cut = RandomVertexCut.partition(&g, 3);
        // v4 is isolated; it must still have a valid master.
        assert!(cut.master(imitator_graph::Vid::new(4)) < 3);
        assert!(cut.replica_parts(imitator_graph::Vid::new(4)).is_empty());
    }
}
