//! Deterministic work splitting for the intra-node compute pool.
//!
//! The paper's evaluation runs multiple worker threads per node;
//! [`crate::WorkerPool`] runs the pure per-node phases on them while
//! preserving the engine's bit-determinism contract (recovery must reproduce
//! the clean run's values exactly, see `ec_commit`). The scheme is the same
//! for every phase, and this module holds its first step:
//!
//! 1. split the node's work (frontier slice / destination range / position
//!    range) into **disjoint contiguous chunks** ([`chunk_ranges`], or
//!    [`weighted_ranges`] over a [`VcGatherIndex`] to balance by edge count),
//! 2. run each chunk as a pool job staging into its own buffer,
//! 3. consume the per-chunk buffers **in chunk order**.
//!
//! Since every serial phase processes positions in ascending order and folds
//! each vertex's contributions in a fixed edge order, chunk-order
//! concatenation reproduces the serial output byte for byte, for any thread
//! count. Workers never share mutable state, so no atomics or locks appear
//! on the hot path.

use std::ops::Range;

use crate::vcut::VcLocalGraph;

/// Splits `0..len` into at most `chunks` non-empty contiguous ranges of
/// near-equal size (sizes differ by at most one).
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Splits `0..n` (where `prefix` has `n + 1` monotone entries, `prefix[i]`
/// = total weight before item `i`) into at most `chunks` contiguous ranges
/// of near-equal total weight. Used to balance gather workers by edge count
/// rather than vertex count (power-law graphs make the two very different).
pub fn weighted_ranges(prefix: &[u32], chunks: usize) -> Vec<Range<usize>> {
    let n = prefix.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, n);
    let total = u64::from(prefix[n]);
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        if start >= n {
            break;
        }
        // Cut where the running weight crosses the next 1/chunks share, but
        // always make progress by at least one item.
        let target = total * (i as u64 + 1) / chunks as u64;
        let mut end = start + 1;
        while end < n && u64::from(prefix[end]) < target {
            end += 1;
        }
        if i + 1 == chunks {
            end = n;
        }
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(out.last().map(|r| r.end), Some(n));
    out
}

/// Destination-grouped view of a [`VcLocalGraph`]'s edge list (CSR-like).
///
/// `edges_for(d)` yields the indices of all edges with `dst == d`, in their
/// original edge-list order — so folding a destination's contributions via
/// this index reproduces the serial [`crate::vc_partial_gather`] fold order
/// exactly (the grouping is a stable counting sort by destination). Because
/// destinations are disjoint, workers can own contiguous destination ranges
/// and write their accumulator slots without atomics.
///
/// Build once per graph topology and reuse across iterations; rebuild after
/// recovery changes the local graph (checked by [`VcGatherIndex::is_valid_for`]).
#[derive(Debug, Clone)]
pub struct VcGatherIndex {
    /// `offsets[d]..offsets[d + 1]` bounds destination `d`'s slice of
    /// `edge_order`; `offsets.len() == num_verts + 1`.
    offsets: Vec<u32>,
    /// Edge-list indices grouped by destination, original order within each.
    edge_order: Vec<u32>,
    num_verts: usize,
}

impl VcGatherIndex {
    /// Builds the index for `lg`'s current edge list (stable counting sort,
    /// O(|edges| + |verts|)).
    pub fn build<V>(lg: &VcLocalGraph<V>) -> Self {
        let n = lg.verts.len();
        let mut offsets = vec![0u32; n + 1];
        for e in &lg.edges {
            offsets[e.dst as usize + 1] += 1;
        }
        for d in 0..n {
            offsets[d + 1] += offsets[d];
        }
        let mut cursor = offsets.clone();
        let mut edge_order = vec![0u32; lg.edges.len()];
        for (i, e) in lg.edges.iter().enumerate() {
            let c = &mut cursor[e.dst as usize];
            edge_order[*c as usize] = i as u32;
            *c += 1;
        }
        VcGatherIndex {
            offsets,
            edge_order,
            num_verts: n,
        }
    }

    /// Whether the index still matches `lg`'s shape (sizes only — the
    /// runner rebuilds after any recovery, which is the only mutation).
    pub fn is_valid_for<V>(&self, lg: &VcLocalGraph<V>) -> bool {
        self.num_verts == lg.verts.len() && self.edge_order.len() == lg.edges.len()
    }

    /// Edge-list indices feeding destination `d`, in original edge order.
    pub fn edges_for(&self, d: usize) -> &[u32] {
        &self.edge_order[self.offsets[d] as usize..self.offsets[d + 1] as usize]
    }

    /// Destination ranges of near-equal total edge weight for `chunks`
    /// workers (see [`weighted_ranges`]).
    pub fn ranges(&self, chunks: usize) -> Vec<Range<usize>> {
        weighted_ranges(&self.offsets, chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftplan::FtPlan;
    use crate::program::Degrees;
    use crate::vcut::build_vertex_cut_graphs;
    use imitator_graph::{gen, Vid};
    use imitator_partition::{RandomVertexCut, VertexCutPartitioner};

    struct MinLabel;
    impl crate::VertexProgram for MinLabel {
        type Value = u32;
        type Accum = u32;
        fn init(&self, vid: Vid, _d: &Degrees) -> u32 {
            vid.raw()
        }
        fn gather(&self, _w: f32, src: &u32) -> u32 {
            *src
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn apply(&self, _v: Vid, old: &u32, acc: Option<u32>, _d: &Degrees) -> u32 {
            acc.map_or(*old, |a| a.min(*old))
        }
        fn scatter(&self, _v: Vid, old: &u32, new: &u32) -> bool {
            new < old
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 8, 100] {
            for chunks in 1..=9 {
                let rs = chunk_ranges(len, chunks);
                let covered: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len);
                let mut expect = 0;
                for r in &rs {
                    assert_eq!(r.start, expect, "gap at {expect}");
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                if len > 0 {
                    assert!(rs.len() <= chunks);
                    let sizes: Vec<_> = rs.iter().map(|r| r.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "unbalanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_ranges_cover_exactly() {
        // prefix for weights [5, 0, 0, 1, 10, 2]
        let prefix = [0u32, 5, 5, 5, 6, 16, 18];
        for chunks in 1..=8 {
            let rs = weighted_ranges(&prefix, chunks);
            let mut expect = 0;
            for r in &rs {
                assert_eq!(r.start, expect);
                assert!(!r.is_empty());
                expect = r.end;
            }
            assert_eq!(expect, prefix.len() - 1);
        }
        assert!(weighted_ranges(&[0u32], 4).is_empty());
    }

    #[test]
    fn gather_index_groups_stably() {
        let g = gen::power_law(300, 2.0, 5, 41);
        let cut = RandomVertexCut.partition(&g, 3);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Degrees::of(&g);
        let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &MinLabel, &degrees);
        for lg in &lgs {
            let idx = VcGatherIndex::build(lg);
            assert!(idx.is_valid_for(lg));
            let mut seen = 0usize;
            for d in 0..lg.verts.len() {
                let slice = idx.edges_for(d);
                // grouped by dst, original order within the group
                assert!(slice.windows(2).all(|w| w[0] < w[1]));
                for &ei in slice {
                    assert_eq!(lg.edges[ei as usize].dst as usize, d);
                }
                seen += slice.len();
            }
            assert_eq!(seen, lg.edges.len());
        }
    }
}
