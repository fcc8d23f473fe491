//! PageRank (Brin & Page), the paper's primary workload.

use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::Vid;
use imitator_metrics::MemSize;
use imitator_storage::codec::{Decode, DecodeError, Encode, Reader, Sink};

/// A vertex's PageRank state.
///
/// Carries both the rank and the pre-divided share (`rank / out_degree`)
/// that in-neighbours gather — the standard trick that keeps `gather` free
/// of degree lookups on remote vertices.
///
/// The codec carries the rank alone (8 bytes): the share is a function of
/// the rank and the vertex's out-degree, which every node holds, so whoever
/// receives a value derives it ([`VertexProgram::derive`]). A decoded value's
/// share is NaN until then, so one used underived poisons every rank it
/// feeds instead of passing for a stale share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankValue {
    /// Current rank.
    pub rank: f64,
    /// `rank / max(out_degree, 1)`, the per-edge contribution.
    pub share: f64,
}

impl Encode for RankValue {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.rank.encode(out);
    }
}

impl Decode for RankValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RankValue {
            rank: f64::decode(r)?,
            share: f64::NAN,
        })
    }
}

impl MemSize for RankValue {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<RankValue>()
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The PageRank vertex program: `rank = (1 − d) + d · Σ share(in-neighbour)`.
///
/// Vertices deactivate once their rank moves less than `tolerance`;
/// the paper's experiments run a fixed 20 iterations instead
/// (set `tolerance` to 0.0 and bound with `max_iters`).
///
/// # Examples
///
/// ```
/// use imitator_algos::PageRank;
///
/// let pr = PageRank::new(0.85, 1e-4);
/// assert_eq!(pr.damping, 0.85);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    /// Damping factor `d` (0.85 in the literature).
    pub damping: f64,
    /// Convergence threshold on `|Δrank|`.
    pub tolerance: f64,
}

impl PageRank {
    /// Creates a PageRank program with the given damping and tolerance.
    pub fn new(damping: f64, tolerance: f64) -> Self {
        PageRank { damping, tolerance }
    }
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank::new(0.85, 1e-6)
    }
}

/// The share of `vid`'s `rank` each of its out-edges carries. `init`,
/// `apply` and `derive` all compute it here, so a derived share is bit for bit
/// the one its master computed.
fn share(rank: f64, vid: Vid, degrees: &Degrees) -> f64 {
    rank / f64::from(degrees.out_degree(vid).max(1))
}

impl VertexProgram for PageRank {
    type Value = RankValue;
    type Accum = f64;

    fn init(&self, vid: Vid, degrees: &Degrees) -> RankValue {
        let rank = 1.0;
        RankValue {
            rank,
            share: share(rank, vid, degrees),
        }
    }

    fn gather(&self, _weight: f32, src: &RankValue) -> f64 {
        src.share
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, vid: Vid, _old: &RankValue, acc: Option<f64>, degrees: &Degrees) -> RankValue {
        let rank = (1.0 - self.damping) + self.damping * acc.unwrap_or(0.0);
        RankValue {
            rank,
            share: share(rank, vid, degrees),
        }
    }

    fn scatter(&self, _vid: Vid, old: &RankValue, new: &RankValue) -> bool {
        (old.rank - new.rank).abs() > self.tolerance
    }

    /// Rank is a pure function of in-neighbour shares: selfish vertices can
    /// be recomputed at recovery (§4.4).
    fn selfish_compatible(&self) -> bool {
        true
    }

    /// The share, from the rank that shipped. A value that arrived whole (an
    /// in-process transport moves it as is) brings its master's share, which
    /// must be the one derived here.
    fn derive(&self, vid: Vid, v: &mut RankValue, degrees: &Degrees) {
        let derived = share(v.rank, vid, degrees);
        debug_assert!(
            v.share.is_nan() || v.share.to_bits() == derived.to_bits(),
            "{vid}: shipped share {} is not the derived {derived}",
            v.share
        );
        v.share = derived;
    }
}

/// Sequential PageRank reference (dense Jacobi iterations), for tests and
/// benches.
pub fn reference(g: &imitator_graph::Graph, damping: f64, iters: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut out_deg = vec![0u32; n];
    for e in g.edges() {
        out_deg[e.src.index()] += 1;
    }
    let mut ranks = vec![1.0f64; n];
    for _ in 0..iters {
        let shares: Vec<f64> = ranks
            .iter()
            .zip(&out_deg)
            .map(|(r, &d)| r / f64::from(d.max(1)))
            .collect();
        let mut acc = vec![0.0f64; n];
        for e in g.edges() {
            acc[e.dst.index()] += shares[e.src.index()];
        }
        for (r, a) in ranks.iter_mut().zip(&acc) {
            *r = (1.0 - damping) + damping * a;
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;
    use proptest::prelude::*;

    #[test]
    fn init_share_divides_by_out_degree() {
        let g = gen::from_pairs(3, &[(0, 1), (0, 2)]);
        let d = Degrees::of(&g);
        let pr = PageRank::default();
        assert_eq!(pr.init(Vid::new(0), &d).share, 0.5);
        assert_eq!(pr.init(Vid::new(1), &d).share, 1.0); // degree 0 → max(,1)
    }

    #[test]
    fn apply_handles_no_in_edges() {
        let g = gen::from_pairs(2, &[(0, 1)]);
        let d = Degrees::of(&g);
        let pr = PageRank::default();
        let old = pr.init(Vid::new(0), &d);
        let new = pr.apply(Vid::new(0), &old, None, &d);
        assert!((new.rank - 0.15).abs() < 1e-12);
    }

    #[test]
    fn scatter_respects_tolerance() {
        let pr = PageRank::new(0.85, 0.1);
        let a = RankValue {
            rank: 1.0,
            share: 1.0,
        };
        let b = RankValue {
            rank: 1.05,
            share: 1.05,
        };
        assert!(!pr.scatter(Vid::new(0), &a, &b));
        let c = RankValue {
            rank: 1.2,
            share: 1.2,
        };
        assert!(pr.scatter(Vid::new(0), &a, &c));
    }

    #[test]
    fn reference_total_rank_is_conserved_on_regular_graph() {
        // On a cycle every vertex keeps rank 1.
        let g = gen::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let ranks = reference(&g, 0.85, 30);
        for r in ranks {
            assert!((r - 1.0).abs() < 1e-9);
        }
    }

    /// What crosses a node boundary is the rank; the receiver's `derive`
    /// rebuilds the value bit for bit, sink vertices (out-degree 0) included,
    /// and a value the codec produced is no value until it has.
    #[test]
    fn derive_rebuilds_what_the_codec_drops() {
        let g = gen::from_pairs(5, &[(0, 1), (0, 2), (0, 3), (2, 1), (4, 0)]);
        let d = Degrees::of(&g);
        let pr = PageRank::default();
        for (vid, rank) in [(0, 3.5), (1, 0.15), (2, -0.0), (3, 1e-300), (4, f64::MAX)] {
            let vid = Vid::new(vid);
            let v = pr.apply(vid, &pr.init(vid, &d), Some((rank - 0.15) / 0.85), &d);
            let bytes = v.to_bytes();
            assert_eq!(bytes.len(), 8, "the rank alone");
            let mut back: RankValue = imitator_storage::codec::decode(&bytes).unwrap();
            assert!(back.share.is_nan(), "an underived share is NaN");
            pr.derive(vid, &mut back, &d);
            assert_eq!(
                (back.rank.to_bits(), back.share.to_bits()),
                (v.rank.to_bits(), v.share.to_bits())
            );
        }
    }

    proptest! {
        /// `derive(decode(encode(v))) == v` bitwise over arbitrary ranks —
        /// NaNs, infinities and subnormals among them — and degrees; what
        /// the counting sink counts is what the buffer holds.
        #[test]
        fn derive_of_decoded_is_the_value(
            bits in any::<u64>(),
            out_degree in 0u32..6,
        ) {
            let pairs: Vec<(u32, u32)> = (1..=out_degree).map(|t| (0, t)).collect();
            let d = Degrees::of(&gen::from_pairs(6, &pairs));
            let (vid, pr) = (Vid::new(0), PageRank::default());
            let rank = f64::from_bits(bits);
            let v = RankValue { rank, share: share(rank, vid, &d) };
            prop_assert_eq!(v.encoded_len(), v.to_bytes().len());
            let mut back: RankValue = imitator_storage::codec::decode(&v.to_bytes()).unwrap();
            pr.derive(vid, &mut back, &d);
            prop_assert_eq!(
                (back.rank.to_bits(), back.share.to_bits()),
                (v.rank.to_bits(), v.share.to_bits())
            );
        }
    }
}
