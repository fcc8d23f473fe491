//! The vertex-centric programming model.

use imitator_graph::{Graph, Vid};

/// Global degree tables, shared read-only by every node.
///
/// Vertex programs consult degrees at `init`/`apply`/`derive` time (PageRank
/// divides by out-degree; ALS distinguishes users from items by ID range).
/// Sharing the table mirrors the metadata snapshot every node holds after
/// loading, which is why a value need not carry what degrees determine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degrees {
    out: Vec<u32>,
    in_: Vec<u32>,
}

impl Degrees {
    /// Computes degree tables for `g`.
    pub fn of(g: &Graph) -> Self {
        let mut out = vec![0u32; g.num_vertices()];
        let mut in_ = vec![0u32; g.num_vertices()];
        for e in g.edges() {
            out[e.src.index()] += 1;
            in_[e.dst.index()] += 1;
        }
        Degrees { out, in_ }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: Vid) -> u32 {
        self.out[v.index()]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: Vid) -> u32 {
        self.in_[v.index()]
    }
}

/// A vertex-centric graph program in the gather/combine/apply/scatter style.
///
/// The engines evaluate, for every **active** vertex `v` each iteration:
///
/// ```text
/// acc  = combine(gather(w_e, value(u)) for each in-edge e = (u, v))
/// new  = apply(v, old, acc)
/// if new != old: push `new` to v's replicas; if scatter(v, old, new),
///                activate v's out-neighbours for the next iteration
/// ```
///
/// `gather`/`combine` must be associative and commutative; the engines
/// nevertheless fold contributions in a deterministic order so runs (and
/// post-recovery reruns) are bit-identical.
///
/// # Examples
///
/// A degenerate "copy my smallest in-neighbour" program:
///
/// ```
/// use imitator_engine::{Degrees, VertexProgram};
/// use imitator_graph::Vid;
///
/// struct MinLabel;
/// impl VertexProgram for MinLabel {
///     type Value = u32;
///     type Accum = u32;
///     fn init(&self, vid: Vid, _d: &Degrees) -> u32 { vid.raw() }
///     fn gather(&self, _w: f32, src: &u32) -> u32 { *src }
///     fn combine(&self, a: u32, b: u32) -> u32 { a.min(b) }
///     fn apply(&self, _v: Vid, old: &u32, acc: Option<u32>, _d: &Degrees) -> u32 {
///         acc.map_or(*old, |a| a.min(*old))
///     }
///     fn scatter(&self, _v: Vid, old: &u32, new: &u32) -> bool { new < old }
/// }
/// ```
pub trait VertexProgram: Send + Sync + 'static {
    /// Per-vertex state. `PartialEq` lets the engines suppress no-op updates.
    type Value: Clone + Send + Sync + PartialEq + std::fmt::Debug + 'static;
    /// The gather accumulator.
    type Accum: Clone + Send + 'static;

    /// Initial value of `vid`.
    fn init(&self, vid: Vid, degrees: &Degrees) -> Self::Value;

    /// Whether `vid` starts active (default: all vertices — PageRank-style).
    fn initially_active(&self, _vid: Vid) -> bool {
        true
    }

    /// Contribution of one in-edge with weight `weight` from a neighbour
    /// holding `src`.
    fn gather(&self, weight: f32, src: &Self::Value) -> Self::Accum;

    /// Merges two accumulators (associative and commutative).
    fn combine(&self, a: Self::Accum, b: Self::Accum) -> Self::Accum;

    /// Produces the new value from the old one and the combined accumulator
    /// (`None` when no in-edge contributed this iteration).
    fn apply(
        &self,
        vid: Vid,
        old: &Self::Value,
        acc: Option<Self::Accum>,
        degrees: &Degrees,
    ) -> Self::Value;

    /// Like [`VertexProgram::apply`], but also receives the 0-based
    /// superstep number (Pregel exposes the same). Override for
    /// phase-alternating algorithms such as ALS; the default delegates to
    /// `apply`.
    fn apply_step(
        &self,
        vid: Vid,
        old: &Self::Value,
        acc: Option<Self::Accum>,
        degrees: &Degrees,
        _step: u64,
    ) -> Self::Value {
        self.apply(vid, old, acc, degrees)
    }

    /// Whether `vid`'s change should activate its out-neighbours for the
    /// next iteration.
    fn scatter(&self, vid: Vid, old: &Self::Value, new: &Self::Value) -> bool;

    /// Whether this program's vertex values can be *recomputed* from
    /// in-neighbours alone, enabling the selfish-vertex optimisation (§4.4):
    /// selfish vertices get an FT replica but are never synchronised.
    fn selfish_compatible(&self) -> bool {
        false
    }

    /// Rebuilds what `v` holds as a function of `vid`, the degree tables and
    /// the rest of `v` — the part of a value its codec does not carry.
    ///
    /// The runtime calls it wherever a value enters a node: a sync record,
    /// a Rebirth record or Migration grant, a snapshot read back from the
    /// DFS. A value therefore crosses a node boundary as what the receiver
    /// cannot derive, and what its codec writes is all it costs there. The
    /// default derives nothing.
    fn derive(&self, _vid: Vid, _v: &mut Self::Value, _degrees: &Degrees) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;

    #[test]
    fn degrees_match_graph() {
        let g = gen::from_pairs(4, &[(0, 1), (0, 2), (2, 1)]);
        let d = Degrees::of(&g);
        assert_eq!(d.num_vertices(), 4);
        assert_eq!(d.out_degree(Vid::new(0)), 2);
        assert_eq!(d.in_degree(Vid::new(1)), 2);
        assert_eq!(d.out_degree(Vid::new(3)), 0);
        assert_eq!(d.in_degree(Vid::new(3)), 0);
    }
}
