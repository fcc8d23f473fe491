//! Alternating least squares matrix factorisation (SYN-GL workload).
//!
//! Each vertex (user or item) holds a latent-factor vector; one iteration
//! re-solves every vertex's regularised normal equations against its
//! neighbours' current factors (Jacobi-style ALS, the formulation used by
//! GraphLab's collaborative-filtering toolkit). Edge weights carry the
//! ratings; the rating graph is bipartite with each rating present in both
//! directions, so gathering over in-edges sees all of a vertex's ratings.

use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::Vid;
use imitator_metrics::MemSize;
use imitator_storage::codec::{Decode, DecodeError, Encode, Reader, Sink};

use crate::linalg::cholesky_solve;

/// A vertex's latent-factor vector.
#[derive(Debug, Clone, PartialEq)]
pub struct AlsValue(pub Vec<f32>);

impl Encode for AlsValue {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.0.encode(out);
    }
}

impl Decode for AlsValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AlsValue(Vec::<f32>::decode(r)?))
    }
}

impl MemSize for AlsValue {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<AlsValue>() + self.0.capacity() * 4
    }
}

/// The gather accumulator: the normal-equation pieces `Σ x·xᵀ` (row-major)
/// and `Σ r·x` over neighbouring factors `x` and ratings `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlsAccum {
    /// `Σ x·xᵀ`, `d × d`, row-major.
    pub xtx: Vec<f32>,
    /// `Σ r·x`.
    pub xty: Vec<f32>,
}

impl Encode for AlsAccum {
    fn encode<S: Sink>(&self, out: &mut S) {
        self.xtx.encode(out);
        self.xty.encode(out);
    }
}

impl Decode for AlsAccum {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AlsAccum {
            xtx: Vec::<f32>::decode(r)?,
            xty: Vec::<f32>::decode(r)?,
        })
    }
}

/// The ALS vertex program.
///
/// True ALS *alternates*: even supersteps re-solve user factors against
/// fixed item factors, odd supersteps the reverse — simultaneous (Jacobi)
/// updates oscillate. Construct with [`Als::for_bipartite`] to get the
/// alternating schedule over a [`imitator_graph::gen::bipartite_ratings`]
/// graph (users occupy the low vertex IDs).
///
/// # Examples
///
/// ```
/// use imitator_algos::Als;
///
/// let als = Als::for_bipartite(8, 0.05, 1e-3, 1_000);
/// assert_eq!(als.dim, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Als {
    /// Latent dimension `d`.
    pub dim: usize,
    /// Ridge regularisation λ.
    pub lambda: f32,
    /// Convergence threshold on `‖Δw‖∞`.
    pub tolerance: f32,
    /// User/item ID boundary: vertices `< num_users` are users and update
    /// on even supersteps; the rest are items and update on odd ones.
    pub num_users: u32,
}

impl Als {
    /// Creates an alternating ALS program over a bipartite rating graph
    /// whose users occupy vertex IDs `0..num_users`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lambda <= 0` (the solve needs the ridge to
    /// stay positive definite).
    pub fn for_bipartite(dim: usize, lambda: f32, tolerance: f32, num_users: usize) -> Self {
        assert!(dim > 0, "latent dimension must be positive");
        assert!(lambda > 0.0, "lambda must be positive");
        Als {
            dim,
            lambda,
            tolerance,
            num_users: u32::try_from(num_users).expect("user count fits u32"),
        }
    }

    fn my_phase(&self, vid: Vid, step: u64) -> bool {
        let is_user = vid.raw() < self.num_users;
        is_user == step.is_multiple_of(2)
    }
}

impl Default for Als {
    fn default() -> Self {
        Als::for_bipartite(8, 0.05, 1e-3, 0)
    }
}

impl VertexProgram for Als {
    type Value = AlsValue;
    type Accum = AlsAccum;

    /// Deterministic pseudo-random initial factors in `[0.1, 1.1)`, seeded
    /// by the vertex ID (every node computes identical initial state).
    fn init(&self, vid: Vid, _degrees: &Degrees) -> AlsValue {
        let mut state = u64::from(vid.raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        AlsValue((0..self.dim).map(|_| 0.1 + next()).collect())
    }

    fn gather(&self, rating: f32, src: &AlsValue) -> AlsAccum {
        let d = self.dim;
        let x = &src.0;
        let mut xtx = vec![0.0f32; d * d];
        let mut xty = vec![0.0f32; d];
        for i in 0..d {
            for j in 0..d {
                xtx[i * d + j] = x[i] * x[j];
            }
            xty[i] = rating * x[i];
        }
        AlsAccum { xtx, xty }
    }

    fn combine(&self, mut a: AlsAccum, b: AlsAccum) -> AlsAccum {
        for (x, y) in a.xtx.iter_mut().zip(&b.xtx) {
            *x += y;
        }
        for (x, y) in a.xty.iter_mut().zip(&b.xty) {
            *x += y;
        }
        a
    }

    fn apply(&self, _vid: Vid, old: &AlsValue, acc: Option<AlsAccum>, _d: &Degrees) -> AlsValue {
        let Some(mut acc) = acc else {
            return old.clone(); // no ratings: keep factors
        };
        let d = self.dim;
        for i in 0..d {
            acc.xtx[i * d + i] += self.lambda;
        }
        match cholesky_solve(&acc.xtx, &acc.xty, d) {
            Some(w) => AlsValue(w),
            None => old.clone(),
        }
    }

    /// The alternation gate: a vertex only re-solves on its own side's
    /// supersteps (users even, items odd).
    fn apply_step(
        &self,
        vid: Vid,
        old: &AlsValue,
        acc: Option<AlsAccum>,
        degrees: &Degrees,
        step: u64,
    ) -> AlsValue {
        if self.my_phase(vid, step) {
            self.apply(vid, old, acc, degrees)
        } else {
            old.clone()
        }
    }

    fn scatter(&self, _vid: Vid, old: &AlsValue, new: &AlsValue) -> bool {
        old.0
            .iter()
            .zip(&new.0)
            .any(|(a, b)| (a - b).abs() > self.tolerance)
    }

    /// Factors are a pure function of neighbouring factors and ratings.
    fn selfish_compatible(&self) -> bool {
        true
    }
}

/// Root-mean-square error of the factorisation against the rating edges —
/// the training-quality metric used to sanity-check ALS runs.
pub fn rmse(g: &imitator_graph::Graph, factors: &[AlsValue]) -> f64 {
    let mut se = 0.0f64;
    let mut count = 0usize;
    for e in g.edges() {
        // Bipartite ratings exist in both directions; count each once.
        if e.src < e.dst {
            let p: f32 = factors[e.src.index()]
                .0
                .iter()
                .zip(&factors[e.dst.index()].0)
                .map(|(a, b)| a * b)
                .sum();
            se += f64::from(p - e.weight).powi(2);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (se / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator_graph::gen;
    use proptest::prelude::*;

    #[test]
    fn init_is_deterministic_per_vertex() {
        let g = gen::from_pairs(2, &[]);
        let d = Degrees::of(&g);
        let als = Als::default();
        assert_eq!(als.init(Vid::new(0), &d), als.init(Vid::new(0), &d));
        assert_ne!(als.init(Vid::new(0), &d).0, als.init(Vid::new(1), &d).0);
        for x in als.init(Vid::new(5), &d).0 {
            assert!((0.1..1.2).contains(&x));
        }
    }

    #[test]
    fn gather_combine_build_normal_equations() {
        let als = Als::for_bipartite(2, 0.1, 1e-3, 1);
        let a = als.gather(2.0, &AlsValue(vec![1.0, 0.0]));
        let b = als.gather(3.0, &AlsValue(vec![0.0, 1.0]));
        let c = als.combine(a, b);
        assert_eq!(c.xtx, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(c.xty, vec![2.0, 3.0]);
    }

    #[test]
    fn apply_solves_regularised_system() {
        let g = gen::from_pairs(1, &[]);
        let d = Degrees::of(&g);
        let als = Als::for_bipartite(2, 0.5, 1e-3, 1);
        let acc = AlsAccum {
            xtx: vec![1.5, 0.0, 0.0, 1.5], // + λ = 2.0 on the diagonal
            xty: vec![4.0, 2.0],
        };
        let w = als.apply(Vid::new(0), &AlsValue(vec![0.0, 0.0]), Some(acc), &d);
        assert!((w.0[0] - 2.0).abs() < 1e-5);
        assert!((w.0[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn apply_without_ratings_keeps_old() {
        let g = gen::from_pairs(1, &[]);
        let d = Degrees::of(&g);
        let als = Als::default();
        let old = AlsValue(vec![0.5; 8]);
        assert_eq!(als.apply(Vid::new(0), &old, None, &d), old);
    }

    #[test]
    fn als_reduces_rmse_on_a_rating_graph() {
        // Sequential alternating ALS sweep using the program's own pieces.
        let g = gen::bipartite_ratings(60, 6, 9);
        let degrees = Degrees::of(&g);
        let als = Als::for_bipartite(4, 0.1, 1e-4, 60);
        let mut factors: Vec<AlsValue> = g.vertices().map(|v| als.init(v, &degrees)).collect();
        let before = rmse(&g, &factors);
        let inn = g.in_csr();
        for step in 0..10u64 {
            let prev = factors.clone();
            for v in g.vertices() {
                let mut acc: Option<AlsAccum> = None;
                for (u, w) in inn.neighbors(v) {
                    let c = als.gather(w, &prev[u.index()]);
                    acc = Some(match acc {
                        None => c,
                        Some(a) => als.combine(a, c),
                    });
                }
                factors[v.index()] = als.apply_step(v, &prev[v.index()], acc, &degrees, step);
            }
        }
        let after = rmse(&g, &factors);
        assert!(
            after < before * 0.7,
            "ALS failed to fit: rmse {before} -> {after}"
        );
    }

    #[test]
    fn apply_step_alternates_sides() {
        let g = gen::from_pairs(2, &[]);
        let d = Degrees::of(&g);
        let als = Als::for_bipartite(2, 0.1, 1e-3, 1); // v0 = user, v1 = item
        let old = AlsValue(vec![0.25, 0.25]);
        let acc = || {
            Some(AlsAccum {
                xtx: vec![1.0, 0.0, 0.0, 1.0],
                xty: vec![1.0, 1.0],
            })
        };
        // Item must not move on an even (user) step; user must.
        assert_eq!(als.apply_step(Vid::new(1), &old, acc(), &d, 0), old);
        assert_ne!(als.apply_step(Vid::new(0), &old, acc(), &d, 0), old);
        // And the reverse on an odd step.
        assert_eq!(als.apply_step(Vid::new(0), &old, acc(), &d, 1), old);
        assert_ne!(als.apply_step(Vid::new(1), &old, acc(), &d, 1), old);
    }

    #[test]
    fn value_roundtrips_codec() {
        let v = AlsValue(vec![1.0, -2.5, 0.125]);
        let back: AlsValue = imitator_storage::codec::decode(&v.to_bytes()).unwrap();
        assert_eq!(back, v);
    }

    proptest! {
        /// A value and an accumulator cost on the wire what their encoders
        /// write: the counting sink agrees with the buffer.
        #[test]
        fn counted_length_is_the_encoding(
            factors in proptest::collection::vec(any::<f32>(), 0..12),
            xtx in proptest::collection::vec(any::<f32>(), 0..144),
        ) {
            let v = AlsValue(factors.clone());
            prop_assert_eq!(v.encoded_len(), v.to_bytes().len());
            let acc = AlsAccum { xtx, xty: factors };
            prop_assert_eq!(acc.encoded_len(), acc.to_bytes().len());
        }
    }
}
