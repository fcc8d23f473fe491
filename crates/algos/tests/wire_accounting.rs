//! What a run charges for a value or an accumulator on the wire is what the
//! codec writes for it: `value_wire_bytes` and `accum_wire_bytes` equal the
//! encoded length for every shipped program, over arbitrary values. The
//! communication figures are priced by these two functions and TCP ships the
//! codec's bytes, so the two must not drift apart.

use imitator_algos::{Als, AlsAccum, AlsValue, CommunityDetection, PageRank, RankValue, Sssp};
use imitator_engine::VertexProgram;
use imitator_graph::Vid;
use imitator_storage::codec::Encode;
use proptest::prelude::*;

fn value_matches<P: VertexProgram>(prog: &P, v: &P::Value) -> Result<(), TestCaseError>
where
    P::Value: Encode,
{
    prop_assert_eq!(prog.value_wire_bytes(v), v.to_bytes().len(), "{:?}", v);
    Ok(())
}

fn accum_matches<P: VertexProgram>(prog: &P, a: &P::Accum) -> Result<(), TestCaseError>
where
    P::Accum: Encode + std::fmt::Debug,
{
    prop_assert_eq!(prog.accum_wire_bytes(a), a.to_bytes().len(), "{:?}", a);
    Ok(())
}

proptest! {
    #[test]
    fn pagerank_charges_what_it_encodes(rank in any::<u64>(), share in any::<u64>(), acc in any::<u64>()) {
        let pr = PageRank::default();
        let v = RankValue { rank: f64::from_bits(rank), share: f64::from_bits(share) };
        value_matches(&pr, &v)?;
        accum_matches(&pr, &f64::from_bits(acc))?;
    }

    #[test]
    fn sssp_charges_what_it_encodes(dist in any::<u32>(), acc in any::<u32>()) {
        let sssp = Sssp::from_source(Vid::new(0));
        value_matches(&sssp, &f32::from_bits(dist))?;
        accum_matches(&sssp, &f32::from_bits(acc))?;
    }

    #[test]
    fn community_detection_charges_what_it_encodes(
        label in any::<u32>(),
        histogram in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    ) {
        value_matches(&CommunityDetection, &label)?;
        accum_matches(&CommunityDetection, &histogram)?;
    }

    #[test]
    fn als_charges_what_it_encodes(
        dim in 1usize..12,
        factors in proptest::collection::vec(any::<u32>(), 0..12),
        xtx in proptest::collection::vec(any::<u32>(), 0..144),
    ) {
        let als = Als::for_bipartite(dim, 0.05, 1e-3, 10);
        let floats = |bits: &[u32]| bits.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>();
        value_matches(&als, &AlsValue(floats(&factors)))?;
        let acc = AlsAccum { xtx: floats(&xtx), xty: floats(&factors) };
        accum_matches(&als, &acc)?;
    }
}
