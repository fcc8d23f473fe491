//! Cross-crate invariants of the fault-tolerance machinery: FT-plan
//! guarantees over arbitrary graphs and partitionings, and run-report
//! accounting consistency.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use imitator_repro::engine::{Degrees, VertexProgram};
use imitator_repro::ft::plan::compute_ft_plan;
use imitator_repro::ft::{run_edge_cut, FtMode, RecoveryStrategy, RunConfig};
use imitator_repro::graph::{gen, Graph, Vid};
use imitator_repro::partition::{
    EdgeCutPartitioner, HashEdgeCut, HybridVertexCut, RandomVertexCut, VertexCutPartitioner,
};
use imitator_repro::storage::{Dfs, DfsConfig};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        5usize..80,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..250),
    )
        .prop_map(|(n, pairs)| {
            let pairs: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            gen::from_pairs(n, &pairs)
        })
}

/// `PROPTEST_CASES` (used by the deep-fuzz CI job) scales the
/// case count; the explicit default would otherwise shadow the env var.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// §4's contract: K distinct mirrors per vertex, never on the owner,
    /// each backed by a copy (existing replica or planned extra).
    #[test]
    fn ft_plan_guarantees_k_mirrors(
        (g, parts, k) in (arb_graph(), 2usize..7, 1usize..3)
    ) {
        prop_assume!(k < parts);
        let cut = HashEdgeCut.partition(&g, parts);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, k, true, true, 11);
        for v in g.vertices() {
            let mirrors = plan.mirrors(v);
            prop_assert_eq!(mirrors.len(), k, "vertex {} mirror count", v);
            let distinct: HashSet<_> = mirrors.iter().collect();
            prop_assert_eq!(distinct.len(), k, "vertex {} duplicate mirrors", v);
            for m in mirrors {
                prop_assert_ne!(m.index(), cut.owner(v));
                let has_copy = cut.replica_parts(v).contains(&(m.raw()))
                    || plan.extras(v).contains(m);
                prop_assert!(has_copy, "mirror of {} on {} has no copy", v, m);
            }
        }
    }

    /// Same contract over vertex-cut placements (random and hybrid).
    #[test]
    fn ft_plan_guarantees_hold_on_vertex_cut(
        (g, parts, theta) in (arb_graph(), 2usize..7, 0usize..20)
    ) {
        for cut in [
            RandomVertexCut.partition(&g, parts),
            HybridVertexCut::with_threshold(theta).partition(&g, parts),
        ] {
            let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, false, false, 3);
            for v in g.vertices() {
                let mirrors = plan.mirrors(v);
                prop_assert_eq!(mirrors.len(), 1);
                prop_assert_ne!(mirrors[0].index(), cut.master(v));
            }
        }
    }
}

/// Dense always-true program used for accounting checks.
struct CountUp;

impl VertexProgram for CountUp {
    type Value = u64;
    type Accum = u64;

    fn init(&self, _v: Vid, _d: &Degrees) -> u64 {
        1
    }

    fn gather(&self, _w: f32, s: &u64) -> u64 {
        *s
    }

    fn combine(&self, a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }

    fn apply(&self, _v: Vid, old: &u64, acc: Option<u64>, _d: &Degrees) -> u64 {
        match acc {
            Some(a) => (1 + a).min(1 << 40),
            None => *old,
        }
    }

    fn scatter(&self, _v: Vid, old: &u64, new: &u64) -> bool {
        old != new
    }
}

#[test]
fn report_accounting_is_consistent() {
    let g = gen::power_law(1_000, 2.0, 6, 5);
    let cut = HashEdgeCut.partition(&g, 4);
    let r = run_edge_cut(
        &g,
        &cut,
        Arc::new(CountUp),
        RunConfig {
            num_nodes: 4,
            max_iters: 8,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            ..RunConfig::default()
        },
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    // FT traffic is a subset of total traffic.
    assert!(r.ft_comm.messages <= r.comm.messages);
    assert!(r.ft_comm.bytes <= r.comm.bytes);
    // Timeline is monotone in both coordinates and one entry per iteration.
    assert_eq!(r.timeline.len() as u64, r.iterations);
    for w in r.timeline.windows(2) {
        assert!(w[0].0 < w[1].0);
        assert!(w[0].1 <= w[1].1);
    }
    // Memory accounting covers every node.
    assert_eq!(r.mem_bytes.len(), 4);
    assert!(r.mem_bytes.iter().all(|&b| b > 0));
    // The phase breakdown names the protocol's phases.
    for phase in ["compute", "send", "barrier", "commit"] {
        assert!(
            r.phases.get(phase).is_some(),
            "missing phase {phase} in {:?}",
            r.phases
        );
    }
}

#[test]
fn replication_memory_grows_with_tolerance() {
    let g = gen::power_law(2_000, 2.0, 6, 9);
    let cut = HashEdgeCut.partition(&g, 5);
    let mut previous = 0usize;
    for k in 1usize..=3 {
        let r = run_edge_cut(
            &g,
            &cut,
            Arc::new(CountUp),
            RunConfig {
                num_nodes: 5,
                max_iters: 1,
                ft: FtMode::Replication {
                    tolerance: k,
                    selfish_opt: false,
                    recovery: RecoveryStrategy::Migration,
                },
                ..RunConfig::default()
            },
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let total: usize = r.mem_bytes.iter().sum();
        assert!(
            total > previous,
            "memory should grow with tolerance: K={k} gave {total} <= {previous}"
        );
        previous = total;
    }
}

/// `mem_bytes` of the benchmark's `pr_ec` job (seed 3: 100k-vertex
/// power-law graph, four nodes, PageRank values) as the loader reports it
/// with an edge naming its other end once — a remote out-edge its consumer's
/// vertex, a master's in-edge its source's position, a mirror's in-edge its
/// source's vertex —, a mirror keeping its edge lists as the block they ship
/// as, a master its remote out-edges as the run they ship as, and a slot's
/// row one 8-byte span (33 899 256 / 45 015 698 B while a remote out-edge
/// named its consumer's node and its position there; 47 777 886 B at K = 1
/// while a mirror's in-edge also named its source's position on the
/// master's node;
/// 36 779 148 / 50 655 476 B while a master kept its remote out-edges
/// decoded, 8 B an edge; 39 179 308 / 55 410 948 B while a row was four spans;
/// 65 052 512 B at K = 1 while a mirror kept its lists decoded, 12 B an
/// in-edge; 46 181 000
/// / 75 055 712 B while a remote out-edge also kept its target vertex and a
/// master's slot the source of every in-edge; 51 555 672 / 84 943 936 B
/// while a slot kept its location tables as three
/// small-vectors, 112 B before a single edge; 60 455 448 / 93 966 720 B
/// while each copy owned two `Vec`s; 78 878 956 / 119 620 980 B
/// before full state moved into per-node columns and a master's owner-local
/// lists were kept once; 86 672 788 / 129 701 260 B before local graphs
/// were exact-size). The figure may only fall.
#[test]
fn pr_ec_graph_memory_stays_below_the_recorded_value() {
    use imitator_repro::algos::PageRank;
    use imitator_repro::engine::{build_edge_cut_graphs, FtPlan};
    use imitator_repro::metrics::MemSize;

    const RECORDED_BASE: usize = 33_202_399;
    const RECORDED_FT: usize = 43_617_380;
    let g = gen::power_law(100_000, 2.0, 10, 3);
    let cut = HashEdgeCut.partition(&g, 4);
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    let ft = compute_ft_plan(&degrees, &cut, 1, true, pr.selfish_compatible(), 0xF7);
    for (plan, recorded) in [
        (FtPlan::none(g.num_vertices()), RECORDED_BASE),
        (ft, RECORDED_FT),
    ] {
        let total: usize = build_edge_cut_graphs(&g, &cut, &plan, &pr, &degrees)
            .iter()
            .map(MemSize::mem_bytes)
            .sum();
        assert!(
            total <= recorded,
            "local graphs hold {total} B, more than the {recorded} B recorded"
        );
    }
}

#[test]
fn dfs_sees_checkpoints_and_edge_ckpt_files() {
    let g = gen::power_law(500, 2.0, 5, 13);
    let dfs = Dfs::new(DfsConfig::instant());
    let cut = HashEdgeCut.partition(&g, 3);
    run_edge_cut(
        &g,
        &cut,
        Arc::new(CountUp),
        RunConfig {
            num_nodes: 3,
            max_iters: 6,
            ft: FtMode::Checkpoint {
                interval: 2,
                incremental: false,
            },
            ..RunConfig::default()
        },
        vec![],
        dfs.clone(),
    );
    assert_eq!(
        dfs.list("ec/meta/").len(),
        3,
        "one metadata snapshot per node"
    );
    assert!(
        dfs.list("ec/ckpt/").len() >= 9,
        "three checkpoints x three nodes"
    );

    let vdfs = Dfs::new(DfsConfig::instant());
    let vcut = RandomVertexCut.partition(&g, 3);
    imitator_repro::ft::run_vertex_cut(
        &g,
        &vcut,
        Arc::new(CountUp),
        RunConfig {
            num_nodes: 3,
            max_iters: 4,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            ..RunConfig::default()
        },
        vec![],
        vdfs.clone(),
    );
    assert_eq!(
        vdfs.list("vc/eckpt/"),
        ["vc/eckpt/0", "vc/eckpt/1", "vc/eckpt/2"],
        "one edge-ckpt file per node, written at load"
    );
}
