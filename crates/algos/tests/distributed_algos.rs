//! The paper's four workloads, end-to-end on the distributed engines:
//! distributed results must match sequential references, and recovery from
//! injected failures must not change them.

use std::sync::Arc;

use imitator::{run_edge_cut, run_vertex_cut, FtMode, RecoveryStrategy, RunConfig};
use imitator_algos::{Als, AlsValue, CommunityDetection, PageRank, Sssp};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_graph::{gen, Vid};
use imitator_partition::{
    EdgeCutPartitioner, HashEdgeCut, HybridVertexCut, RandomVertexCut, VertexCutPartitioner,
};
use imitator_storage::{Dfs, DfsConfig};

fn cfg(nodes: usize, max_iters: u64, ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: nodes,
        max_iters,
        ft,
        standbys,
        ..RunConfig::default()
    }
}

fn rep(recovery: RecoveryStrategy) -> FtMode {
    FtMode::Replication {
        tolerance: 1,
        selfish_opt: false,
        recovery,
    }
}

fn fail(node: u32, iteration: u64) -> FailurePlan {
    FailurePlan {
        node: NodeId::new(node),
        iteration,
        point: FailPoint::BeforeBarrier,
    }
}

#[test]
fn pagerank_edge_cut_matches_reference() {
    let g = gen::power_law(2_000, 2.0, 8, 71);
    let cut = HashEdgeCut.partition(&g, 4);
    let report = run_edge_cut(
        &g,
        &cut,
        Arc::new(PageRank::new(0.85, 0.0)),
        cfg(4, 20, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    let expected = imitator_algos::pagerank_reference(&g, 0.85, 20);
    for (v, (got, want)) in report.values.iter().zip(&expected).enumerate() {
        assert!(
            (got.rank - want).abs() < 1e-9,
            "v{v}: {} vs {want}",
            got.rank
        );
    }
}

#[test]
fn pagerank_vertex_cut_matches_reference() {
    let g = gen::power_law(1_500, 2.0, 8, 73);
    let cut = HybridVertexCut::with_threshold(30).partition(&g, 4);
    let report = run_vertex_cut(
        &g,
        &cut,
        Arc::new(PageRank::new(0.85, 0.0)),
        cfg(4, 20, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    let expected = imitator_algos::pagerank_reference(&g, 0.85, 20);
    for (got, want) in report.values.iter().zip(&expected) {
        assert!((got.rank - want).abs() < 1e-7, "{} vs {want}", got.rank);
    }
}

#[test]
fn pagerank_recovery_is_bit_identical_on_both_engines() {
    let g = gen::power_law(1_500, 2.0, 8, 75);
    let ecut = HashEdgeCut.partition(&g, 4);
    let prog = Arc::new(PageRank::new(0.85, 0.0));
    let dfs = || Dfs::new(DfsConfig::instant());

    let clean = run_edge_cut(
        &g,
        &ecut,
        Arc::clone(&prog),
        cfg(4, 15, FtMode::None, 0),
        vec![],
        dfs(),
    );
    let ckpt = FtMode::Checkpoint {
        interval: 4,
        incremental: false,
    };
    let k2 = |recovery| FtMode::Replication {
        tolerance: 2,
        selfish_opt: false,
        recovery,
    };
    // Two crashes in one episode rebuild each node from two survivors'
    // batches; with no standby a checkpoint recovery rebuilds the slot on a
    // thread a survivor hosts.
    let (one, two) = (|| vec![fail(2, 6)], || vec![fail(1, 6), fail(2, 6)]);
    for (mode, standbys, failures, strategy) in [
        (rep(RecoveryStrategy::Rebirth), 1, one(), "rebirth"),
        (rep(RecoveryStrategy::Migration), 0, one(), "migration"),
        (ckpt, 1, one(), "checkpoint"),
        (k2(RecoveryStrategy::Rebirth), 2, two(), "rebirth"),
        (k2(RecoveryStrategy::Migration), 0, two(), "migration"),
        (ckpt, 0, one(), "checkpoint→hosted"),
    ] {
        let r = run_edge_cut(
            &g,
            &ecut,
            Arc::clone(&prog),
            cfg(4, 15, mode, standbys),
            failures,
            dfs(),
        );
        let episodes: Vec<_> = r.recoveries.iter().map(|ep| ep.strategy).collect();
        assert_eq!(episodes, [strategy], "{mode:?}");
        for (got, want) in r.values.iter().zip(&clean.values) {
            assert_eq!(got.rank.to_bits(), want.rank.to_bits(), "{mode:?} diverged");
        }
    }

    let vcut = HybridVertexCut::with_threshold(30).partition(&g, 4);
    let clean_vc = run_vertex_cut(
        &g,
        &vcut,
        Arc::clone(&prog),
        cfg(4, 15, FtMode::None, 0),
        vec![],
        dfs(),
    );
    // (mode, standbys, whether it keeps every edge where it was loaded).
    for (mode, standbys, exact) in [
        (rep(RecoveryStrategy::Rebirth), 1, true),
        (rep(RecoveryStrategy::Migration), 0, false),
        (ckpt, 0, true),
    ] {
        let r = run_vertex_cut(
            &g,
            &vcut,
            Arc::clone(&prog),
            cfg(4, 15, mode, standbys),
            vec![fail(2, 6)],
            dfs(),
        );
        for (got, want) in r.values.iter().zip(&clean_vc.values) {
            // Migration regroups edges across nodes, so gather sums
            // reassociate: equality holds up to f64 rounding.
            assert!(
                got.rank.to_bits() == want.rank.to_bits()
                    || (!exact && (got.rank - want.rank).abs() <= 1e-12 * want.rank.abs()),
                "vc {mode:?} diverged: {} vs {}",
                got.rank,
                want.rank
            );
        }
    }
}

#[test]
fn sssp_matches_bellman_ford_and_survives_failures() {
    let g = gen::road_like(2_500, 7);
    let source = Vid::new(0);
    let expected = imitator_algos::sssp_reference(&g, source);
    let cut = HashEdgeCut.partition(&g, 4);
    let prog = Arc::new(Sssp::from_source(source));

    let clean = run_edge_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg(4, 500, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(clean.values, expected);

    // SSSP exercises activation replay harder than anything else: inject
    // mid-front failures for both strategies.
    for (mode, standbys) in [
        (rep(RecoveryStrategy::Rebirth), 1),
        (rep(RecoveryStrategy::Migration), 0),
    ] {
        let r = run_edge_cut(
            &g,
            &cut,
            Arc::clone(&prog),
            cfg(4, 500, mode, standbys),
            vec![fail(1, 10)],
            Dfs::new(DfsConfig::instant()),
        );
        assert_eq!(r.values, expected, "{mode:?} diverged");
    }
}

#[test]
fn cd_matches_reference_and_survives_failures() {
    let g = gen::community_like(1_500, 14, 81);
    let cut = HashEdgeCut.partition(&g, 4);
    let prog = Arc::new(CommunityDetection);
    let clean = run_edge_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg(4, 30, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(clean.values, imitator_algos::cd_reference(&g, 30));

    let r = run_edge_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg(4, 30, rep(RecoveryStrategy::Migration), 0),
        vec![fail(3, 2)],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(r.values, clean.values);
}

#[test]
fn als_converges_and_survives_failures() {
    let g = gen::bipartite_ratings(150, 6, 83);
    let cut = HashEdgeCut.partition(&g, 4);
    let als = Als::for_bipartite(4, 0.1, 1e-4, 150);
    let prog = Arc::new(als);
    let clean = run_edge_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg(4, 10, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    let init_factors: Vec<AlsValue> = {
        use imitator_engine::VertexProgram;
        let d = imitator_engine::Degrees::of(&g);
        g.vertices().map(|v| als.init(v, &d)).collect()
    };
    let rmse_before = imitator_algos::als_rmse(&g, &init_factors);
    let rmse_after = imitator_algos::als_rmse(&g, &clean.values);
    assert!(
        rmse_after < rmse_before * 0.7,
        "distributed ALS failed to fit: {rmse_before} -> {rmse_after}"
    );

    let r = run_edge_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg(4, 10, rep(RecoveryStrategy::Rebirth), 1),
        vec![fail(0, 4)],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(r.values, clean.values);
}

#[test]
fn sssp_and_cd_run_on_the_vertex_cut_engine() {
    // The paper's vertex-cut evaluation only uses PageRank; the engine is
    // nevertheless general — the dense schedule converges for monotone and
    // label workloads too.
    let g = gen::road_like(1_200, 19);
    let cut = RandomVertexCut.partition(&g, 4);
    let sssp = run_vertex_cut(
        &g,
        &cut,
        Arc::new(Sssp::from_source(Vid::new(0))),
        cfg(4, 2_000, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(sssp.values, imitator_algos::sssp_reference(&g, Vid::new(0)));

    let gc = gen::community_like(800, 12, 21);
    let ccut = RandomVertexCut.partition(&gc, 4);
    let cd = run_vertex_cut(
        &gc,
        &ccut,
        Arc::new(CommunityDetection),
        cfg(4, 30, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(cd.values, imitator_algos::cd_reference(&gc, 30));
}

#[test]
fn als_runs_on_the_vertex_cut_engine_with_failure() {
    let g = gen::bipartite_ratings(120, 6, 23);
    let cut = RandomVertexCut.partition(&g, 4);
    let prog = Arc::new(Als::for_bipartite(4, 0.1, 1e-4, 120));
    let clean = run_vertex_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg(4, 10, FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    let rep = run_vertex_cut(
        &g,
        &cut,
        prog,
        cfg(4, 10, rep(RecoveryStrategy::Rebirth), 1),
        vec![fail(2, 4)],
        Dfs::new(DfsConfig::instant()),
    );
    // Rebirth reproduces the edge fold order exactly (per-target edge-ckpt
    // files), so even f32 results are bit-identical.
    assert_eq!(rep.values, clean.values);
}
