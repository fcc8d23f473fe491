//! End-to-end tests of the vertex-cut (PowerLyra) distributed runner.

use std::sync::Arc;

use imitator::{run_vertex_cut, FtMode, RecoveryStrategy, RunConfig, TransportKind};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::{gen, Graph, Vid};
use imitator_partition::{
    GridVertexCut, HybridVertexCut, RandomVertexCut, VertexCut, VertexCutPartitioner,
};
use imitator_storage::{Dfs, DfsConfig};

/// Integer PageRank-like fixpoint: value = 1 + sum of in-neighbour values,
/// saturating — deterministic in any combine order thanks to saturating
/// integer addition, and it converges once every path saturates or the
/// iteration cap strikes.
struct SumCount;

impl VertexProgram for SumCount {
    type Value = u64;
    type Accum = u64;

    fn init(&self, _vid: Vid, _d: &Degrees) -> u64 {
        1
    }

    fn gather(&self, _w: f32, src: &u64) -> u64 {
        *src
    }

    fn combine(&self, a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }

    fn apply(&self, _v: Vid, _old: &u64, acc: Option<u64>, _d: &Degrees) -> u64 {
        1 + acc.unwrap_or(0).min(1 << 40)
    }

    fn scatter(&self, _v: Vid, old: &u64, new: &u64) -> bool {
        old != new
    }
}

/// Sequential dense reference of the same fixpoint.
fn sum_count_reference(g: &Graph, max_iters: usize) -> Vec<u64> {
    let mut vals = vec![1u64; g.num_vertices()];
    for _ in 0..max_iters {
        let mut acc = vec![0u64; g.num_vertices()];
        for e in g.edges() {
            acc[e.dst.index()] = acc[e.dst.index()].saturating_add(vals[e.src.index()]);
        }
        let next: Vec<u64> = acc.iter().map(|&a| 1 + a.min(1 << 40)).collect();
        if next == vals {
            break;
        }
        vals = next;
    }
    vals
}

fn cfg(nodes: usize, ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: nodes,
        max_iters: 12,
        ft,
        standbys,
        transport: TransportKind::Channel,
        ..RunConfig::default()
    }
}

fn fail(node: u32, iteration: u64, point: FailPoint) -> FailurePlan {
    FailurePlan {
        node: NodeId::new(node),
        iteration,
        point,
    }
}

fn run(
    g: &Graph,
    cut: &VertexCut,
    c: RunConfig,
    failures: Vec<FailurePlan>,
) -> imitator::RunReport<u64> {
    run_vertex_cut(
        g,
        cut,
        Arc::new(SumCount),
        c,
        failures,
        Dfs::new(DfsConfig::instant()),
    )
}

#[test]
fn no_ft_matches_reference_on_all_partitioners() {
    let g = gen::power_law(1_200, 2.0, 6, 51);
    let expected = sum_count_reference(&g, 12);
    for cut in [
        RandomVertexCut.partition(&g, 4),
        GridVertexCut.partition(&g, 4),
        HybridVertexCut::with_threshold(20).partition(&g, 4),
    ] {
        let report = run(&g, &cut, cfg(4, FtMode::None, 0), vec![]);
        assert_eq!(report.values, expected);
    }
}

#[test]
fn replication_without_failure_matches() {
    let g = gen::power_law(1_200, 2.0, 6, 53);
    let cut = HybridVertexCut::with_threshold(20).partition(&g, 4);
    let base = run(&g, &cut, cfg(4, FtMode::None, 0), vec![]);
    let rep = run(
        &g,
        &cut,
        cfg(
            4,
            FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Rebirth,
            },
            1,
        ),
        vec![],
    );
    assert_eq!(rep.values, base.values);
    assert!(rep.comm.messages >= base.comm.messages);
}

#[test]
fn rebirth_recovers_bit_identical_results() {
    let g = gen::power_law(1_500, 2.0, 6, 55);
    let cut = RandomVertexCut.partition(&g, 4);
    let clean = run(&g, &cut, cfg(4, FtMode::None, 0), vec![]);
    for (iteration, point) in [
        (0, FailPoint::BeforeBarrier),
        (3, FailPoint::BeforeBarrier),
        (2, FailPoint::AfterBarrier),
    ] {
        let rep = run(
            &g,
            &cut,
            cfg(
                4,
                FtMode::Replication {
                    tolerance: 1,
                    selfish_opt: false,
                    recovery: RecoveryStrategy::Rebirth,
                },
                1,
            ),
            vec![fail(2, iteration, point)],
        );
        assert_eq!(
            rep.values, clean.values,
            "vc rebirth at iter {iteration} {point:?} diverged"
        );
        assert_eq!(rep.recoveries.len(), 1);
        assert!(
            rep.recoveries[0].edges_recovered > 0,
            "edges reloaded from edge-ckpt"
        );
    }
}

#[test]
fn migration_recovers_bit_identical_results() {
    let g = gen::power_law(1_500, 2.0, 6, 57);
    let cut = HybridVertexCut::with_threshold(20).partition(&g, 4);
    let clean = run(&g, &cut, cfg(4, FtMode::None, 0), vec![]);
    for (iteration, point) in [
        (0, FailPoint::BeforeBarrier),
        (3, FailPoint::BeforeBarrier),
        (2, FailPoint::AfterBarrier),
    ] {
        let rep = run(
            &g,
            &cut,
            cfg(
                4,
                FtMode::Replication {
                    tolerance: 1,
                    selfish_opt: false,
                    recovery: RecoveryStrategy::Migration,
                },
                0,
            ),
            vec![fail(1, iteration, point)],
        );
        assert_eq!(
            rep.values, clean.values,
            "vc migration at iter {iteration} {point:?} diverged"
        );
        assert_eq!(rep.recoveries[0].strategy, "migration");
    }
}

#[test]
fn checkpoint_recovers_matching_results() {
    let g = gen::power_law(1_000, 2.0, 6, 59);
    let cut = RandomVertexCut.partition(&g, 4);
    let clean = run(&g, &cut, cfg(4, FtMode::None, 0), vec![]);
    for iteration in [1, 4] {
        let rep = run(
            &g,
            &cut,
            cfg(
                4,
                FtMode::Checkpoint {
                    interval: 2,
                    incremental: false,
                },
                1,
            ),
            vec![fail(3, iteration, FailPoint::BeforeBarrier)],
        );
        assert_eq!(
            rep.values, clean.values,
            "vc checkpoint at iter {iteration}"
        );
        assert_eq!(rep.recoveries[0].strategy, "checkpoint");
    }
}

#[test]
fn multi_failure_migration_with_two_mirrors() {
    let g = gen::power_law(1_200, 2.0, 6, 61);
    let cut = RandomVertexCut.partition(&g, 5);
    let clean = run(&g, &cut, cfg(5, FtMode::None, 0), vec![]);
    let rep = run(
        &g,
        &cut,
        cfg(
            5,
            FtMode::Replication {
                tolerance: 2,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            0,
        ),
        vec![
            fail(0, 2, FailPoint::BeforeBarrier),
            fail(3, 2, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
    assert_eq!(rep.recoveries[0].failed_nodes, 2);
}

#[test]
fn multi_failure_rebirth_with_two_mirrors() {
    let g = gen::power_law(1_200, 2.0, 6, 63);
    let cut = RandomVertexCut.partition(&g, 5);
    let clean = run(&g, &cut, cfg(5, FtMode::None, 0), vec![]);
    let rep = run(
        &g,
        &cut,
        cfg(
            5,
            FtMode::Replication {
                tolerance: 2,
                selfish_opt: false,
                recovery: RecoveryStrategy::Rebirth,
            },
            2,
        ),
        vec![
            fail(1, 2, FailPoint::BeforeBarrier),
            fail(4, 2, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
}

#[test]
fn sequential_failures_migration_vc() {
    let g = gen::power_law(1_200, 2.0, 6, 65);
    let cut = RandomVertexCut.partition(&g, 5);
    let clean = run(&g, &cut, cfg(5, FtMode::None, 0), vec![]);
    let rep = run(
        &g,
        &cut,
        cfg(
            5,
            FtMode::Replication {
                tolerance: 2,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            0,
        ),
        vec![
            fail(2, 1, FailPoint::BeforeBarrier),
            fail(0, 4, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
    assert_eq!(rep.recoveries.len(), 2);
}

#[test]
fn incremental_checkpoint_recovers_matching_results_vc() {
    let g = gen::power_law(1_000, 2.0, 6, 71);
    let cut = RandomVertexCut.partition(&g, 4);
    let clean = run(&g, &cut, cfg(4, FtMode::None, 0), vec![]);
    for iteration in [1, 4] {
        let rep = run(
            &g,
            &cut,
            cfg(
                4,
                FtMode::Checkpoint {
                    interval: 2,
                    incremental: true,
                },
                1,
            ),
            vec![fail(3, iteration, FailPoint::BeforeBarrier)],
        );
        assert_eq!(
            rep.values, clean.values,
            "vc incremental checkpoint at iter {iteration}"
        );
    }
}
