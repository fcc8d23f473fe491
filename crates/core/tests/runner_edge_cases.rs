//! Edge cases of the distributed runners beyond the main drills: delayed
//! failure detection, failures at the first and the very last iteration,
//! single-node clusters, zero-iteration runs, and convergence racing a
//! scheduled crash.

use std::sync::Arc;
use std::time::Duration;

use imitator::{run_edge_cut, FtMode, RecoveryStrategy, RunConfig, RunReport};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::{gen, Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};
use imitator_storage::{Dfs, DfsConfig};

struct MinLabel;

impl VertexProgram for MinLabel {
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

fn run(g: &Graph, nodes: usize, cfg: RunConfig, failures: Vec<FailurePlan>) -> RunReport<u32> {
    let cut = HashEdgeCut.partition(g, nodes);
    run_edge_cut(
        g,
        &cut,
        Arc::new(MinLabel),
        cfg,
        failures,
        Dfs::new(DfsConfig::instant()),
    )
}

fn rep(recovery: RecoveryStrategy, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: 4,
        max_iters: 50,
        ft: FtMode::Replication {
            tolerance: 1,
            selfish_opt: false,
            recovery,
        },
        standbys,
        ..RunConfig::default()
    }
}

#[test]
fn single_node_cluster_runs() {
    let g = gen::power_law(300, 2.0, 5, 3);
    let r = run(
        &g,
        1,
        RunConfig {
            num_nodes: 1,
            max_iters: 50,
            ft: FtMode::None,
            ..RunConfig::default()
        },
        vec![],
    );
    assert!(r.iterations > 0);
}

#[test]
fn zero_iteration_budget_returns_initial_values() {
    let g = gen::power_law(200, 2.0, 5, 5);
    let r = run(
        &g,
        3,
        RunConfig {
            num_nodes: 3,
            max_iters: 0,
            ft: FtMode::None,
            ..RunConfig::default()
        },
        vec![],
    );
    assert_eq!(r.iterations, 0);
    let expected: Vec<u32> = (0..200).collect();
    assert_eq!(r.values, expected);
}

#[test]
fn slow_heartbeat_detection_still_recovers_identically() {
    let g = gen::power_law(800, 2.0, 6, 7);
    let clean = run(
        &g,
        4,
        RunConfig {
            num_nodes: 4,
            max_iters: 50,
            ft: FtMode::None,
            ..RunConfig::default()
        },
        vec![],
    );
    for recovery in [RecoveryStrategy::Rebirth, RecoveryStrategy::Migration] {
        let standbys = usize::from(recovery == RecoveryStrategy::Rebirth);
        let mut cfg = rep(recovery, standbys);
        cfg.hb_interval = Duration::from_millis(20);
        cfg.hb_timeout = Duration::from_millis(120);
        let r = run(
            &g,
            4,
            cfg,
            vec![FailurePlan {
                node: NodeId::new(2),
                iteration: 1,
                point: FailPoint::BeforeBarrier,
            }],
        );
        assert_eq!(r.values, clean.values, "{recovery:?} with slow detection");
        assert_eq!(r.recoveries.len(), 1);
    }
}

#[test]
fn failure_scheduled_after_convergence_never_fires() {
    let g = gen::from_pairs(40, &[(0, 1), (1, 2)]); // converges in ~3 iterations
    let r = run(
        &g,
        3,
        RunConfig {
            num_nodes: 3,
            max_iters: 50,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            ..RunConfig::default()
        },
        vec![FailurePlan {
            node: NodeId::new(1),
            iteration: 40,
            point: FailPoint::BeforeBarrier,
        }],
    );
    assert!(r.recoveries.is_empty());
    let expected: Vec<u32> = {
        let mut v: Vec<u32> = (0..40).collect();
        v[1] = 0;
        v[2] = 0;
        v
    };
    assert_eq!(r.values, expected);
}

#[test]
fn back_to_back_failures_on_consecutive_iterations() {
    let g = gen::power_law(900, 2.0, 6, 9);
    let clean = run(
        &g,
        5,
        RunConfig {
            num_nodes: 5,
            max_iters: 50,
            ft: FtMode::None,
            ..RunConfig::default()
        },
        vec![],
    );
    let r = run(
        &g,
        5,
        RunConfig {
            num_nodes: 5,
            max_iters: 50,
            ft: FtMode::Replication {
                tolerance: 2,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            ..RunConfig::default()
        },
        vec![
            FailurePlan {
                node: NodeId::new(1),
                iteration: 1,
                point: FailPoint::BeforeBarrier,
            },
            FailurePlan {
                node: NodeId::new(2),
                iteration: 2,
                point: FailPoint::BeforeBarrier,
            },
        ],
    );
    assert_eq!(r.values, clean.values);
    assert_eq!(r.recoveries.len(), 2);
}

#[test]
fn rebirth_then_same_node_dies_again() {
    // The standby that adopted node 2's identity dies too; a second standby
    // must take over.
    let g = gen::power_law(900, 2.0, 6, 11);
    let clean = run(
        &g,
        4,
        RunConfig {
            num_nodes: 4,
            max_iters: 50,
            ft: FtMode::None,
            ..RunConfig::default()
        },
        vec![],
    );
    let r = run(
        &g,
        4,
        rep(RecoveryStrategy::Rebirth, 2),
        vec![
            FailurePlan {
                node: NodeId::new(2),
                iteration: 1,
                point: FailPoint::BeforeBarrier,
            },
            FailurePlan {
                node: NodeId::new(2),
                iteration: 4,
                point: FailPoint::BeforeBarrier,
            },
        ],
    );
    assert_eq!(r.values, clean.values);
    assert_eq!(r.recoveries.len(), 2);
}
