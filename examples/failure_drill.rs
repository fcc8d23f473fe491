//! Failure drill: kill a machine mid-run and watch each fault-tolerance
//! strategy recover — the paper's §6.9 case study, on your laptop.
//!
//! Runs PageRank four times on the same graph and partitioning:
//! without fault tolerance (the baseline), then with a machine failure at
//! iteration 6 recovered by Rebirth, by Migration, and by checkpoint
//! rollback. Prints the per-strategy recovery breakdown and the iteration
//! timeline, and verifies every recovered run reproduced the baseline's
//! results exactly.
//!
//! ```sh
//! cargo run --release --example failure_drill
//! ```

use std::sync::Arc;

use imitator::{run_edge_cut, FtMode, RecoveryStrategy, RunConfig, RunReport};
use imitator_algos::{PageRank, RankValue};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_graph::gen;
use imitator_partition::{EdgeCut, EdgeCutPartitioner, HashEdgeCut};
use imitator_storage::{Dfs, DfsConfig};

const NODES: usize = 8;
const ITERS: u64 = 20;
const FAIL_AT: u64 = 6;

fn run(
    graph: &imitator_graph::Graph,
    cut: &EdgeCut,
    ft: FtMode,
    standbys: usize,
    inject: bool,
) -> RunReport<RankValue> {
    let failures = if inject {
        vec![FailurePlan {
            node: NodeId::new(2),
            iteration: FAIL_AT,
            point: FailPoint::BeforeBarrier,
        }]
    } else {
        Vec::new()
    };
    run_edge_cut(
        graph,
        cut,
        Arc::new(PageRank::new(0.85, 0.0)),
        RunConfig {
            num_nodes: NODES,
            max_iters: ITERS,
            ft,
            standbys,
            ..RunConfig::default()
        },
        failures,
        Dfs::new(DfsConfig::hdfs_like()),
    )
}

fn describe(name: &str, report: &RunReport<RankValue>, baseline: Option<&RunReport<RankValue>>) {
    println!("\n=== {name} ===");
    println!(
        "  finished {} iterations in {:.3}s",
        report.iterations,
        report.elapsed.as_secs_f64()
    );
    for r in &report.recoveries {
        println!(
            "  recovery ({}, {} node(s)): reload {:.1} ms, reconstruct {:.1} ms, replay {:.1} ms — total {:.1} ms, {} vertices / {} edges recovered",
            r.strategy,
            r.failed_nodes,
            r.reload.as_secs_f64() * 1e3,
            r.reconstruct.as_secs_f64() * 1e3,
            r.replay.as_secs_f64() * 1e3,
            r.total().as_secs_f64() * 1e3,
            r.vertices_recovered,
            r.edges_recovered
        );
    }
    if let Some(base) = baseline {
        let identical = report
            .values
            .iter()
            .zip(&base.values)
            .all(|(a, b)| a.rank.to_bits() == b.rank.to_bits());
        println!(
            "  results vs baseline: {}",
            if identical {
                "bit-identical ✓"
            } else {
                "DIVERGED ✗"
            }
        );
    }
    // Compact timeline: when did each iteration commit?
    let line: Vec<String> = report
        .timeline
        .iter()
        .map(|(i, t)| format!("{i}@{:.2}s", t.as_secs_f64()))
        .collect();
    println!("  timeline: {}", line.join(" "));
}

fn main() {
    let graph = gen::Dataset::LJournal.generate(0.01, 42);
    println!("graph: {}", graph.stats());
    let cut = HashEdgeCut.partition(&graph, NODES);

    let base = run(&graph, &cut, FtMode::None, 0, false);
    describe("BASE (no fault tolerance, no failure)", &base, None);

    let rep = |recovery| FtMode::Replication {
        tolerance: 1,
        selfish_opt: true,
        recovery,
    };

    let rebirth = run(&graph, &cut, rep(RecoveryStrategy::Rebirth), 1, true);
    describe(
        "REP/Rebirth (node 2 dies at iteration 6, standby takes over)",
        &rebirth,
        Some(&base),
    );

    let migration = run(&graph, &cut, rep(RecoveryStrategy::Migration), 0, true);
    describe(
        "REP/Migration (node 2 dies at iteration 6, survivors absorb it)",
        &migration,
        Some(&base),
    );

    let ckpt = run(
        &graph,
        &cut,
        FtMode::Checkpoint {
            interval: 4,
            incremental: false,
        },
        1,
        true,
    );
    describe(
        "CKPT/4 (snapshot every 4 iterations, rollback + replay)",
        &ckpt,
        Some(&base),
    );

    println!("\nsummary (recovery wall time):");
    for (name, r) in [
        ("rebirth", &rebirth),
        ("migration", &migration),
        ("ckpt/4", &ckpt),
    ] {
        let total: f64 = r.recoveries.iter().map(|x| x.total().as_secs_f64()).sum();
        println!("  {name:<10} {:.1} ms", total * 1e3);
    }
}
