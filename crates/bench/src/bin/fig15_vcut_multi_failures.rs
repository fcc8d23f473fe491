//! Fig. 15: tolerating 1, 2 or 3 simultaneous failures on the vertex-cut
//! engine (PageRank, Twitter stand-in): (a) normal-execution overhead,
//! (b) recovery time of Rebirth and Migration.
//!
//! Paper shape: overhead ≤ 4.7% at K=3; Rebirth's recovery stays nearly
//! flat with the crash count (newbies reload edge-ckpt files in parallel)
//! while Migration's grows.

use imitator::{FtMode, RecoveryStrategy, RunConfig};
use imitator_bench::{banner, best_of, crash, hdfs, ms, ramfs, reps, run_vc, BenchOpts, Workload};
use imitator_graph::gen::Dataset;
use imitator_partition::{HybridVertexCut, VertexCutPartitioner};

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "fig15",
        "vertex-cut multiple failures (PageRank, Twitter)",
        &opts,
    );
    let g = opts.powerlyra_graph(Dataset::Twitter);
    let cut = HybridVertexCut::default().partition(&g, opts.nodes);
    let base = best_of(reps(), || {
        run_vc(
            Workload::PageRank,
            &g,
            &cut,
            RunConfig {
                num_nodes: opts.nodes,
                ft: FtMode::None,
                ..RunConfig::default()
            },
            vec![],
            ramfs(),
        )
    });
    println!(
        "{:<6} {:>10} {:>12} {:>12}",
        "K", "overhead", "REB(ms)", "MIG(ms)"
    );
    for k in 1usize..=3 {
        let ft = |recovery| FtMode::Replication {
            tolerance: k,
            selfish_opt: true,
            recovery,
        };
        let normal = best_of(reps(), || {
            run_vc(
                Workload::PageRank,
                &g,
                &cut,
                RunConfig {
                    num_nodes: opts.nodes,
                    ft: ft(RecoveryStrategy::Migration),
                    ..RunConfig::default()
                },
                vec![],
                // The overhead includes persisting the edge-ckpt files.
                hdfs(),
            )
        });
        let failures: Vec<_> = (0..k).map(|i| crash(i + 1, 6)).collect();
        let reb = run_vc(
            Workload::PageRank,
            &g,
            &cut,
            RunConfig {
                num_nodes: opts.nodes,
                ft: ft(RecoveryStrategy::Rebirth),
                standbys: k,
                ..RunConfig::default()
            },
            failures.clone(),
            hdfs(),
        );
        let mig = run_vc(
            Workload::PageRank,
            &g,
            &cut,
            RunConfig {
                num_nodes: opts.nodes,
                ft: ft(RecoveryStrategy::Migration),
                ..RunConfig::default()
            },
            failures,
            hdfs(),
        );
        println!(
            "{:<6} {:>9.1}% {:>12} {:>12}",
            k,
            normal.overhead_vs(&base),
            ms(reb.recovery_total()),
            ms(mig.recovery_total())
        );
    }
}
