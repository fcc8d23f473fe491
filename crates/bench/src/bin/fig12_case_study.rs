//! Fig. 12: the §6.9 case study — PageRank/LJournal, 20 iterations, one
//! machine failure between iterations 6 and 7, under every strategy.
//! Prints the committed-iteration timeline series the figure plots.
//!
//! Paper shape: BASE/REP/CKPT without failure run at three distinct slopes;
//! with a failure, Rebirth resumes at full speed after a short gap,
//! Migration after a similar gap but slightly slower afterwards (fewer
//! machines), CKPT pays a long rollback-and-replay detour.

use imitator::{FtMode, RecoveryStrategy, RunConfig};
use imitator_bench::{banner, crash, hdfs, ramfs, run_ec, BenchOpts, Summary, Workload};
use imitator_graph::gen::Dataset;
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};
use std::time::Duration;

fn series(name: &str, s: &Summary) {
    print!("{name:<18}");
    for (iter, t) in &s.timeline {
        print!(" {iter}:{:.2}", t.as_secs_f64());
    }
    println!();
    if let Some(r) = s.recoveries.first() {
        println!(
            "{:<18} recovery {:.2}s ({})",
            "",
            r.total().as_secs_f64(),
            r.strategy
        );
    }
}

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "fig12",
        "case study: execution timelines with one failure at iter 6",
        &opts,
    );
    let g = opts.cyclops_graph(Dataset::LJournal);
    let cut = HashEdgeCut.partition(&g, opts.nodes);
    let run = |ft, standbys, inject: bool, dfs: imitator_storage::Dfs| {
        run_ec(
            Workload::PageRank,
            &g,
            &cut,
            RunConfig {
                num_nodes: opts.nodes,
                ft,
                standbys,
                hb_timeout: Duration::from_millis(50),
                ..RunConfig::default()
            },
            if inject { vec![crash(2, 6)] } else { vec![] },
            dfs,
        )
    };
    let rep = |r| FtMode::Replication {
        tolerance: 1,
        selfish_opt: true,
        recovery: r,
    };
    println!("series format: iteration:wall-clock-seconds");
    series("BASE", &run(FtMode::None, 0, false, ramfs()));
    series(
        "REP",
        &run(rep(RecoveryStrategy::Rebirth), 1, false, ramfs()),
    );
    series(
        "CKPT/4",
        &run(
            FtMode::Checkpoint {
                interval: 4,
                incremental: false,
            },
            1,
            false,
            hdfs(),
        ),
    );
    series(
        "REP+REBIRTH",
        &run(rep(RecoveryStrategy::Rebirth), 1, true, ramfs()),
    );
    series(
        "REP+MIGRATION",
        &run(rep(RecoveryStrategy::Migration), 0, true, ramfs()),
    );
    series(
        "CKPT/4+FAIL",
        &run(
            FtMode::Checkpoint {
                interval: 4,
                incremental: false,
            },
            1,
            true,
            hdfs(),
        ),
    );
}
