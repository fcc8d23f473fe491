//! Table 3: per-node memory consumption of the edge-cut engine without
//! fault tolerance and when tolerating 1, 2 or 3 failures (PageRank, Wiki).
//!
//! Paper shape: FT/1 costs ~30% more resident graph state (mirror full
//! state dominates under edge-cut because edges are replicated into it);
//! each additional mirror adds less.

use imitator::{FtMode, RecoveryStrategy, RunConfig};
use imitator_bench::{banner, ramfs, run_ec, BenchOpts, Workload};
use imitator_graph::gen::Dataset;
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "tab03",
        "per-node memory vs fault-tolerance level (PageRank, Wiki)",
        &opts,
    );
    let g = opts.cyclops_graph(Dataset::Wiki);
    let cut = HashEdgeCut.partition(&g, opts.nodes);
    // What a level adds is printed in MiB beside the percentage: a change
    // that takes the same bytes off every row lowers the base the percentage
    // is taken of, and raises it while every row falls.
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>9}",
        "config", "max node (MiB)", "total (MiB)", "over base", "vs base"
    );
    let mut base_total = 0usize;
    for k in 0usize..=3 {
        let ft = if k == 0 {
            FtMode::None
        } else {
            FtMode::Replication {
                tolerance: k,
                selfish_opt: true,
                recovery: RecoveryStrategy::Migration,
            }
        };
        let s = run_ec(
            Workload::PageRank,
            &g,
            &cut,
            RunConfig {
                num_nodes: opts.nodes,
                max_iters: 1,
                ft,
                ..RunConfig::default()
            },
            vec![],
            ramfs(),
        );
        let total: usize = s.mem_bytes.iter().sum();
        let max = s.mem_bytes.iter().copied().max().unwrap_or(0);
        if k == 0 {
            base_total = total;
        }
        let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
        println!(
            "{:<8} {:>14.1} {:>14.1} {:>+8.1} MiB {:>8.1}%",
            if k == 0 {
                "w/o FT".to_owned()
            } else {
                format!("FT/{k}")
            },
            mib(max),
            mib(total),
            mib(total) - mib(base_total),
            100.0 * (total as f64 / base_total as f64 - 1.0)
        );
    }
}
