//! Table 7: total cluster memory per partitioner when tolerating 0-3
//! failures (PageRank, Twitter stand-in, vertex-cut).
//!
//! Paper shape: vertex-cut FT memory overhead is tiny (≤1.87% at K=3 even
//! for hybrid) because mirrors carry no edges — edges dominate memory and
//! sit in edge-ckpt files instead.

use imitator::{FtMode, RecoveryStrategy, RunConfig};
use imitator_bench::{banner, ramfs, run_vc, BenchOpts, Workload};
use imitator_graph::gen::Dataset;
use imitator_partition::{
    GridVertexCut, HybridVertexCut, RandomVertexCut, VertexCut, VertexCutPartitioner,
};

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "tab07",
        "vertex-cut total memory per partitioner and FT level",
        &opts,
    );
    let g = opts.powerlyra_graph(Dataset::Twitter);
    let theta = (2.0 * g.stats().avg_degree) as usize;
    let cuts: [(&str, VertexCut); 3] = [
        ("random", RandomVertexCut.partition(&g, opts.nodes)),
        ("grid", GridVertexCut.partition(&g, opts.nodes)),
        (
            "hybrid",
            HybridVertexCut::with_threshold(theta).partition(&g, opts.nodes),
        ),
    ];
    println!(
        "{:<8} {:<7} {:>12} {:>12} {:>9}",
        "cut", "config", "total (MiB)", "over base", "vs base"
    );
    for (name, cut) in &cuts {
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
            let s = run_vc(
                Workload::PageRank,
                &g,
                cut,
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
            if k == 0 {
                base_total = total;
            }
            // What the level adds in MiB first: the percentage moves with
            // the base, which is not what a mirror costs (see tab03).
            let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
            println!(
                "{:<8} {:<7} {:>12.1} {:>+8.1} MiB {:>8.2}%",
                name,
                if k == 0 {
                    "w/o FT".to_owned()
                } else {
                    format!("FT/{k}")
                },
                mib(total),
                mib(total - base_total),
                100.0 * (total as f64 / base_total as f64 - 1.0)
            );
        }
    }
}
