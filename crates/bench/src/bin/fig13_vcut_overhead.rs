//! Fig. 13: runtime overhead of replication (REP) vs checkpoint (CKPT)
//! fault tolerance on the vertex-cut engine (PowerLyra), for PageRank over
//! the real-world stand-ins and the α-parameterised power-law family.
//!
//! Paper shape: REP ≤ 3.3% everywhere; CKPT 135-531%.

use imitator::{FtMode, RecoveryStrategy, RunConfig};
use imitator_bench::{
    alpha_family, banner, best_of, hdfs, ramfs, reps, run_vc, secs, BenchOpts, Workload,
};
use imitator_graph::gen::Dataset;
use imitator_partition::{HybridVertexCut, VertexCutPartitioner};

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "fig13",
        "runtime overhead: BASE vs REP vs CKPT (PowerLyra)",
        &opts,
    );
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "graph", "BASE(s)", "REP(s)", "REP ovh", "CKPT(s)", "CKPT ovh"
    );
    let mut rows: Vec<(String, imitator_graph::Graph)> = Dataset::powerlyra_suite()
        .into_iter()
        .map(|d| (d.name().to_owned(), opts.powerlyra_graph(d)))
        .collect();
    for (alpha, g) in alpha_family(&opts) {
        rows.push((format!("α={alpha}"), g));
    }
    for (name, g) in rows {
        let cut = HybridVertexCut::default().partition(&g, opts.nodes);
        let cfg = |ft| RunConfig {
            num_nodes: opts.nodes,
            ft,
            ..RunConfig::default()
        };
        let n = reps();
        let base = best_of(n, || {
            run_vc(
                Workload::PageRank,
                &g,
                &cut,
                cfg(FtMode::None),
                vec![],
                ramfs(),
            )
        });
        let rep = best_of(n, || {
            run_vc(
                Workload::PageRank,
                &g,
                &cut,
                cfg(FtMode::Replication {
                    tolerance: 1,
                    selfish_opt: true,
                    recovery: RecoveryStrategy::Migration,
                }),
                vec![],
                // REP's edge-ckpt files go to the same DFS CKPT's snapshots
                // do: written behind the first supersteps, they cost the
                // run what it still waits for when it ends.
                hdfs(),
            )
        });
        let ckpt = best_of(n, || {
            run_vc(
                Workload::PageRank,
                &g,
                &cut,
                cfg(FtMode::Checkpoint {
                    interval: 1,
                    incremental: false,
                }),
                vec![],
                hdfs(),
            )
        });
        println!(
            "{:<10} {:>9} {:>9} {:>7.1}% {:>9} {:>7.0}%",
            name,
            secs(base.elapsed),
            secs(rep.elapsed),
            rep.overhead_vs(&base),
            secs(ckpt.elapsed),
            ckpt.overhead_vs(&base)
        );
    }
}
