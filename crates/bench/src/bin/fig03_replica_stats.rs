//! Fig. 3: (a) the fraction of vertices without replicas under the default
//! hash partitioning, split into selfish and normal vertices; (b) the
//! fraction of extra FT replicas needed once selfish vertices are excused.
//!
//! Paper shape: only GWeb and LJournal exceed 10% vertices without
//! replicas, almost all of them selfish; extra replicas stay under ~0.15%.

use imitator::plan::{compute_ft_plan, extra_replica_fraction};
use imitator_bench::{banner, BenchOpts};
use imitator_engine::Degrees;
use imitator_graph::gen::Dataset;
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "fig03",
        "vertices without replicas & extra FT replicas",
        &opts,
    );
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>12}",
        "dataset", "w/o-replica", "selfish", "normal", "extra-FT(b)"
    );
    for d in Dataset::cyclops_suite() {
        let g = opts.cyclops_graph(d);
        let cut = HashEdgeCut.partition(&g, opts.nodes);
        let stats = g.stats();
        let wo = cut.fraction_without_replicas();
        let selfish = stats.selfish_fraction().min(wo);
        let plan = compute_ft_plan(&Degrees::of(&g), &cut, 1, true, true, opts.seed);
        let extra_nonselfish = extra_replica_fraction(&plan);
        println!(
            "{:<10} {:>11.2}% {:>9.2}% {:>9.2}% {:>11.3}%",
            d.name(),
            100.0 * wo,
            100.0 * selfish,
            100.0 * (wo - selfish),
            100.0 * extra_nonselfish
        );
    }
}
