//! Ablation: the §4.2 greedy balanced mirror placement vs a naive
//! first-replica policy — how evenly mirrors (the units of recovery work)
//! spread across machines.
//!
//! Recovery parallelism is bounded by the busiest node's mirror count
//! (§6.5), so the max/mean ratio is the figure of merit: 1.0 is perfectly
//! parallel recovery, higher means one machine serialises it.

use imitator::plan::compute_ft_plan;
use imitator_bench::{banner, BenchOpts};
use imitator_engine::Degrees;
use imitator_graph::gen::Dataset;
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};

fn main() {
    let opts = BenchOpts::from_env();
    banner(
        "abl_mirror_placement",
        "greedy balanced vs first-replica mirror choice",
        &opts,
    );
    println!(
        "{:<10} {:>14} {:>14}",
        "dataset", "greedy max/avg", "naive max/avg"
    );
    for d in Dataset::cyclops_suite() {
        let g = opts.cyclops_graph(d);
        let cut = HashEdgeCut.partition(&g, opts.nodes);
        let greedy = compute_ft_plan(&Degrees::of(&g), &cut, 1, true, true, opts.seed);
        let imbalance = |counts: &[usize]| {
            let max = counts.iter().copied().max().unwrap_or(0) as f64;
            let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            max / avg.max(1.0)
        };
        let mut greedy_counts = vec![0usize; opts.nodes];
        for v in g.vertices() {
            for m in greedy.mirrors(v) {
                greedy_counts[m.index()] += 1;
            }
        }
        // Naive policy: always the first (lowest-ID) replica location.
        let mut naive_counts = vec![0usize; opts.nodes];
        for v in g.vertices() {
            match cut.replica_parts(v).first() {
                Some(&p) => naive_counts[p as usize] += 1,
                None => naive_counts[(cut.owner(v) + 1) % opts.nodes] += 1,
            }
        }
        println!(
            "{:<10} {:>14.3} {:>14.3}",
            d.name(),
            imbalance(&greedy_counts),
            imbalance(&naive_counts)
        );
    }
    println!("(mirrors per machine; max/avg → 1.0 means recovery work is evenly spread)");
}
