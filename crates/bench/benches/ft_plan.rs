//! Criterion micro-benchmark: fault-tolerance placement (§4) throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imitator::plan::compute_ft_plan;
use imitator_engine::Degrees;
use imitator_graph::gen;
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};

fn bench_plan(c: &mut Criterion) {
    let g = gen::power_law_selfish(50_000, 2.0, 8, 0.15, 11);
    let degrees = Degrees::of(&g);
    let cut = HashEdgeCut.partition(&g, 16);
    let mut group = c.benchmark_group("compute_ft_plan");
    for k in [1usize, 3] {
        group.bench_function(BenchmarkId::new("tolerance", k), |b| {
            b.iter(|| compute_ft_plan(&degrees, &cut, k, true, true, 42))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan);
criterion_main!(benches);
