//! Criterion micro-benchmark: per-superstep fan-out cost — spawning fresh
//! scoped threads every phase (the pre-pool driver) vs running the jobs on
//! the persistent worker pool the driver keeps parked between supersteps
//! (`WorkerPool::run`, the pool's one entry point, as the compute kernels
//! call it). The work per job is deliberately small so the numbers isolate
//! spawn/wake/park latency rather than compute throughput.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imitator_engine::WorkerPool;

fn bench_dispatch(c: &mut Criterion) {
    let data: Arc<Vec<u64>> = Arc::new((0..64_000u64).collect());
    let mut group = c.benchmark_group("superstep_fanout");
    for threads in [2usize, 4, 8] {
        let chunk = data.len() / threads;
        group.bench_function(BenchmarkId::new("scoped_spawn", threads), |b| {
            b.iter(|| {
                let mut outs = vec![0u64; threads];
                std::thread::scope(|s| {
                    for (i, out) in outs.iter_mut().enumerate() {
                        let d = &data;
                        s.spawn(move || {
                            *out = d[i * chunk..(i + 1) * chunk].iter().sum();
                        });
                    }
                });
                outs.iter().sum::<u64>()
            })
        });
        group.bench_function(BenchmarkId::new("pool_dispatch", threads), |b| {
            let pool = WorkerPool::new(threads);
            b.iter(|| {
                let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..threads)
                    .map(|i| {
                        let d = Arc::clone(&data);
                        Box::new(move || d[i * chunk..(i + 1) * chunk].iter().sum::<u64>())
                            as Box<dyn FnOnce() -> u64 + Send>
                    })
                    .collect();
                pool.run(jobs).into_iter().sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
