//! Criterion micro-benchmarks: value-list codec throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use imitator_storage::codec::{decode, Encode};

fn bench_codec(c: &mut Criterion) {
    let values: Vec<(u32, f64)> = (0..100_000u32).map(|i| (i, f64::from(i) * 0.5)).collect();
    let bytes = values.to_bytes();
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_100k_pairs", |b| b.iter(|| values.to_bytes()));
    group.bench_function("decode_100k_pairs", |b| {
        b.iter(|| decode::<Vec<(u32, f64)>>(&bytes).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
