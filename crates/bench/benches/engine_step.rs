//! Criterion micro-benchmarks: one engine superstep's compute work per
//! algorithm (single-node slices of the distributed iteration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use imitator_algos::{CommunityDetection, PageRank, Sssp};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, ec_compute, ec_compute_scan, vc_partial_gather,
    Degrees, FtPlan, VertexProgram,
};
use imitator_graph::{gen, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};

fn bench_ec_compute(c: &mut Criterion) {
    let g = gen::power_law(20_000, 2.0, 10, 3);
    let cut = HashEdgeCut.partition(&g, 4);
    let plan = FtPlan::none(g.num_vertices());
    let degrees = Degrees::of(&g);
    let mut group = c.benchmark_group("ec_compute");

    let pr = PageRank::new(0.85, 0.0);
    let lgs = build_edge_cut_graphs(&g, &cut, &plan, &pr, &degrees);
    group.bench_function(BenchmarkId::new("step", "pagerank"), |b| {
        b.iter(|| ec_compute(&lgs[0], &pr, &degrees, 0))
    });

    let cd = CommunityDetection;
    let lgs = build_edge_cut_graphs(&g, &cut, &plan, &cd, &degrees);
    group.bench_function(BenchmarkId::new("step", "cd"), |b| {
        b.iter(|| ec_compute(&lgs[0], &cd, &degrees, 0))
    });

    let sssp = Sssp::from_source(Vid::new(0));
    let lgs = build_edge_cut_graphs(&g, &cut, &plan, &sssp, &degrees);
    group.bench_function(BenchmarkId::new("step", "sssp-dense"), |b| {
        b.iter(|| ec_compute(&lgs[0], &sssp, &degrees, 0))
    });
    group.finish();
}

/// Sparse frontier vs the historical full scan on the same dense PageRank
/// superstep.
fn bench_ec_variants(c: &mut Criterion) {
    let g = gen::power_law(20_000, 2.0, 10, 3);
    let cut = HashEdgeCut.partition(&g, 4);
    let plan = FtPlan::none(g.num_vertices());
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    let lgs = build_edge_cut_graphs(&g, &cut, &plan, &pr, &degrees);
    let mut group = c.benchmark_group("ec_compute_variants");
    group.bench_function(BenchmarkId::new("pagerank", "scan"), |b| {
        b.iter(|| ec_compute_scan(&lgs[0], &pr, &degrees, 0))
    });
    group.bench_function(BenchmarkId::new("pagerank", "frontier"), |b| {
        b.iter(|| ec_compute(&lgs[0], &pr, &degrees, 0))
    });
    group.finish();
}

fn bench_vc_gather(c: &mut Criterion) {
    let g = gen::power_law(20_000, 2.0, 10, 5);
    let cut = RandomVertexCut.partition(&g, 4);
    let plan = FtPlan::none(g.num_vertices());
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &pr, &degrees);
    c.bench_function("vc_partial_gather/pagerank", |b| {
        b.iter(|| vc_partial_gather(&lgs[0], &pr))
    });
}

fn bench_build(c: &mut Criterion) {
    let g = gen::power_law(20_000, 2.0, 10, 9);
    let cut = HashEdgeCut.partition(&g, 8);
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    let none = FtPlan::none(g.num_vertices());
    c.bench_function("build_edge_cut_graphs/no-ft", |b| {
        b.iter(|| build_edge_cut_graphs(&g, &cut, &none, &pr, &degrees))
    });
    let _ = pr.init(Vid::new(0), &degrees);
}

criterion_group!(
    benches,
    bench_ec_compute,
    bench_ec_variants,
    bench_vc_gather,
    bench_build
);
criterion_main!(benches);
