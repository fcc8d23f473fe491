//! Loopback-TCP smoke: a small run on each engine over
//! [`TransportKind::Tcp`] — real sockets, length-prefixed frames, the
//! columnar wire codec end-to-end — must reproduce the in-process channel
//! run bit-for-bit, logical byte accounting included. CI runs this file as
//! its own (non-blocking) job so a sandbox without loopback sockets cannot
//! mask an engine regression, but it is deliberately cheap enough to live
//! in the default test sweep too.

use std::sync::Arc;

use imitator_repro::algos::{PageRank, RankValue};
use imitator_repro::cluster::{FailPoint, FailurePlan, NodeId};
use imitator_repro::engine::{Degrees, VertexProgram};
use imitator_repro::ft::{
    run_edge_cut, run_vertex_cut, FtMode, RecoveryStrategy, RunConfig, RunReport, TransportKind,
};
use imitator_repro::graph::{gen, Graph, Vid};
use imitator_repro::partition::{
    EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
};
use imitator_repro::storage::{Dfs, DfsConfig};

/// Min-label propagation: integer-exact, activation-driven.
struct MinLabel;

impl VertexProgram for MinLabel {
    type Value = u32;
    type Accum = u32;

    fn init(&self, vid: Vid, _d: &Degrees) -> u32 {
        vid.raw()
    }

    fn gather(&self, _w: f32, src: &u32) -> u32 {
        *src
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: Vid, old: &u32, acc: Option<u32>, _d: &Degrees) -> u32 {
        acc.map_or(*old, |a| a.min(*old))
    }

    fn scatter(&self, _v: Vid, old: &u32, new: &u32) -> bool {
        new < old
    }
}

fn smoke_graph(n: u32, m: usize, seed: u64) -> Graph {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut pairs = Vec::with_capacity(m);
    for _ in 0..m {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((x >> 33) % u64::from(n)) as u32;
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = ((x >> 33) % u64::from(n)) as u32;
        pairs.push((a, b));
    }
    gen::from_pairs(n as usize, &pairs)
}

fn cfg(transport: TransportKind, ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: 3,
        max_iters: 12,
        ft,
        standbys,
        threads_per_node: 2,
        transport,
        ..RunConfig::default()
    }
}

#[test]
fn tcp_edge_cut_matches_channel() {
    let g = smoke_graph(80, 260, 11);
    let cut = HashEdgeCut.partition(&g, 3);
    let run = |transport| {
        run_edge_cut(
            &g,
            &cut,
            Arc::new(PageRank::new(0.85, 0.0)),
            cfg(transport, FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        )
    };
    let channel = run(TransportKind::Channel);
    let tcp = run(TransportKind::Tcp);
    assert_eq!(tcp.values, channel.values);
    assert_eq!(tcp.iterations, channel.iterations);
    assert_eq!(tcp.comm.messages, channel.comm.messages);
    assert_eq!(tcp.comm.bytes, channel.comm.bytes);
    assert_eq!(tcp.fabric.redelivered, 0, "TCP links never duplicate");
}

#[test]
fn tcp_vertex_cut_recovery_matches_channel() {
    let g = smoke_graph(80, 260, 12);
    let cut = RandomVertexCut.partition(&g, 3);
    let ft = FtMode::Replication {
        tolerance: 1,
        selfish_opt: false,
        recovery: RecoveryStrategy::Rebirth,
    };
    let plan = vec![FailurePlan {
        node: NodeId::from_index(1),
        iteration: 2,
        point: FailPoint::BeforeBarrier,
    }];
    let run = |transport| {
        run_vertex_cut(
            &g,
            &cut,
            Arc::new(MinLabel),
            cfg(transport, ft, 1),
            plan.clone(),
            Dfs::new(DfsConfig::instant()),
        )
    };
    let channel = run(TransportKind::Channel);
    let tcp = run(TransportKind::Tcp);
    assert_eq!(tcp.values, channel.values);
    assert_eq!(tcp.iterations, channel.iterations);
    assert_eq!(tcp.comm.messages, channel.comm.messages);
    assert_eq!(tcp.comm.bytes, channel.comm.bytes);
    assert_eq!(tcp.recoveries.len(), channel.recoveries.len());
    assert_eq!(
        tcp.recoveries[0].comm.bytes,
        channel.recoveries[0].comm.bytes
    );
}

/// The pre-barrier fence must not release a sender while one of its frames
/// is still between the reader thread and the destination inbox (a frame
/// counted delivered before it was enqueued let ≈1 op in 450 of the
/// benchmark's TCP workload commit a superstep without it). One seed, many
/// short runs: every run lands on the channel run's values, bit for bit.
#[test]
fn tcp_edge_cut_repeats_bit_identical() {
    let g = smoke_graph(120, 600, 13);
    let cut = HashEdgeCut.partition(&g, 3);
    let run = |transport| {
        run_edge_cut(
            &g,
            &cut,
            Arc::new(PageRank::new(0.85, 0.0)),
            cfg(transport, FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        )
    };
    let bits = |r: RunReport<RankValue>| -> Vec<u64> {
        r.values.iter().map(|v| v.rank.to_bits()).collect()
    };
    let want = bits(run(TransportKind::Channel));
    for rep in 0..50 {
        assert_eq!(bits(run(TransportKind::Tcp)), want, "TCP run {rep}");
    }
}
