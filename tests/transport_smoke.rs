//! Loopback-TCP smoke: a small run on each engine over
//! [`TransportKind::Tcp`] — real sockets, length-prefixed frames, the
//! columnar wire codec end-to-end — must reproduce the in-process channel
//! run bit-for-bit, logical byte accounting included. CI also runs this
//! file as a job of its own, which blocks a merge like every other test
//! job: a failure there is a transport failure, not one the engine jobs
//! share. It is deliberately cheap enough to live in the default test
//! sweep too.

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
    let want = value_bits(&run(TransportKind::Channel));
    for rep in 0..50 {
        assert_eq!(value_bits(&run(TransportKind::Tcp)), want, "TCP run {rep}");
    }
}

/// Every value's rank and share, as bits.
fn value_bits(r: &RunReport<RankValue>) -> Vec<(u64, u64)> {
    let bits = |v: &RankValue| (v.rank.to_bits(), v.share.to_bits());
    r.values.iter().map(bits).collect()
}

/// A PageRank value crosses a node boundary as its rank, and the share is
/// derived wherever a value enters a node: a sync commit, a full sync, a
/// Rebirth record, a Migration grant or fresh mirror, a graph or snapshot off
/// the DFS. Each recovery strategy on each engine, with one crash, must land
/// on the same ranks *and* shares over TCP as over the channel, bit for bit,
/// and account the same bytes to the byte; and on the failure-free run's
/// bits, except vertex-cut Migration, which regroups edges across nodes so
/// that their gather sums reassociate (`distributed_algos.rs` holds it to
/// f64 rounding). TCP really decodes, so a site that forgot to derive shows up
/// there as NaN; an in-process transport moves values whole, and debug
/// builds check that the share derived is the share shipped.
#[test]
fn pagerank_recovers_bit_identical_on_every_transport() {
    let g = smoke_graph(80, 260, 14);
    let replication = |recovery| FtMode::Replication {
        tolerance: 1,
        selfish_opt: false,
        recovery,
    };
    let ckpt = FtMode::Checkpoint {
        interval: 2,
        incremental: true,
    };
    // (name, mode, standbys, crash iteration). A checkpoint recovery before
    // the first epoch runs on the initial values alone; one with no standby
    // left rebuilds the crashed slot on a thread a survivor hosts.
    let strategies = [
        ("Rebirth", replication(RecoveryStrategy::Rebirth), 1, 5),
        ("Migration", replication(RecoveryStrategy::Migration), 0, 5),
        ("incremental checkpoint", ckpt, 1, 5),
        ("checkpoint before its first epoch", ckpt, 1, 1),
        ("checkpoint with no standby left", ckpt, 0, 5),
    ];
    for edge_cut in [true, false] {
        let engine = if edge_cut { "edge-cut" } else { "vertex-cut" };
        let run = |transport, ft, standbys, failures: &[FailurePlan]| {
            let prog = Arc::new(PageRank::new(0.85, 0.0));
            let (cfg, dfs) = (cfg(transport, ft, standbys), Dfs::new(DfsConfig::instant()));
            if edge_cut {
                let cut = HashEdgeCut.partition(&g, 3);
                run_edge_cut(&g, &cut, prog, cfg, failures.to_vec(), dfs)
            } else {
                let cut = RandomVertexCut.partition(&g, 3);
                run_vertex_cut(&g, &cut, prog, cfg, failures.to_vec(), dfs)
            }
        };
        let want = value_bits(&run(TransportKind::Channel, FtMode::None, 0, &[]));
        for (name, ft, standbys, iteration) in strategies {
            let crash = [FailurePlan {
                node: NodeId::from_index(1),
                iteration,
                point: FailPoint::BeforeBarrier,
            }];
            let channel = run(TransportKind::Channel, ft, standbys, &crash);
            let tcp = run(TransportKind::Tcp, ft, standbys, &crash);
            assert_eq!(channel.recoveries.len(), 1, "{engine} {name}");
            assert!(
                value_bits(&tcp) == value_bits(&channel),
                "{engine} {name}: TCP is not the channel run"
            );
            assert!(
                value_bits(&channel) == want || (!edge_cut && name == "Migration"),
                "{engine} {name} is not the failure-free run"
            );
            assert_eq!(tcp.comm.bytes, channel.comm.bytes, "{engine} {name}");
            assert_eq!(
                tcp.recoveries[0].comm.bytes, channel.recoveries[0].comm.bytes,
                "{engine} {name}"
            );
        }
    }
}

/// A Rebirth attempt aborted over real sockets: a second crash at the reload
/// step, on a survivor or on the newbie itself, fails the barrier every
/// participant waits at, and the retry takes fresh standbys. Over TCP the
/// run keeps the wall clock, so the abort is noticed by real heartbeat
/// silence; it must land on the channel run's values in one episode of two
/// attempts.
#[test]
fn rebirth_aborted_at_reload_recovers_over_tcp() {
    let g = smoke_graph(80, 260, 15);
    let ft = FtMode::Replication {
        tolerance: 2,
        selfish_opt: false,
        recovery: RecoveryStrategy::Rebirth,
    };
    let crash = |node, point| FailurePlan {
        node: NodeId::from_index(node),
        iteration: 2,
        point,
    };
    // (who dies at the reload step, its node); node 1 crashes first.
    let cases = [("a survivor", 2), ("the newbie", 1)];
    for edge_cut in [true, false] {
        let engine = if edge_cut { "edge-cut" } else { "vertex-cut" };
        for (who, second) in cases {
            let plan = vec![
                crash(1, FailPoint::BeforeBarrier),
                crash(second, FailPoint::RebirthReload),
            ];
            let run = |transport| {
                let prog = Arc::new(PageRank::new(0.85, 0.0));
                let cfg = RunConfig {
                    num_nodes: 4,
                    ..cfg(transport, ft, 3)
                };
                let dfs = Dfs::new(DfsConfig::instant());
                if edge_cut {
                    let cut = HashEdgeCut.partition(&g, 4);
                    run_edge_cut(&g, &cut, prog, cfg, plan.clone(), dfs)
                } else {
                    let cut = RandomVertexCut.partition(&g, 4);
                    run_vertex_cut(&g, &cut, prog, cfg, plan.clone(), dfs)
                }
            };
            let channel = run(TransportKind::Channel);
            let tcp = run(TransportKind::Tcp);
            assert!(
                value_bits(&tcp) == value_bits(&channel),
                "{engine}, {who} crashing: TCP is not the channel run"
            );
            for (transport, r) in [("channel", &channel), ("TCP", &tcp)] {
                assert_eq!(r.recoveries.len(), 1, "{engine}, {who}, {transport}");
                let counters = &r.recoveries[0].counters;
                assert_eq!(
                    (counters.attempts, counters.aborts),
                    (2, 1),
                    "{engine}, {who} crashing, {transport}"
                );
            }
        }
    }
}
