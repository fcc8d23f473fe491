//! The heartbeat failure detector must be *invisible in the results*: a
//! run that notices crashes through missed heartbeats produces bit-identical
//! values, iteration counts and recovery episodes to a run told about the
//! same crashes by the injector oracle — on every engine and transport. And it must be *false-positive-safe*: a node that merely goes
//! silent (stalls) is suspected, then retracted when its heartbeats resume,
//! with zero recovery machinery engaged; only a stall that outlives the
//! suspicion fence gets the node fenced out, idempotently, exactly like a
//! crash at the same protocol point.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use imitator_repro::cluster::{FailPoint, FailurePlan, NodeId};
use imitator_repro::engine::{Degrees, VertexProgram};
use imitator_repro::ft::{
    run_edge_cut, run_vertex_cut, DetectorKind, FtMode, NetFaults, RecoveryStrategy, RunConfig,
    RunReport, TransportKind,
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

#[derive(Debug, Clone)]
struct Scenario {
    graph: Graph,
    nodes: usize,
    strategy: RecoveryStrategy,
    /// `None` → in-process channels; `Some(seed)` → seeded lossy links.
    lossy_seed: Option<u64>,
    edge_cut: bool,
    // (victim, iteration, before_barrier) — victims distinct.
    failures: Vec<(usize, u64, bool)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        3usize..5,   // nodes
        30usize..90, // vertices
        proptest::collection::vec((any::<u32>(), any::<u32>()), 20..120),
        prop_oneof![
            Just(RecoveryStrategy::Rebirth),
            Just(RecoveryStrategy::Migration)
        ],
        proptest::option::of(any::<u64>()),
        any::<bool>(),
        proptest::collection::vec((0usize..5, 0u64..5, any::<bool>()), 1..3),
    )
        .prop_map(
            |(nodes, n, pairs, strategy, lossy_seed, edge_cut, raw_failures)| {
                let pairs: Vec<(u32, u32)> = pairs
                    .into_iter()
                    .map(|(a, b)| (a % n as u32, b % n as u32))
                    .collect();
                let graph = gen::from_pairs(n, &pairs);
                let mut failures: Vec<(usize, u64, bool)> = Vec::new();
                for (v, iter, before) in raw_failures {
                    let victim = v % nodes;
                    if failures.iter().all(|&(w, _, _)| w != victim) && failures.len() + 1 < nodes {
                        failures.push((victim, iter, before));
                    }
                }
                Scenario {
                    graph,
                    nodes,
                    strategy,
                    lossy_seed,
                    edge_cut,
                    failures,
                }
            },
        )
        .prop_filter("need at least one failure", |s| !s.failures.is_empty())
}

fn plans(s: &Scenario) -> Vec<FailurePlan> {
    s.failures
        .iter()
        .map(|&(node, iteration, before)| FailurePlan {
            node: NodeId::from_index(node),
            iteration,
            point: if before {
                FailPoint::BeforeBarrier
            } else {
                FailPoint::AfterBarrier
            },
        })
        .collect()
}

fn config(s: &Scenario, detector: DetectorKind) -> RunConfig {
    RunConfig {
        num_nodes: s.nodes,
        max_iters: 20,
        ft: FtMode::Replication {
            tolerance: s.failures.len().max(1),
            selfish_opt: false,
            recovery: s.strategy,
        },
        standbys: match s.strategy {
            RecoveryStrategy::Rebirth => s.failures.len().max(1),
            RecoveryStrategy::Migration => 0,
        },
        transport: match s.lossy_seed {
            Some(seed) => TransportKind::Lossy(NetFaults::from_seed(seed)),
            None => TransportKind::Channel,
        },
        detector,
        // Short enough that a run pays ~tens of milliseconds per crash
        // waiting for suspicion to mature, long enough for real scheduling
        // noise: period 1 ms, suspect after 6 ms of silence.
        hb_interval: Duration::from_millis(1),
        hb_timeout: Duration::from_millis(6),
        ..RunConfig::default()
    }
}

fn run(s: &Scenario, detector: DetectorKind, failures: Vec<FailurePlan>) -> RunReport<u32> {
    if s.edge_cut {
        let cut = HashEdgeCut.partition(&s.graph, s.nodes);
        run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(s, detector),
            failures,
            Dfs::new(DfsConfig::instant()),
        )
    } else {
        let cut = RandomVertexCut.partition(&s.graph, s.nodes);
        run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(s, detector),
            failures,
            Dfs::new(DfsConfig::instant()),
        )
    }
}

/// `PROPTEST_CASES` (used by the deep-fuzz CI job) scales the
/// case count; the explicit default would otherwise shadow the env var.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The tentpole property: swapping the injector oracle for the
    /// heartbeat/suspicion subsystem changes *when the wall-clock notices*
    /// a crash but nothing about the computation — same values, same
    /// committed iterations, same number of recovery episodes, on both
    /// engines, over reliable and lossy links.
    #[test]
    fn heartbeat_detection_bit_identical(s in arb_scenario()) {
        let oracle = run(&s, DetectorKind::Oracle, plans(&s));
        let heartbeat = run(&s, DetectorKind::Heartbeat, plans(&s));
        prop_assert_eq!(&heartbeat.values, &oracle.values);
        prop_assert_eq!(heartbeat.iterations, oracle.iterations);
        prop_assert_eq!(heartbeat.recoveries.len(), oracle.recoveries.len());
        // The oracle never suspects; the heartbeat detector must have
        // genuinely inferred every episode it recovered from.
        prop_assert!(oracle.suspicion.is_empty());
        if !heartbeat.recoveries.is_empty() {
            prop_assert!(heartbeat.suspicion.confirmed > 0);
            prop_assert!(heartbeat.suspicion.detect_ticks > 0);
        }
        for r in &heartbeat.recoveries {
            prop_assert_eq!(r.counters.attempts, r.counters.aborts + 1);
        }
    }
}

fn stall_scenario(graph_seed: u64) -> Scenario {
    let pairs: Vec<(u32, u32)> = (0..150u64)
        .map(|i| {
            let x = (graph_seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i * 2654435761))
                % 60;
            let y = (i * 31) % 60;
            (x as u32, y as u32)
        })
        .collect();
    Scenario {
        graph: gen::from_pairs(60, &pairs),
        nodes: 4,
        strategy: RecoveryStrategy::Rebirth,
        lossy_seed: None,
        edge_cut: true,
        failures: Vec::new(),
    }
}

/// A node that goes silent for longer than the suspicion timeout but less
/// than the fence is suspected and then *retracted* the moment its
/// heartbeats resume: the run completes with clean results, no recovery
/// machinery engaged, and the false positive visible only in the stats.
#[test]
fn stall_is_suspected_then_retracted_without_recovery() {
    let s = stall_scenario(7);
    let clean = run(&s, DetectorKind::Oracle, vec![]);
    // timeout 6 ms = 30 detector ticks; fence = 40x timeout = 1200 ticks.
    // Stalling 90 ticks (~18 ms) sails past suspicion, never near the fence.
    let stalled = run(
        &s,
        DetectorKind::Heartbeat,
        vec![FailurePlan {
            node: NodeId::new(2),
            iteration: 3,
            point: FailPoint::Stall(90),
        }],
    );
    assert_eq!(stalled.values, clean.values);
    assert_eq!(stalled.iterations, clean.iterations);
    assert!(
        stalled.recoveries.is_empty(),
        "a retracted suspicion must not start recovery"
    );
    assert_eq!(stalled.suspicion.confirmed, 0, "nobody actually died");
    assert!(
        stalled.suspicion.retracted >= 1,
        "the stalled node must have been suspected and retracted, got {:?}",
        stalled.suspicion
    );
}

/// The same stall under the oracle detector is a no-op: nobody watches
/// silence, so nothing is suspected and nothing changes.
#[test]
fn stall_under_oracle_is_invisible() {
    let s = stall_scenario(11);
    let clean = run(&s, DetectorKind::Oracle, vec![]);
    let stalled = run(
        &s,
        DetectorKind::Oracle,
        vec![FailurePlan {
            node: NodeId::new(1),
            iteration: 2,
            point: FailPoint::Stall(90),
        }],
    );
    assert_eq!(stalled.values, clean.values);
    assert!(stalled.recoveries.is_empty());
    assert!(stalled.suspicion.is_empty());
}

/// A stall that outlives the suspicion fence gets the node *fenced*: the
/// cluster confirms it dead and recovers exactly as if it had crashed at
/// the same protocol point, and the fenced node exits instead of fighting
/// its way back in. The stall sits before any compute or send of that
/// iteration, so the surviving protocol is identical to a BeforeBarrier
/// crash at the same (node, iteration).
#[test]
fn stall_past_fence_is_confirmed_and_fenced_like_a_crash() {
    let s = stall_scenario(13);
    let mut cfg = config(&s, DetectorKind::Heartbeat);
    // Tighten so the test doesn't sleep for seconds: timeout 2 ms = 10
    // ticks, fence = 400 ticks (~80 ms); a 600-tick stall must be fenced.
    cfg.hb_interval = Duration::from_millis(1);
    cfg.hb_timeout = Duration::from_millis(2);
    let cut = HashEdgeCut.partition(&s.graph, s.nodes);
    let crashed = run_edge_cut(
        &s.graph,
        &cut,
        Arc::new(MinLabel),
        config(&s, DetectorKind::Oracle),
        vec![FailurePlan {
            node: NodeId::new(2),
            iteration: 3,
            point: FailPoint::BeforeBarrier,
        }],
        Dfs::new(DfsConfig::instant()),
    );
    let fenced = run_edge_cut(
        &s.graph,
        &cut,
        Arc::new(MinLabel),
        cfg,
        vec![FailurePlan {
            node: NodeId::new(2),
            iteration: 3,
            point: FailPoint::Stall(600),
        }],
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(fenced.values, crashed.values);
    assert_eq!(fenced.iterations, crashed.iterations);
    assert_eq!(fenced.recoveries.len(), crashed.recoveries.len());
    assert!(fenced.suspicion.confirmed >= 1, "{:?}", fenced.suspicion);
    for r in &fenced.recoveries {
        assert_eq!(
            r.counters.attempts,
            r.counters.aborts + 1,
            "restartable-recovery invariant must survive fencing"
        );
    }
}
