//! The reproduction's central property, tested over *random* graphs,
//! cluster sizes, failure schedules and recovery strategies:
//!
//! > A run that loses machines and recovers produces exactly the results of
//! > a run that never failed.
//!
//! This is the paper's implicit correctness contract for Imitator (§5): the
//! replicas plus the replayed activation state reconstruct the crashed
//! machines' state precisely.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use imitator_repro::algos::PageRank;
use imitator_repro::cluster::{FailPoint, FailurePlan, NodeId};
use imitator_repro::engine::{Degrees, VertexProgram};
use imitator_repro::ft::{
    run_edge_cut, run_vertex_cut, FtMode, LinkFaults, NetFaults, RecoveryStrategy, RunConfig,
    RunReport, TransportKind,
};
use imitator_repro::graph::{gen, Graph, Vid};
use imitator_repro::metrics::CommKind;
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
    tolerance: usize,
    // (victim, iteration, before_barrier) — victims distinct, within range.
    failures: Vec<(usize, u64, bool)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        3usize..5,    // nodes
        30usize..200, // vertices
        proptest::collection::vec((any::<u32>(), any::<u32>()), 20..300),
        prop_oneof![
            Just(RecoveryStrategy::Rebirth),
            Just(RecoveryStrategy::Migration)
        ],
        1usize..3, // tolerance K
        proptest::collection::vec((0usize..5, 0u64..6, any::<bool>()), 1..3),
    )
        .prop_map(|(nodes, n, pairs, strategy, tolerance, raw_failures)| {
            let pairs: Vec<(u32, u32)> = pairs
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let graph = gen::from_pairs(n, &pairs);
            // Distinct victims, at most `tolerance` per iteration, never the
            // whole cluster at once.
            let mut failures: Vec<(usize, u64, bool)> = Vec::new();
            for (v, iter, before) in raw_failures {
                let victim = v % nodes;
                if failures.iter().all(|&(w, _, _)| w != victim)
                    && failures.len() < tolerance
                    && failures.len() + 1 < nodes
                {
                    failures.push((victim, iter, before));
                }
            }
            Scenario {
                graph,
                nodes,
                strategy,
                tolerance: tolerance.min(nodes - 1),
                failures,
            }
        })
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

/// `RunConfig::default()` with a 1 ms / 6 ms heartbeat, so a crash is
/// confirmed after 6 ms of virtual silence instead of 60. The goldens keep
/// the default detector.
fn quick_detection() -> RunConfig {
    RunConfig {
        hb_interval: Duration::from_millis(1),
        hb_timeout: Duration::from_millis(6),
        ..RunConfig::default()
    }
}

fn config(s: &Scenario, ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: s.nodes,
        max_iters: 30,
        ft,
        standbys,
        ..quick_detection()
    }
}

/// What the fabric carried as sync and gather frames, in bytes: in a
/// failure-free run, exactly the steady-state `comm` the nodes charged.
fn frame_bytes<V>(r: &RunReport<V>) -> u64 {
    r.fabric.kind(CommKind::Sync).bytes + r.fabric.kind(CommKind::Gather).bytes
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
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn edge_cut_recovery_is_equivalent(s in arb_scenario()) {
        let cut = HashEdgeCut.partition(&s.graph, s.nodes);
        let clean = run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let ft = FtMode::Replication {
            tolerance: s.tolerance,
            selfish_opt: false,
            recovery: s.strategy,
        };
        let standbys = match s.strategy {
            RecoveryStrategy::Rebirth => s.failures.len(),
            RecoveryStrategy::Migration => 0,
        };
        let recovered = run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, ft, standbys),
            plans(&s),
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(recovered.values, clean.values);
        // One sync frame per destination per superstep, charged what it
        // encodes to: the fabric's frames are the nodes' `comm` to the byte.
        // (Only without failures: the fabric drops a frame to a node already
        // dead uncounted, and whether a crashing peer is dead yet when a
        // frame leaves is a race.)
        prop_assert_eq!(frame_bytes(&clean), clean.comm.bytes);
    }

    #[test]
    fn vertex_cut_recovery_is_equivalent(s in arb_scenario()) {
        let cut = RandomVertexCut.partition(&s.graph, s.nodes);
        let clean = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let ft = FtMode::Replication {
            tolerance: s.tolerance,
            selfish_opt: false,
            recovery: s.strategy,
        };
        let standbys = match s.strategy {
            RecoveryStrategy::Rebirth => s.failures.len(),
            RecoveryStrategy::Migration => 0,
        };
        let recovered = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, ft, standbys),
            plans(&s),
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(recovered.values, clean.values);
        // Gather frames too, one per destination per superstep.
        prop_assert_eq!(frame_bytes(&clean), clean.comm.bytes);
    }

    #[test]
    fn vertex_cut_checkpoint_recovery_is_equivalent(
        (s, incremental) in (arb_scenario(), any::<bool>())
    ) {
        let cut = RandomVertexCut.partition(&s.graph, s.nodes);
        let clean = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let recovered = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(
                &s,
                FtMode::Checkpoint { interval: 2, incremental },
                s.failures.len(),
            ),
            plans(&s),
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(recovered.values, clean.values);
    }

    #[test]
    fn incremental_checkpoint_matches_full(s in arb_scenario()) {
        // Delta epochs must be a pure storage optimisation: a run recovering
        // from base+delta chains is bit-identical to one recovering from
        // full snapshots only, across injected failures on both engines.
        let ft = |incremental| FtMode::Checkpoint { interval: 2, incremental };
        for edge_cut in [true, false] {
            let run = |incremental| {
                let cfg = config(&s, ft(incremental), s.failures.len());
                if edge_cut {
                    let cut = HashEdgeCut.partition(&s.graph, s.nodes);
                    run_edge_cut(
                        &s.graph,
                        &cut,
                        Arc::new(MinLabel),
                        cfg,
                        plans(&s),
                        Dfs::new(DfsConfig::instant()),
                    )
                } else {
                    let cut = RandomVertexCut.partition(&s.graph, s.nodes);
                    run_vertex_cut(
                        &s.graph,
                        &cut,
                        Arc::new(MinLabel),
                        cfg,
                        plans(&s),
                        Dfs::new(DfsConfig::instant()),
                    )
                }
            };
            let full = run(false);
            let inc = run(true);
            prop_assert_eq!(inc.values, full.values);
            prop_assert_eq!(inc.iterations, full.iterations);
        }
    }

    #[test]
    fn checkpoint_recovery_is_equivalent((s, incremental) in (arb_scenario(), any::<bool>())) {
        // Checkpointing tolerates any number of sequential failures; both
        // full and incremental (§2.3) snapshots must recover exactly.
        let cut = HashEdgeCut.partition(&s.graph, s.nodes);
        let clean = run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let recovered = run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(&s, FtMode::Checkpoint { interval: 2, incremental }, s.failures.len()),
            plans(&s),
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(recovered.values, clean.values);
    }
}

/// NaN-flood: the one workload where a master re-ships what its replicas
/// already hold. A NaN value compares unequal to itself, so a NaN-stuck
/// master emits a bit-identical update *every* superstep — `PartialEq` and
/// the codec disagree — while `scatter` (unconditionally `true`) keeps
/// `activate = true` on every record. Recovery must still reconstruct each
/// replica's exact `(value, last_activate)` pair.
struct NanFlood;

impl VertexProgram for NanFlood {
    type Value = f32;
    type Accum = f32;

    fn init(&self, vid: Vid, _d: &Degrees) -> f32 {
        if vid.raw() == 0 {
            f32::NAN
        } else {
            1.0
        }
    }

    fn gather(&self, _w: f32, src: &f32) -> f32 {
        *src
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _v: Vid, old: &f32, acc: Option<f32>, _d: &Degrees) -> f32 {
        // NaN contributions poison the sum, so NaN spreads along edges; a
        // NaN-stuck vertex keeps recomputing the same NaN bit pattern.
        acc.map_or(*old, |a| *old + a)
    }

    fn scatter(&self, _v: Vid, _old: &f32, _new: &f32) -> bool {
        true
    }
}

/// Cycle plus chords: strongly connected, so the NaN at v0 floods every
/// vertex within a few supersteps and every vertex stays active.
fn nan_flood_graph(n: u32) -> Graph {
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i * 7 + 3) % n)])
        .collect();
    gen::from_pairs(n as usize, &pairs)
}

fn f32_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Runs NaN-flood with one mid-run failure under `strategy` and checks the
/// recovered output is bit-identical to a clean run — i.e. replicas of
/// NaN-stuck masters carried the exact `(value, last_activate)` state
/// recovery rebuilt from.
fn nan_flood_recovery_case(strategy: RecoveryStrategy) {
    let g = nan_flood_graph(60);
    let nodes = 4;
    let cut = HashEdgeCut.partition(&g, nodes);
    let cfg = |ft, standbys| RunConfig {
        num_nodes: nodes,
        max_iters: 12,
        ft,
        standbys,
        ..quick_detection()
    };
    let clean = run_edge_cut(
        &g,
        &cut,
        Arc::new(NanFlood),
        cfg(FtMode::None, 0),
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    let ft = FtMode::Replication {
        tolerance: 1,
        selfish_opt: false,
        recovery: strategy,
    };
    let standbys = match strategy {
        RecoveryStrategy::Rebirth => 1,
        RecoveryStrategy::Migration => 0,
    };
    let failures = vec![FailurePlan {
        node: NodeId::from_index(1),
        iteration: 6,
        point: FailPoint::BeforeBarrier,
    }];
    let recovered = run_edge_cut(
        &g,
        &cut,
        Arc::new(NanFlood),
        cfg(ft, standbys),
        failures,
        Dfs::new(DfsConfig::instant()),
    );
    assert_eq!(f32_bits(&recovered.values), f32_bits(&clean.values));
    assert_eq!(recovered.iterations, clean.iterations);
}

#[test]
fn nan_stuck_vertices_suppress_yet_rebirth_recovers_exactly() {
    nan_flood_recovery_case(RecoveryStrategy::Rebirth);
}

#[test]
fn nan_stuck_vertices_suppress_yet_migration_recovers_exactly() {
    nan_flood_recovery_case(RecoveryStrategy::Migration);
}

// ---------------------------------------------------------------------------
// Refactor goldens, split into semantics and bytes. The *semantic* hashes pin
// iterations, message counts, extra replicas, every recovery episode's
// strategy/size/message-traffic, and every final vertex value — across both
// models, all three recovery strategies, and four runs each (see
// `golden_run`). They were captured at the commit before the
// ComputeModel refactor and have survived every accounting change since: a
// semantic mismatch is a behavior change, not a refactor. The *byte* totals
// (normal/FT/recovery communication plus DFS checkpoint payloads) are pinned
// separately, alongside the pre-columnar-codec totals, with the invariant
// that the columnar wire format may only shrink them: sync/gather traffic
// strictly, checkpoint payloads strictly wherever a checkpoint is written,
// and recovery traffic strictly since its messages are columns too.
// ---------------------------------------------------------------------------

/// Deterministic scenario graph (avoids depending on proptest seeding).
fn lcg_graph(n: u32, m: usize, seed: u64) -> Graph {
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

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Byte totals summed over the four runs of one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GoldenBytes {
    /// Normal compute communication (`comm.bytes`).
    comm: u64,
    /// Fault-tolerance upkeep communication (`ft_comm.bytes`).
    ft: u64,
    /// Recovery-episode communication (sum of `rec.comm.bytes`).
    rec: u64,
    /// DFS checkpoint payload bytes actually written.
    ckpt: u64,
}

fn golden_run(
    g: &Graph,
    nodes: usize,
    ft: FtMode,
    standbys: usize,
    failures: &[(usize, u64, bool)],
    edge_cut: bool,
) -> (u64, GoldenBytes) {
    let plans: Vec<FailurePlan> = failures
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
        .collect();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut bytes = GoldenBytes {
        comm: 0,
        ft: 0,
        rec: 0,
        ckpt: 0,
    };
    let mut first: Option<Vec<u32>> = None;
    // Four runs, not one: each `sem` constant folds four, and each byte pin
    // sums four. They once ran at 1, 4, 1 and 4 worker threads per node, a
    // sync filter switched off in the second pair; every hashed field was
    // identical in all four, so four runs of the one thread a node now is
    // keep every constant as recorded.
    for _ in 0..4 {
        let cfg = RunConfig {
            num_nodes: nodes,
            max_iters: 30,
            ft,
            standbys,
            ..RunConfig::default()
        };
        let dfs = Dfs::new(DfsConfig::instant());
        let r = if edge_cut {
            let cut = HashEdgeCut.partition(g, nodes);
            run_edge_cut(g, &cut, Arc::new(MinLabel), cfg, plans.clone(), dfs.clone())
        } else {
            let cut = RandomVertexCut.partition(g, nodes);
            run_vertex_cut(g, &cut, Arc::new(MinLabel), cfg, plans.clone(), dfs.clone())
        };
        hash = fnv(hash, &r.iterations.to_le_bytes());
        hash = fnv(hash, &r.comm.messages.to_le_bytes());
        hash = fnv(hash, &r.ft_comm.messages.to_le_bytes());
        // Always 0; the recorded hashes fold it in.
        hash = fnv(hash, &r.suppressed_syncs.to_le_bytes());
        hash = fnv(hash, &(r.extra_replicas as u64).to_le_bytes());
        for rec in &r.recoveries {
            hash = fnv(hash, rec.strategy.as_bytes());
            hash = fnv(hash, &(rec.failed_nodes as u64).to_le_bytes());
            hash = fnv(hash, &rec.vertices_recovered.to_le_bytes());
            hash = fnv(hash, &rec.edges_recovered.to_le_bytes());
            hash = fnv(hash, &rec.comm.messages.to_le_bytes());
            bytes.rec += rec.comm.bytes;
        }
        for v in &r.values {
            hash = fnv(hash, &v.to_le_bytes());
        }
        bytes.comm += r.comm.bytes;
        bytes.ft += r.ft_comm.bytes;
        bytes.ckpt += dfs.stats().writes.bytes;
        match &first {
            None => first = Some(r.values),
            Some(f) => assert_eq!(&r.values, f, "a repeated run moved a value"),
        }
    }
    (hash, bytes)
}

#[test]
fn refactor_goldens_are_bit_identical() {
    let g1 = lcg_graph(120, 400, 1);
    let g2 = lcg_graph(200, 700, 2);
    let s1_failures = vec![(1usize, 2u64, true)];
    let s2_failures = vec![(0usize, 1u64, true), (3, 3, false)];
    struct Case<'a> {
        name: &'a str,
        graph: &'a Graph,
        nodes: usize,
        ft: FtMode,
        standbys: usize,
        failures: &'a [(usize, u64, bool)],
        edge_cut: bool,
        /// Pre-ComputeModel-refactor semantic hash; never allowed to move.
        sem: u64,
        /// Byte totals under the pre-columnar scalar accounting (`rec`: its
        /// estimates).
        old: GoldenBytes,
        /// Byte totals under the columnar wire codec; pinned exactly. `rec`
        /// is what the recovery messages encode to, counted by their own
        /// encoders; it was a hand-kept estimate until then
        /// ([`REC_ESTIMATED`]), under which the K = 1 Migration cases' fell
        /// when round 7 stopped re-sending full state to mirrors designated
        /// one round earlier (54884 → 37824 edge-cut, 44168 → 31172
        /// vertex-cut). `comm` fell when a sync frame's flags became one bit
        /// a record ([`COMM_TWO_FLAG_BITS`]), and `rec` when recovery
        /// messages became columns ([`REC_FIXED_WIDTH`]).
        /// The edge-cut checkpoint cases' `ckpt` fell when the `ec/meta/<node>`
        /// snapshot stopped writing a master's in-edges and consumers twice
        /// (48640 → 39832, 47052 → 38244, 91404 → 76012, 87248 → 71856), and
        /// the two incremental ones' again when a delta epoch stopped writing
        /// its dirty masters' positions twice (38244 → 37820, 71856 → 70808),
        /// and all four's when the snapshot stopped writing the source of
        /// every master's in-edge and the target of every remote out-edge
        /// ([`EC_CKPT_WITH_SOURCES`]); nothing that crosses the wire moved.
        /// The edge-cut Migration cases' `rec` fell again when a round 7
        /// refresh stopped carrying the edge lists its mirror already held
        /// and a batch of equal weights started writing one
        /// ([`REC_WHOLE_REFRESH`]). The Rebirth cases' `rec` fell when a
        /// survivor's batch became columns and one full-state store, the
        /// form a mirror batch ships in ([`REC_ROW_ENTRIES`]).
        new: GoldenBytes,
    }
    /// The edge-cut checkpoint cases' `ckpt` while a master's slot stored,
    /// and its snapshot wrote, the sources its in-edges name and a remote
    /// out-edge its target vertex: what the totals pinned now must undercut.
    const EC_CKPT_WITH_SOURCES: [(&str, u64); 4] = [
        ("s1_ckpt_ec", 39832),
        ("s1_ckpt_inc_ec", 37820),
        ("s2_ckpt_ec", 76012),
        ("s2_ckpt_inc_ec", 70808),
    ];
    /// The Rebirth and Migration cases' `rec` while a recovery message was
    /// charged a size written beside its codec — 56 B per mirror record, a
    /// Rebirth entry's full state and batch header never — rather than what
    /// it encodes to. (The checkpoint cases' full-sync frames were already
    /// charged their exact columns, and their `rec` books no message.)
    const REC_ESTIMATED: [(&str, u64); 8] = [
        ("s1_rebirth_ec", 16368),
        ("s1_rebirth_vc", 7128),
        ("s1_migration_ec", 37824),
        ("s1_migration_vc", 31172),
        ("s2_rebirth_ec", 54528),
        ("s2_rebirth_vc", 21888),
        ("s2_migration_ec", 340864),
        ("s2_migration_vc", 231800),
    ];
    /// Every case's `comm` while a sync frame's flag column held two bits a
    /// record (activate, and a delta flag no sender set): what `comm` pinned
    /// now must undercut, by the ⌈2n/8⌉ − ⌈n/8⌉ bytes each sync frame of n
    /// records saves. Gather frames did not move.
    const COMM_TWO_FLAG_BITS: [(&str, u64); 16] = [
        ("s1_rebirth_ec", 14052),
        ("s1_rebirth_vc", 43432),
        ("s1_migration_ec", 12920),
        ("s1_migration_vc", 34828),
        ("s1_ckpt_ec", 13872),
        ("s1_ckpt_vc", 43432),
        ("s1_ckpt_inc_ec", 13872),
        ("s1_ckpt_inc_vc", 43432),
        ("s2_rebirth_ec", 43116),
        ("s2_rebirth_vc", 119128),
        ("s2_migration_ec", 40004),
        ("s2_migration_vc", 85024),
        ("s2_ckpt_ec", 40240),
        ("s2_ckpt_vc", 127996),
        ("s2_ckpt_inc_ec", 40240),
        ("s2_ckpt_inc_vc", 127996),
    ];
    /// The Rebirth and Migration cases' `rec` while recovery messages wrote
    /// IDs, nodes, positions and counts at fixed width, a bool a byte, and a
    /// mirror batch's value records by index: what `rec` pinned now must
    /// undercut.
    const REC_FIXED_WIDTH: [(&str, u64); 8] = [
        ("s1_rebirth_ec", 24972),
        ("s1_rebirth_vc", 9464),
        ("s1_migration_ec", 23052),
        ("s1_migration_vc", 12608),
        ("s2_rebirth_ec", 98096),
        ("s2_rebirth_vc", 32960),
        ("s2_migration_ec", 212892),
        ("s2_migration_vc", 83108),
    ];
    /// The edge-cut Migration cases' `rec` while every round 7 refresh
    /// carried all three edge lists and every in-edge its own weight: what
    /// `rec` pinned now must undercut. Every other case's `rec` did not move.
    const REC_WHOLE_REFRESH: [(&str, u64); 2] =
        [("s1_migration_ec", 16328), ("s2_migration_ec", 172164)];
    /// The Rebirth cases' `rec` while a survivor shipped one row per copy,
    /// a master's edge lists beside the full state that holds them, every
    /// in-edge's weight and every ID and position as an absolute uvarint:
    /// what the edge-cut cases' `rec` pinned now must undercut and the
    /// vertex-cut cases' may not exceed. Every other case's `rec` did not
    /// move.
    const REC_ROW_ENTRIES: [(&str, u64, bool); 4] = [
        ("s1_rebirth_ec", 14108, true),
        ("s1_rebirth_vc", 5384, false),
        ("s2_rebirth_ec", 62444, true),
        ("s2_rebirth_vc", 21136, false),
    ];
    let repl = |tol, recovery| FtMode::Replication {
        tolerance: tol,
        selfish_opt: false,
        recovery,
    };
    let ckpt = |incremental| FtMode::Checkpoint {
        interval: 2,
        incremental,
    };
    let gb = |comm, ft, rec, ckpt| GoldenBytes {
        comm,
        ft,
        rec,
        ckpt,
    };
    let cases = [
        Case {
            name: "s1_rebirth_ec",
            graph: &g1,
            nodes: 4,
            ft: repl(1, RecoveryStrategy::Rebirth),
            standbys: 1,
            failures: &s1_failures,
            edge_cut: true,
            sem: 0xCDAD83957359282D,
            old: gb(22896, 324, 16368, 0),
            new: gb(13768, 180, 8248, 0),
        },
        Case {
            name: "s1_rebirth_vc",
            graph: &g1,
            nodes: 4,
            ft: repl(1, RecoveryStrategy::Rebirth),
            standbys: 1,
            failures: &s1_failures,
            edge_cut: false,
            sem: 0x89D503F6F06CD989,
            old: gb(68960, 0, 7128, 19392),
            new: gb(43120, 0, 5212, 10260),
        },
        Case {
            name: "s1_migration_ec",
            graph: &g1,
            nodes: 4,
            ft: repl(1, RecoveryStrategy::Migration),
            standbys: 0,
            failures: &s1_failures,
            edge_cut: true,
            sem: 0x2335D791956AA589,
            old: gb(21024, 216, 58624, 0),
            new: gb(12648, 120, 10620, 0),
        },
        Case {
            name: "s1_migration_vc",
            graph: &g1,
            nodes: 4,
            ft: repl(1, RecoveryStrategy::Migration),
            standbys: 0,
            failures: &s1_failures,
            edge_cut: false,
            sem: 0x391724293AEFE45D,
            old: gb(55532, 0, 48608, 38688),
            new: gb(34532, 0, 5916, 20508),
        },
        Case {
            name: "s1_ckpt_ec",
            graph: &g1,
            nodes: 4,
            ft: ckpt(false),
            standbys: 1,
            failures: &s1_failures[..1],
            edge_cut: true,
            sem: 0xB2490C13F3538AC5,
            old: gb(22572, 0, 0, 128156),
            new: gb(13588, 0, 0, 36576),
        },
        Case {
            name: "s1_ckpt_vc",
            graph: &g1,
            nodes: 4,
            ft: ckpt(false),
            standbys: 1,
            failures: &s1_failures[..1],
            edge_cut: false,
            sem: 0xE1D0B2035874C9ED,
            old: gb(68960, 0, 0, 69180),
            new: gb(43120, 0, 0, 33076),
        },
        Case {
            name: "s1_ckpt_inc_ec",
            graph: &g1,
            nodes: 4,
            ft: ckpt(true),
            standbys: 1,
            failures: &s1_failures[..1],
            edge_cut: true,
            sem: 0xB2490C13F3538AC5,
            old: gb(22572, 0, 0, 127036),
            new: gb(13588, 0, 0, 34564),
        },
        Case {
            name: "s1_ckpt_inc_vc",
            graph: &g1,
            nodes: 4,
            ft: ckpt(true),
            standbys: 1,
            failures: &s1_failures[..1],
            edge_cut: false,
            sem: 0xE1D0B2035874C9ED,
            old: gb(68960, 0, 0, 65052),
            new: gb(43120, 0, 0, 30500),
        },
        Case {
            name: "s2_rebirth_ec",
            graph: &g2,
            nodes: 5,
            ft: repl(2, RecoveryStrategy::Rebirth),
            standbys: 2,
            failures: &s2_failures,
            edge_cut: true,
            sem: 0x4A211DE51DB6B0DD,
            old: gb(71100, 11628, 54528, 0),
            new: gb(42212, 6704, 38172, 0),
        },
        Case {
            name: "s2_rebirth_vc",
            graph: &g2,
            nodes: 5,
            ft: repl(2, RecoveryStrategy::Rebirth),
            standbys: 2,
            failures: &s2_failures,
            edge_cut: false,
            sem: 0x0522124F16F0CE65,
            old: gb(190188, 2808, 21888, 33920),
            new: gb(118224, 1600, 19944, 19504),
        },
        Case {
            name: "s2_migration_ec",
            graph: &g2,
            nodes: 5,
            ft: repl(2, RecoveryStrategy::Migration),
            standbys: 0,
            failures: &s2_failures,
            edge_cut: true,
            sem: 0x6DF80C08CDF4009D,
            old: gb(64980, 10908, 365280, 0),
            new: gb(39132, 6384, 93184, 0),
        },
        Case {
            name: "s2_migration_vc",
            graph: &g2,
            nodes: 5,
            ft: repl(2, RecoveryStrategy::Migration),
            standbys: 0,
            failures: &s2_failures,
            edge_cut: false,
            sem: 0xB83390ACA60B3B9D,
            old: gb(136000, 2124, 256896, 101408),
            new: gb(84248, 1208, 50916, 58388),
        },
        Case {
            name: "s2_ckpt_ec",
            graph: &g2,
            nodes: 5,
            ft: ckpt(false),
            standbys: 1,
            failures: &s2_failures[..1],
            edge_cut: true,
            sem: 0x7BFA561A019A6BC5,
            old: gb(66132, 0, 0, 232992),
            new: gb(39368, 0, 0, 68420),
        },
        Case {
            name: "s2_ckpt_vc",
            graph: &g2,
            nodes: 5,
            ft: ckpt(false),
            standbys: 1,
            failures: &s2_failures[..1],
            edge_cut: false,
            sem: 0x8E2CDBB620D59F95,
            old: gb(204860, 0, 0, 131216),
            new: gb(126928, 0, 0, 64784),
        },
        Case {
            name: "s2_ckpt_inc_ec",
            graph: &g2,
            nodes: 5,
            ft: ckpt(true),
            standbys: 1,
            failures: &s2_failures[..1],
            edge_cut: true,
            sem: 0x7BFA561A019A6BC5,
            old: gb(66132, 0, 0, 229840),
            new: gb(39368, 0, 0, 63216),
        },
        Case {
            name: "s2_ckpt_inc_vc",
            graph: &g2,
            nodes: 5,
            ft: ckpt(true),
            standbys: 1,
            failures: &s2_failures[..1],
            edge_cut: false,
            sem: 0x8E2CDBB620D59F95,
            old: gb(204860, 0, 0, 120624),
            new: gb(126928, 0, 0, 58172),
        },
    ];
    for c in &cases {
        let (sem, bytes) = golden_run(c.graph, c.nodes, c.ft, c.standbys, c.failures, c.edge_cut);
        assert_eq!(
            sem, c.sem,
            "{}: semantic hash 0x{sem:016X} != pinned 0x{:016X}",
            c.name, c.sem
        );
        assert_eq!(
            bytes, c.new,
            "{}: byte totals moved off the pinned values",
            c.name
        );
        let was = |pins: &[(&str, u64)]| pins.iter().find(|(name, _)| *name == c.name).map(|p| p.1);
        let comm_was = was(&COMM_TWO_FLAG_BITS).expect("every case has its two-bit comm");
        assert!(
            bytes.comm < comm_was,
            "{}: comm {} must be strictly below {comm_was}",
            c.name,
            bytes.comm
        );
        if let Some(rec_was) = was(&REC_FIXED_WIDTH) {
            assert!(
                bytes.rec < rec_was,
                "{}: recovery bytes {} must be strictly below {rec_was}",
                c.name,
                bytes.rec
            );
        }
        if let Some(rec_was) = was(&REC_WHOLE_REFRESH) {
            assert!(
                bytes.rec < rec_was,
                "{}: recovery bytes {} must be strictly below {rec_was}",
                c.name,
                bytes.rec
            );
        }
        if let Some(&(_, rec_was, edge_cut)) = REC_ROW_ENTRIES.iter().find(|p| p.0 == c.name) {
            assert!(
                bytes.rec < rec_was || !edge_cut && bytes.rec <= rec_was,
                "{}: recovery bytes {} must not exceed {rec_was}, edge-cut not reach it",
                c.name,
                bytes.rec
            );
        }
        if let Some(was) = was(&EC_CKPT_WITH_SOURCES) {
            assert!(
                bytes.ckpt < was,
                "{}: ckpt payload {} must be strictly below {was}",
                c.name,
                bytes.ckpt
            );
        }
        // The columnar codec is only allowed to *shrink* traffic.
        assert!(
            bytes.comm < c.old.comm,
            "{}: comm bytes {} must be strictly below scalar {}",
            c.name,
            bytes.comm,
            c.old.comm
        );
        assert!(
            bytes.ft <= c.old.ft,
            "{}: ft bytes {} regressed past scalar {}",
            c.name,
            bytes.ft,
            c.old.ft
        );
        let estimated = REC_ESTIMATED.iter().find(|(name, _)| *name == c.name);
        match (estimated, c.ft) {
            (Some(&(_, estimate)), FtMode::Replication { .. }) => assert_ne!(
                bytes.rec, estimate,
                "{}: recovery bytes are the retired estimate",
                c.name
            ),
            (None, FtMode::Checkpoint { .. }) => assert_eq!(bytes.rec, c.old.rec, "{}", c.name),
            _ => panic!("{}: every replication case keeps its estimate", c.name),
        }
        if c.old.ckpt > 0 {
            assert!(
                bytes.ckpt < c.old.ckpt,
                "{}: ckpt payload {} must be strictly below fixed-width {}",
                c.name,
                bytes.ckpt,
                c.old.ckpt
            );
        } else {
            assert_eq!(bytes.ckpt, 0, "{}: unexpected checkpoint writes", c.name);
        }
    }
}

/// Floating-point fold order, pinned. Every other golden runs `MinLabel`,
/// whose `u32` min cannot see a reassociated fold; PageRank's sum can. Each
/// cell hashes every final rank and share bit for bit: edge-cut and
/// vertex-cut, failure-free and with node 1 reborn after a crash at
/// superstep 3. The hashes were recorded when a vertex-cut master folded its
/// partials sorted by (position, sender); they hold while every fold runs in
/// the order `vc_partial_gather` and `vc_apply` document.
#[test]
fn pagerank_fold_order_goldens_are_bit_identical() {
    let g = gen::power_law(300, 2.0, 5, 29);
    let rebirth = FtMode::Replication {
        tolerance: 1,
        selfish_opt: false,
        recovery: RecoveryStrategy::Rebirth,
    };
    let crash = FailurePlan {
        node: NodeId::new(1),
        iteration: 3,
        point: FailPoint::BeforeBarrier,
    };
    let mut got = Vec::new();
    for edge_cut in [true, false] {
        for (ft, standbys, failures) in [(FtMode::None, 0, vec![]), (rebirth, 1, vec![crash])] {
            let cfg = RunConfig {
                num_nodes: 4,
                max_iters: 20,
                ft,
                standbys,
                ..quick_detection()
            };
            let prog = Arc::new(PageRank::new(0.85, 0.0));
            let dfs = Dfs::new(DfsConfig::instant());
            let r = if edge_cut {
                let cut = HashEdgeCut.partition(&g, 4);
                run_edge_cut(&g, &cut, prog, cfg, failures, dfs)
            } else {
                let cut = RandomVertexCut.partition(&g, 4);
                run_vertex_cut(&g, &cut, prog, cfg, failures, dfs)
            };
            assert_eq!(r.recoveries.len(), standbys, "one crash, one Rebirth");
            let mut hash = fnv(0xCBF2_9CE4_8422_2325, &r.iterations.to_le_bytes());
            for v in &r.values {
                hash = fnv(hash, &v.rank.to_bits().to_le_bytes());
                hash = fnv(hash, &v.share.to_bits().to_le_bytes());
            }
            got.push(format!("0x{hash:016X}"));
        }
    }
    // {edge-cut, vertex-cut} × {failure-free, Rebirth of node 1}.
    let pinned = [
        "0x124E5BC34FE843DF",
        "0x124E5BC34FE843DF",
        "0x041DAEFC57F5C460",
        "0x041DAEFC57F5C460",
    ];
    assert_eq!(got, pinned, "a floating-point fold changed its order");
}

// ---------------------------------------------------------------------------
// Cascading failures (§5.3): a second crash strikes while recovery from the
// first is still in flight. Survivors must abort the in-flight attempt,
// enlarge the failure set, restart idempotently — and the run must still
// converge bit-identically to a failure-free execution.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct NestedScenario {
    graph: Graph,
    nodes: usize,
    strategy: RecoveryStrategy,
    /// The initial crash: (victim, iteration, before_barrier).
    primary: (usize, u64, bool),
    /// A node (never the primary victim) that crashes mid-recovery.
    second: usize,
    /// Selects which recovery-phase fail point the second crash hits.
    point_sel: u8,
    standbys: usize,
}

/// The iteration a recovery episode triggered by `primary` resumes from: a
/// pre-barrier crash is detected at the same iteration's barrier, a
/// post-barrier crash at the next one. Recovery-phase fail plans key their
/// `iteration` by this value.
fn resume_iter(primary: (usize, u64, bool)) -> u64 {
    if primary.2 {
        primary.1
    } else {
        primary.1 + 1
    }
}

fn arb_nested() -> impl Strategy<Value = NestedScenario> {
    (
        4usize..6,
        40usize..160,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 30..250),
        prop_oneof![
            Just(RecoveryStrategy::Rebirth),
            Just(RecoveryStrategy::Migration)
        ],
        (0usize..6, 0u64..5, any::<bool>()),
        0usize..6,
        any::<u8>(),
        0usize..4,
    )
        .prop_map(
            |(nodes, n, pairs, strategy, raw_primary, raw_second, point_sel, standbys)| {
                let pairs: Vec<(u32, u32)> = pairs
                    .into_iter()
                    .map(|(a, b)| (a % n as u32, b % n as u32))
                    .collect();
                let victim = raw_primary.0 % nodes;
                let mut second = raw_second % nodes;
                if second == victim {
                    second = (second + 1) % nodes;
                }
                NestedScenario {
                    graph: gen::from_pairs(n, &pairs),
                    nodes,
                    strategy,
                    primary: (victim, raw_primary.1, raw_primary.2),
                    second,
                    point_sel,
                    standbys,
                }
            },
        )
}

/// The primary crash plus a second crash inside the recovery episode it
/// triggers. For Rebirth the second crash may also target the *reborn* node
/// itself (the standby inherits the dead node's identity), covering newbie
/// death during reload, reconstruction and replay. If the primary never
/// fires (the run converges first), the nested plan stays dormant and the
/// property degenerates to plain equivalence — still a valid assertion.
fn nested_plans(s: &NestedScenario) -> Vec<FailurePlan> {
    let (victim, iter, before) = s.primary;
    let resume = resume_iter(s.primary);
    let mut out = vec![FailurePlan {
        node: NodeId::from_index(victim),
        iteration: iter,
        point: if before {
            FailPoint::BeforeBarrier
        } else {
            FailPoint::AfterBarrier
        },
    }];
    let (point, node) = match s.strategy {
        RecoveryStrategy::Migration => (FailPoint::MigrationRound(1 + s.point_sel % 8), s.second),
        RecoveryStrategy::Rebirth => match s.point_sel % 4 {
            0 => (FailPoint::RebirthReload, s.second),
            1 => (FailPoint::RebirthReload, victim),
            2 => (FailPoint::RebirthReconstruct, victim),
            _ => (FailPoint::RebirthReplay, victim),
        },
    };
    out.push(FailurePlan {
        node: NodeId::from_index(node),
        iteration: resume,
        point,
    });
    out
}

fn nested_config(s: &NestedScenario, ft: FtMode) -> RunConfig {
    RunConfig {
        num_nodes: s.nodes,
        max_iters: 30,
        ft,
        standbys: s.standbys,
        ..quick_detection()
    }
}

/// Every successful episode took exactly one more attempt than it aborted;
/// the reborn newbie's `{1, 0}` view never outweighs the survivors' under
/// the max-merge.
fn check_counters<V>(report: &RunReport<V>) -> Result<(), TestCaseError> {
    for ep in &report.recoveries {
        prop_assert_eq!(
            ep.counters.attempts,
            ep.counters.aborts + 1,
            "episode {:?}: attempts must be aborts + 1",
            ep.counters
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    #[test]
    fn edge_cut_cascading_failure_is_equivalent(s in arb_nested()) {
        let cut = HashEdgeCut.partition(&s.graph, s.nodes);
        let clean = run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            RunConfig { ft: FtMode::None, standbys: 0, ..nested_config(&s, FtMode::None) },
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let ft = FtMode::Replication {
            tolerance: 2,
            selfish_opt: false,
            recovery: s.strategy,
        };
        let recovered = run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            nested_config(&s, ft),
            nested_plans(&s),
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(&recovered.values, &clean.values);
        check_counters(&recovered)?;
    }

    #[test]
    fn vertex_cut_cascading_failure_is_equivalent(s in arb_nested()) {
        let cut = RandomVertexCut.partition(&s.graph, s.nodes);
        let clean = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            RunConfig { ft: FtMode::None, standbys: 0, ..nested_config(&s, FtMode::None) },
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let ft = FtMode::Replication {
            tolerance: 2,
            selfish_opt: false,
            recovery: s.strategy,
        };
        let recovered = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            nested_config(&s, ft),
            nested_plans(&s),
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(&recovered.values, &clean.values);
        check_counters(&recovered)?;
    }

    #[test]
    fn checkpoint_cascading_failure_is_equivalent(
        (s, incremental) in (arb_nested(), any::<bool>())
    ) {
        // Checkpoint recovery reuses RebirthReload for the post-decision
        // crash and MigrationRound(1..=3) for the fallback rounds; torn
        // snapshot writes (CkptWrite) are driven by the primary selector.
        let (victim, iter, _) = s.primary;
        let resume = resume_iter(s.primary);
        let mut plans_v = vec![FailurePlan {
            node: NodeId::from_index(victim),
            iteration: iter,
            point: if s.point_sel % 3 == 2 {
                // Only fires when (iter + 1) is an epoch boundary; dormant
                // otherwise, which still asserts plain equivalence.
                FailPoint::CkptWrite
            } else if s.primary.2 {
                FailPoint::BeforeBarrier
            } else {
                FailPoint::AfterBarrier
            },
        }];
        plans_v.push(FailurePlan {
            node: NodeId::from_index(s.second),
            iteration: resume,
            point: if s.point_sel % 2 == 0 {
                FailPoint::RebirthReload
            } else {
                FailPoint::MigrationRound(1 + s.point_sel % 3)
            },
        });
        let cut = RandomVertexCut.partition(&s.graph, s.nodes);
        let clean = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            RunConfig { ft: FtMode::None, standbys: 0, ..nested_config(&s, FtMode::None) },
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let ft = FtMode::Checkpoint { interval: 2, incremental };
        let recovered = run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            nested_config(&s, ft),
            plans_v,
            Dfs::new(DfsConfig::instant()),
        );
        prop_assert_eq!(&recovered.values, &clean.values);
        check_counters(&recovered)?;
    }
}

// ---------------------------------------------------------------------------
// Deterministic cascading-failure and degradation cases. Unlike the fuzzed
// properties above these pin the exact recovery path taken: every
// MigrationRound is aborted at least once, crashed newbies are
// re-dispatched, standby exhaustion degrades (never panics), and a torn
// checkpoint epoch is never loaded.
// ---------------------------------------------------------------------------

/// Runs MinLabel on a fixed 120-vertex graph over 4 nodes, failure-free and
/// with `plans` under `ft`; returns the clean values and the faulty run's
/// report.
fn nested_run(
    edge_cut: bool,
    ft: FtMode,
    standbys: usize,
    plans: Vec<FailurePlan>,
) -> (Vec<u32>, RunReport<u32>) {
    let graph = lcg_graph(120, 400, 1);
    let nodes = 4;
    let cfg = |ft, standbys| RunConfig {
        num_nodes: nodes,
        max_iters: 30,
        ft,
        standbys,
        ..quick_detection()
    };
    if edge_cut {
        let cut = HashEdgeCut.partition(&graph, nodes);
        let clean = run_edge_cut(
            &graph,
            &cut,
            Arc::new(MinLabel),
            cfg(FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let rec = run_edge_cut(
            &graph,
            &cut,
            Arc::new(MinLabel),
            cfg(ft, standbys),
            plans,
            Dfs::new(DfsConfig::instant()),
        );
        (clean.values, rec)
    } else {
        let cut = RandomVertexCut.partition(&graph, nodes);
        let clean = run_vertex_cut(
            &graph,
            &cut,
            Arc::new(MinLabel),
            cfg(FtMode::None, 0),
            vec![],
            Dfs::new(DfsConfig::instant()),
        );
        let rec = run_vertex_cut(
            &graph,
            &cut,
            Arc::new(MinLabel),
            cfg(ft, standbys),
            plans,
            Dfs::new(DfsConfig::instant()),
        );
        (clean.values, rec)
    }
}

fn crash(node: usize, iteration: u64, point: FailPoint) -> FailurePlan {
    FailurePlan {
        node: NodeId::from_index(node),
        iteration,
        point,
    }
}

fn repl2(recovery: RecoveryStrategy) -> FtMode {
    FtMode::Replication {
        tolerance: 2,
        selfish_opt: false,
        recovery,
    }
}

/// A crash at the start of every Migration round aborts the attempt; the
/// restarted episode absorbs the second victim and still converges exactly.
#[test]
fn migration_restarts_after_mid_round_crash() {
    for edge_cut in [true, false] {
        for round in 1..=8u8 {
            let plans = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::MigrationRound(round)),
            ];
            let (clean, rec) = nested_run(edge_cut, repl2(RecoveryStrategy::Migration), 0, plans);
            assert_eq!(rec.values, clean, "edge_cut={edge_cut} round={round}");
            assert_eq!(rec.recoveries.len(), 1, "one episode absorbs both crashes");
            let ep = &rec.recoveries[0];
            assert_eq!(ep.strategy, "migration");
            assert_eq!(ep.failed_nodes, 2, "edge_cut={edge_cut} round={round}");
            assert_eq!(
                (ep.counters.attempts, ep.counters.aborts),
                (2, 1),
                "edge_cut={edge_cut} round={round}"
            );
        }
    }
}

/// A survivor dying right after the standby-dispatch decision aborts the
/// Rebirth attempt; with standbys to spare the retry re-dispatches for the
/// enlarged failure set.
#[test]
fn rebirth_restarts_when_survivor_crashes_mid_reload() {
    for edge_cut in [true, false] {
        let plans = vec![
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(2, 2, FailPoint::RebirthReload),
        ];
        let (clean, rec) = nested_run(edge_cut, repl2(RecoveryStrategy::Rebirth), 3, plans);
        assert_eq!(rec.values, clean, "edge_cut={edge_cut}");
        assert_eq!(rec.recoveries.len(), 1);
        let ep = &rec.recoveries[0];
        assert_eq!(ep.strategy, "rebirth", "edge_cut={edge_cut}");
        assert_eq!(ep.failed_nodes, 2);
        assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
    }
}

/// The reborn node itself dying mid-recovery (at any of its three phases)
/// aborts the attempt; the retry dispatches a fresh standby for the same
/// identity.
#[test]
fn rebirth_redispatches_after_newbie_crash() {
    for edge_cut in [true, false] {
        for point in [
            FailPoint::RebirthReload,
            FailPoint::RebirthReconstruct,
            FailPoint::RebirthReplay,
        ] {
            let plans = vec![crash(1, 2, FailPoint::BeforeBarrier), crash(1, 2, point)];
            let (clean, rec) = nested_run(edge_cut, repl2(RecoveryStrategy::Rebirth), 3, plans);
            assert_eq!(rec.values, clean, "edge_cut={edge_cut} point={point:?}");
            assert_eq!(rec.recoveries.len(), 1);
            let ep = &rec.recoveries[0];
            assert_eq!(
                ep.strategy, "rebirth",
                "edge_cut={edge_cut} point={point:?}"
            );
            assert_eq!(
                ep.failed_nodes, 1,
                "the newbie's crash re-fails the same identity"
            );
            assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
        }
    }
}

/// With no standbys at all, Rebirth degrades to Migration instead of
/// asserting; the report records the executed path.
#[test]
fn rebirth_degrades_to_migration_when_standbys_exhausted() {
    for edge_cut in [true, false] {
        let plans = vec![crash(1, 2, FailPoint::BeforeBarrier)];
        let (clean, rec) = nested_run(edge_cut, repl2(RecoveryStrategy::Rebirth), 0, plans);
        assert_eq!(rec.values, clean, "edge_cut={edge_cut}");
        assert_eq!(rec.recoveries.len(), 1);
        let ep = &rec.recoveries[0];
        assert_eq!(
            ep.strategy, "rebirth\u{2192}migration",
            "edge_cut={edge_cut}"
        );
        assert_eq!((ep.counters.attempts, ep.counters.aborts), (1, 0));
    }
}

/// An aborted attempt consumes its dispatched standby (the newbie suicides
/// to rejoin the barrier protocol); when the retry's enlarged failure set
/// outnumbers the remaining pool, Rebirth degrades mid-episode.
#[test]
fn rebirth_degrades_after_abort_consumes_standbys() {
    for edge_cut in [true, false] {
        let plans = vec![
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(2, 2, FailPoint::RebirthReload),
        ];
        let (clean, rec) = nested_run(edge_cut, repl2(RecoveryStrategy::Rebirth), 1, plans);
        assert_eq!(rec.values, clean, "edge_cut={edge_cut}");
        assert_eq!(rec.recoveries.len(), 1);
        let ep = &rec.recoveries[0];
        assert_eq!(
            ep.strategy, "rebirth\u{2192}migration",
            "edge_cut={edge_cut}"
        );
        assert_eq!(ep.failed_nodes, 2);
        assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
    }
}

/// Checkpoint recovery without standbys falls back to replica-free
/// migration: survivors adopt the dead partitions straight from the
/// snapshot chain.
#[test]
fn checkpoint_degrades_to_migration_when_standbys_exhausted() {
    for edge_cut in [true, false] {
        for incremental in [false, true] {
            let plans = vec![crash(1, 2, FailPoint::BeforeBarrier)];
            let ft = FtMode::Checkpoint {
                interval: 2,
                incremental,
            };
            let (clean, rec) = nested_run(edge_cut, ft, 0, plans);
            assert_eq!(
                rec.values, clean,
                "edge_cut={edge_cut} incremental={incremental}"
            );
            assert_eq!(rec.recoveries.len(), 1);
            let ep = &rec.recoveries[0];
            assert_eq!(
                ep.strategy, "checkpoint\u{2192}migration",
                "edge_cut={edge_cut} incremental={incremental}"
            );
        }
    }
}

/// Two machines lost at once with an empty standby pool: the fallback must
/// adopt both partitions and resolve replicas whose master died alongside
/// them (orphans).
#[test]
fn checkpoint_fallback_handles_double_failure() {
    for edge_cut in [true, false] {
        for incremental in [false, true] {
            let plans = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::BeforeBarrier),
            ];
            let ft = FtMode::Checkpoint {
                interval: 2,
                incremental,
            };
            let (clean, rec) = nested_run(edge_cut, ft, 0, plans);
            assert_eq!(
                rec.values, clean,
                "edge_cut={edge_cut} incremental={incremental}"
            );
            assert_eq!(rec.recoveries.len(), 1);
            let ep = &rec.recoveries[0];
            assert_eq!(ep.strategy, "checkpoint\u{2192}migration");
            assert_eq!(
                ep.failed_nodes, 2,
                "edge_cut={edge_cut} incremental={incremental}"
            );
        }
    }
}

/// A second crash during checkpoint recovery: with spare standbys the
/// restarted episode stays on the standby path; with a drained pool it
/// degrades to the migration fallback.
#[test]
fn checkpoint_cascade_restarts_or_degrades() {
    for edge_cut in [true, false] {
        for (standbys, want) in [(3, "checkpoint"), (2, "checkpoint\u{2192}migration")] {
            let plans = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::RebirthReload),
            ];
            let ft = FtMode::Checkpoint {
                interval: 2,
                incremental: false,
            };
            let (clean, rec) = nested_run(edge_cut, ft, standbys, plans);
            assert_eq!(rec.values, clean, "edge_cut={edge_cut} standbys={standbys}");
            assert_eq!(rec.recoveries.len(), 1);
            let ep = &rec.recoveries[0];
            assert_eq!(ep.strategy, want, "edge_cut={edge_cut} standbys={standbys}");
            assert_eq!(ep.failed_nodes, 2);
            assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
        }
    }
}

/// A delta chain that spans two recovery episodes of different shapes. With
/// `interval: 2, incremental: true` the epoch cadence is 2=Full, 4=Delta,
/// 6=Delta… The first crash (iteration 2) is handled on the standby path
/// (the rebirth-style "checkpoint" strategy) from the bare full epoch 2;
/// delta epoch 4 is then written by the post-recovery membership onto that
/// same base; the second crash (iteration 4) finds the standby pool drained
/// and degrades to the migration fallback, which must ground itself on the
/// full epoch written *before* the first episode plus the delta written
/// *after* it — and still converge bit-identically.
#[test]
fn delta_chain_crosses_rebirth_and_migration_recoveries() {
    use imitator_repro::storage::{epoch, EpochKind};
    let graph = lcg_graph(120, 400, 1);
    let nodes = 4;
    let ft = FtMode::Checkpoint {
        interval: 2,
        incremental: true,
    };
    let cfg = |ft, standbys| RunConfig {
        num_nodes: nodes,
        max_iters: 30,
        ft,
        standbys,
        ..quick_detection()
    };
    for edge_cut in [true, false] {
        let plans = vec![
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(2, 4, FailPoint::BeforeBarrier),
        ];
        let dfs = Dfs::new(DfsConfig::instant());
        let (clean, rec, prefix) = if edge_cut {
            let cut = HashEdgeCut.partition(&graph, nodes);
            let clean = run_edge_cut(
                &graph,
                &cut,
                Arc::new(MinLabel),
                cfg(FtMode::None, 0),
                vec![],
                Dfs::new(DfsConfig::instant()),
            );
            let rec = run_edge_cut(
                &graph,
                &cut,
                Arc::new(MinLabel),
                cfg(ft, 1),
                plans,
                dfs.clone(),
            );
            (clean.values, rec, "ec")
        } else {
            let cut = RandomVertexCut.partition(&graph, nodes);
            let clean = run_vertex_cut(
                &graph,
                &cut,
                Arc::new(MinLabel),
                cfg(FtMode::None, 0),
                vec![],
                Dfs::new(DfsConfig::instant()),
            );
            let rec = run_vertex_cut(
                &graph,
                &cut,
                Arc::new(MinLabel),
                cfg(ft, 1),
                plans,
                dfs.clone(),
            );
            (clean.values, rec, "vc")
        };
        assert_eq!(rec.values, clean, "edge_cut={edge_cut}");
        assert_eq!(rec.recoveries.len(), 2, "edge_cut={edge_cut}");
        assert_eq!(
            rec.recoveries[0].strategy, "checkpoint",
            "edge_cut={edge_cut}"
        );
        assert_eq!(
            rec.recoveries[1].strategy, "checkpoint\u{2192}migration",
            "edge_cut={edge_cut}"
        );
        // Pin the chain shape the fallback loaded: epoch 2 is the complete
        // full base, epoch 4 the complete delta on top, and both rosters
        // cover the dead node whose partition the survivors reconstructed.
        let (kind2, roster2) = epoch::read_roster(&dfs, prefix, 2).expect("epoch 2 complete");
        let (kind4, roster4) = epoch::read_roster(&dfs, prefix, 4).expect("epoch 4 complete");
        assert_eq!(kind2, EpochKind::Full, "edge_cut={edge_cut}");
        assert_eq!(kind4, EpochKind::Delta, "edge_cut={edge_cut}");
        assert!(
            roster2.contains(&2) && roster4.contains(&2),
            "edge_cut={edge_cut}"
        );
    }
}

/// A node dying mid-snapshot-write leaves a torn part behind; the epoch it
/// belongs to must never be loaded. Recovery rolls back to the previous
/// complete epoch and still converges exactly — with or without a standby.
#[test]
fn torn_checkpoint_epoch_is_never_loaded() {
    for edge_cut in [true, false] {
        for (standbys, want) in [(1, "checkpoint"), (0, "checkpoint\u{2192}migration")] {
            // interval 2 ⇒ epoch 4 is written during iteration 3; node 1
            // dies mid-write, torn part ⇒ roster check keeps epoch 4
            // incomplete forever.
            let plans = vec![crash(1, 3, FailPoint::CkptWrite)];
            let ft = FtMode::Checkpoint {
                interval: 2,
                incremental: false,
            };
            let (clean, rec) = nested_run(edge_cut, ft, standbys, plans);
            assert_eq!(rec.values, clean, "edge_cut={edge_cut} standbys={standbys}");
            assert_eq!(rec.recoveries.len(), 1);
            assert_eq!(
                rec.recoveries[0].strategy, want,
                "edge_cut={edge_cut} standbys={standbys}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Columnar wire format: end-to-end invisibility. Under failures in both
// models, the frame codec may not move a single vertex value off a
// failure-free run's, and the byte totals must come in strictly below the
// scalar per-record accounting this codec replaced (reference constants
// captured at the parent commit on this scenario).
// ---------------------------------------------------------------------------

#[test]
fn wire_format_invisible_e2e() {
    let g = lcg_graph(200, 700, 2);
    let failures = [(0usize, 1u64, true), (3usize, 3u64, false)];
    let plans: Vec<FailurePlan> = failures
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
        .collect();
    let rebirth = FtMode::Replication {
        tolerance: 2,
        selfish_opt: false,
        recovery: RecoveryStrategy::Rebirth,
    };
    let ckpt = FtMode::Checkpoint {
        interval: 2,
        incremental: true,
    };
    // (name, ft, standbys, plans, edge_cut, scalar comm bytes, scalar ckpt bytes)
    let scenarios = [
        (
            "rebirth_ec",
            rebirth,
            2,
            plans.clone(),
            true,
            17775u64,
            0u64,
        ),
        ("rebirth_vc", rebirth, 2, plans.clone(), false, 47547, 8480),
        ("ckpt_ec", ckpt, 1, plans[..1].to_vec(), true, 16533, 57460),
        ("ckpt_vc", ckpt, 1, plans[..1].to_vec(), false, 51215, 30156),
    ];
    for (name, ft, standbys, plans, edge_cut, scalar_comm, scalar_ckpt) in scenarios {
        let run = |ft, standbys, plans| {
            let cfg = RunConfig {
                num_nodes: 5,
                max_iters: 30,
                ft,
                standbys,
                ..quick_detection()
            };
            let dfs = Dfs::new(DfsConfig::instant());
            let r = if edge_cut {
                let cut = HashEdgeCut.partition(&g, 5);
                run_edge_cut(&g, &cut, Arc::new(MinLabel), cfg, plans, dfs.clone())
            } else {
                let cut = RandomVertexCut.partition(&g, 5);
                run_vertex_cut(&g, &cut, Arc::new(MinLabel), cfg, plans, dfs.clone())
            };
            (r, dfs.stats().writes.bytes)
        };
        let (clean, _) = run(FtMode::None, 0, Vec::new());
        let (r, ckpt_bytes) = run(ft, standbys, plans);
        assert_eq!(r.values, clean.values, "{name}: values moved");
        let comm_bytes = r.comm.bytes;
        assert!(
            comm_bytes < scalar_comm,
            "{name}: columnar comm {comm_bytes} must be strictly below scalar {scalar_comm}"
        );
        if scalar_ckpt > 0 {
            assert!(
                ckpt_bytes < scalar_ckpt,
                "{name}: varint ckpt payload {ckpt_bytes} must be strictly below \
                 fixed-width {scalar_ckpt}"
            );
        } else {
            assert_eq!(ckpt_bytes, 0, "{name}: unexpected checkpoint writes");
        }
    }
}

// ---------------------------------------------------------------------------
// Transport equivalence (the wire seam). The backend a run communicates over
// — reliable in-process channels, seeded-lossy links, loopback TCP — must be
// invisible in every logical observable: sequence-numbered idempotent
// redelivery plus the pre-barrier retransmission fence restore exactly the
// delivery guarantee the protocol was written against, and logical
// accounting is recorded before a frame reaches the wire, so message and
// byte tallies are bit-identical too. Only the *physical* retries and
// redelivered counters may move — and under a fault schedule they must, or
// the schedule never fired.
// ---------------------------------------------------------------------------

/// Severe-but-survivable uniform faults for the equivalence sweeps: heavy
/// enough that any run of a few dozen frames trips several faults.
fn heavy_faults(seed: u64) -> NetFaults {
    NetFaults::uniform(
        seed,
        LinkFaults {
            drop_pm: 150,
            dup_pm: 120,
            reorder_pm: 100,
            delay_pm: 80,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(10)))]

    /// Both engines × seeded drop/dup/reorder/delay schedules, with machine crashes layered on top of the link faults:
    /// the run converges to the failure-free golden values, every logical
    /// tally matches the reliable-channel run of the same schedule, and the
    /// physical retry counters are nonzero on any run long enough that the
    /// faults must have fired.
    #[test]
    fn lossy_transport_bit_identical(
        (s, net_seed) in (arb_scenario(), any::<u64>())
    ) {
        let ft = FtMode::Replication {
            tolerance: s.tolerance,
            selfish_opt: false,
            recovery: s.strategy,
        };
        let standbys = match s.strategy {
            RecoveryStrategy::Rebirth => s.failures.len(),
            RecoveryStrategy::Migration => 0,
        };
        let lossy = TransportKind::Lossy(heavy_faults(net_seed));
        for edge_cut in [true, false] {
            let run = |transport, ft, standbys, failures: Vec<FailurePlan>| {
                let cfg = RunConfig { transport, ..config(&s, ft, standbys) };
                let dfs = Dfs::new(DfsConfig::instant());
                if edge_cut {
                    let cut = HashEdgeCut.partition(&s.graph, s.nodes);
                    run_edge_cut(&s.graph, &cut, Arc::new(MinLabel), cfg, failures, dfs)
                } else {
                    let cut = RandomVertexCut.partition(&s.graph, s.nodes);
                    run_vertex_cut(&s.graph, &cut, Arc::new(MinLabel), cfg, failures, dfs)
                }
            };
            let clean = run(TransportKind::Channel, FtMode::None, 0, vec![]);
            let reliable = run(TransportKind::Channel, ft, standbys, plans(&s));
            let faulted = run(lossy, ft, standbys, plans(&s));
            prop_assert_eq!(&faulted.values, &clean.values);
            prop_assert_eq!(&faulted.values, &reliable.values);
            prop_assert_eq!(faulted.iterations, reliable.iterations);
            prop_assert_eq!(faulted.comm.messages, reliable.comm.messages);
            prop_assert_eq!(faulted.comm.bytes, reliable.comm.bytes);
            prop_assert_eq!(faulted.ft_comm.messages, reliable.ft_comm.messages);
            prop_assert_eq!(faulted.ft_comm.bytes, reliable.ft_comm.bytes);
            prop_assert_eq!(faulted.recoveries.len(), reliable.recoveries.len());
            prop_assert_eq!(reliable.fabric.retries, 0);
            prop_assert_eq!(reliable.fabric.redelivered, 0);
            // The schedule leaves a frame neither dropped nor duplicated with
            // probability (1 − 0.15)(1 − 0.12) ≈ 0.75, so a run of 40 frames
            // misses it with probability below 1e-5; a tiny graph that
            // converges before its crashes may ship a dozen and see none.
            let frames = faulted.fabric.total().messages;
            prop_assert!(
                frames < 40 || faulted.fabric.retries + faulted.fabric.redelivered > 0,
                "fault schedule never fired on {} frames (edge_cut={})",
                frames,
                edge_cut
            );
        }
    }
}

/// The acceptance schedule: a Migration recovery whose protocol rounds lose
/// frames (drop on `Recovery` traffic only) while the normal supersteps see
/// duplicated sync frames (dup on `Sync` traffic only). The run must end
/// bit-identical to the reliable-channel run, with the retransmission
/// counter proving at least one Migration-round message was dropped and the
/// redelivery counter proving at least one sync frame was duplicated and
/// suppressed.
#[test]
fn lossy_migration_round_drop_and_sync_dup_recover() {
    let g = lcg_graph(120, 400, 5);
    let faults = NetFaults {
        seed: 0xD5A1,
        sync: LinkFaults {
            dup_pm: 250,
            ..LinkFaults::NONE
        },
        gather: LinkFaults::NONE,
        recovery: LinkFaults {
            drop_pm: 250,
            ..LinkFaults::NONE
        },
        control: LinkFaults::NONE,
        heartbeat: LinkFaults::NONE,
    };
    let ft = FtMode::Replication {
        tolerance: 1,
        selfish_opt: false,
        recovery: RecoveryStrategy::Migration,
    };
    let plan = vec![FailurePlan {
        node: NodeId::from_index(1),
        iteration: 2,
        point: FailPoint::BeforeBarrier,
    }];
    for edge_cut in [true, false] {
        let run = |transport| {
            let cfg = RunConfig {
                num_nodes: 4,
                max_iters: 30,
                ft,
                standbys: 0,
                transport,
                ..quick_detection()
            };
            let dfs = Dfs::new(DfsConfig::instant());
            if edge_cut {
                let cut = HashEdgeCut.partition(&g, 4);
                run_edge_cut(&g, &cut, Arc::new(MinLabel), cfg, plan.clone(), dfs)
            } else {
                let cut = RandomVertexCut.partition(&g, 4);
                run_vertex_cut(&g, &cut, Arc::new(MinLabel), cfg, plan.clone(), dfs)
            }
        };
        let reliable = run(TransportKind::Channel);
        let faulted = run(TransportKind::Lossy(faults));
        assert_eq!(faulted.values, reliable.values, "edge_cut={edge_cut}");
        assert_eq!(faulted.iterations, reliable.iterations);
        assert_eq!(faulted.comm.bytes, reliable.comm.bytes);
        assert_eq!(faulted.recoveries.len(), 1, "edge_cut={edge_cut}");
        assert!(
            faulted.fabric.retries >= 1,
            "no Migration-round frame was dropped+retransmitted (edge_cut={edge_cut})"
        );
        assert!(
            faulted.fabric.redelivered >= 1,
            "no sync frame was duplicated+suppressed (edge_cut={edge_cut})"
        );
    }
}
