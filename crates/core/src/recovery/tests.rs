//! Unit tests for the recovery state machine's internals: when the undo
//! snapshot copies the graph, and that the [`MigEnv`] promotion indices
//! answer exactly like the scans and hash maps they replaced.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::{gen, Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::{Dfs, DfsConfig};
use proptest::prelude::*;

use super::{MigEnv, GRAPH_CAPTURES};
use crate::msg::Promotion;
use crate::report::RunReport;
use crate::{run_edge_cut, run_vertex_cut, FtMode, RecoveryStrategy, RunConfig};

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

const NODES: usize = 4;

/// `GRAPH_CAPTURES` is process-wide and the test harness runs tests on
/// parallel threads: every test that runs a recovery holds this lock.
static CAPTURE_TESTS: Mutex<()> = Mutex::new(());

fn graph() -> Graph {
    gen::power_law(300, 2.0, 5, 11)
}

/// Runs MinLabel on 4 nodes and returns the report with the number of graph
/// deep copies the run's undo snapshots took.
fn run(
    edge_cut: bool,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> (RunReport<u32>, usize) {
    let g = graph();
    let cfg = RunConfig {
        num_nodes: NODES,
        max_iters: 30,
        ft,
        standbys,
        ..RunConfig::default()
    };
    let dfs = Dfs::new(DfsConfig::instant());
    let before = GRAPH_CAPTURES.load(Ordering::Relaxed);
    let report = if edge_cut {
        let cut = HashEdgeCut.partition(&g, NODES);
        run_edge_cut(&g, &cut, Arc::new(MinLabel), cfg, failures, dfs)
    } else {
        let cut = RandomVertexCut.partition(&g, NODES);
        run_vertex_cut(&g, &cut, Arc::new(MinLabel), cfg, failures, dfs)
    };
    (report, GRAPH_CAPTURES.load(Ordering::Relaxed) - before)
}

fn crash(node: usize, iteration: u64, point: FailPoint) -> FailurePlan {
    FailurePlan {
        node: NodeId::from_index(node),
        iteration,
        point,
    }
}

fn replication(tolerance: usize, recovery: RecoveryStrategy) -> FtMode {
    FtMode::Replication {
        tolerance,
        selfish_opt: false,
        recovery,
    }
}

/// A Rebirth attempt only reads the survivors' graphs: no copy. Every path
/// that rewrites them — Migration, Rebirth degrading to Migration, both
/// checkpoint paths — copies once per survivor, before its first mutation.
#[test]
fn undo_copies_the_graph_only_where_an_attempt_mutates_it() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let ckpt = FtMode::Checkpoint {
        interval: 2,
        incremental: true,
    };
    let cases: [(&str, FtMode, usize, usize); 5] = [
        ("rebirth", replication(1, RecoveryStrategy::Rebirth), 1, 0),
        (
            "migration",
            replication(1, RecoveryStrategy::Migration),
            0,
            NODES - 1,
        ),
        (
            "rebirth→migration",
            replication(1, RecoveryStrategy::Rebirth),
            0,
            NODES - 1,
        ),
        ("checkpoint", ckpt, 1, NODES - 1),
        ("checkpoint→migration", ckpt, 0, NODES - 1),
    ];
    for edge_cut in [true, false] {
        let (golden, copies) = run(edge_cut, FtMode::None, 0, vec![]);
        assert_eq!(copies, 0, "no episode, no undo");
        for (strategy, ft, standbys, want) in cases {
            let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
            let (r, copies) = run(edge_cut, ft, standbys, plan);
            assert_eq!(r.values, golden.values, "edge_cut={edge_cut} {strategy}");
            assert_eq!(r.recoveries.len(), 1, "edge_cut={edge_cut} {strategy}");
            assert_eq!(r.recoveries[0].strategy, strategy, "edge_cut={edge_cut}");
            assert_eq!(copies, want, "edge_cut={edge_cut} {strategy}");
            let booked = r.recoveries[0].phases.get("undo_capture").is_some();
            assert_eq!(booked, want > 0, "edge_cut={edge_cut} {strategy}");
        }
    }
}

/// An attempt aborted at the start of any Migration round restores from the
/// lazily captured snapshot and the retry finishes bit-identical to the
/// failure-free run. The snapshot is taken once: the retry starts from the
/// restored graph, which is the captured one.
#[test]
fn abort_at_every_migration_round_restores_from_the_lazy_snapshot() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for edge_cut in [true, false] {
        let (golden, _) = run(edge_cut, FtMode::None, 0, vec![]);
        for round in 1..=8u8 {
            let plan = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::MigrationRound(round)),
            ];
            let ft = replication(2, RecoveryStrategy::Migration);
            let (r, copies) = run(edge_cut, ft, 0, plan);
            assert_eq!(r.values, golden.values, "edge_cut={edge_cut} round={round}");
            let ep = &r.recoveries[0];
            assert_eq!(
                (ep.counters.attempts, ep.counters.aborts),
                (2, 1),
                "edge_cut={edge_cut} round={round}"
            );
            // The three first-attempt survivors copy (the second victim
            // dies after its copy); nobody copies again for the retry.
            assert_eq!(copies, NODES - 1, "edge_cut={edge_cut} round={round}");
        }
    }
}

/// A Rebirth attempt that aborts before anyone mutated anything restores
/// without a graph snapshot; the retry that degrades to Migration (standbys
/// spent) takes the episode's one copy then.
#[test]
fn aborted_rebirth_restores_without_a_snapshot() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for edge_cut in [true, false] {
        let (golden, _) = run(edge_cut, FtMode::None, 0, vec![]);
        let plan = vec![
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(2, 2, FailPoint::RebirthReload),
        ];
        let ft = replication(2, RecoveryStrategy::Rebirth);
        // One standby: spent by the aborted attempt, so the retry migrates.
        let (r, copies) = run(edge_cut, ft, 1, plan);
        assert_eq!(r.values, golden.values, "edge_cut={edge_cut}");
        let ep = &r.recoveries[0];
        assert_eq!(ep.strategy, "rebirth→migration", "edge_cut={edge_cut}");
        assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
        assert_eq!(copies, NODES - 2, "edge_cut={edge_cut}");
    }
}

/// Splitmix64: the promotion sets below are derived from one seed.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    /// The dense `MigEnv` tables answer exactly like the structures they
    /// replaced — a linear `find` over this node's promotions and a
    /// `HashMap<(NodeId, u32), Promotion>` over everyone's — for 1-3 crashed
    /// nodes, for Migration (own promotions in ascending position order) and
    /// for the checkpoint fallback (no own promotions; adopted masters land
    /// in pre-existing *and* appended slots, in no particular order).
    #[test]
    fn indexed_promotion_lookups_match_the_naive_ones(
        num_dead in 1usize..=3,
        layout in 1u32..400,
        local in 1u32..300,
        fallback in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut x = seed;
        let me = NodeId::from_index(0);
        let dead: Vec<NodeId> = (1..=num_dead).map(NodeId::from_index).collect();
        let survivors: Vec<NodeId> = (0..3).map(|i| NodeId::from_index(i * 4)).collect();
        // Distinct vertices, each promoted out of a distinct crashed slot
        // into a distinct slot of its new master.
        let mut all: Vec<Promotion> = Vec::new();
        let mut taken: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (di, &d) in dead.iter().enumerate() {
            for old_pos in 0..layout {
                if next(&mut x).is_multiple_of(3) {
                    continue; // a replica slot, or a master nobody mirrors here
                }
                let new_master = survivors[(next(&mut x) % 3) as usize];
                let slots = taken.entry(new_master).or_default();
                // Migration promotes in place, below `local`; the fallback
                // also appends past the adopter's pre-existing layout.
                let span = if fallback { 2 * local } else { local };
                let new_pos = (next(&mut x) % u64::from(span)) as u32;
                if slots.contains(&new_pos) {
                    continue;
                }
                slots.push(new_pos);
                all.push(Promotion {
                    vid: Vid::new(di as u32 * layout + old_pos),
                    new_master,
                    new_pos,
                    old_node: d,
                    old_pos,
                });
            }
        }
        let mut own: Vec<Promotion> = if fallback {
            Vec::new()
        } else {
            all.iter().copied().filter(|p| p.new_master == me).collect()
        };
        own.sort_unstable_by_key(|p| p.new_pos);
        // Arrival order of the announcements is not position order.
        for i in (1..all.len()).rev() {
            all.swap(i, (next(&mut x) % (i as u64 + 1)) as usize);
        }

        let env = MigEnv::new(&dead, me, &own, &all);
        let by_old: HashMap<(NodeId, u32), Promotion> =
            all.iter().map(|p| ((p.old_node, p.old_pos), *p)).collect();
        for pos in 0..2 * local + 2 {
            let naive = own.iter().find(|p| p.new_pos == pos);
            prop_assert_eq!(env.own_promotion_at(pos), naive);
        }
        let live = NodeId::from_index(7);
        for &node in dead.iter().chain([&me, &live]) {
            for old_pos in 0..layout + 2 {
                let naive = by_old.get(&(node, old_pos));
                prop_assert_eq!(env.promoted_from(node, old_pos), naive);
                if naive.is_some() || !dead.contains(&node) {
                    prop_assert_eq!(env.relocated(node, old_pos), naive);
                }
            }
        }
    }
}
