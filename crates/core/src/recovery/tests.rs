//! Unit tests for the recovery state machine's internals: when the undo
//! snapshot is taken and that it restores any number of times, what
//! Migration's rounds 5 and 7 send to whom, and that the [`MigEnv`]
//! promotion indices answer exactly like the scans and hash maps they
//! replaced.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, EcLocalGraph, FtPlan,
    VcLocalGraph, VertexProgram,
};
use imitator_graph::{gen, Edge, Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::{Dfs, DfsConfig};
use proptest::prelude::*;

use super::{MigEnv, GRAPH_CAPTURES, R7_TALLY};
use crate::ckpt::{self, tests::arb_graph};
use crate::driver::{run_keeping_graphs, ModelGraph};
use crate::msg::Promotion;
use crate::plan::{compute_ft_plan, ReplicaView};
use crate::report::RunReport;
use crate::runner_ec::EcModel;
use crate::runner_vc::VcModel;
use crate::{FtMode, RecoveryStrategy, RunConfig};

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

/// `GRAPH_CAPTURES` and `R7_TALLY` are process-wide and the test harness
/// runs tests on parallel threads: every test that runs a recovery holds
/// this lock.
static CAPTURE_TESTS: Mutex<()> = Mutex::new(());

fn graph() -> Graph {
    gen::power_law(300, 2.0, 5, 11)
}

/// What the runners load for `ft` (the plan they compute, or none).
fn load_plan(g: &Graph, view: &dyn ReplicaView, ft: FtMode) -> FtPlan {
    match ft {
        FtMode::Replication {
            tolerance,
            selfish_opt,
            ..
        } => compute_ft_plan(g, view, tolerance, selfish_opt, true, 0xF7),
        _ => FtPlan::none(g.num_vertices()),
    }
}

fn config(nodes: usize, ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: nodes,
        max_iters: 30,
        ft,
        standbys,
        ..RunConfig::default()
    }
}

/// `run_edge_cut`, keeping the graphs: the loader's, and each live node's
/// at the end of the run.
struct EcRun {
    report: RunReport<u32>,
    loaded: Vec<EcLocalGraph<u32>>,
    graphs: Vec<(NodeId, EcLocalGraph<u32>)>,
}

fn run_ec(
    g: &Graph,
    nodes: usize,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> EcRun {
    let cut = HashEdgeCut.partition(g, nodes);
    let degrees = Arc::new(Degrees::of(g));
    let plan = Arc::new(load_plan(g, &cut, ft));
    let loaded = build_edge_cut_graphs(g, &cut, &plan, &MinLabel, &degrees);
    let owners = Arc::new(g.vertices().map(|v| cut.owner(v) as u32).collect());
    let (report, graphs) = run_keeping_graphs(
        EcModel {
            prog: Arc::new(MinLabel),
        },
        g.num_vertices(),
        build_edge_cut_graphs(g, &cut, &plan, &MinLabel, &degrees),
        degrees,
        plan,
        owners,
        config(nodes, ft, standbys),
        failures,
        Dfs::new(DfsConfig::instant()),
    );
    EcRun {
        report,
        loaded,
        graphs,
    }
}

/// `run_vertex_cut`, keeping each live node's final graph.
fn run_vc(
    g: &Graph,
    nodes: usize,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> (RunReport<u32>, Vec<(NodeId, VcLocalGraph<u32>)>) {
    let cut = RandomVertexCut.partition(g, nodes);
    let degrees = Arc::new(Degrees::of(g));
    let plan = Arc::new(load_plan(g, &cut, ft));
    let lgs = build_vertex_cut_graphs(g, &cut, &plan, &MinLabel, &degrees);
    let owners = Arc::new(g.vertices().map(|v| cut.master(v) as u32).collect());
    run_keeping_graphs(
        VcModel {
            prog: Arc::new(MinLabel),
        },
        g.num_vertices(),
        lgs,
        degrees,
        plan,
        owners,
        config(nodes, ft, standbys),
        failures,
        Dfs::new(DfsConfig::instant()),
    )
}

/// Runs MinLabel on `nodes` nodes and returns the report with the number of
/// graph snapshots the run's undo took.
fn run_on(
    nodes: usize,
    edge_cut: bool,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> (RunReport<u32>, usize) {
    let g = graph();
    let before = GRAPH_CAPTURES.load(Ordering::Relaxed);
    let report = if edge_cut {
        run_ec(&g, nodes, ft, standbys, failures).report
    } else {
        run_vc(&g, nodes, ft, standbys, failures).0
    };
    (report, GRAPH_CAPTURES.load(Ordering::Relaxed) - before)
}

fn run(
    edge_cut: bool,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> (RunReport<u32>, usize) {
    run_on(NODES, edge_cut, ft, standbys, failures)
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

/// A Rebirth attempt only reads the survivors' graphs: no snapshot. Every
/// path that rewrites them — Migration, Rebirth degrading to Migration, both
/// checkpoint paths — encodes one per survivor, before its first mutation.
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

/// Two aborts in one episode: both restores decode the same bytes (taken
/// once, in the first attempt), and the third attempt finishes bit-identical
/// to the failure-free run.
#[test]
fn aborting_twice_restores_twice_from_the_same_snapshot() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    const FIVE: usize = 5;
    for edge_cut in [true, false] {
        let (golden, _) = run_on(FIVE, edge_cut, FtMode::None, 0, vec![]);
        for (first, second) in [(3u8, 6u8), (8, 1), (5, 5)] {
            let plan = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::MigrationRound(first)),
                crash(3, 2, FailPoint::MigrationRound(second)),
            ];
            let ft = replication(3, RecoveryStrategy::Migration);
            let (r, snapshots) = run_on(FIVE, edge_cut, ft, 0, plan);
            let case = format!("edge_cut={edge_cut} rounds={first},{second}");
            assert_eq!(r.values, golden.values, "{case}");
            let ep = &r.recoveries[0];
            // Node 3 reaches its fail point only in the attempt node 2's
            // crash did not cut short — unless both name one round, when the
            // two die together and the episode aborts once.
            let aborts = if first == second { 1 } else { 2 };
            assert_eq!(
                (ep.counters.attempts, ep.counters.aborts),
                (aborts + 1, aborts),
                "{case}"
            );
            // Every first-attempt survivor snapshots once, the victims
            // included; no retry snapshots again.
            assert_eq!(snapshots, FIVE - 1, "{case}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What a Migration leaves behind — promoted masters, appended replicas
    /// and fresh mirrors, rewired edges, rewritten tables — is what the next
    /// episode's undo snapshot must carry: every survivor's graph comes back
    /// from the codec equal, for both engines.
    #[test]
    fn survivor_graphs_roundtrip_after_a_migration(
        g in arb_graph(),
        nodes in 3usize..=6,
        k in 1usize..=2,
        selfish_opt in any::<bool>(),
        victim in 0usize..6,
        iteration in 0u64..3,
    ) {
        let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let ft = FtMode::Replication {
            tolerance: k,
            selfish_opt,
            recovery: RecoveryStrategy::Migration,
        };
        let plan = vec![crash(victim % nodes, iteration, FailPoint::BeforeBarrier)];
        // A job that converges before `iteration` never crashes; its graphs
        // are checked all the same.
        let ec = run_ec(&g, nodes, ft, 0, plan.clone());
        prop_assert_eq!(ec.graphs.len(), nodes - ec.report.recoveries.len());
        for (_, lg) in &ec.graphs {
            let back: EcLocalGraph<u32> =
                ckpt::decode_ec_graph(&ckpt::encode_ec_graph(lg)).unwrap();
            prop_assert_eq!(&back, lg);
        }
        let (report, graphs) = run_vc(&g, nodes, ft, 0, plan);
        prop_assert_eq!(graphs.len(), nodes - report.recoveries.len());
        for (_, lg) in &graphs {
            let back: VcLocalGraph<u32> =
                ckpt::decode_vc_graph(&ckpt::encode_vc_graph(lg)).unwrap();
            prop_assert_eq!(&back, lg);
        }
    }
}

/// The copies of `vid` across the final graphs: `(node, position)`.
fn copies_of(graphs: &[(NodeId, EcLocalGraph<u32>)], vid: Vid) -> Vec<(NodeId, u32)> {
    graphs
        .iter()
        .filter_map(|(n, lg)| lg.position(vid).map(|p| (*n, p)))
        .collect()
}

/// The master of `vid` among the final graphs: `(node, graph, position)`.
fn master_of(
    graphs: &[(NodeId, EcLocalGraph<u32>)],
    vid: Vid,
) -> (NodeId, &EcLocalGraph<u32>, u32) {
    graphs
        .iter()
        .find_map(|(n, lg)| {
            let pos = lg.position(vid).filter(|&p| lg.is_master(p))?;
            Some((*n, lg, pos))
        })
        .unwrap_or_else(|| panic!("{vid} has no master"))
}

/// K = 2, one crash: every master that lost a mirror keeps one that predates
/// the episode and gains one designated in round 5. Round 7 must refresh
/// both (the old one has not seen the episode's table changes); the debug
/// check in `driver::run` compares every mirror's full state to its
/// master's, so a stale one fails the run itself.
#[test]
fn migration_with_one_old_and_one_new_mirror_leaves_both_current() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let golden = run_ec(&g, 5, FtMode::None, 0, vec![]).report;
    let dead = NodeId::from_index(1);
    let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
    let run = run_ec(&g, 5, replication(2, RecoveryStrategy::Migration), 0, plan);
    assert_eq!(run.report.values, golden.values);
    let mut mixed = 0;
    for lg in run.loaded.iter().filter(|lg| lg.node != dead) {
        for at in lg.master_positions() {
            let v = &lg.verts[at as usize];
            let before = lg
                .locations(at)
                .expect("masters carry full state")
                .mirror_nodes();
            if !before.contains(&dead) {
                continue;
            }
            let (_, mg, pos) = master_of(&run.graphs, v.vid);
            let after = mg.locations(pos).unwrap().mirror_nodes();
            assert_eq!(after.len(), 2, "{}: FT level restored", v.vid);
            let kept = after.iter().filter(|n| before.contains(n)).count();
            assert_eq!(kept, 1, "{}: one mirror predates the episode", v.vid);
            mixed += 1;
        }
    }
    assert!(mixed > 0, "no master had a mirror on the crashed node");
}

/// Vertices with no edges have a master and K FT replicas, nothing else.
/// Losing the mirror's node leaves the master no replica to upgrade, so
/// round 5 creates a fresh one — whose position the master learns only in
/// round 7, which must therefore re-send the table to it.
#[test]
fn fresh_ft_replica_position_registered_in_round_7_reaches_the_mirror() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    // A ring over the first 40 vertices; 40..60 are isolated.
    let edges = (0..40u32)
        .map(|i| Edge::weighted(Vid::new(i), Vid::new((i + 1) % 40), 1.0))
        .collect();
    let g = Graph::from_edges(60, edges);
    let golden = run_ec(&g, NODES, FtMode::None, 0, vec![]).report;
    let dead = NodeId::from_index(2);
    let plan = vec![crash(2, 1, FailPoint::BeforeBarrier)];
    let run = run_ec(
        &g,
        NODES,
        replication(1, RecoveryStrategy::Migration),
        0,
        plan,
    );
    assert_eq!(run.report.values, golden.values);
    let mut fresh = 0;
    for vid in (40..60).map(Vid::new) {
        let lost_a_copy = run.loaded[dead.index()].position(vid).is_some();
        let copies = copies_of(&run.graphs, vid);
        assert_eq!(copies.len(), 2, "{vid}: a master and its one mirror");
        let (mnode, mg, mpos) = master_of(&run.graphs, vid);
        let &(rnode, rpos) = copies.iter().find(|(n, _)| *n != mnode).unwrap();
        let meta = mg.locations(mpos).unwrap();
        assert_eq!(**meta.mirror_nodes(), [rnode], "{vid}");
        assert_eq!(meta.replica_position_on(rnode), Some(rpos), "{vid}");
        let (_, rg) = run.graphs.iter().find(|(n, _)| *n == rnode).unwrap();
        let mirror = &rg.verts[rpos as usize];
        assert_eq!(mirror.kind, CopyKind::Mirror, "{vid}");
        assert_eq!(
            rg.full_state(rpos),
            mg.full_state(mpos),
            "{vid}: mirror's table"
        );
        if lost_a_copy {
            // Appended past the loaded layout: placed by round 6.
            assert!(rpos as usize >= run.loaded[rnode.index()].len(), "{vid}");
            fresh += 1;
        }
    }
    assert!(
        fresh > 0,
        "no isolated vertex had a copy on the crashed node"
    );
}

/// Two Migrations in a row. Masters on node 2 whose only mirror sat on
/// node 1 get a replacement in the first episode's round 5 — full state
/// sent once, never refreshed by round 7 — and exactly those replacements
/// are what the second episode promotes when node 2 dies.
#[test]
fn second_migration_promotes_mirrors_the_first_one_designated() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let golden = run_ec(&g, NODES, FtMode::None, 0, vec![]).report;
    let plan = vec![
        crash(1, 2, FailPoint::BeforeBarrier),
        crash(2, 5, FailPoint::BeforeBarrier),
    ];
    let run = run_ec(
        &g,
        NODES,
        replication(1, RecoveryStrategy::Migration),
        0,
        plan,
    );
    assert_eq!(run.report.values, golden.values);
    assert_eq!(run.report.recoveries.len(), 2);
    let loaded = &run.loaded[2];
    let first_mirror_died: Vec<Vid> = loaded
        .master_positions()
        .filter(|&at| **loaded.locations(at).unwrap().mirror_nodes() == [NodeId::from_index(1)])
        .map(|at| loaded.verts[at as usize].vid)
        .collect();
    assert!(!first_mirror_died.is_empty());
    let promoted = &run.report.recoveries[1].promoted;
    for vid in first_mirror_died {
        assert!(
            promoted.contains(&vid),
            "{vid} not promoted from its new mirror"
        );
    }
}

/// `Mig::dirty_masters` is all round 7 ships: with K = 1 each refreshed
/// master costs one record, so the records a survivor sends equal the
/// masters the episode touched minus those round 5 fully re-mirrored (and
/// round 7 did not re-mark) — and round 5 does spare some.
#[test]
fn round_7_refreshes_only_what_round_5_left_dirty() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for edge_cut in [true, false] {
        R7_TALLY.lock().unwrap_or_else(|e| e.into_inner()).clear();
        let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
        let ft = replication(1, RecoveryStrategy::Migration);
        let (r, _) = run(edge_cut, ft, 0, plan);
        assert_eq!(r.recoveries.len(), 1);
        let tally = std::mem::take(&mut *R7_TALLY.lock().unwrap_or_else(|e| e.into_inner()));
        assert_eq!(tally.len(), NODES - 1, "one entry per survivor");
        for [touched, spared, records] in tally {
            assert!(spared > 0, "edge_cut={edge_cut}: round 5 spared nobody");
            assert_eq!(records, touched - spared, "edge_cut={edge_cut}");
        }
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
