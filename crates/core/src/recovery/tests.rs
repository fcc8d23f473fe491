//! Unit tests for the recovery state machine's internals: what the undo
//! journal holds and that it rolls back any number of times (debug builds
//! check every rollback against the encoded snapshot it replaced), what
//! Migration's rounds 5 and 7 send to whom, and that the [`MigEnv`]
//! promotion indices answer exactly like the scans and hash maps they
//! replaced.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imitator_algos::PageRank;
use imitator_cluster::{Cluster, Envelope, FailPoint, FailurePlan, NodeId};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, EcLocalGraph, FtPlan,
    VcLocalGraph, VertexProgram,
};
use imitator_graph::{gen, Edge, Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::{Dfs, DfsConfig};
use proptest::prelude::*;

use super::{MigEnv, R7_TALLY};
use crate::ckpt::{self, tests::arb_graph};
use crate::driver::{self, ModelGraph};
use crate::msg::{Promotion, ProtoMsg, ReplicaGrant};
use crate::plan::{compute_ft_plan, ReplicaView};
use crate::report::RunReport;
use crate::rt::NodeState;
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

/// `R7_TALLY` is process-wide and the test harness runs tests on parallel
/// threads: every test that runs a recovery holds this lock.
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

/// A run whose 1 ms / 6 ms heartbeat confirms a crash after 6 ms of virtual
/// silence instead of the default 60.
fn config(nodes: usize, ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: nodes,
        max_iters: 30,
        ft,
        standbys,
        hb_interval: Duration::from_millis(1),
        hb_timeout: Duration::from_millis(6),
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
    let degrees = Degrees::of(g);
    let plan = load_plan(g, &cut, ft);
    let loaded = build_edge_cut_graphs(g, &cut, &plan, &MinLabel, &degrees);
    let owners = g.vertices().map(|v| cut.owner(v) as u32).collect();
    let (report, graphs) = driver::run(
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
    let degrees = Degrees::of(g);
    let plan = load_plan(g, &cut, ft);
    let lgs = build_vertex_cut_graphs(g, &cut, &plan, &MinLabel, &degrees);
    let owners = g.vertices().map(|v| cut.master(v) as u32).collect();
    driver::run(
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

/// Runs MinLabel over [`graph`] on `nodes` nodes.
fn run_on(
    nodes: usize,
    edge_cut: bool,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> RunReport<u32> {
    let g = graph();
    if edge_cut {
        run_ec(&g, nodes, ft, standbys, failures).report
    } else {
        run_vc(&g, nodes, ft, standbys, failures).0
    }
}

fn run(edge_cut: bool, ft: FtMode, standbys: usize, failures: Vec<FailurePlan>) -> RunReport<u32> {
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

/// A Migration's journal holds what the attempt changed, not the partition:
/// on a 20 k-vertex power-law graph it stays under a quarter of what the
/// encoded snapshot it replaced weighed. Of the five strategies, the two
/// that run `migrate` journal; the checkpoint paths book an encoded snapshot
/// under the same `undo_capture` key; a clean Rebirth only reads its
/// survivors' graphs and keeps nothing.
#[test]
fn journal_is_proportional_to_the_change_set() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let ckpt = FtMode::Checkpoint {
        interval: 2,
        incremental: true,
    };
    // (strategy, mode, standbys, journals, books `undo_capture`).
    let cases: [(&str, FtMode, usize, bool, bool); 5] = [
        (
            "rebirth",
            replication(1, RecoveryStrategy::Rebirth),
            1,
            false,
            false,
        ),
        (
            "migration",
            replication(1, RecoveryStrategy::Migration),
            0,
            true,
            true,
        ),
        (
            "rebirth→migration",
            replication(1, RecoveryStrategy::Rebirth),
            0,
            true,
            true,
        ),
        ("checkpoint", ckpt, 1, false, true),
        ("checkpoint→migration", ckpt, 0, false, true),
    ];
    for edge_cut in [true, false] {
        let golden = run(edge_cut, FtMode::None, 0, vec![]);
        for (strategy, ft, standbys, journals, undoable) in cases {
            let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
            let r = run(edge_cut, ft, standbys, plan);
            assert_eq!(r.values, golden.values, "edge_cut={edge_cut} {strategy}");
            assert_eq!(r.recoveries.len(), 1, "edge_cut={edge_cut} {strategy}");
            let ep = &r.recoveries[0];
            assert_eq!(ep.strategy, strategy, "edge_cut={edge_cut}");
            assert_eq!(
                ep.journal_bytes > 0,
                journals,
                "edge_cut={edge_cut} {strategy}"
            );
            let booked = ep.phases.get("undo_capture").is_some();
            assert_eq!(booked, undoable, "edge_cut={edge_cut} {strategy}");
        }
    }

    let g = gen::power_law(20_000, 2.0, 8, 17);
    let ft = replication(1, RecoveryStrategy::Migration);
    let dead = NodeId::from_index(1);
    let plan = vec![crash(1, 2, FailPoint::BeforeBarrier)];
    let ec = run_ec(&g, NODES, ft, 0, plan.clone());
    let survivors = ec.loaded.iter().filter(|lg| lg.node != dead);
    let encoded: usize = survivors.map(|lg| ckpt::encode_ec_graph(lg).len()).sum();
    let journal = ec.report.recoveries[0].journal_bytes as usize;
    assert!(
        0 < journal && 4 * journal < encoded,
        "edge-cut: journal {journal} B against {encoded} B encoded"
    );
    let cut = RandomVertexCut.partition(&g, NODES);
    let degrees = Degrees::of(&g);
    let loaded = build_vertex_cut_graphs(&g, &cut, &load_plan(&g, &cut, ft), &MinLabel, &degrees);
    let survivors = loaded.iter().filter(|lg| lg.node != dead);
    let encoded: usize = survivors.map(|lg| ckpt::encode_vc_graph(lg).len()).sum();
    let journal = run_vc(&g, NODES, ft, 0, plan).0.recoveries[0].journal_bytes as usize;
    // A vertex-cut snapshot is mostly 9-byte edges and a Migration rewrites
    // the location tables of nearly every master and mirror: a third.
    assert!(
        0 < journal && 2 * journal < encoded,
        "vertex-cut: journal {journal} B against {encoded} B encoded"
    );
}

/// An attempt aborted at the start of any Migration round rolls its journal
/// back and the retry finishes bit-identical to the failure-free run. (In
/// this build `Undo::restore` also holds the rolled-back graph against the
/// encoded pre-episode snapshot, byte for byte.)
#[test]
fn abort_at_every_migration_round_rolls_back_and_retries() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for edge_cut in [true, false] {
        let golden = run(edge_cut, FtMode::None, 0, vec![]);
        for round in 1..=8u8 {
            let plan = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::MigrationRound(round)),
            ];
            let ft = replication(2, RecoveryStrategy::Migration);
            let r = run(edge_cut, ft, 0, plan);
            assert_eq!(r.values, golden.values, "edge_cut={edge_cut} round={round}");
            let ep = &r.recoveries[0];
            assert_eq!(
                (ep.counters.attempts, ep.counters.aborts),
                (2, 1),
                "edge_cut={edge_cut} round={round}"
            );
        }
    }
}

/// A Rebirth attempt that aborts before anyone mutated anything restores
/// node state only; the retry that degrades to Migration (standbys spent)
/// opens the episode's journal then.
#[test]
fn aborted_rebirth_restores_without_a_journal() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for edge_cut in [true, false] {
        let golden = run(edge_cut, FtMode::None, 0, vec![]);
        let plan = vec![
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(2, 2, FailPoint::RebirthReload),
        ];
        let ft = replication(2, RecoveryStrategy::Rebirth);
        // One standby: spent by the aborted attempt, so the retry migrates.
        let r = run(edge_cut, ft, 1, plan);
        assert_eq!(r.values, golden.values, "edge_cut={edge_cut}");
        let ep = &r.recoveries[0];
        assert_eq!(ep.strategy, "rebirth→migration", "edge_cut={edge_cut}");
        assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
        assert!(ep.journal_bytes > 0, "edge_cut={edge_cut}");
    }
}

/// Edge-cut PageRank over [`graph`] on four nodes: the strategies of its
/// recoveries, and each live node's final graph as a metadata snapshot
/// encodes it, by node.
fn pagerank_snapshots(
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> (Vec<String>, Vec<(NodeId, Vec<u8>)>) {
    let (g, prog) = (graph(), PageRank::default());
    let cut = HashEdgeCut.partition(&g, NODES);
    let degrees = Degrees::of(&g);
    let plan = load_plan(&g, &cut, ft);
    let lgs = build_edge_cut_graphs(&g, &cut, &plan, &prog, &degrees);
    let owners = g.vertices().map(|v| cut.owner(v) as u32).collect();
    let model = EcModel {
        prog: Arc::new(prog),
    };
    let cfg = config(NODES, ft, standbys);
    let dfs = Dfs::new(DfsConfig::instant());
    let (report, graphs) = driver::run(
        model,
        g.num_vertices(),
        lgs,
        degrees,
        plan,
        owners,
        cfg,
        failures,
        dfs,
    );
    let mut snapshots: Vec<_> = graphs
        .iter()
        .map(|(node, lg)| (*node, ckpt::encode_ec_graph(lg)))
        .collect();
    snapshots.sort_by_key(|&(node, _)| node);
    let strategies = report.recoveries.iter().map(|r| r.strategy.to_string());
    (strategies.collect(), snapshots)
}

/// A newbie ends a run holding, byte for byte, the graph its node holds in
/// the failure-free run: every copy at its position with its kind, flags,
/// value and edge lists, and every master's and mirror's full state — one
/// crash at K = 1, two in one episode at K = 2.
#[test]
fn a_reborn_graph_equals_the_failure_free_one() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for (tolerance, dead) in [(1, &[1][..]), (2, &[1, 2])] {
        let ft = replication(tolerance, RecoveryStrategy::Rebirth);
        let (_, golden) = pagerank_snapshots(ft, 0, vec![]);
        let crashes = dead.iter().map(|&n| crash(n, 3, FailPoint::BeforeBarrier));
        let (episodes, reborn) = pagerank_snapshots(ft, dead.len(), crashes.collect());
        assert_eq!(episodes, ["rebirth"], "K={tolerance}");
        assert_eq!(reborn.len(), golden.len(), "K={tolerance}");
        for ((node, got), (_, want)) in reborn.iter().zip(&golden) {
            assert!(got == want, "K={tolerance}: the graph of {node} differs");
        }
    }
}

/// Two aborts in one episode: each attempt journals afresh and each rollback
/// lands on the same pre-episode graph, and the third attempt finishes
/// bit-identical to the failure-free run.
#[test]
fn aborting_twice_restores_twice_to_the_same_graph() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    const FIVE: usize = 5;
    for edge_cut in [true, false] {
        let golden = run_on(FIVE, edge_cut, FtMode::None, 0, vec![]);
        for (first, second) in [(3u8, 6u8), (8, 1), (5, 5)] {
            let plan = vec![
                crash(1, 2, FailPoint::BeforeBarrier),
                crash(2, 2, FailPoint::MigrationRound(first)),
                crash(3, 2, FailPoint::MigrationRound(second)),
            ];
            let ft = replication(3, RecoveryStrategy::Migration);
            let r = run_on(FIVE, edge_cut, ft, 0, plan);
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
        }
    }
}

/// An attempt that aborts leaves the graph — every store of it — as if it
/// had never run: a Migration that loses node 2 *during* the recovery of
/// node 1, at any round, ends with the survivors' graphs exactly where a
/// Migration that lost both at once puts them. Copies appended by the retry
/// sit at the positions the aborted attempt had used, and no column holds a
/// run the rollback failed to cut off.
#[test]
fn a_second_episode_after_a_rollback_appends_where_the_first_did() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let ft = replication(2, RecoveryStrategy::Migration);
    let at_once = vec![
        crash(1, 2, FailPoint::BeforeBarrier),
        crash(2, 2, FailPoint::BeforeBarrier),
    ];
    let ec_once = run_ec(&g, 5, ft, 0, at_once.clone());
    let (vc_report, vc_once) = run_vc(&g, 5, ft, 0, at_once);
    for round in 1..=8u8 {
        let staggered = vec![
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(2, 2, FailPoint::MigrationRound(round)),
        ];
        let ec = run_ec(&g, 5, ft, 0, staggered.clone());
        assert_eq!(ec.report.values, ec_once.report.values, "round={round}");
        assert_eq!(ec.report.recoveries[0].counters.aborts, 1, "round={round}");
        assert_eq!(ec.graphs.len(), ec_once.graphs.len());
        for ((node, lg), (_, once)) in ec.graphs.iter().zip(&ec_once.graphs) {
            assert!(lg == once, "round={round}: edge-cut graph of {node}");
            assert_eq!(
                (lg.len(), lg.index.len(), lg.full_state_lens()),
                (once.len(), once.index.len(), once.full_state_lens()),
                "round={round}: stores of {node}"
            );
        }
        let (report, graphs) = run_vc(&g, 5, ft, 0, staggered);
        assert_eq!(report.values, vc_report.values, "round={round}");
        for ((node, lg), (_, once)) in graphs.iter().zip(&vc_once) {
            assert!(lg == once, "round={round}: vertex-cut graph of {node}");
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
            // Among the rest: no master's slot, a promoted one's included,
            // keeps a source its wired in-edges name.
            lg.debug_validate();
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
    run.graphs.iter().for_each(|(_, lg)| lg.debug_validate());
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
        assert!(meta.mirror_nodes().iter().eq([rnode]), "{vid}");
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
        .filter(|&at| {
            let mirrors = loaded.locations(at).unwrap().mirror_nodes();
            mirrors.iter().eq([NodeId::from_index(1)])
        })
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
/// round 7 did not re-mark) — and round 5 does spare some. No in-edge
/// travels: a master that keeps a mirror from before the episode was not
/// promoted in it, and in-edges change only by promotion. The consumer lists
/// the episode extended or rewrote do.
#[test]
fn round_7_refreshes_only_what_round_5_left_dirty() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    for edge_cut in [true, false] {
        let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
        let ft = replication(1, RecoveryStrategy::Migration);
        let (r, tally) = tallied(|| run(edge_cut, ft, 0, plan));
        assert_eq!(r.recoveries.len(), 1);
        assert_eq!(tally.len(), NODES - 1, "one entry per survivor");
        let mut lists = 0;
        for [touched, spared, records, ins, fed, remote] in tally {
            assert!(spared > 0, "edge_cut={edge_cut}: round 5 spared nobody");
            assert_eq!(records, touched - spared, "edge_cut={edge_cut}");
            assert_eq!(ins, 0, "edge_cut={edge_cut}: round 7 shipped in-edges");
            lists += fed + remote;
        }
        assert_eq!(lists > 0, edge_cut, "consumer lists shipped");
    }
}

/// Runs `job` with `R7_TALLY` emptied first, and takes what it tallied.
fn tallied<T>(job: impl FnOnce() -> T) -> (T, Vec<[usize; 6]>) {
    R7_TALLY.lock().unwrap_or_else(|e| e.into_inner()).clear();
    let out = job();
    let tally = std::mem::take(&mut *R7_TALLY.lock().unwrap_or_else(|e| e.into_inner()));
    (out, tally)
}

/// The in-edges round 7 must ship when `dead` crash together: those of every
/// master promoted out of them, once to each mirror it kept from before the
/// episode — every loaded mirror that survived but the promoted one. No
/// other master's in-edges change in an episode.
fn promoted_in_edges(loaded: &[EcLocalGraph<u32>], dead: &[NodeId]) -> usize {
    let lost = loaded.iter().filter(|lg| dead.contains(&lg.node));
    let masters = lost.flat_map(|lg| lg.master_positions().map(move |pos| (lg, pos)));
    let kept = |lg: &EcLocalGraph<u32>, pos| {
        let mirrors = lg.locations(pos).unwrap().mirror_nodes();
        mirrors
            .iter()
            .filter(|n| !dead.contains(n))
            .count()
            .saturating_sub(1)
    };
    masters
        .map(|(lg, pos)| lg.in_edges(pos).len() * kept(lg, pos))
        .sum()
}

/// K = 2, one crash: a promoted master keeps a mirror from before the
/// episode, whose lists name the dead node's positions — round 7 sends it
/// all three, in-edges included, and those are the only in-edges it sends:
/// every other refresh carries the lists the episode changed. The debug
/// check in `driver::run` holds every mirror to its master's full state.
#[test]
fn round_7_sends_a_promoted_masters_old_mirror_every_list() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let golden = run_ec(&g, 5, FtMode::None, 0, vec![]).report;
    let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
    let ft = replication(2, RecoveryStrategy::Migration);
    let (run, tally) = tallied(|| run_ec(&g, 5, ft, 0, plan));
    assert_eq!(run.report.values, golden.values);
    let expected = promoted_in_edges(&run.loaded, &[NodeId::from_index(1)]);
    assert!(expected > 0, "no promoted master kept an old mirror");
    let shipped: usize = tally.iter().map(|t| t[3]).sum();
    assert_eq!(shipped, expected);
    let [records, fed, remote] = [2, 4, 5].map(|at| tally.iter().map(|t| t[at]).sum::<usize>());
    assert!(records > 0 && fed > 0 && remote > 0, "{tally:?}");
}

/// A crash in round 8 lands after every other survivor adopted round 7's
/// refreshes — mirrors rewritten in part, the lists not sent kept — so the
/// rollback must undo partial adoptions: the retry then ships again what the
/// two crashes together call for and ends bit-identical.
#[test]
fn a_crash_after_partial_refreshes_rolls_back_and_retries() {
    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let golden = run_ec(&g, 5, FtMode::None, 0, vec![]).report;
    let plan = vec![
        crash(1, 2, FailPoint::BeforeBarrier),
        crash(2, 2, FailPoint::MigrationRound(8)),
    ];
    let ft = replication(2, RecoveryStrategy::Migration);
    let (run, tally) = tallied(|| run_ec(&g, 5, ft, 0, plan));
    assert_eq!(run.report.values, golden.values);
    let ep = &run.report.recoveries[0];
    assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
    run.graphs.iter().for_each(|(_, lg)| lg.debug_validate());
    // Four survivors tallied the aborted attempt, three the retry.
    assert_eq!(tally.len(), 4 + 3);
    let (aborted, retry) = tally.split_at(4);
    let ins = |tally: &[[usize; 6]]| tally.iter().map(|t| t[3]).sum::<usize>();
    let [first, both] = [vec![1], vec![1, 2]]
        .map(|dead| dead.into_iter().map(NodeId::from_index).collect::<Vec<_>>());
    assert_eq!(ins(aborted), promoted_in_edges(&run.loaded, &first));
    assert_eq!(ins(retry), promoted_in_edges(&run.loaded, &both));
    let refreshed = aborted.iter().any(|t| t[2] > 0);
    assert!(refreshed, "the aborted attempt refreshed nothing");
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

/// The merged [`RecoveryReport::phases`] keys of every strategy, in the order
/// the protocol books them — `benchmark/` and the chaos harness read them by
/// name — and the grouping `report.rs` documents for the coarse phases. A
/// node's coarse phase is the sum of its keys (plus, for Migration, the few
/// instructions between two stopwatches); the merge takes per-key maxima, so
/// the merged coarse phase lies between the largest key of its group and the
/// group's sum.
#[test]
fn every_strategy_books_its_phase_keys_in_protocol_order() {
    // Keys in booking order — survivors first (node 0 merges first), then
    // what only the newbie books — each tagged with the coarse phase that
    // holds it: `<` reload, `>` reconstruct, `-` neither. A `*` marks what
    // only vertex-cut books: it reloads edge-ckpt files, read ahead.
    const MIGRATION: &str = "<undo_capture <migration_round1 <migration_round2 <prefetch_wait* \
        <migration_round3 >migration_round4 >migration_round5 >migration_round6 \
        >migration_round7 >migration_round8 -fence >after_recovery";
    const REBIRTH: &str = "<reload -fence >after_recovery <prefetch_wait* >reconstruct -replay";
    const CHECKPOINT: &str = "<undo_capture <reload -fence >reconstruct >after_recovery";
    const FALLBACK: &str = "<undo_capture <reload -migration_round1 -migration_round2 \
        -migration_round3 >reconstruct -fence >after_recovery";
    // What separates two stopwatches of one thread: no barrier, no I/O.
    const GAPS: Duration = Duration::from_millis(1);

    let _serial = CAPTURE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let rebirth = replication(1, RecoveryStrategy::Rebirth);
    let migration = replication(1, RecoveryStrategy::Migration);
    let ckpt = |incremental| FtMode::Checkpoint {
        interval: 2,
        incremental,
    };
    // (strategy, mode, standbys, keys).
    let cases = [
        ("rebirth", rebirth, 1, REBIRTH),
        ("migration", migration, 0, MIGRATION),
        ("rebirth→migration", rebirth, 0, MIGRATION),
        ("checkpoint", ckpt(false), 1, CHECKPOINT),
        ("checkpoint", ckpt(true), 1, CHECKPOINT),
        ("checkpoint→migration", ckpt(false), 0, FALLBACK),
        ("checkpoint→migration", ckpt(true), 0, FALLBACK),
    ];
    for edge_cut in [true, false] {
        for (strategy, ft, standbys, keys) in cases {
            let case = format!("edge_cut={edge_cut} {strategy} {ft:?}");
            let plan = vec![crash(1, 3, FailPoint::BeforeBarrier)];
            let r = run(edge_cut, ft, standbys, plan);
            assert_eq!(r.recoveries.len(), 1, "{case}");
            let ep = &r.recoveries[0];
            assert_eq!(ep.strategy, strategy, "{case}");
            let keys = keys
                .split_whitespace()
                .filter(|k| !edge_cut || !k.ends_with('*'));
            let keys: Vec<_> = keys.map(|k| k.trim_end_matches('*').split_at(1)).collect();
            let booked: Vec<&str> = ep.phases.iter().map(|(key, _)| key).collect();
            let expected: Vec<&str> = keys.iter().map(|&(_, key)| key).collect();
            assert_eq!(booked, expected, "{case}");
            for (coarse, tag) in [(ep.reload, "<"), (ep.reconstruct, ">")] {
                let group = keys.iter().filter(|(held_by, _)| *held_by == tag);
                let times = group.map(|(_, key)| ep.phases.get(key).unwrap());
                let (largest, sum) = (times.clone().max().unwrap(), times.sum::<Duration>());
                assert!(
                    largest <= coarse && coarse <= sum + GAPS,
                    "{case}: {tag} is {coarse:?}, outside [{largest:?}, {sum:?}]"
                );
            }
        }
    }
}

/// `take` hands over the messages of the kind asked for with their senders
/// and leaves everything else — stashed earlier or arriving around them —
/// in the stash in arrival order, where a later `take` finds it.
#[test]
fn take_leaves_the_other_kinds_stashed_in_arrival_order() {
    type M = EcModel<MinLabel>;
    let cluster: Cluster<driver::Msg<M>> = Cluster::new(3, 0, Duration::ZERO);
    let nodes: Vec<_> = (0..3u32)
        .map(|n| cluster.take_ctx(NodeId::new(n)))
        .collect();
    let (me, one, two) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    let mut st: driver::St<M> = NodeState::new(3, Instant::now());
    let request = |vid| ProtoMsg::ReplicaRequest(vec![Vid::new(vid)]);
    let placed = |vid| ProtoMsg::ReplicaPlaced(vec![(Vid::new(vid), 7)]);
    let grant = |vid| {
        ProtoMsg::ReplicaGrant(vec![ReplicaGrant {
            vid: Vid::new(vid),
            value: 0,
            last_activate: false,
            master_node: one,
        }])
    };
    // One message stashed by an earlier drain, the rest queued.
    let (from, msg) = (two, request(10));
    st.stash.push(Envelope { from, msg });
    nodes[1].send(me, placed(11));
    nodes[2].send(me, grant(12));
    nodes[1].send(me, request(13));
    nodes[1].send(me, grant(14));
    nodes[2].send(me, placed(15));

    let grants = driver::take::<M, _>(&nodes[0], &mut st, driver::kind!(ReplicaGrant));
    let grants: Vec<_> = grants.iter().map(|(from, g)| (*from, g[0].vid)).collect();
    assert_eq!(grants, [(two, Vid::new(12)), (one, Vid::new(14))]);
    let stashed: Vec<_> = st.stash.iter().map(|env| env.from).collect();
    assert_eq!(stashed, [two, one, one, two]);
    assert!(matches!(st.stash[1].msg, ProtoMsg::ReplicaPlaced(_)));

    let requests = driver::take::<M, _>(&nodes[0], &mut st, driver::kind!(ReplicaRequest));
    let ten_then_thirteen = [(two, vec![Vid::new(10)]), (one, vec![Vid::new(13)])];
    assert_eq!(requests, ten_then_thirteen);
    let placements = driver::take::<M, _>(&nodes[0], &mut st, driver::kind!(ReplicaPlaced));
    let (first, second) = (vec![(Vid::new(11), 7)], vec![(Vid::new(15), 7)]);
    assert_eq!(placements, [(one, first), (two, second)]);
    assert!(st.stash.is_empty());
}
