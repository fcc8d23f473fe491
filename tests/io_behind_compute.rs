//! A vertex-cut node writes its edge-ckpt file behind its first supersteps
//! and a recovery reads it, or its sections, ahead of the step that consumes
//! them. On a
//! cost-free DFS both are over before anyone looks; these runs use a DFS slow
//! enough that the window stays open for whole supersteps, and hold what must
//! be true inside it: compute really proceeds, a node never dies, stalls or
//! recovers with its own persistence in flight, an aborted Migration never
//! writes, and an aborted newbie lets go of its reads.
//!
//! Every run is held against the same schedule on a cost-free DFS: same
//! values, bit for bit, same files, same operation counts.

use std::sync::Arc;
use std::time::Duration;

use imitator_repro::algos::{PageRank, RankValue};
use imitator_repro::cluster::{FailPoint, FailurePlan, NodeId};
use imitator_repro::ft::{
    run_vertex_cut, DetectorKind, FtMode, RecoveryStrategy, RunConfig, RunReport,
};
use imitator_repro::graph::gen;
use imitator_repro::partition::{RandomVertexCut, VertexCutPartitioner};
use imitator_repro::storage::{Dfs, DfsConfig, DfsStats};

const NODES: usize = 4;
/// One DFS operation. Supersteps of the 400-vertex graph take well under a
/// millisecond, so a node's file stays in flight for dozens of them.
const LATENCY: Duration = Duration::from_millis(30);

fn slow() -> Dfs {
    Dfs::new(DfsConfig {
        latency: LATENCY,
        bandwidth_bytes_per_sec: f64::INFINITY,
        replication: 3,
    })
}

fn replication(tolerance: usize, recovery: RecoveryStrategy) -> FtMode {
    FtMode::Replication {
        tolerance,
        selfish_opt: false,
        recovery,
    }
}

fn config(ft: FtMode, standbys: usize) -> RunConfig {
    RunConfig {
        num_nodes: NODES,
        max_iters: 8,
        ft,
        standbys,
        ..RunConfig::default()
    }
}

fn crash(node: usize, iteration: u64, point: FailPoint) -> FailurePlan {
    FailurePlan {
        node: NodeId::from_index(node),
        iteration,
        point,
    }
}

fn run(cfg: RunConfig, failures: Vec<FailurePlan>, dfs: &Dfs) -> RunReport<RankValue> {
    let g = gen::power_law(400, 2.0, 6, 23);
    let cut = RandomVertexCut.partition(&g, NODES);
    // Tolerance 0 keeps every vertex active: float sums whose order the
    // reloaded edge lists decide.
    let pagerank = Arc::new(PageRank::new(0.85, 0.0));
    run_vertex_cut(&g, &cut, pagerank, cfg, failures, dfs.clone())
}

/// Every file under `prefix`, with its bytes. The reads pay and count like
/// any other: compare `stats()` first.
fn files(dfs: &Dfs, prefix: &str) -> Vec<(String, Vec<u8>)> {
    let read = |path: String| {
        let bytes = dfs.read(&path).expect("listed").to_vec();
        (path, bytes)
    };
    dfs.list(prefix).into_iter().map(read).collect()
}

/// Runs the schedule on the slow DFS and on a cost-free one and holds the
/// first against the second; returns the slow run, its DFS, and the
/// operations the run made on it (this check's own reads not among them).
fn same_as_instant(
    cfg: RunConfig,
    failures: &[FailurePlan],
) -> (RunReport<RankValue>, Dfs, DfsStats) {
    let (behind, instant) = (slow(), Dfs::new(DfsConfig::instant()));
    let got = run(cfg, failures.to_vec(), &behind);
    let want = run(cfg, failures.to_vec(), &instant);
    let bits = |r: &RunReport<RankValue>| -> Vec<(u64, u64)> {
        let bits = |v: &RankValue| (v.rank.to_bits(), v.share.to_bits());
        r.values.iter().map(bits).collect()
    };
    assert_eq!(bits(&got), bits(&want), "{failures:?}");
    assert_eq!(got.iterations, want.iterations, "{failures:?}");
    assert_eq!(got.recoveries.len(), want.recoveries.len(), "{failures:?}");
    // Final the moment the run returns: nothing is still on its way. (How
    // many files an aborted newbie had read before it let go is the one
    // count that depends on what a read costs.)
    assert_eq!(
        behind.stats().writes,
        instant.stats().writes,
        "{failures:?}"
    );
    let ops = behind.stats();
    if got.recoveries.iter().all(|ep| ep.counters.aborts == 0) {
        assert_eq!(ops.reads, instant.stats().reads, "{failures:?}");
    }
    assert_eq!(
        files(&behind, "vc/"),
        files(&instant, "vc/"),
        "{failures:?}"
    );
    (got, behind, ops)
}

fn persist_wait(r: &RunReport<RankValue>) -> Duration {
    r.phases.get("persist_wait").unwrap_or_default()
}

/// (a) The overlap is real: the first superstep commits before the first
/// edge-ckpt file can have landed, and the run ends with all of them there:
/// one file a node, written in one operation.
#[test]
fn first_superstep_commits_before_the_first_file_lands() {
    for recovery in [RecoveryStrategy::Rebirth, RecoveryStrategy::Migration] {
        let (r, dfs, ops) = same_as_instant(config(replication(1, recovery), 0), &[]);
        let (iter, first_commit) = r.timeline[0];
        assert_eq!(iter, 1);
        // A file exists one operation after its node started at the earliest.
        assert!(first_commit < LATENCY, "first commit at {first_commit:?}");
        let each: Vec<String> = (0..NODES).map(|node| format!("vc/eckpt/{node}")).collect();
        assert_eq!(dfs.list("vc/eckpt/"), each);
        assert_eq!(ops.writes.messages, NODES as u64, "one write a node");
        // What was not hidden is booked: the nodes end inside their writes.
        assert!(r.phases.get("load_persist").is_some());
        assert!(persist_wait(&r) >= LATENCY / 2, "{:?}", persist_wait(&r));
    }
}

/// (b) Join-before-die: a node that crashes or stalls in iteration 0, its
/// file still in flight, is recovered from complete files. A newbie reads
/// its edges in one operation; under Migration each survivor reads its own
/// section of the dead node's file in one — and the leader no more: the dead
/// node's own section feeds masters it kept with no mirror, which Migration
/// cannot bring back.
#[test]
fn a_node_dies_or_stalls_only_with_its_files_written() {
    for recovery in [RecoveryStrategy::Rebirth, RecoveryStrategy::Migration] {
        let standbys = usize::from(recovery == RecoveryStrategy::Rebirth);
        let cfg = config(replication(1, recovery), standbys);
        for point in [FailPoint::BeforeBarrier, FailPoint::AfterBarrier] {
            let (r, _, ops) = same_as_instant(cfg, &[crash(1, 0, point)]);
            assert_eq!(r.recoveries.len(), 1, "{recovery:?} {point:?}");
            // Node 1 was inside its one write: it blocked for most of it.
            assert!(persist_wait(&r) >= LATENCY / 2, "{recovery:?} {point:?}");
            // Migration's three survivors rewrite their files; a newbie's
            // graph is the one its file already holds.
            let (reads, writes) = match recovery {
                RecoveryStrategy::Rebirth => (1, NODES),
                RecoveryStrategy::Migration => (NODES - 1, 2 * NODES - 1),
            };
            assert_eq!(ops.reads.messages, reads as u64, "{recovery:?} {point:?}");
            assert_eq!(ops.writes.messages, writes as u64, "{recovery:?} {point:?}");
        }
        // A stall that outlives the fence (2 ms timeout = 10 ticks, fence
        // 400): the node is fenced like a crash at the same point.
        let stalled = RunConfig {
            detector: DetectorKind::Heartbeat,
            hb_interval: Duration::from_millis(1),
            hb_timeout: Duration::from_millis(2),
            ..cfg
        };
        let (r, ..) = same_as_instant(stalled, &[crash(1, 0, FailPoint::Stall(600))]);
        assert_eq!(r.recoveries.len(), 1, "{recovery:?} stall");
        assert!(r.suspicion.confirmed >= 1, "{:?}", r.suspicion);
    }
}

/// (c) A second crash while the survivors of a Migration are still rewriting
/// their files: the node that dies settles first, and so does every survivor
/// before the second episode rewrites again.
#[test]
fn a_second_crash_lands_inside_the_post_migration_rewrite() {
    let cfg = config(replication(1, RecoveryStrategy::Migration), 0);
    let crashes = [
        crash(1, 2, FailPoint::BeforeBarrier),
        crash(2, 3, FailPoint::BeforeBarrier),
    ];
    let (r, dfs, ops) = same_as_instant(cfg, &crashes);
    assert_eq!(r.recoveries.len(), 2);
    // One write per survivor, a whole operation, was queued one superstep
    // before node 2 died: it blocked for most of it.
    assert!(persist_wait(&r) >= LATENCY / 2, "{:?}", persist_wait(&r));
    // The load's four writes, then one a survivor and episode: three, two.
    assert_eq!(ops.writes.messages, 4 + 3 + 2);
    // Node 0 keeps no edges for a dead node: none is a receiver any more.
    for dead in [1, 2] {
        assert_eq!(dfs.read_section("vc/eckpt/0", dead), Some(Ok(vec![])));
    }
}

/// An aborted Migration attempt never writes: crashing a survivor in the
/// last round, one barrier short of success, leaves the DFS with exactly the
/// operations and files of an episode that lost both nodes at once — the
/// load's and the one successful attempt's, nothing re-derived.
#[test]
fn migration_aborted_in_round_8_writes_nothing() {
    let cfg = config(replication(2, RecoveryStrategy::Migration), 0);
    let aborted = [
        crash(1, 2, FailPoint::BeforeBarrier),
        crash(2, 2, FailPoint::MigrationRound(8)),
    ];
    let at_once = [
        crash(1, 2, FailPoint::BeforeBarrier),
        crash(2, 2, FailPoint::BeforeBarrier),
    ];
    let (r, behind, ops) = same_as_instant(cfg, &aborted);
    let ep = &r.recoveries[0];
    assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
    let (clean, one_attempt, clean_ops) = same_as_instant(cfg, &at_once);
    assert_eq!(clean.recoveries[0].counters.aborts, 0);
    assert_eq!(r.values, clean.values);
    assert_eq!(ops.writes, clean_ops.writes);
    assert_eq!(
        files(&behind, "vc/eckpt/"),
        files(&one_attempt, "vc/eckpt/")
    );
}

/// (d) A newbie whose attempt aborts mid-reload — it crashes at its reload
/// fail point, or a survivor does and its batch never comes — drops its
/// read-ahead, its file perhaps still unread; the retry's fresh standby reads
/// it again.
#[test]
fn an_aborted_newbie_drops_its_read_ahead() {
    let cfg = config(replication(2, RecoveryStrategy::Rebirth), 3);
    for second in [1, 2] {
        let crashes = [
            crash(1, 2, FailPoint::BeforeBarrier),
            crash(second, 2, FailPoint::RebirthReload),
        ];
        let (r, ..) = same_as_instant(cfg, &crashes);
        let ep = &r.recoveries[0];
        assert_eq!(ep.strategy, "rebirth");
        assert_eq!((ep.counters.attempts, ep.counters.aborts), (2, 1));
        assert!(ep.phases.get("prefetch_wait").is_some());
    }
}
