//! End-to-end tests of the edge-cut (Cyclops) distributed runner: results
//! must match a sequential reference, and runs with injected failures and
//! recovery must produce bit-identical results to failure-free runs — the
//! paper's core correctness claim.

use std::sync::Arc;
use std::time::Duration;

use imitator::{run_edge_cut, FtMode, RecoveryStrategy, RunConfig, TransportKind};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::{gen, Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};
use imitator_storage::{epoch, Dfs, DfsConfig, EpochKind};

/// Min-label propagation with activation semantics (SSSP-like front).
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

/// A PageRank-flavoured dense program (always active, f64 values, selfish
/// compatible: rank is recomputed purely from in-neighbours).
struct RankLite;

#[derive(Debug, Clone, PartialEq)]
struct Rank {
    value: f64,
    share: f64, // value / out_degree, what neighbours gather
}

impl VertexProgram for RankLite {
    type Value = Rank;
    type Accum = f64;

    fn init(&self, vid: Vid, d: &Degrees) -> Rank {
        let value = 1.0;
        Rank {
            value,
            share: value / f64::from(d.out_degree(vid).max(1)),
        }
    }

    fn gather(&self, _w: f32, src: &Rank) -> f64 {
        src.share
    }

    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, vid: Vid, _old: &Rank, acc: Option<f64>, d: &Degrees) -> Rank {
        let value = 0.15 + 0.85 * acc.unwrap_or(0.0);
        Rank {
            value,
            share: value / f64::from(d.out_degree(vid).max(1)),
        }
    }

    fn scatter(&self, _v: Vid, old: &Rank, new: &Rank) -> bool {
        (old.value - new.value).abs() > 1e-12
    }

    fn selfish_compatible(&self) -> bool {
        true
    }

    fn initially_active(&self, _vid: Vid) -> bool {
        true
    }
}

impl imitator_storage::codec::Encode for Rank {
    fn encode<S: imitator_storage::codec::Sink>(&self, out: &mut S) {
        self.value.encode(out);
        self.share.encode(out);
    }
}

impl imitator_storage::codec::Decode for Rank {
    fn decode(
        r: &mut imitator_storage::codec::Reader<'_>,
    ) -> Result<Self, imitator_storage::codec::DecodeError> {
        Ok(Rank {
            value: f64::decode(r)?,
            share: f64::decode(r)?,
        })
    }
}

impl imitator_metrics::MemSize for Rank {
    fn mem_bytes(&self) -> usize {
        16
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

fn min_label_reference(g: &Graph, iters: usize) -> Vec<u32> {
    let mut vals: Vec<u32> = (0..g.num_vertices() as u32).collect();
    for _ in 0..iters {
        let prev = vals.clone();
        for e in g.edges() {
            let s = prev[e.src.index()];
            if s < vals[e.dst.index()] {
                vals[e.dst.index()] = s;
            }
        }
    }
    vals
}

fn base_cfg(nodes: usize) -> RunConfig {
    RunConfig {
        num_nodes: nodes,
        max_iters: 100,
        ft: FtMode::None,
        standbys: 0,
        transport: TransportKind::Channel,
        ..RunConfig::default()
    }
}

fn fail(node: u32, iteration: u64, point: FailPoint) -> FailurePlan {
    FailurePlan {
        node: NodeId::new(node),
        iteration,
        point,
    }
}

fn run_min_label(
    g: &Graph,
    nodes: usize,
    ft: FtMode,
    standbys: usize,
    failures: Vec<FailurePlan>,
) -> imitator::RunReport<u32> {
    let cut = HashEdgeCut.partition(g, nodes);
    let cfg = RunConfig {
        ft,
        standbys,
        ..base_cfg(nodes)
    };
    run_edge_cut(
        g,
        &cut,
        Arc::new(MinLabel),
        cfg,
        failures,
        Dfs::new(DfsConfig::instant()),
    )
}

#[test]
fn no_ft_matches_reference() {
    let g = gen::power_law(1_500, 2.0, 6, 42);
    let report = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    assert_eq!(report.values, min_label_reference(&g, 100));
    assert!(report.iterations > 0);
    assert!(report.comm.messages > 0);
    assert_eq!(report.ft_comm.messages, 0);
    assert!(report.recoveries.is_empty());
}

#[test]
fn replication_without_failure_matches_and_counts_overhead() {
    let g = gen::power_law_selfish(1_500, 2.0, 6, 0.2, 7);
    let baseline = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    let rep = run_min_label(
        &g,
        4,
        FtMode::Replication {
            tolerance: 1,
            selfish_opt: false,
            recovery: RecoveryStrategy::Rebirth,
        },
        1,
        vec![],
    );
    assert_eq!(rep.values, baseline.values);
    assert!(
        rep.extra_replicas > 0,
        "selfish-heavy graph needs FT replicas"
    );
    assert!(
        rep.ft_comm.messages > 0,
        "extra replicas must be synchronised without the selfish optimisation"
    );
    assert!(rep.comm.messages >= baseline.comm.messages);
}

#[test]
fn selfish_optimisation_eliminates_ft_traffic() {
    // The optimisation only applies to programs whose values are
    // recomputable from in-neighbours (RankLite declares that; MinLabel's
    // running minimum is not).
    let g = gen::power_law_selfish(1_500, 2.0, 6, 0.25, 9);
    let cut = HashEdgeCut.partition(&g, 4);
    let run = |selfish_opt: bool| {
        let cfg = RunConfig {
            max_iters: 8,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt,
                recovery: RecoveryStrategy::Rebirth,
            },
            standbys: 1,
            ..base_cfg(4)
        };
        run_edge_cut(
            &g,
            &cut,
            Arc::new(RankLite),
            cfg,
            vec![],
            Dfs::new(DfsConfig::instant()),
        )
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(with.values, without.values);
    assert!(
        with.ft_comm.messages < without.ft_comm.messages,
        "selfish opt should remove FT sync traffic: {} vs {}",
        with.ft_comm.messages,
        without.ft_comm.messages
    );
}

#[test]
fn rebirth_recovers_bit_identical_results() {
    let g = gen::power_law(2_000, 2.0, 6, 11);
    let clean = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    for (iteration, point) in [
        (0, FailPoint::BeforeBarrier),
        (2, FailPoint::BeforeBarrier),
        (1, FailPoint::AfterBarrier),
    ] {
        let rep = run_min_label(
            &g,
            4,
            FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Rebirth,
            },
            1,
            vec![fail(2, iteration, point)],
        );
        assert_eq!(
            rep.values, clean.values,
            "rebirth at iter {iteration} {point:?} diverged"
        );
        assert_eq!(rep.recoveries.len(), 1);
        assert_eq!(rep.recoveries[0].strategy, "rebirth");
        assert!(rep.recoveries[0].vertices_recovered > 0);
    }
}

#[test]
fn migration_recovers_bit_identical_results() {
    let g = gen::power_law(2_000, 2.0, 6, 13);
    let clean = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    for (iteration, point) in [
        (0, FailPoint::BeforeBarrier),
        (2, FailPoint::BeforeBarrier),
        (1, FailPoint::AfterBarrier),
    ] {
        let rep = run_min_label(
            &g,
            4,
            FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            0,
            vec![fail(1, iteration, point)],
        );
        assert_eq!(
            rep.values, clean.values,
            "migration at iter {iteration} {point:?} diverged"
        );
        assert_eq!(rep.recoveries.len(), 1);
        assert_eq!(rep.recoveries[0].strategy, "migration");
    }
}

#[test]
fn checkpoint_recovers_matching_results() {
    let g = gen::power_law(1_200, 2.0, 6, 17);
    let clean = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    for iteration in [1, 3] {
        let rep = run_min_label(
            &g,
            4,
            FtMode::Checkpoint {
                interval: 2,
                incremental: false,
            },
            1,
            vec![fail(3, iteration, FailPoint::BeforeBarrier)],
        );
        assert_eq!(rep.values, clean.values, "checkpoint at iter {iteration}");
        assert_eq!(rep.recoveries[0].strategy, "checkpoint");
        assert!(rep.ckpt_time > Duration::ZERO);
    }
}

#[test]
fn double_failure_with_two_mirrors_rebirth() {
    let g = gen::power_law(1_500, 2.0, 6, 19);
    let clean = run_min_label(&g, 5, FtMode::None, 0, vec![]);
    let rep = run_min_label(
        &g,
        5,
        FtMode::Replication {
            tolerance: 2,
            selfish_opt: false,
            recovery: RecoveryStrategy::Rebirth,
        },
        2,
        vec![
            fail(1, 2, FailPoint::BeforeBarrier),
            fail(3, 2, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
    assert_eq!(rep.recoveries.len(), 1);
    assert_eq!(rep.recoveries[0].failed_nodes, 2);
}

#[test]
fn double_failure_with_two_mirrors_migration() {
    let g = gen::power_law(1_500, 2.0, 6, 23);
    let clean = run_min_label(&g, 5, FtMode::None, 0, vec![]);
    let rep = run_min_label(
        &g,
        5,
        FtMode::Replication {
            tolerance: 2,
            selfish_opt: false,
            recovery: RecoveryStrategy::Migration,
        },
        0,
        vec![
            fail(0, 2, FailPoint::BeforeBarrier),
            fail(4, 2, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
    assert_eq!(rep.recoveries[0].failed_nodes, 2);
}

#[test]
fn sequential_failures_migration() {
    // Two separate failure episodes: node 1 at iteration 1, node 2 at
    // iteration 4 — the second recovery runs on the already-migrated state.
    let g = gen::power_law(1_500, 2.0, 6, 29);
    let clean = run_min_label(&g, 5, FtMode::None, 0, vec![]);
    let rep = run_min_label(
        &g,
        5,
        FtMode::Replication {
            tolerance: 2,
            selfish_opt: false,
            recovery: RecoveryStrategy::Migration,
        },
        0,
        vec![
            fail(1, 1, FailPoint::BeforeBarrier),
            fail(2, 4, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
    assert_eq!(rep.recoveries.len(), 2);
}

#[test]
fn pagerank_like_rebirth_is_bit_identical() {
    let g = gen::power_law_selfish(1_200, 2.0, 8, 0.15, 31);
    let cut = HashEdgeCut.partition(&g, 4);
    let prog = Arc::new(RankLite);
    let cfg = RunConfig {
        max_iters: 10,
        ..base_cfg(4)
    };
    let clean = run_edge_cut(
        &g,
        &cut,
        Arc::clone(&prog),
        cfg,
        vec![],
        Dfs::new(DfsConfig::instant()),
    );
    let cfg_rep = RunConfig {
        max_iters: 10,
        ft: FtMode::Replication {
            tolerance: 1,
            selfish_opt: true,
            recovery: RecoveryStrategy::Rebirth,
        },
        standbys: 1,
        ..base_cfg(4)
    };
    let rep = run_edge_cut(
        &g,
        &cut,
        prog,
        cfg_rep,
        vec![fail(2, 4, FailPoint::BeforeBarrier)],
        Dfs::new(DfsConfig::instant()),
    );
    // Selfish vertices' recovered values may be one apply step ahead; every
    // vertex with consumers must match exactly.
    let mut out_deg = vec![0u32; g.num_vertices()];
    for e in g.edges() {
        out_deg[e.src.index()] += 1;
    }
    for v in g.vertices() {
        if out_deg[v.index()] > 0 {
            assert_eq!(
                rep.values[v.index()],
                clean.values[v.index()],
                "non-selfish vertex {v} diverged"
            );
        } else {
            assert!(
                (rep.values[v.index()].value - clean.values[v.index()].value).abs() < 0.3,
                "selfish vertex {v} drifted too far"
            );
        }
    }
}

#[test]
fn migration_preserves_ft_level_for_next_failure() {
    // After migrating node 1 away, every vertex must again have a live
    // mirror — proven by surviving a second failure.
    let g = gen::power_law(1_000, 2.0, 6, 37);
    let clean = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    let rep = run_min_label(
        &g,
        4,
        FtMode::Replication {
            tolerance: 1,
            selfish_opt: false,
            recovery: RecoveryStrategy::Migration,
        },
        0,
        vec![
            fail(1, 1, FailPoint::BeforeBarrier),
            fail(0, 3, FailPoint::BeforeBarrier),
        ],
    );
    assert_eq!(rep.values, clean.values);
    assert_eq!(rep.recoveries.len(), 2);
}

#[test]
fn incremental_checkpoint_recovers_matching_results() {
    // Incremental snapshots persist only changed values plus full activation
    // bitmaps; recovery replays the chain. MinLabel's shrinking activation
    // front makes the dirty sets small and the flag handling load-bearing.
    let g = gen::power_law(1_200, 2.0, 6, 67);
    let clean = run_min_label(&g, 4, FtMode::None, 0, vec![]);
    for iteration in [1, 3, 6] {
        let rep = run_min_label(
            &g,
            4,
            FtMode::Checkpoint {
                interval: 2,
                incremental: true,
            },
            1,
            vec![fail(3, iteration, FailPoint::BeforeBarrier)],
        );
        assert_eq!(
            rep.values, clean.values,
            "incremental checkpoint at iter {iteration}"
        );
        assert_eq!(rep.recoveries[0].strategy, "checkpoint");
    }
}

#[test]
fn incremental_snapshots_shrink_as_the_front_quiets() {
    // The whole point of §2.3's incremental snapshots: once most vertices
    // stop changing, later snapshots are much smaller than the first.
    let g = gen::power_law(2_000, 2.0, 6, 69);
    let cut = HashEdgeCut.partition(&g, 4);
    let dfs = Dfs::new(DfsConfig::instant());
    run_edge_cut(
        &g,
        &cut,
        Arc::new(MinLabel),
        RunConfig {
            ft: FtMode::Checkpoint {
                interval: 1,
                incremental: true,
            },
            ..base_cfg(4)
        },
        vec![],
        dfs.clone(),
    );
    // Periodic full epochs re-snapshot everything to bound the recovery
    // chain; the shrinkage claim is about the *delta* epochs in between, so
    // compare the first delta against the last one.
    let deltas: Vec<u64> = {
        let mut d: Vec<u64> = dfs
            .list("ec/ckpt/")
            .iter()
            .filter_map(|p| p.split('/').nth(2)?.parse().ok())
            .filter(|&e| matches!(epoch::read_roster(&dfs, "ec", e), Ok((EpochKind::Delta, _))))
            .collect();
        d.sort_unstable();
        d.dedup();
        d
    };
    let epoch_bytes = |e: u64| -> usize {
        dfs.list(&format!("ec/ckpt/{e}/"))
            .iter()
            .map(|p| dfs.read(p).unwrap().len())
            .sum()
    };
    let early = epoch_bytes(*deltas.first().expect("run writes delta epochs"));
    let late = epoch_bytes(*deltas.last().unwrap());
    assert!(
        late * 2 < early,
        "late delta snapshot ({late} B) should be far smaller than the first ({early} B)"
    );
}
