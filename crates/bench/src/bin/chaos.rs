//! `chaos`: deterministic cascading-failure torture harness.
//!
//! Sweeps seeded failure schedules across every fail-point class the
//! injector knows — each Migration round, the Rebirth reload /
//! reconstruction / replay phases (survivor and reborn-newbie deaths),
//! torn checkpoint writes, checkpoint recovery onto hosted slots, simultaneous
//! multi-machine losses and staggered double failures *during* recovery —
//! and asserts that every run converges **bit-identically** to a
//! failure-free golden run of the same scenario.
//!
//! Schedules are derived purely from `(IMITATOR_SEED, index)`, so any
//! reported schedule reproduces with one command:
//!
//! ```text
//! IMITATOR_CHAOS_ONLY=<index> cargo run --release -p imitator-bench --bin chaos
//! ```
//!
//! Environment:
//!
//! * `IMITATOR_CHAOS_SCHEDULES` — schedule count (default 200);
//! * `IMITATOR_CHAOS_ONLY` — run a single schedule index (repro mode);
//! * `IMITATOR_CHAOS_LOG` — also write the schedule log to this file;
//! * `IMITATOR_CHAOS_LOSSY` — when set (`1`), run every schedule over the
//!   seeded-lossy transport ([`TransportKind::Lossy`]): per-link
//!   drop/duplicate/reorder/delay faults layered *under* the crash
//!   schedule, derived from the same `(IMITATOR_SEED, index)` pair;
//! * `IMITATOR_SEED` — base seed (default 42).
//!
//! Nobody announces a death: every faulty schedule's crashes are inferred
//! by the heartbeat/suspicion failure detector, and a recovered schedule
//! that confirmed none through suspicion fails the sweep.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use imitator::{run_edge_cut, run_vertex_cut, FtMode, RecoveryStrategy, RunConfig, RunReport};
use imitator_cluster::{FailPoint, FailurePlan, NetFaults, NodeId, TransportKind};
use imitator_engine::{Degrees, VertexProgram};
use imitator_graph::{gen, Graph, Vid};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::{Dfs, DfsConfig};

/// What one DFS operation costs a vertex-cut schedule. A vertex-cut node
/// writes its edge-ckpt file behind its supersteps and a recovery reads it
/// ahead; on a cost-free DFS both are over before a crash can land inside
/// them. A few supersteps' worth of latency (no bandwidth limit: goldens do
/// not depend on what the DFS costs) keeps those windows open across the
/// crash points the schedules stage.
const VC_DFS_LATENCY: Duration = Duration::from_millis(2);

/// Min-label propagation: integer-exact, activation-driven — any divergence
/// between a recovered and a clean run shows up as a hard value mismatch.
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

/// SplitMix64 — a tiny, high-quality deterministic stream per schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The fail-point class a schedule exercises. The sweep cycles through all
/// of them so every class is hit many times over a 200-schedule run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Survivor crashes at the start of the given Migration round.
    MigrationRound(u8),
    /// Survivor crashes right after the standby-dispatch decision.
    SurvivorReload,
    /// The reborn node crashes after receiving its first batch.
    NewbieReload,
    /// The reborn node crashes while reconstructing its graph.
    NewbieReconstruct,
    /// The reborn node crashes while replaying activation state.
    NewbieReplay,
    /// A node dies mid-snapshot-write, leaving a torn epoch behind.
    CkptTorn,
    /// Survivor crashes during checkpoint recovery (post-decision reload).
    CkptCascade,
    /// Pool empty, so a survivor hosts the crashed slot: a survivor that
    /// hosts nothing crashes at the hosted attempt's reload.
    HostedSurvivorReload,
    /// Pool empty: the hosted newbie crashes at its reload.
    HostedNewbieReload,
    /// Pool empty: the host crashes at its reload, taking its newbie along.
    HostReload,
    /// Two machines die at once during normal execution.
    Simultaneous,
    /// Two *staggered* crashes inside one recovery episode: the retry
    /// triggered by the first mid-recovery death is itself aborted.
    DoubleCascade,
}

/// Order matters beyond this file: schedule `i` runs class `i % len`, and
/// CI's blocking `chaos-recovery` shard selects the first twelve (the
/// Migration rounds and the Rebirth phases) and classes 13 to 16 (a
/// checkpoint standby attempt's reload and the three hosted classes) by
/// that index.
fn classes() -> Vec<Class> {
    let mut v: Vec<Class> = (1..=8).map(Class::MigrationRound).collect();
    v.extend([
        Class::SurvivorReload,
        Class::NewbieReload,
        Class::NewbieReconstruct,
        Class::NewbieReplay,
        Class::CkptTorn,
        Class::CkptCascade,
    ]);
    v.extend([
        Class::HostedSurvivorReload,
        Class::HostedNewbieReload,
        Class::HostReload,
    ]);
    v.extend([Class::Simultaneous, Class::DoubleCascade]);
    v
}

/// One fully-determined torture scenario.
struct Schedule {
    index: usize,
    class: Class,
    graph: Graph,
    nodes: usize,
    edge_cut: bool,
    ft: FtMode,
    standbys: usize,
    plans: Vec<FailurePlan>,
    desc: String,
}

fn crash(node: usize, iteration: u64, point: FailPoint) -> FailurePlan {
    FailurePlan {
        node: NodeId::from_index(node),
        iteration,
        point,
    }
}

fn repl(tolerance: usize, recovery: RecoveryStrategy) -> FtMode {
    FtMode::Replication {
        tolerance,
        selfish_opt: false,
        recovery,
    }
}

/// Builds schedule `index` from `(base_seed, index)` alone.
fn build(index: usize, base_seed: u64, class: Class) -> Schedule {
    let mut rng = Rng(base_seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let nodes = if class == Class::DoubleCascade {
        5
    } else {
        4 + rng.below(2) as usize
    };
    let n = 60 + rng.below(120) as usize;
    let m = 150 + rng.below(300) as usize;
    let pairs: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
        .collect();
    let graph = gen::from_pairs(n, &pairs);
    let edge_cut = rng.below(2) == 0;
    // This draw once picked the thread count; it stays so every later draw,
    // and so every schedule index, names the schedule it always has.
    rng.below(4);

    // Primary crash: early and pre-barrier-biased so the episode (and the
    // nested plan keyed to its resume iteration) actually fires.
    let victim = rng.below(nodes as u64) as usize;
    let iter = 1 + rng.below(2);
    let before = rng.below(10) < 7;
    let resume = if before { iter } else { iter + 1 };
    let primary = crash(
        victim,
        iter,
        if before {
            FailPoint::BeforeBarrier
        } else {
            FailPoint::AfterBarrier
        },
    );
    let survivor = |rng: &mut Rng, not: &[usize]| loop {
        let s = rng.below(nodes as u64) as usize;
        if !not.contains(&s) {
            return s;
        }
    };

    let (ft, standbys, plans) = match class {
        Class::MigrationRound(r) => {
            let s = survivor(&mut rng, &[victim]);
            (
                repl(2, RecoveryStrategy::Migration),
                0,
                vec![primary, crash(s, resume, FailPoint::MigrationRound(r))],
            )
        }
        Class::SurvivorReload => {
            let s = survivor(&mut rng, &[victim]);
            // 1 standby forces mid-episode degradation to migration; more
            // keep the retry on the standby path — both must converge.
            let standbys = 1 + rng.below(3) as usize;
            (
                repl(2, RecoveryStrategy::Rebirth),
                standbys,
                vec![primary, crash(s, resume, FailPoint::RebirthReload)],
            )
        }
        Class::NewbieReload | Class::NewbieReconstruct | Class::NewbieReplay => {
            let point = match class {
                Class::NewbieReload => FailPoint::RebirthReload,
                Class::NewbieReconstruct => FailPoint::RebirthReconstruct,
                _ => FailPoint::RebirthReplay,
            };
            (
                repl(2, RecoveryStrategy::Rebirth),
                2 + rng.below(2) as usize,
                vec![primary, crash(victim, resume, point)],
            )
        }
        Class::CkptTorn => {
            // interval 2 ⇒ snapshot writes happen at odd iterations.
            let torn_iter = 1 + 2 * rng.below(2);
            (
                FtMode::Checkpoint {
                    interval: 2,
                    incremental: rng.below(2) == 0,
                },
                rng.below(2) as usize,
                vec![crash(victim, torn_iter, FailPoint::CkptWrite)],
            )
        }
        Class::CkptCascade => {
            let s = survivor(&mut rng, &[victim]);
            (
                FtMode::Checkpoint {
                    interval: 2,
                    incremental: rng.below(2) == 0,
                },
                2 + rng.below(2) as usize,
                vec![primary, crash(s, resume, FailPoint::RebirthReload)],
            )
        }
        Class::HostedSurvivorReload | Class::HostedNewbieReload | Class::HostReload => {
            // The lowest-ID survivor hosts the victim's slot. Its newbie's
            // reload fail point keys on the epoch it rolls back to: none
            // is committed before a crash at resume 1, epoch 2 after.
            let host = usize::from(victim == 0);
            let snapshot = if resume == 1 { 0 } else { 2 };
            let (node, iteration) = match class {
                Class::HostedSurvivorReload => (survivor(&mut rng, &[victim, host]), resume),
                Class::HostedNewbieReload => (victim, snapshot),
                _ => (host, resume),
            };
            (
                FtMode::Checkpoint {
                    interval: 2,
                    incremental: rng.below(2) == 0,
                },
                0,
                vec![primary, crash(node, iteration, FailPoint::RebirthReload)],
            )
        }
        Class::Simultaneous => {
            let s = survivor(&mut rng, &[victim]);
            let strategy = if rng.below(2) == 0 {
                RecoveryStrategy::Migration
            } else {
                RecoveryStrategy::Rebirth
            };
            let standbys = if strategy == RecoveryStrategy::Rebirth {
                2
            } else {
                0
            };
            (
                repl(2, strategy),
                standbys,
                vec![primary, crash(s, iter, FailPoint::BeforeBarrier)],
            )
        }
        Class::DoubleCascade => {
            let s1 = survivor(&mut rng, &[victim]);
            let s2 = survivor(&mut rng, &[victim, s1]);
            let r1 = 1 + rng.below(8) as u8;
            let r2 = 1 + rng.below(8) as u8;
            (
                repl(3, RecoveryStrategy::Migration),
                0,
                vec![
                    primary,
                    crash(s1, resume, FailPoint::MigrationRound(r1)),
                    crash(s2, resume, FailPoint::MigrationRound(r2)),
                ],
            )
        }
    };

    let mut desc = String::new();
    let _ = write!(
        desc,
        "{class:?} nodes={nodes} n={n} m={m} {} standbys={standbys} plans=[",
        if edge_cut { "ec" } else { "vc" },
    );
    for (i, p) in plans.iter().enumerate() {
        let _ = write!(
            desc,
            "{}{}@{}:{:?}",
            if i > 0 { " " } else { "" },
            p.node.raw(),
            p.iteration,
            p.point
        );
    }
    desc.push(']');
    Schedule {
        index,
        class,
        graph,
        nodes,
        edge_cut,
        ft,
        standbys,
        plans,
        desc,
    }
}

fn config(s: &Schedule, ft: FtMode, standbys: usize, transport: TransportKind) -> RunConfig {
    RunConfig {
        num_nodes: s.nodes,
        max_iters: 30,
        ft,
        standbys,
        transport,
        // Virtual-clock transports tick deterministically, so a tight
        // suspicion window keeps the sweep fast without false fencing.
        hb_interval: Duration::from_millis(1),
        hb_timeout: Duration::from_millis(6),
        ..RunConfig::default()
    }
}

fn execute(
    s: &Schedule,
    ft: FtMode,
    standbys: usize,
    transport: TransportKind,
    plans: Vec<FailurePlan>,
) -> RunReport<u32> {
    if s.edge_cut {
        let cut = HashEdgeCut.partition(&s.graph, s.nodes);
        run_edge_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(s, ft, standbys, transport),
            plans,
            Dfs::new(DfsConfig::instant()),
        )
    } else {
        let cut = RandomVertexCut.partition(&s.graph, s.nodes);
        run_vertex_cut(
            &s.graph,
            &cut,
            Arc::new(MinLabel),
            config(s, ft, standbys, transport),
            plans,
            Dfs::new(DfsConfig {
                latency: VC_DFS_LATENCY,
                ..DfsConfig::instant()
            }),
        )
    }
}

fn main() {
    let env = |k: &str| std::env::var(k).ok();
    let base_seed: u64 = env("IMITATOR_SEED")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let total: usize = env("IMITATOR_CHAOS_SCHEDULES")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let only: Option<usize> = env("IMITATOR_CHAOS_ONLY").and_then(|v| v.parse().ok());
    let lossy = env("IMITATOR_CHAOS_LOSSY").is_some_and(|v| v != "0");

    let classes = classes();
    let indices: Vec<usize> = match only {
        Some(i) => vec![i],
        None => (0..total).collect(),
    };
    println!(
        "== chaos: {} seeded schedule(s), base seed {base_seed}, {} fail-point classes{}",
        indices.len(),
        classes.len(),
        if lossy { ", lossy transport" } else { "" },
    );

    let mut log = String::new();
    let mut failures = 0usize;
    let mut exercised: Vec<(Class, usize)> = classes.iter().map(|&c| (c, 0)).collect();
    let mut total_retries = 0u64;
    let mut total_redelivered = 0u64;
    let mut total_confirmed = 0u64;
    let mut total_detect_ticks = 0u64;

    for &i in &indices {
        let class = classes[i % classes.len()];
        let s = build(i, base_seed, class);
        // The golden run is failure-free.
        let golden = execute(&s, FtMode::None, 0, TransportKind::Channel, vec![]);
        let transport = if lossy {
            TransportKind::Lossy(NetFaults::from_seed(
                base_seed ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            ))
        } else {
            TransportKind::Channel
        };
        let faulty = execute(&s, s.ft, s.standbys, transport, s.plans.clone());
        total_retries += faulty.fabric.retries;
        total_redelivered += faulty.fabric.redelivered;
        total_confirmed += faulty.suspicion.confirmed;
        total_detect_ticks += faulty.suspicion.detect_ticks;
        // Nobody announces deaths: every recovered schedule must have
        // *inferred* them via suspicion.
        assert!(
            faulty.recoveries.is_empty() || faulty.suspicion.confirmed > 0,
            "#{:04}: recovered {} episode(s) without a confirmed suspicion: {:?}",
            s.index,
            faulty.recoveries.len(),
            faulty.suspicion
        );

        let episodes = faulty.recoveries.len();
        let attempts: u32 = faulty.recoveries.iter().map(|r| r.counters.attempts).sum();
        let aborts: u32 = faulty.recoveries.iter().map(|r| r.counters.aborts).sum();
        let strategies: Vec<&str> = faulty.recoveries.iter().map(|r| r.strategy).collect();
        if episodes > 0 {
            let slot = exercised.iter_mut().find(|(c, _)| *c == s.class);
            slot.expect("schedule class is in the class list").1 += 1;
        }

        let ok = faulty.values == golden.values;
        let mut line = format!(
            "#{:04} {} -> {} iters={} episodes={episodes} attempts={attempts} aborts={aborts} strategies={strategies:?}",
            s.index,
            s.desc,
            if ok { "OK" } else { "VALUE-MISMATCH" },
            faulty.iterations,
        );
        for ep in &faulty.recoveries {
            assert_eq!(
                ep.counters.attempts,
                ep.counters.aborts + 1,
                "#{:04}: a finished episode takes exactly aborts+1 attempts",
                s.index
            );
            // Every episode must carry its fine-grained phase breakdown,
            // and the migration rounds it records must appear in protocol
            // order (PhaseTimes keeps insertion order, so an out-of-order
            // round means the protocol itself ran rounds out of order).
            assert!(
                ep.phases.iter().count() > 0,
                "#{:04}: episode ({}) recorded no phase timers",
                s.index,
                ep.strategy
            );
            let rounds: Vec<u32> = ep
                .phases
                .iter()
                .filter_map(|(n, _)| n.strip_prefix("migration_round")?.parse().ok())
                .collect();
            assert!(
                rounds.windows(2).all(|w| w[0] < w[1]),
                "#{:04}: migration rounds recorded out of order: {rounds:?}",
                s.index
            );
        }
        if !ok {
            failures += 1;
            let _ = write!(
                line,
                "\n      repro: IMITATOR_SEED={base_seed}{} IMITATOR_CHAOS_ONLY={} cargo run --release -p imitator-bench --bin chaos",
                if lossy { " IMITATOR_CHAOS_LOSSY=1" } else { "" },
                s.index
            );
            println!("{line}");
        } else if only.is_some() {
            println!("{line}");
        }
        log.push_str(&line);
        log.push('\n');
    }

    println!("-- coverage (schedules where a recovery episode actually ran):");
    for (c, n) in &exercised {
        println!("   {c:?}: {n}");
    }
    if let Some(path) = env("IMITATOR_CHAOS_LOG") {
        std::fs::write(&path, &log).expect("write chaos schedule log");
        println!("-- schedule log written to {path}");
    }

    // Full sweeps must exercise every class at least once; a repro run of a
    // single index legitimately covers just one.
    if only.is_none() && indices.len() >= classes.len() * 4 {
        for (c, n) in &exercised {
            assert!(*n > 0, "fail-point class {c:?} was never exercised");
        }
    }
    println!(
        "-- heartbeat detector: {total_confirmed} death(s) confirmed by \
         suspicion, {total_detect_ticks} detect tick(s) total"
    );
    // A sweep whose detector never fired validated nothing.
    assert!(
        only.is_some() || total_confirmed > 0,
        "sweep confirmed no deaths through suspicion"
    );
    if lossy {
        println!(
            "-- lossy transport: {total_retries} fence retransmission(s), \
             {total_redelivered} duplicate(s) suppressed"
        );
        // A sweep whose link faults never fired validated nothing.
        assert!(
            only.is_some() || total_retries + total_redelivered > 0,
            "lossy sweep produced no retransmissions or redeliveries"
        );
    }
    assert_eq!(
        failures, 0,
        "{failures} schedule(s) diverged from the failure-free golden run"
    );
    println!(
        "== chaos: all {} schedule(s) bit-identical to their golden runs",
        indices.len()
    );
}
