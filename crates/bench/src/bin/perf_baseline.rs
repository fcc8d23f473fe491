//! Performance baseline: times the engine's compute kernels (serial scan,
//! sparse frontier, edge-order gather) and one end-to-end PageRank run per
//! engine, then writes the numbers to
//! `BENCH_engine.json` for regression tracking.
//!
//! ```sh
//! cargo run --release -p imitator-bench --bin perf_baseline
//! ```
//!
//! Honours `IMITATOR_SCALE` / `IMITATOR_NODES` / `IMITATOR_SEED` /
//! `IMITATOR_REPEAT` like every other harness binary. Kernel timings keep
//! the best of `reps()` passes; the load-path rows ([`LOAD_ROWS`]) are the
//! median of five samples, each taken by a child process of this binary
//! (`perf_baseline --load-row <name>`). The JSON is a flat name → seconds
//! map so a later run can be diffed field by field, plus a `bytes` map of
//! exact gauges (wire sizes, a Migration's undo journal, and the memory the
//! load scenario's replicated graphs hold under either cut) that CI holds
//! against the committed file.

use std::time::{Duration, Instant};

use imitator::plan::{compute_ft_plan, ReplicaView};
use imitator::{edge_ckpt_files, FtMode, RecoveryStrategy, RunConfig};
use imitator_algos::PageRank;
use imitator_bench::{
    banner, best_of, crash, hdfs, ramfs, reps, run_ec, run_vc, BenchOpts, Workload,
};
use imitator_cluster::{Cluster, NodeId, TransportKind, TICKS_PER_MS};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, ec_compute, ec_compute_scan, vc_partial_gather,
    CopyKind, Degrees, Episode, FtPlan, FullState, FullStateBatches, VertexProgram,
};
use imitator_graph::gen;
use imitator_metrics::{CommKind, MemSize};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};

/// Best-of-`n` wall time of `f`, in seconds.
fn time_best<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The load path, one row per piece: partitioning under either cut,
/// computing the FT plan, building every node's local graph (both engines,
/// with and without the plan), encoding the four vertex-cut nodes' edge-ckpt
/// files one node after another (what replication adds to a vertex-cut
/// job's first superstep), and freeing the edge-cut graphs on the caller's
/// thread as `run_edge_cut` does when a job ends. All on the graph
/// `benchmark/`'s PageRank workloads load — five times this suite's kernel
/// graph, on four nodes.
const LOAD_ROWS: [&str; 10] = [
    "cut_ec",
    "cut_vc",
    "ft_plan",
    "build_ec_graphs_base",
    "build_ec_graphs_ft",
    "build_vc_graphs_base",
    "build_vc_graphs_ft",
    "eckpt_group_vc",
    "teardown_ec_base",
    "teardown_ec_ft",
];

/// Samples per load row; the row records their median.
const LOAD_SAMPLES: usize = 5;

/// Not timings: `mem_bytes` summed over the graphs `build_ec_graphs_ft` /
/// `build_vc_graphs_ft` build. Exact for a given scale and seed, so they are
/// `bytes` gauges.
const MEM_EC_FT: &str = "mem_ec_ft";
const MEM_VC_FT: &str = "mem_vc_ft";

/// One sample of load row `row`, in seconds (bytes for the two `mem_`
/// gauges). A
/// timed row runs as the only measurement of its process: these rows
/// allocate and free a few million blocks, and whatever the allocator was
/// left holding by an earlier row moves them by a third.
fn load_row_sample(row: &str, opts: &BenchOpts) -> f64 {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        (out, t.elapsed().as_secs_f64())
    }
    let verts = ((100_000.0 * opts.scale) as usize).max(1_000);
    let g = gen::power_law(verts, 2.0, 10, opts.seed);
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    // The plan the runners compute for `FtMode::Replication` with one
    // mirror and the selfish optimisation on.
    let ft_plan =
        |view: &dyn ReplicaView| compute_ft_plan(&g, view, 1, true, pr.selfish_compatible(), 0xF7);
    let plan = |view: &dyn ReplicaView| {
        if row.ends_with("_ft") || row == "eckpt_group_vc" {
            ft_plan(view)
        } else {
            FtPlan::none(g.num_vertices())
        }
    };
    if row.ends_with("_vc") || row.starts_with("build_vc_graphs_") || row == MEM_VC_FT {
        let (cut, cut_s) = timed(|| RandomVertexCut.partition(&g, 4));
        if row == "cut_vc" {
            return cut_s;
        }
        let plan = plan(&cut);
        let (lgs, build_s) = timed(|| build_vertex_cut_graphs(&g, &cut, &plan, &pr, &degrees));
        return match row {
            "eckpt_group_vc" => timed(|| lgs.iter().map(edge_ckpt_files).collect::<Vec<_>>()).1,
            MEM_VC_FT => lgs.iter().map(MemSize::mem_bytes).sum::<usize>() as f64,
            _ => build_s,
        };
    }
    let (cut, cut_s) = timed(|| HashEdgeCut.partition(&g, 4));
    if row == "cut_ec" {
        return cut_s;
    }
    if row == "ft_plan" {
        return timed(|| ft_plan(&cut)).1;
    }
    let plan = plan(&cut);
    let (lgs, build_s) = timed(|| build_edge_cut_graphs(&g, &cut, &plan, &pr, &degrees));
    match row {
        "build_ec_graphs_base" | "build_ec_graphs_ft" => build_s,
        "teardown_ec_base" | "teardown_ec_ft" => timed(|| drop(lgs)).1,
        MEM_EC_FT => lgs.iter().map(MemSize::mem_bytes).sum::<usize>() as f64,
        _ => panic!("unknown load row `{row}`"),
    }
}

/// Median of [`LOAD_SAMPLES`] samples of `row`, each from a fresh child
/// process.
fn load_row(row: &str) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let mut samples: Vec<f64> = (0..LOAD_SAMPLES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--load-row", row])
                .output()
                .expect("spawn load-row child");
            assert!(out.status.success(), "load-row child for `{row}` failed");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .expect("load-row child prints seconds")
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() {
    let opts = BenchOpts::from_env();
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("--load-row") {
        let row = args.next().expect("--load-row takes a row name");
        println!("{}", load_row_sample(&row, &opts));
        return;
    }
    banner(
        "perf_baseline",
        "engine kernel + end-to-end baseline",
        &opts,
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let n = reps().max(5);
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, secs: f64| {
        println!("  {name:<40} {:>10.3} ms", secs * 1e3);
        results.push((name.to_string(), secs));
    };

    let verts = ((20_000.0 * opts.scale) as usize).max(1_000);
    let g = gen::power_law(verts, 2.0, 10, opts.seed);
    let degrees = Degrees::of(&g);
    let plan = FtPlan::none(g.num_vertices());
    let pr = PageRank::new(0.85, 0.0);

    for row in LOAD_ROWS {
        record(row, load_row(row));
    }
    let mem_ft = [MEM_EC_FT, MEM_VC_FT].map(|gauge| (gauge, load_row_sample(gauge, &opts)));

    // Edge-cut kernels: one node's slice of a dense superstep.
    let cut = HashEdgeCut.partition(&g, opts.nodes);
    let lgs = build_edge_cut_graphs(&g, &cut, &plan, &pr, &degrees);
    record(
        "ec_compute_scan",
        time_best(n, || {
            ec_compute_scan(&lgs[0], &pr, &degrees, 0);
        }),
    );
    record(
        "ec_compute_frontier",
        time_best(n, || {
            ec_compute(&lgs[0], &pr, &degrees, 0);
        }),
    );

    // Vertex-cut kernels.
    let vcut = RandomVertexCut.partition(&g, opts.nodes);
    let vlgs = build_vertex_cut_graphs(&g, &vcut, &plan, &pr, &degrees);
    record(
        "vc_gather_edge_order",
        time_best(n, || {
            vc_partial_gather(&vlgs[0], &pr);
        }),
    );

    // Communication fabric: lock-free send + O(1) drain throughput, and the
    // barrier round trip every superstep pays.
    {
        let cluster: Cluster<u64> = Cluster::new(opts.nodes.max(2), 0, Duration::ZERO);
        let sender = cluster.take_ctx(NodeId::new(0));
        let receiver = cluster.take_ctx(NodeId::new(1));
        record(
            "fabric_send_drain_100k",
            time_best(n, || {
                for i in 0..100_000u64 {
                    sender.send(NodeId::new(1), i);
                }
                assert_eq!(receiver.drain().len(), 100_000);
            }),
        );
    }
    // The same throughput probe over loopback TCP: every frame crosses a
    // real socket (encode, length-prefix, kernel round trip, decode) and
    // the receiver spins on drain until the link delivered everything —
    // the honest price of a wire relative to the in-process fast path.
    {
        let cluster: Cluster<u64> =
            Cluster::with_transport(opts.nodes.max(2), 0, Duration::ZERO, TransportKind::Tcp);
        let sender = cluster.take_ctx(NodeId::new(0));
        let receiver = cluster.take_ctx(NodeId::new(1));
        record(
            "fabric_send_drain_100k_tcp",
            time_best(n, || {
                for i in 0..100_000u64 {
                    sender.send(NodeId::new(1), i);
                }
                let mut got = 0usize;
                while got < 100_000 {
                    got += receiver.drain().len();
                }
            }),
        );
        cluster.shutdown_transport();
    }
    // One sync round = a burst of sends fenced by the barrier every
    // superstep pays — the communication heartbeat — timed per wire
    // backend. Channel is the lock-free bound; TCP adds the codec, the
    // kernel, and the pre-barrier delivery fence.
    for (name, kind) in [
        ("sync_round_x100_channel", TransportKind::Channel),
        ("sync_round_x100_tcp", TransportKind::Tcp),
    ] {
        record(
            name,
            time_best(n, || {
                let cluster: Cluster<u64> = Cluster::with_transport(2, 0, Duration::ZERO, kind);
                let a = cluster.take_ctx(NodeId::new(0));
                let b = cluster.take_ctx(NodeId::new(1));
                let peer = std::thread::spawn(move || {
                    for _ in 0..100 {
                        b.enter_barrier();
                        b.drain();
                    }
                });
                for round in 0..100u64 {
                    for i in 0..1_000u64 {
                        a.send(NodeId::new(1), round * 1_000 + i);
                    }
                    a.enter_barrier();
                }
                peer.join().expect("peer thread");
                cluster.shutdown_transport();
            }),
        );
    }
    // Columnar wire codec: encode/decode throughput of a 100k-record sync
    // frame (the shape the sync fast path batches), plus the byte gauge the
    // CI bytes-regression step tracks. The scalar codec this replaced spent
    // 13 bytes per f64 sync record (4 pos + 8 value + 1 activate).
    let bytes_per_sync;
    {
        use imitator::wire::{decode_sync_frame, encode_sync_frame, SyncRecEnc};
        let values: Vec<[u8; 8]> = (0..100_000u64)
            .map(|i| f64::from_bits(i ^ 0x9E37_79B9_7F4A_7C15).to_le_bytes())
            .collect();
        let recs: Vec<SyncRecEnc<'_>> = values
            .iter()
            .enumerate()
            .map(|(i, v)| SyncRecEnc {
                pos: (i as u32) * 3,
                activate: i % 3 == 0,
                value: v,
                span: None,
            })
            .collect();
        let mut frame = Vec::new();
        record(
            "sync_encode_100k",
            time_best(n, || {
                frame.clear();
                encode_sync_frame(&recs, &mut frame);
            }),
        );
        bytes_per_sync = frame.len() as f64 / recs.len() as f64;
        record(
            "sync_decode_100k",
            time_best(n, || {
                let out = decode_sync_frame::<f64>(&frame, |_| {
                    unreachable!("full frames need no delta base")
                })
                .expect("self-encoded frame decodes");
                assert_eq!(out.len(), recs.len());
            }),
        );
    }
    record(
        "fabric_barrier_x1000",
        time_best(n, || {
            let cluster: Cluster<()> = Cluster::new(opts.nodes, 0, Duration::ZERO);
            let peers: Vec<_> = (1..opts.nodes)
                .map(|p| {
                    let ctx = cluster.take_ctx(NodeId::from_index(p));
                    std::thread::spawn(move || {
                        for _ in 0..1000 {
                            ctx.enter_barrier();
                        }
                    })
                })
                .collect();
            let me = cluster.take_ctx(NodeId::new(0));
            for _ in 0..1000 {
                me.enter_barrier();
            }
            for p in peers {
                p.join().expect("peer thread");
            }
        }),
    );

    // End-to-end PageRank per engine. The `_t1` suffix names the one thread
    // a node is; the rows keep it so older recordings stay comparable.
    let cfg = RunConfig {
        num_nodes: opts.nodes,
        max_iters: 20,
        ft: FtMode::None,
        ..RunConfig::default()
    };
    let s = best_of(reps(), || {
        run_ec(Workload::PageRank, &g, &cut, cfg, vec![], ramfs())
    });
    record("ec_pagerank_e2e_t1", s.elapsed.as_secs_f64());
    let s = best_of(reps(), || {
        run_vc(Workload::PageRank, &g, &vcut, cfg, vec![], ramfs())
    });
    record("vc_pagerank_e2e_t1", s.elapsed.as_secs_f64());

    // Recovery latency: one crash mid-run under replication FT, per strategy.
    // The recorded figure is the recovery episode's wall time (reload +
    // reconstruct + replay), not the whole run. The Migration scenario also
    // yields what its undo journal costs to set up (`undo_capture`) and to
    // let go (`undo_release`: the `after_recovery` phase, i.e. the model's
    // post-recovery hook plus dropping the journal), and two byte gauges,
    // exact for a given graph, partitioning and crash: everything the eight
    // rounds put on the wire, and the journal the survivors held between
    // them when the attempt finished. The Rebirth scenario yields the third:
    // everything the survivors' batches put on the wire. Both wire gauges
    // are what the episode's messages encode to.
    let mut undo = (f64::INFINITY, f64::INFINITY);
    let (mut recovery_rebirth_bytes, mut recovery_migration_bytes) = (0.0, 0.0);
    let mut undo_journal_bytes = 0.0;
    for (name, strategy, standbys) in [
        ("recovery_rebirth_e2e", RecoveryStrategy::Rebirth, 1usize),
        ("recovery_migration_e2e", RecoveryStrategy::Migration, 0),
    ] {
        let cfg = RunConfig {
            num_nodes: opts.nodes,
            max_iters: 20,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: strategy,
            },
            standbys,
            ..RunConfig::default()
        };
        let mut best = f64::INFINITY;
        for _ in 0..reps() {
            let s = run_ec(
                Workload::PageRank,
                &g,
                &cut,
                cfg,
                vec![crash(1, 5)],
                ramfs(),
            );
            assert_eq!(s.recoveries.len(), 1, "crash must trigger one episode");
            best = best.min(s.recovery_total().as_secs_f64());
            let ep = &s.recoveries[0];
            if strategy == RecoveryStrategy::Rebirth {
                recovery_rebirth_bytes = ep.comm.bytes as f64;
            } else {
                let phase = |key| ep.phases.get(key).map_or(0.0, |d| d.as_secs_f64());
                undo.0 = undo.0.min(phase("undo_capture"));
                undo.1 = undo.1.min(phase("after_recovery"));
                recovery_migration_bytes = ep.comm.bytes as f64;
                undo_journal_bytes = ep.journal_bytes as f64;
            }
        }
        record(&format!("{name}_t1"), best);
    }
    record("undo_capture", undo.0);
    record("undo_release", undo.1);

    // What the HDFS-like DFS costs a replicated vertex-cut job where the job
    // pays for it. A node encodes its edge-ckpt files before its first
    // superstep and writes them behind it: `vc_first_commit_hdfs` is node
    // start to first commit. A Rebirth's newbie reads the crashed node's
    // files ahead of the survivors' batches: `recovery_rebirth_vc_hdfs_e2e`
    // is the episode. The edge-cut rows above never touch the DFS.
    {
        let cfg = RunConfig {
            num_nodes: opts.nodes,
            max_iters: 20,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Rebirth,
            },
            standbys: 1,
            ..RunConfig::default()
        };
        let (mut first_commit, mut episode) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps() {
            let s = run_vc(
                Workload::PageRank,
                &g,
                &vcut,
                cfg,
                vec![crash(1, 5)],
                hdfs(),
            );
            assert_eq!(s.recoveries.len(), 1, "crash must trigger one episode");
            first_commit = first_commit.min(s.timeline[0].1.as_secs_f64());
            episode = episode.min(s.recovery_total().as_secs_f64());
        }
        record("vc_first_commit_hdfs", first_commit);
        record("recovery_rebirth_vc_hdfs_e2e", episode);
    }

    // What Migration's rounds 5/7 and 6 do with full state, as kernels: node
    // 0 fills one destination's mirror batch with the full state of every
    // master node 1 holds a plain replica of (`mirror_batch_build`), and
    // node 1, those replicas upgraded to mirrors inside an episode, takes
    // the batch in (`mirror_batch_adopt`).
    {
        let plan = compute_ft_plan(&g, &cut, 1, false, pr.selfish_compatible(), 0xF7);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &pr, &degrees);
        let (sender, receiver) = (&lgs[0], &lgs[1]);
        let (from, to): (Vec<u32>, Vec<u32>) = sender
            .master_positions()
            .filter_map(|pos| {
                let at = receiver.position(sender.verts[pos as usize].vid)?;
                (receiver.verts[at as usize].kind == CopyKind::Replica).then_some((pos, at))
            })
            .unzip();
        let build = || {
            let mut batch = FullState::default();
            for &pos in &from {
                batch.push(sender.full_state(pos).expect("masters carry full state"));
            }
            batch
        };
        record(
            "mirror_batch_build",
            time_best(n, || {
                std::hint::black_box(build());
            }),
        );
        let batch = build();
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let mut lg = receiver.clone();
            lg.begin_episode();
            for &at in &to {
                lg.set_kind(at, CopyKind::Mirror);
            }
            let t = Instant::now();
            lg.adopt_full_states(&[(&to, &batch, &[])]);
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(lg);
        }
        record("mirror_batch_adopt", best);
    }

    // Migration round 2 (apply promotions, rewrite position-addressed
    // consumer tables, compute replica requests) at N and 4N lost masters:
    // a 4-node cluster losing one node of this graph and of one 4x larger.
    // Its promotion lookups are indexed, so the time must grow with what
    // was lost (~4x), not with masters x promotions (~16x). Four nodes, not
    // `opts.nodes`: the fewer survivors share the lost masters, the longer
    // each one's promotion list and the plainer the difference.
    for (suffix, factor) in [("n", 1usize), ("4n", 4)] {
        let g = gen::power_law(verts * factor, 2.0, 10, opts.seed);
        let cut = HashEdgeCut.partition(&g, 4);
        let cfg = RunConfig {
            num_nodes: 4,
            max_iters: 8,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            ..RunConfig::default()
        };
        let mut best = f64::INFINITY;
        for _ in 0..reps() {
            let s = run_ec(
                Workload::PageRank,
                &g,
                &cut,
                cfg,
                vec![crash(1, 5)],
                ramfs(),
            );
            let round2 = s.recoveries[0].phases.get("migration_round2");
            best = best.min(round2.expect("migration records its rounds").as_secs_f64());
        }
        record(&format!("migration_round2_{suffix}"), best);
    }

    // Failure detection: observed heartbeat latency (crash → confirmed
    // death, as counted by the detector itself in silence ticks) and the
    // wire cost of the liveness traffic. On the virtual clock a dead
    // node's slot is already closed when it is first suspected, so it is
    // confirmed one tick after the 6 ms timeout: p50 = p99 = 31 ticks =
    // 6.2 ms, never the 40x fence. The byte gauge is the total heartbeat
    // traffic of one 20-iteration run — the standing cost of noticing a
    // crash.
    let hb_overhead_bytes;
    {
        let hb_cfg = RunConfig {
            num_nodes: opts.nodes,
            max_iters: 20,
            ft: FtMode::Replication {
                tolerance: 1,
                selfish_opt: false,
                recovery: RecoveryStrategy::Migration,
            },
            hb_interval: Duration::from_millis(1),
            hb_timeout: Duration::from_millis(6),
            ..RunConfig::default()
        };
        let mut samples: Vec<f64> = Vec::new();
        for rep in 0..reps().max(5) as u64 {
            let s = run_ec(
                Workload::PageRank,
                &g,
                &cut,
                hb_cfg,
                vec![crash(1, 3 + (rep % 4))],
                ramfs(),
            );
            assert!(
                s.suspicion.confirmed >= 1,
                "heartbeat run must confirm the crash, got {:?}",
                s.suspicion
            );
            let ms = s.suspicion.detect_ticks as f64
                / s.suspicion.confirmed as f64
                / TICKS_PER_MS as f64;
            samples.push(ms / 1e3); // seconds, like every other entry
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        let pct = |p: f64| {
            let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
            samples[rank.saturating_sub(1).min(samples.len() - 1)]
        };
        record("detection_latency_p50", pct(50.0));
        record("detection_latency_p99", pct(99.0));
        // Byte gauge from a crash-free run: pure liveness overhead, no
        // recovery traffic mixed in.
        let s = run_ec(Workload::PageRank, &g, &cut, hb_cfg, vec![], ramfs());
        hb_overhead_bytes = s.fabric.kind(CommKind::Heartbeat).bytes as f64;
    }

    // Checkpoint write cost: full snapshots every epoch vs the delta-epoch
    // cadence (full every 4th, dirty-only in between) on the same run. The
    // full-snapshot run also yields the bytes-per-checkpoint gauge (DFS
    // payload bytes / epochs written, before replication amplification).
    let mut bytes_per_ckpt = 0.0;
    for (name, incremental) in [("ckpt_write_full", false), ("ckpt_write_incr", true)] {
        let cfg = RunConfig {
            num_nodes: opts.nodes,
            max_iters: 20,
            ft: FtMode::Checkpoint {
                interval: 2,
                incremental,
            },
            ..RunConfig::default()
        };
        let mut best = f64::INFINITY;
        for _ in 0..reps() {
            let dfs = ramfs();
            let s = run_ec(Workload::PageRank, &g, &cut, cfg, vec![], dfs.clone());
            best = best.min(s.ckpt_time.as_secs_f64());
            if !incremental {
                let epochs = (s.iterations / 2).max(1);
                bytes_per_ckpt = dfs.stats().writes.bytes as f64 / epochs as f64;
            }
        }
        record(name, best);
    }

    // Flat JSON, hand-rolled (no serde in the sanctioned dependency list).
    // `commit` stamps the exact tree the numbers were measured at, so a
    // diff between two BENCH_engine.json files is attributable.
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"vertices\": {}, \"edges\": {}, \"nodes\": {}, \"seed\": {}, \"reps\": {}, \"cores\": {}, \"commit\": \"{}\"}},\n",
        g.num_vertices(),
        g.num_edges(),
        opts.nodes,
        opts.seed,
        n,
        cores,
        commit
    ));
    json.push_str("  \"seconds\": {\n");
    for (i, (name, secs)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {secs:.6}{comma}\n"));
    }
    json.push_str("  },\n");
    // Byte gauges — wire sizes, the Migration scenario's undo journal and
    // the load scenario's graph memory — not timings. All but the heartbeat total repeat exactly and are held by
    // the blocking CI bytes-regression step; heartbeats are paced by the
    // clock, so theirs follows wall time.
    json.push_str("  \"bytes\": {\n");
    json.push_str(&format!("    \"bytes_per_sync\": {bytes_per_sync:.4},\n"));
    json.push_str(&format!("    \"bytes_per_ckpt\": {bytes_per_ckpt:.1},\n"));
    json.push_str(&format!(
        "    \"recovery_rebirth\": {recovery_rebirth_bytes:.1},\n"
    ));
    json.push_str(&format!(
        "    \"recovery_migration\": {recovery_migration_bytes:.1},\n"
    ));
    json.push_str(&format!("    \"undo_journal\": {undo_journal_bytes:.1},\n"));
    for (gauge, bytes) in mem_ft {
        json.push_str(&format!("    \"{gauge}\": {bytes:.1},\n"));
    }
    json.push_str(&format!(
        "    \"hb_overhead_bytes\": {hb_overhead_bytes:.1}\n"
    ));
    json.push_str("  }\n}\n");
    println!("  {:<40} {bytes_per_sync:>10.4} B", "bytes_per_sync");
    println!("  {:<40} {bytes_per_ckpt:>10.1} B", "bytes_per_ckpt");
    println!(
        "  {:<40} {recovery_rebirth_bytes:>10.1} B",
        "recovery_rebirth"
    );
    println!(
        "  {:<40} {recovery_migration_bytes:>10.1} B",
        "recovery_migration"
    );
    println!("  {:<40} {undo_journal_bytes:>10.1} B", "undo_journal");
    for (gauge, bytes) in mem_ft {
        println!("  {gauge:<40} {bytes:>10.1} B");
    }
    println!("  {:<40} {hb_overhead_bytes:>10.1} B", "hb_overhead_bytes");
    std::fs::write("BENCH_engine.json", json).expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json ({} entries)", results.len());
}
