//! Performance baseline: the timings no other instrument takes, and the
//! exact byte gauges CI holds, written to `BENCH_engine.json`.
//!
//! ```sh
//! cargo run --release -p imitator-bench --bin perf_baseline
//! ```
//!
//! A row is here only if neither `benchmark/` (whose per-layer replays time
//! partitioning, the FT plan, loading, compute, the wire codec, sync rounds,
//! barriers, detection and whole recoveries) nor a criterion bench times
//! it: freeing the edge-cut graphs and encoding the vertex-cut edge-ckpt
//! file ([`LOAD_ROWS`]), an edge-cut Rebirth, opening and dropping
//! Migration's undo journal, a vertex-cut node's first commit on the
//! HDFS-like DFS, the mirror-batch kernels, round 2 of a Migration at two
//! loss sizes, and checkpoint writes full and incremental. README's
//! Performance section lists each retired row beside what times it now.
//!
//! Honours `IMITATOR_SCALE` / `IMITATOR_NODES` / `IMITATOR_SEED` /
//! `IMITATOR_REPEAT` like every other harness binary. Every row is the
//! median and quartiles of `reps().max(5)` samples; a load row's samples
//! are each taken by a child process of this binary (`perf_baseline
//! --load-row <name>`). The `bytes` section holds exact gauges (wire sizes,
//! a Migration's undo journal, and the memory the load scenario's
//! replicated graphs hold under either cut) that CI holds against the
//! committed file. Each run also appends what it wrote, as one line, to
//! `BENCH_history.jsonl`: the file keeps one recording a line, oldest first.

use std::io::Write;
use std::time::{Duration, Instant};

use imitator::plan::{compute_ft_plan, ReplicaView};
use imitator::{edge_ckpt_file, EcMsg, FtMode, RecoveryStrategy, RunConfig, VertexSync};
use imitator_algos::PageRank;
use imitator_bench::{banner, crash, hdfs, ramfs, reps, run_ec, run_vc, BenchOpts, Workload};
use imitator_engine::{
    build_edge_cut_graphs, build_vertex_cut_graphs, CopyKind, Degrees, Episode, FtPlan, FullState,
    FullStateBatches, VertexProgram,
};
use imitator_graph::gen;
use imitator_metrics::{CommKind, MemSize};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::codec::Encode;

/// Median and quartiles of one row's samples.
#[derive(Debug, PartialEq)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

/// Median, and the first and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` gives them (exclusive method), as
/// `benchmark/src/stats.rs` computes them. A single sample is its own
/// quartiles.
fn spread(mut xs: Vec<f64>) -> Spread {
    assert!(!xs.is_empty(), "a row needs at least one sample");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let median = match n % 2 {
        1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    };
    let quartile = |i: usize| {
        if n == 1 {
            return xs[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Spread {
        median,
        q1: quartile(1),
        q3: quartile(3),
    }
}

/// `n` wall times of `f`, in seconds.
fn time_each(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// What the load path costs that `benchmark/` does not time: encoding the
/// four vertex-cut nodes' edge-ckpt files one node after another (what
/// replication adds to a vertex-cut job's first superstep), and freeing the
/// edge-cut graphs on the caller's thread as `run_edge_cut` does when a job
/// ends. On the graph `benchmark/`'s PageRank workloads load — five times
/// this suite's other graph, on four nodes.
const LOAD_ROWS: [&str; 3] = ["eckpt_group_vc", "teardown_ec_base", "teardown_ec_ft"];

/// Not timings: `mem_bytes` summed over the replicated graphs the load
/// scenario builds under either cut. Exact for a given scale and seed, so
/// they are `bytes` gauges.
const MEM_EC_FT: &str = "mem_ec_ft";
const MEM_VC_FT: &str = "mem_vc_ft";

/// One sample of load row `row`, in seconds (bytes for the two `mem_`
/// gauges). A timed row runs as the only measurement of its process: these
/// rows allocate and free a few million blocks, and whatever the allocator
/// was left holding by an earlier row moves them by a third.
fn load_row_sample(row: &str, opts: &BenchOpts) -> f64 {
    fn timed<T>(f: impl FnOnce() -> T) -> f64 {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_secs_f64()
    }
    let verts = ((100_000.0 * opts.scale) as usize).max(1_000);
    let g = gen::power_law(verts, 2.0, 10, opts.seed);
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    // The plan the runners compute for `FtMode::Replication` with one
    // mirror and the selfish optimisation on.
    let plan = |view: &dyn ReplicaView| match row {
        "teardown_ec_base" => FtPlan::none(g.num_vertices()),
        _ => compute_ft_plan(&degrees, view, 1, true, pr.selfish_compatible(), 0xF7),
    };
    match row {
        "eckpt_group_vc" | MEM_VC_FT => {
            let cut = RandomVertexCut.partition(&g, 4);
            let lgs = build_vertex_cut_graphs(&g, &cut, &plan(&cut), &pr, &degrees);
            match row {
                MEM_VC_FT => lgs.iter().map(MemSize::mem_bytes).sum::<usize>() as f64,
                _ => timed(|| lgs.iter().map(edge_ckpt_file).collect::<Vec<_>>()),
            }
        }
        "teardown_ec_base" | "teardown_ec_ft" | MEM_EC_FT => {
            let cut = HashEdgeCut.partition(&g, 4);
            let lgs = build_edge_cut_graphs(&g, &cut, &plan(&cut), &pr, &degrees);
            match row {
                MEM_EC_FT => lgs.iter().map(MemSize::mem_bytes).sum::<usize>() as f64,
                _ => timed(|| drop(lgs)),
            }
        }
        _ => panic!("unknown load row `{row}`"),
    }
}

/// `n` samples of `row`, each from a fresh child process.
fn load_row(row: &str, n: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own path");
    (0..n)
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
        .collect()
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
        "the timings no other instrument takes + exact byte gauges",
        &opts,
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let n = reps().max(5);
    let mut rows: Vec<(&str, Spread)> = Vec::new();
    let mut record = |name: &'static str, samples: Vec<f64>| {
        let s = spread(samples);
        println!(
            "  {name:<28} {:>10.3} ms  [{:.3}, {:.3}]",
            s.median * 1e3,
            s.q1 * 1e3,
            s.q3 * 1e3
        );
        rows.push((name, s));
    };
    let mut gauges: Vec<(&str, f64)> = Vec::new();

    let verts = ((20_000.0 * opts.scale) as usize).max(1_000);
    let g = gen::power_law(verts, 2.0, 10, opts.seed);
    let degrees = Degrees::of(&g);
    let pr = PageRank::new(0.85, 0.0);
    let cut = HashEdgeCut.partition(&g, opts.nodes);
    let vcut = RandomVertexCut.partition(&g, opts.nodes);

    for row in LOAD_ROWS {
        record(row, load_row(row, n));
    }
    for gauge in [MEM_EC_FT, MEM_VC_FT] {
        gauges.push((gauge, load_row_sample(gauge, &opts)));
    }

    // What one sync record costs on the wire: a 100k-record frame, charged
    // what the message encodes to. The scalar codec this replaced spent 13
    // bytes per f64 sync record (4 pos + 8 value + 1 activate).
    let batch: Vec<VertexSync<f64>> = (0..100_000u32)
        .map(|i| VertexSync {
            pos: i * 3,
            value: f64::from_bits(u64::from(i) ^ 0x9E37_79B9_7F4A_7C15),
            activate: i % 3 == 0,
        })
        .collect();
    let records = batch.len() as f64;
    let sync_len = EcMsg::<f64>::Sync(batch).encoded_len();
    gauges.push(("bytes_per_sync", sync_len as f64 / records));

    // One crash mid-run under replication FT, per strategy. An edge-cut
    // Rebirth is timed here only: its row is the recovery episode's wall
    // time (reload + reconstruct + replay), not the whole run. The
    // Migration scenario yields what its undo journal costs to set up
    // (`undo_capture`) and to let go (`undo_release`: the `after_recovery`
    // phase, i.e. the model's post-recovery hook plus dropping the
    // journal). Three byte gauges, exact for a given graph, partitioning
    // and crash: what each strategy's messages encode to, and the journal
    // the Migration survivors held between them when the attempt finished.
    for (strategy, standbys) in [
        (RecoveryStrategy::Rebirth, 1usize),
        (RecoveryStrategy::Migration, 0),
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
        let runs: Vec<_> = (0..n)
            .map(|_| {
                let s = run_ec(
                    Workload::PageRank,
                    &g,
                    &cut,
                    cfg,
                    vec![crash(1, 5)],
                    ramfs(),
                );
                assert_eq!(s.recoveries.len(), 1, "crash must trigger one episode");
                s
            })
            .collect();
        // The gauges repeat exactly: any run's episode gives them.
        let ep = &runs[0].recoveries[0];
        let phase = |key| {
            runs.iter()
                .map(|s| {
                    s.recoveries[0]
                        .phases
                        .get(key)
                        .map_or(0.0, |d| d.as_secs_f64())
                })
                .collect()
        };
        if strategy == RecoveryStrategy::Rebirth {
            let episode = runs.iter().map(|s| s.recovery_total().as_secs_f64());
            record("recovery_rebirth_e2e_t1", episode.collect());
            gauges.push(("recovery_rebirth", ep.comm.bytes as f64));
        } else {
            record("undo_capture", phase("undo_capture"));
            record("undo_release", phase("after_recovery"));
            gauges.push(("recovery_migration", ep.comm.bytes as f64));
            gauges.push(("undo_journal", ep.journal_bytes as f64));
        }
    }

    // What the HDFS-like DFS costs a replicated vertex-cut job before its
    // first commit: a node encodes its edge-ckpt file, hands it to its
    // write-behind and computes. `vc_first_commit_hdfs` is node start to
    // first commit of a run that then loses node 1 and recovers by Rebirth.
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
        let first_commit = (0..n)
            .map(|_| {
                let s = run_vc(
                    Workload::PageRank,
                    &g,
                    &vcut,
                    cfg,
                    vec![crash(1, 5)],
                    hdfs(),
                );
                assert_eq!(s.recoveries.len(), 1, "crash must trigger one episode");
                s.timeline[0].1.as_secs_f64()
            })
            .collect();
        record("vc_first_commit_hdfs", first_commit);
    }

    // What Migration's rounds 5/7 and 6 do with full state, as kernels: node
    // 0 fills one destination's mirror batch with the full state of every
    // master node 1 holds a plain replica of (`mirror_batch_build`), and
    // node 1, those replicas upgraded to mirrors inside an episode, takes
    // the batch in (`mirror_batch_adopt`).
    {
        let plan = compute_ft_plan(&degrees, &cut, 1, false, pr.selfish_compatible(), 0xF7);
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
            time_each(n, || {
                std::hint::black_box(build());
            }),
        );
        let batch = build();
        let adopt = (0..n)
            .map(|_| {
                let mut lg = receiver.clone();
                lg.begin_episode();
                for &at in &to {
                    lg.set_kind(at, CopyKind::Mirror);
                }
                let t = Instant::now();
                lg.adopt_full_states(&[(&to, &batch, &[])]);
                let secs = t.elapsed().as_secs_f64();
                std::hint::black_box(lg);
                secs
            })
            .collect();
        record("mirror_batch_adopt", adopt);
    }

    // Migration round 2 (apply promotions, rewrite position-addressed
    // consumer tables, compute replica requests) at N and 4N lost masters:
    // a 4-node cluster losing one node of this graph and of one 4x larger.
    // Its promotion lookups are indexed, so the time must grow with what
    // was lost (~4x), not with masters x promotions (~16x). Four nodes, not
    // `opts.nodes`: the fewer survivors share the lost masters, the longer
    // each one's promotion list and the plainer the difference.
    for (name, factor) in [("migration_round2_n", 1usize), ("migration_round2_4n", 4)] {
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
        let round2 = (0..n)
            .map(|_| {
                let s = run_ec(
                    Workload::PageRank,
                    &g,
                    &cut,
                    cfg,
                    vec![crash(1, 5)],
                    ramfs(),
                );
                let round2 = s.recoveries[0].phases.get("migration_round2");
                round2.expect("migration records its rounds").as_secs_f64()
            })
            .collect();
        record(name, round2);
    }

    // The standing cost of noticing a crash: the heartbeat traffic of one
    // crash-free 20-iteration run at a 1 ms interval. Heartbeats are paced
    // by the clock, so this gauge follows the run's wall time.
    {
        let cfg = RunConfig {
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
        let s = run_ec(Workload::PageRank, &g, &cut, cfg, vec![], ramfs());
        let hb = s.fabric.kind(CommKind::Heartbeat).bytes;
        gauges.push(("hb_overhead_bytes", hb as f64));
    }

    // Checkpoint write cost: full snapshots every epoch vs the delta-epoch
    // cadence (full every 4th, dirty-only in between) on the same run. The
    // full-snapshot run also yields the bytes-per-checkpoint gauge (DFS
    // payload bytes / epochs written, before replication amplification).
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
        let mut bytes_per_ckpt = 0.0;
        let write = (0..n)
            .map(|_| {
                let dfs = ramfs();
                let s = run_ec(Workload::PageRank, &g, &cut, cfg, vec![], dfs.clone());
                let epochs = (s.iterations / 2).max(1);
                bytes_per_ckpt = dfs.stats().writes.bytes as f64 / epochs as f64;
                s.ckpt_time.as_secs_f64()
            })
            .collect();
        record(name, write);
        if !incremental {
            gauges.push(("bytes_per_ckpt", bytes_per_ckpt));
        }
    }

    // Four decimals: an average (`bytes_per_sync`, `bytes_per_ckpt`) is no
    // more exact than that, and a count prints as an integer.
    let gauges: Vec<(&str, f64)> = gauges
        .into_iter()
        .map(|(name, bytes)| (name, (bytes * 1e4).round() / 1e4))
        .collect();
    for (name, bytes) in &gauges {
        println!("  {name:<28} {bytes:>14} B");
    }
    // Hand-rolled JSON (no serde in the sanctioned dependency list), one
    // entry a line. `commit` stamps the tree the numbers were measured at:
    // `git describe --always --dirty` names the commit, and a `-dirty`
    // suffix says the working tree differed from it.
    // Every gauge but `hb_overhead_bytes` repeats exactly and is held by the
    // blocking CI bytes step; `scripts/check_mem_budget.sh` reads the two
    // `mem_` gauges off their lines.
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let seconds: Vec<String> = rows
        .iter()
        .map(|(name, s)| {
            format!(
                "    \"{name}\": {{\"median\": {:.9}, \"q1\": {:.9}, \"q3\": {:.9}}}",
                s.median, s.q1, s.q3
            )
        })
        .collect();
    let bytes: Vec<String> = gauges
        .iter()
        .map(|(name, bytes)| format!("    \"{name}\": {bytes}"))
        .collect();
    let json = format!(
        "{{\n  \"meta\": {{\"vertices\": {}, \"edges\": {}, \"nodes\": {}, \"seed\": {}, \"reps\": {n}, \"cores\": {cores}, \"commit\": \"{commit}\"}},\n  \"seconds\": {{\n{}\n  }},\n  \"bytes\": {{\n{}\n  }}\n}}\n",
        g.num_vertices(),
        g.num_edges(),
        opts.nodes,
        opts.seed,
        seconds.join(",\n"),
        bytes.join(",\n"),
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    let line: String = json.lines().map(str::trim).collect();
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .and_then(|mut history| writeln!(history, "{line}"))
        .expect("append to BENCH_history.jsonl");
    println!(
        "wrote BENCH_engine.json ({} rows, {} gauges)",
        rows.len(),
        gauges.len()
    );
}

#[cfg(test)]
mod tests {
    use super::{spread, Spread};

    /// The expected values are what Python's `statistics.median` and
    /// `statistics.quantiles(xs, n=4)` print for the same samples (a single
    /// sample is its own quartiles, as Python 3.13 and later give it).
    #[test]
    fn spread_matches_python_quantiles() {
        assert_eq!(
            spread(vec![0.3, 0.1, 0.5, 0.2, 0.4]),
            Spread {
                median: 0.3,
                q1: 0.150_000_000_000_000_02,
                q3: 0.45
            }
        );
        assert_eq!(
            spread(vec![7.0, 1.5, 3.25, 2.0, 11.0, 4.75]),
            Spread {
                median: 4.0,
                q1: 1.875,
                q3: 8.0
            }
        );
        assert_eq!(
            spread(vec![0.0125]),
            Spread {
                median: 0.0125,
                q1: 0.0125,
                q3: 0.0125
            }
        );
    }
}
