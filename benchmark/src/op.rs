//! One op: what a child process does. It generates the workload's graph
//! from the seed, partitions it, submits the job once, checks the result
//! and prints one JSON line. A user submitting a job and waiting for it.

use std::sync::Arc;

use imitator::{run_edge_cut, run_vertex_cut, RecoveryReport, RunReport};
use imitator_algos::{pagerank_reference, sssp_reference, PageRank, Sssp};
use imitator_cluster::TICKS_PER_MS;
use imitator_engine::VertexProgram;
use imitator_graph::{Graph, Vid};
use imitator_metrics::{CommKind, MemSize};
use imitator_partition::{EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner};
use imitator_storage::codec::{Decode, Encode};
use imitator_storage::Dfs;

use crate::config::{Algo, Engine, Scale, Variant, Workload, NODES};
use crate::json::Json;
use crate::stats;
use crate::trace::{chrome_events, top_level_coverage, Tracer};

/// PageRank's damping factor; tolerance 0 keeps every vertex active for all
/// 20 supersteps, as the paper runs it.
pub const DAMPING: f64 = 0.85;

pub struct OpSpec {
    pub workload: Workload,
    pub variant: Variant,
    pub scale: Scale,
    pub seed: u64,
    /// Also compare the values with the sequential reference (first op of
    /// a workload only: the reference costs as much as the job).
    pub check_reference: bool,
    pub trace: bool,
}

/// What an op found, as plain numbers keyed by final metric name.
pub struct OpOutcome {
    pub metrics: Vec<(String, f64)>,
    /// Commit-to-commit gaps; the parent pools them for `job.iter_ms_q1`.
    pub gaps_ms: Vec<f64>,
    /// FNV-1a over the codec bytes of every final value: equal hashes are
    /// how "bit-identical" is checked across processes.
    pub values_hash: u64,
    pub supersteps: u64,
    pub recoveries: usize,
    /// Largest deviation from the sequential reference, when checked.
    pub reference_err: Option<f64>,
    /// Inputs of the layer replays that only a run can tell.
    pub replay_hints: ReplayHints,
    pub trace_events: Vec<Json>,
    pub trace_coverage: f64,
}

/// Sizes the replays need: the mean sync frame and the mean DFS part.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayHints {
    /// `comm.messages / supersteps / nodes`: sync records one node ships
    /// per superstep.
    pub records_per_node_step: f64,
    /// Mean bytes per DFS write (0 when the workload wrote nothing).
    pub dfs_part_bytes: f64,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn hash_values<V: Encode>(values: &[V]) -> u64 {
    let mut buf = Vec::new();
    values.iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        buf.clear();
        v.encode(&mut buf);
        fnv1a(h, &buf)
    })
}

/// The child's own cost as the kernel counted it: user+system CPU seconds
/// and peak resident set in MiB, from `/proc/self`.
pub fn process_cost() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the last ')' since
    // the command name may hold spaces; Linux reports them in USER_HZ = 100.
    let cpu_s = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_ascii_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN);
    let peak_rss_mb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN);
    (cpu_s, peak_rss_mb)
}

/// Runs the op. Panics inside the program propagate: the parent turns a
/// dead child into a failed op.
pub fn run(spec: &OpSpec) -> OpOutcome {
    let w = spec.workload;
    let mut tr = Tracer::new(spec.trace);
    let (g, gen_s) = tr.span("gen", "graph", None, || w.graph(spec.scale, spec.seed));
    let dfs = w.dfs();

    // The three (algorithm, engine) pairs the workloads use, each calling
    // the program's entry point with concrete types.
    let pagerank = PageRank::new(DAMPING, 0.0);
    let mut out = match (w.algo(), w.engine()) {
        (Algo::PageRank, Engine::EdgeCut) => {
            edge_cut_op(spec, &mut tr, &g, gen_s, pagerank, &dfs, pagerank_err)
        }
        (Algo::Sssp, Engine::EdgeCut) => {
            let sssp = Sssp::from_source(Vid::new(0));
            edge_cut_op(spec, &mut tr, &g, gen_s, sssp, &dfs, sssp_err)
        }
        (Algo::PageRank, Engine::VertexCut) => {
            let (cut, cut_s) = tr.span("partition", "partition", None, || {
                RandomVertexCut.partition(&g, NODES)
            });
            let (cfg, failures) = (w.run_config(spec.variant), w.failures(spec.variant));
            let (r, call_s) = tr.span("run", "driver", None, || {
                run_vertex_cut(&g, &cut, Arc::new(pagerank), cfg, failures, dfs.clone())
            });
            finish(spec, &mut tr, &g, r, gen_s, cut_s, call_s, pagerank_err)
        }
        (Algo::Sssp, Engine::VertexCut) => unreachable!("no workload runs SSSP on vertex-cut"),
    };

    let stats = dfs.stats();
    if w.uses_dfs() && spec.variant == Variant::Ft {
        out.metrics
            .push(("storage.ckpt_bytes".into(), stats.writes.bytes as f64));
        out.metrics.push((
            "storage.dfs_ops".into(),
            (stats.writes.messages + stats.reads.messages) as f64,
        ));
        if stats.writes.messages > 0 {
            out.replay_hints.dfs_part_bytes =
                stats.writes.bytes as f64 / stats.writes.messages as f64;
        }
    }
    let (cpu_s, peak_rss_mb) = process_cost();
    out.metrics.push(("job.cpu_s".into(), cpu_s));
    out.metrics.push(("peak_rss_mb".into(), peak_rss_mb));
    if tr.enabled() {
        let wall_us = tr.now_us();
        out.trace_coverage = top_level_coverage(tr.spans(), wall_us);
        let op = format!("{}/{}/seed{}", w.name(), spec.variant.name(), spec.seed);
        out.trace_events = chrome_events(tr.spans(), 1, &op);
    }
    out
}

/// Partition with `HashEdgeCut` and run on the edge-cut engine.
fn edge_cut_op<P>(
    spec: &OpSpec,
    tr: &mut Tracer,
    g: &Graph,
    gen_s: f64,
    prog: P,
    dfs: &Dfs,
    reference_err: fn(&Graph, &[P::Value]) -> f64,
) -> OpOutcome
where
    P: VertexProgram,
    P::Value: Encode + Decode + MemSize,
{
    let w = spec.workload;
    let (cut, cut_s) = tr.span("partition", "partition", None, || {
        HashEdgeCut.partition(g, NODES)
    });
    let (cfg, failures) = (w.run_config(spec.variant), w.failures(spec.variant));
    let (r, call_s) = tr.span("run", "driver", None, || {
        run_edge_cut(g, &cut, Arc::new(prog), cfg, failures, dfs.clone())
    });
    finish(spec, tr, g, r, gen_s, cut_s, call_s, reference_err)
}

fn pagerank_err(g: &Graph, values: &[imitator_algos::RankValue]) -> f64 {
    let want = pagerank_reference(g, DAMPING, crate::config::PR_ITERS as usize);
    values
        .iter()
        .zip(&want)
        .map(|(v, w)| (v.rank - w).abs())
        .fold(0.0, f64::max)
}

/// SSSP must match exactly; any differing distance reads as an infinite
/// error.
fn sssp_err(g: &Graph, values: &[f32]) -> f64 {
    let want = sssp_reference(g, Vid::new(0));
    if values.len() == want.len()
        && values
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        0.0
    } else {
        f64::INFINITY
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Turns the program's report into the op's numbers (and, when tracing,
/// into child spans of the `run` span).
#[allow(clippy::too_many_arguments)]
fn finish<V: Encode>(
    spec: &OpSpec,
    tr: &mut Tracer,
    g: &Graph,
    r: RunReport<V>,
    gen_s: f64,
    cut_s: f64,
    call_s: f64,
    reference_err: impl FnOnce(&Graph, &[V]) -> f64,
) -> OpOutcome {
    let w = spec.workload;
    let ((values_hash, reference_err), _) = tr.span("check", "bench", None, || {
        (
            hash_values(&r.values),
            spec.check_reference.then(|| reference_err(g, &r.values)),
        )
    });

    let run_s = r.elapsed.as_secs_f64();
    let load_s = (call_s - run_s).max(0.0);
    let steps = r.iterations.max(1) as f64;
    let offsets: Vec<f64> = r.timeline.iter().map(|(_, t)| t.as_secs_f64()).collect();
    let gaps_ms = stats::commit_gaps_ms(&offsets);
    let iter_q1 = stats::iter_ms_q1(&gaps_ms).unwrap_or(f64::NAN);
    let outage = stats::outage_ms(&gaps_ms).unwrap_or(f64::NAN);
    let recovery_bytes: u64 = r.recoveries.iter().map(|e| e.comm.bytes).sum();

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    put("setup_s", gen_s + cut_s + load_s);
    put("job.total_s", gen_s + cut_s + call_s);
    put("job.run_s", run_s);
    put("job.iter_ms_q1", iter_q1);
    put("job.outage_ms", outage);
    put("comm_bytes", (r.comm.bytes + recovery_bytes) as f64);
    put("mem_bytes", r.total_mem_bytes() as f64);

    put("driver.load_s", load_s);
    let mut phase_sum = 0.0;
    for (name, d) in r.phases.iter() {
        // `overlap` is staging time that ran concurrently with compute and
        // is already inside it; `ckpt` is reported as driver.ckpt_s.
        match name {
            "overlap" => {}
            _ => phase_sum += d.as_secs_f64(),
        }
        match name {
            "compute" | "gather" | "apply" | "send" | "barrier" | "commit" | "overlap" => {
                put(&format!("driver.{name}_ms"), ms(d) / steps)
            }
            _ => {}
        }
    }
    if r.phases.get("overlap").is_none() {
        // One worker per node leaves no chunk outstanding to overlap with:
        // the program measured none, which is 0 and not "does not apply".
        put("driver.overlap_ms", 0.0);
    }
    if w == Workload::PrEcCkpt && spec.variant == Variant::Ft {
        put("driver.ckpt_s", r.ckpt_time.as_secs_f64());
    }
    put(
        "driver.iter_ms_p95",
        stats::percentile(&gaps_ms, 95.0).unwrap_or(f64::NAN),
    );
    put("driver.phase_sum_ratio", phase_sum / run_s);
    put("driver.supersteps", r.iterations as f64);
    put("driver.msgs_per_iter", r.comm.messages as f64 / steps);
    put("driver.bytes_per_iter", r.comm.bytes as f64 / steps);
    if r.comm.bytes > 0 {
        put(
            "driver.ft_bytes_share",
            r.ft_comm.bytes as f64 / r.comm.bytes as f64,
        );
    }
    put("driver.suppressed_syncs", r.suppressed_syncs as f64);

    put(
        "cluster.hb_bytes",
        r.fabric.kind(CommKind::Heartbeat).bytes as f64,
    );
    put(
        "cluster.barrier_wait_share",
        r.fabric.barrier_wait.as_secs_f64() / (NODES as f64 * run_s),
    );
    let detect_ms = (r.suspicion.confirmed > 0).then(|| {
        r.suspicion.detect_ticks as f64 / r.suspicion.confirmed as f64 / TICKS_PER_MS as f64
    });
    if let Some(d) = detect_ms {
        put("cluster.detect_ms", d);
    }

    if let Some(e) = r.recoveries.first() {
        recovery_metrics(e, &mut put);
        put(
            "recovery.unattributed_ms",
            outage - iter_q1 - detect_ms.unwrap_or(0.0) - ms(e.total()),
        );
    }

    if tr.enabled() {
        synthesise_spans(tr, &r, &offsets, load_s, iter_q1, detect_ms);
    }

    OpOutcome {
        metrics: m,
        gaps_ms,
        values_hash,
        supersteps: r.iterations,
        recoveries: r.recoveries.len(),
        reference_err,
        replay_hints: ReplayHints {
            records_per_node_step: r.comm.messages as f64 / steps / NODES as f64,
            dfs_part_bytes: 0.0,
        },
        trace_events: Vec::new(),
        trace_coverage: 0.0,
    }
}

fn recovery_metrics(e: &RecoveryReport, put: &mut impl FnMut(&str, f64)) {
    put("recovery.total_ms", ms(e.total()));
    put("recovery.reload_ms", ms(e.reload));
    put("recovery.reconstruct_ms", ms(e.reconstruct));
    put("recovery.replay_ms", ms(e.replay));
    for (name, d) in e.phases.iter() {
        if name == "fence" || name.starts_with("migration_round") {
            put(&format!("recovery.{name}_ms"), ms(d));
        }
    }
    put("recovery.comm_bytes", e.comm.bytes as f64);
    put("recovery.vertices", e.vertices_recovered as f64);
    put("recovery.edges", e.edges_recovered as f64);
    put("recovery.attempts", e.counters.attempts as f64);
    put("recovery.aborts", e.counters.aborts as f64);
}

/// Child spans of `run` laid out from the report: load, one span per
/// committed superstep, the run's phase totals end to end, and the recovery
/// episode with its phases inside the gap the crash stretched.
fn synthesise_spans<V>(
    tr: &mut Tracer,
    r: &RunReport<V>,
    offsets: &[f64],
    load_s: f64,
    iter_q1_ms: f64,
    detect_ms: Option<f64>,
) {
    let Some(run) = tr.spans().iter().find(|s| s.name == "run").cloned() else {
        return;
    };
    let parent = Some(run.id);
    tr.synth("load", "driver", parent, run.start_us, load_s * 1e6);
    // The program's clock starts once the graph is loaded.
    let t0 = run.start_us + load_s * 1e6;
    let mut prev = 0.0;
    let mut widest = (0.0, 0.0);
    for ((iter, _), &at) in r.timeline.iter().zip(offsets) {
        let dur = (at - prev) * 1e6;
        tr.synth(
            &format!("superstep {iter}"),
            "driver",
            parent,
            t0 + prev * 1e6,
            dur,
        );
        if prev > 0.0 && dur > widest.1 {
            widest = (t0 + prev * 1e6, dur);
        }
        prev = at;
    }
    let mut at = t0;
    for (name, d) in r.phases.iter() {
        let dur = d.as_secs_f64() * 1e6;
        tr.synth(&format!("phase total: {name}"), "driver", parent, at, dur);
        at += dur;
    }
    if let Some(e) = r.recoveries.first() {
        // Inside the widest gap: the interrupted superstep, detection, then
        // the episode. What is left of the gap is recovery.unattributed_ms.
        let start = widest.0 + (iter_q1_ms + detect_ms.unwrap_or(0.0)) * 1e3;
        let id = tr.synth(
            &format!("recovery: {}", e.strategy),
            "recovery",
            parent,
            start,
            e.total().as_secs_f64() * 1e6,
        );
        let mut at = start;
        for (name, d) in e.phases.iter() {
            let dur = d.as_secs_f64() * 1e6;
            tr.synth(name, "recovery", Some(id), at, dur);
            at += dur;
        }
    }
}

/// `(name, value)` pairs as the `metrics` object of a child's result line.
pub fn metrics_json(metrics: &[(String, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
}

impl OpOutcome {
    /// The line the child prints.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("metrics", metrics_json(&self.metrics)),
            ("gaps_ms", Json::nums(&self.gaps_ms)),
            (
                "values_hash",
                Json::str(format!("{:016x}", self.values_hash)),
            ),
            ("supersteps", Json::Num(self.supersteps as f64)),
            ("recoveries", Json::Num(self.recoveries as f64)),
            (
                "reference_err",
                // Infinity has no JSON form; any finite stand-in above the
                // tolerance fails the check the same way.
                self.reference_err
                    .map_or(Json::Null, |e| Json::Num(e.min(f64::MAX))),
            ),
            (
                "records_per_node_step",
                Json::Num(self.replay_hints.records_per_node_step),
            ),
            (
                "dfs_part_bytes",
                Json::Num(self.replay_hints.dfs_part_bytes),
            ),
            ("trace_coverage", Json::Num(self.trace_coverage)),
            ("trace_events", Json::Arr(self.trace_events.clone())),
        ])
    }
}
