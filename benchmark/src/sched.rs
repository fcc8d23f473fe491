//! The load: a closed loop with one client. The parent runs one op at a
//! time, each op a child process, so a panic or a hang is a failed op and
//! not a dead benchmark, and every op has its own peak RSS and CPU time.
//!
//! Rounds run every workload's FT/base pair once, pairs adjacent and
//! alternating which side goes first, so machine drift lands on both sides
//! of every ratio and on all workloads equally.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::config::{Algo, Scale, Variant, Workload, PR_ITERS};
use crate::json::{self, Json};
use crate::op::ReplayHints;

/// An op that has not finished by now is killed and counted as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);
/// PageRank may differ from the sequential reference by summation order
/// only; SSSP must match exactly.
const PAGERANK_TOLERANCE: f64 = 1e-9;

/// The timed end-to-end metrics, as `(name, figure)`: each is a figure of an
/// ft op divided by the same figure of the base op run right beside it. The
/// shared host slows identical ops by half as much again for tens of seconds
/// at a time; a neighbour sees the same host, so the ratio holds where the
/// seconds do not (README, "Noise discipline").
pub const PAIR_RATIOS: [(&str, &str); 4] = [
    ("ft_job_ratio", "job.total_s"),
    ("ft_iter_ratio", "job.iter_ms_q1"),
    ("ft_cpu_ratio", "job.cpu_s"),
    ("ft_setup_ratio", "setup_s"),
];

/// Runs `exe args...`, returns the last line of its standard output parsed
/// as JSON, or why there is none.
fn run_child(exe: &Path, args: &[String], timeout: Duration) -> Result<Json, String> {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    // Drain both pipes on their own threads so a chatty child never blocks
    // on a full pipe while the parent polls for its exit.
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let out_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {} s", timeout.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    let out = out_reader.join().unwrap_or_default();
    let err = err_reader.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        let why = err.lines().rev().find(|l| !l.trim().is_empty());
        return Err(format!("{status}: {}", why.unwrap_or("no message")));
    }
    let line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    json::parse(line)
}

/// What one checked op yielded.
pub struct OpData {
    pub metrics: BTreeMap<String, f64>,
    pub gaps_ms: Vec<f64>,
    pub hints: ReplayHints,
    pub trace_events: Vec<Json>,
    pub trace_coverage: f64,
}

impl OpData {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }
}

/// Everything measured on one workload.
#[derive(Default)]
pub struct WorkloadData {
    pub ops: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Per-op samples of the untraced FT ops, by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Commit-to-commit gaps pooled over the untraced FT ops.
    pub gaps_ms: Vec<f64>,
    /// Per [`PAIR_RATIOS`] metric, the FT op's figure over its base
    /// neighbour's, one sample per adjacent pair.
    pub ratios: BTreeMap<&'static str, Vec<f64>>,
    /// Per-op samples of the traced ops and the replay, by metric name.
    pub layer_samples: BTreeMap<String, Vec<f64>>,
    /// `job.run_s` of the untraced neighbours of traced ops.
    pub untraced_run_s: Vec<f64>,
    pub trace_events: Vec<Json>,
    pub trace_coverage: Option<f64>,
    /// Wall seconds the workload's ops took, children included.
    pub ops_wall_s: f64,
    /// The hash every op of this workload and seed must reproduce, and the
    /// superstep count: both fixed by the first op that passes.
    expect: Option<(String, u64)>,
    /// What the last FT op told the replays to size themselves by.
    hints: Option<ReplayHints>,
}

fn record(into: &mut BTreeMap<String, Vec<f64>>, metrics: &BTreeMap<String, f64>) {
    for (k, v) in metrics {
        if v.is_finite() {
            into.entry(k.clone()).or_default().push(*v);
        }
    }
}

pub struct Runner {
    pub exe: PathBuf,
    pub scale: Scale,
    pub seed: u64,
    pub data: BTreeMap<&'static str, WorkloadData>,
    /// `bench.machine_ref_ms`, one sample per round.
    pub machine_ref_ms: Vec<f64>,
    /// The 64 MiB table the reference kernel reads, filled on first use.
    ref_table: Option<Vec<u64>>,
    pub started: Instant,
}

impl Runner {
    pub fn new(exe: PathBuf, scale: Scale, seed: u64) -> Self {
        Runner {
            exe,
            scale,
            seed,
            data: BTreeMap::new(),
            machine_ref_ms: Vec::new(),
            ref_table: None,
            started: Instant::now(),
        }
    }

    pub fn workload(&mut self, w: Workload) -> &mut WorkloadData {
        self.data.entry(w.name()).or_default()
    }

    fn common_args(&self, sub: &str, w: Workload) -> Vec<String> {
        let mut args = vec![
            sub.to_string(),
            "--workload".into(),
            w.name().into(),
            "--seed".into(),
            self.seed.to_string(),
        ];
        if self.scale == Scale::Smoke {
            args.push("--smoke".into());
        }
        args
    }

    /// Runs `benchmark <args>` as a child on behalf of `w`, counts it as one
    /// op and hands its result line to `check`. A child that died, hung or
    /// failed the check is counted and explained in the workload's data, and
    /// yields `None`.
    fn child<T>(
        &mut self,
        w: Workload,
        what: &str,
        args: &[String],
        check: impl FnOnce(&Json, &mut WorkloadData) -> Result<T, String>,
    ) -> Option<T> {
        let t = Instant::now();
        let result = run_child(&self.exe, args, OP_TIMEOUT);
        let wall = t.elapsed().as_secs_f64();
        let wd = self.workload(w);
        wd.ops += 1;
        wd.ops_wall_s += wall;
        match result.and_then(|j| check(&j, wd)) {
            Ok(out) => Some(out),
            Err(why) => {
                wd.failed += 1;
                let what = format!("{} {what}: {why}", w.name());
                eprintln!("FAILED op: {what}");
                wd.failures.push(what);
                None
            }
        }
    }

    /// Runs one op in a child and checks it.
    pub fn op(
        &mut self,
        w: Workload,
        variant: Variant,
        check_reference: bool,
        trace: bool,
    ) -> Option<OpData> {
        let mut args = self.common_args("op", w);
        args.extend(["--variant".into(), variant.name().into()]);
        if check_reference {
            args.push("--check-reference".into());
        }
        if trace {
            args.push("--trace".into());
        }
        self.child(w, variant.name(), &args, |j, wd| {
            let op = check_op(w, variant, j, &mut wd.expect)?;
            if variant == Variant::Ft {
                wd.hints = Some(op.hints);
            }
            Ok(op)
        })
    }

    /// The discarded warm-up: one FT op, also checked against the
    /// sequential reference. Its timings are thrown away, its verdict is
    /// not.
    pub fn warm_up(&mut self, w: Workload) {
        self.op(w, Variant::Ft, true, false);
    }

    /// One measured FT/base pair; `round` decides which side goes first.
    /// The FT op's own figures are kept, and for every [`PAIR_RATIOS`]
    /// metric the FT op's figure over its base neighbour's.
    pub fn pair(&mut self, w: Workload, round: usize) {
        let order = if round.is_multiple_of(2) {
            [Variant::Ft, Variant::Base]
        } else {
            [Variant::Base, Variant::Ft]
        };
        let (mut ft, mut base) = (None, None);
        for variant in order {
            let op = self.op(w, variant, false, false);
            match variant {
                Variant::Ft => ft = op,
                Variant::Base => base = op,
            }
        }
        let wd = self.workload(w);
        if let Some(ft) = &ft {
            record(&mut wd.samples, &ft.metrics);
            wd.gaps_ms.extend(&ft.gaps_ms);
        }
        if let (Some(ft), Some(base)) = (&ft, &base) {
            for (ratio, of) in PAIR_RATIOS {
                if let (Some(f), Some(b)) = (ft.get(of), base.get(of)) {
                    wd.ratios.entry(ratio).or_default().push(f / b);
                }
            }
        }
    }

    /// One traced FT op, its per-layer figures kept.
    pub fn traced(&mut self, w: Workload) {
        let Some(op) = self.op(w, Variant::Ft, false, true) else {
            return;
        };
        let wd = self.workload(w);
        record(&mut wd.layer_samples, &op.metrics);
        wd.trace_events = op.trace_events;
        wd.trace_coverage = Some(op.trace_coverage);
    }

    /// A traced op and an untraced one, adjacent, order alternating: the
    /// pair `bench.trace_overhead_ratio` is taken from.
    pub fn traced_pair(&mut self, w: Workload, round: usize) {
        let untraced = |r: &mut Runner| {
            let Some(op) = r.op(w, Variant::Ft, false, false) else {
                return;
            };
            let wd = r.workload(w);
            record(&mut wd.samples, &op.metrics);
            wd.gaps_ms.extend(&op.gaps_ms);
            wd.untraced_run_s.extend(op.get("job.run_s"));
        };
        if round.is_multiple_of(2) {
            self.traced(w);
            untraced(self);
        } else {
            untraced(self);
            self.traced(w);
        }
    }

    /// The layer replays, in a child like any op.
    pub fn replay(&mut self, w: Workload) {
        let Some(hints) = self.workload(w).hints else {
            return; // no FT op succeeded; already counted as failed
        };
        let mut args = self.common_args("replay", w);
        args.extend([
            "--records".into(),
            hints.records_per_node_step.to_string(),
            "--part-bytes".into(),
            hints.dfs_part_bytes.to_string(),
        ]);
        self.child(w, "replay", &args, |j, wd| {
            let metrics = metric_map(j).ok_or("replay printed no metrics")?;
            record(&mut wd.layer_samples, &metrics);
            wd.trace_events.extend(trace_events(j));
            Ok(())
        });
    }

    /// `bench.machine_ref_ms`: a fixed kernel shaped like a superstep — four
    /// threads, each a burst of random reads over a shared 64 MiB table and
    /// then a barrier, twenty times. It runs none of the program's code, so
    /// when it moves, the box moved.
    pub fn machine_ref(&mut self) {
        const WORDS: usize = 1 << 23;
        const LANES: u64 = 4;
        const ROUNDS: usize = 20;
        const READS: usize = 100_000;
        let table = self
            .ref_table
            .get_or_insert_with(|| (0..WORDS as u64).collect());
        let table: &[u64] = table;
        let barrier = std::sync::Barrier::new(LANES as usize);
        let t = Instant::now();
        std::thread::scope(|s| {
            for lane in 0..LANES {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ lane;
                    let mut acc = 0u64;
                    for _ in 0..ROUNDS {
                        for _ in 0..READS {
                            x = x
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            acc = acc.wrapping_add(table[(x >> 33) as usize & (WORDS - 1)]);
                        }
                        barrier.wait();
                    }
                    std::hint::black_box(acc)
                });
            }
        });
        self.machine_ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    pub fn total_ops(&self) -> (usize, usize) {
        self.data
            .values()
            .fold((0, 0), |(a, f), wd| (a + wd.ops, f + wd.failed))
    }
}

fn trace_events(j: &Json) -> Vec<Json> {
    j.get("trace_events")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

fn metric_map(j: &Json) -> Option<BTreeMap<String, f64>> {
    Some(
        j.get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    )
}

/// The correctness checks behind `failed`: the right number of supersteps
/// and recovery episodes, values bit-identical to every other op of the
/// same workload and seed (the failure-free base runs among them), and,
/// where asked, agreement with the sequential reference.
pub fn check_op(
    w: Workload,
    variant: Variant,
    j: &Json,
    expect: &mut Option<(String, u64)>,
) -> Result<OpData, String> {
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result has no `{key}`"))
    };
    let supersteps = num("supersteps")? as u64;
    let recoveries = num("recoveries")? as usize;
    let hash = j
        .get("values_hash")
        .and_then(Json::as_str)
        .ok_or("result has no `values_hash`")?
        .to_string();
    if w.algo() == Algo::PageRank && supersteps != PR_ITERS {
        return Err(format!("committed {supersteps} supersteps, not {PR_ITERS}"));
    }
    let want = w.expected_recoveries(variant);
    if recoveries != want {
        return Err(format!(
            "reported {recoveries} recovery episodes, not {want}"
        ));
    }
    if let Some(err) = j.get("reference_err").and_then(Json::as_f64) {
        let tolerance = match w.algo() {
            Algo::PageRank => PAGERANK_TOLERANCE,
            Algo::Sssp => 0.0,
        };
        if err.is_nan() || err > tolerance {
            return Err(format!("values differ from the reference by {err:e}"));
        }
    }
    match expect {
        None => *expect = Some((hash, supersteps)),
        Some((want_hash, want_steps)) => {
            if *want_steps != supersteps {
                return Err(format!(
                    "committed {supersteps} supersteps, other ops {want_steps}"
                ));
            }
            if *want_hash != hash {
                return Err(format!(
                    "values hash {hash} is not bit-identical to {want_hash}"
                ));
            }
        }
    }
    let floats = |key: &str| -> Vec<f64> {
        j.get(key)
            .and_then(Json::as_arr)
            .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    Ok(OpData {
        metrics: metric_map(j).ok_or("result has no `metrics`")?,
        gaps_ms: floats("gaps_ms"),
        hints: ReplayHints {
            records_per_node_step: num("records_per_node_step")?,
            dfs_part_bytes: num("dfs_part_bytes")?,
        },
        trace_events: trace_events(j),
        trace_coverage: num("trace_coverage")?,
    })
}
