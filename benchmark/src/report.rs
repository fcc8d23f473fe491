//! From samples to the numbers printed: every metric by name with unit,
//! median, quartiles and sample count; `results.json`; the one-line result
//! of a contract run; the Chrome trace files.

use std::path::Path;

use crate::config::Workload;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::sched::{Runner, WorkloadData};
use crate::stats::{iter_ms_q1, median, summarize, Summary};

pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

pub struct WorkloadReport {
    pub workload: Workload,
    pub ops: usize,
    pub failed: usize,
    pub ops_wall_s: f64,
    pub trace_coverage: Option<f64>,
    /// Only the metrics that apply to the workload and were measured.
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
}

fn single(x: f64) -> Option<Summary> {
    summarize(&[x])
}

fn end_to_end_summary(name: &str, wd: &WorkloadData) -> Option<Summary> {
    match name {
        "ok_ops_share" => (wd.ops > 0).then(|| Summary {
            n: wd.ops,
            ..single((wd.ops - wd.failed) as f64 / wd.ops as f64).expect("one sample")
        }),
        _ => summarize(wd.ratios.get(name).or(wd.samples.get(name))?),
    }
}

fn per_layer_summary(name: &str, wd: &WorkloadData, runner: &Runner) -> Option<Summary> {
    match name {
        // The value is of the pooled gaps (n of them); the quartiles are of
        // the per-op values, so the spread says how ops differ from each
        // other, not how supersteps differ within one.
        "job.iter_ms_q1" => {
            let per_op = summarize(wd.samples.get(name)?)?;
            Some(Summary {
                median: iter_ms_q1(&wd.gaps_ms)?,
                n: wd.gaps_ms.len(),
                ..per_op
            })
        }
        "bench.machine_ref_ms" => summarize(&runner.machine_ref_ms),
        "bench.set_wall_s" => single(runner.started.elapsed().as_secs_f64()),
        "bench.trace_overhead_ratio" => {
            let traced = median(wd.layer_samples.get("job.run_s")?)?;
            single(traced / median(&wd.untraced_run_s)?)
        }
        // The job's own figures come from the untraced ops, like everything
        // end to end; the rest from the traced op and the replays.
        _ if name.starts_with("job.") => summarize(wd.samples.get(name)?),
        _ => summarize(wd.layer_samples.get(name)?),
    }
}

pub fn build(runner: &Runner, w: Workload) -> WorkloadReport {
    let empty = WorkloadData::default();
    let wd = runner.data.get(w.name()).unwrap_or(&empty);
    WorkloadReport {
        workload: w,
        ops: wd.ops,
        failed: wd.failed,
        ops_wall_s: wd.ops_wall_s,
        trace_coverage: wd.trace_coverage,
        end_to_end: END_TO_END
            .iter()
            .filter_map(|m| {
                Some(Row {
                    name: m.name,
                    unit: m.unit,
                    summary: end_to_end_summary(m.name, wd)?,
                })
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .filter_map(|m| {
                Some(Row {
                    name: m.name,
                    unit: m.unit,
                    summary: per_layer_summary(m.name, wd, runner)?,
                })
            })
            .collect(),
    }
}

fn print_rows(title: &str, rows: &[Row]) {
    if rows.is_empty() {
        return;
    }
    println!("  {title}");
    for r in rows {
        let s = &r.summary;
        println!(
            "    {:<32} {:>16.6} {:<9} q1 {:<14.6} q3 {:<14.6} n {}",
            r.name, s.median, r.unit, s.q1, s.q3, s.n
        );
    }
}

pub fn print(rep: &WorkloadReport) {
    println!(
        "== {}: {} ops, {} failed, {:.1} s of ops",
        rep.workload.name(),
        rep.ops,
        rep.failed,
        rep.ops_wall_s
    );
    print_rows("end to end", &rep.end_to_end);
    print_rows(
        "per layer (job.*: untraced ops; the rest: traced op and replays)",
        &rep.per_layer,
    );
    if let Some(c) = rep.trace_coverage {
        println!(
            "  top-level spans cover {:.1} % of the traced op",
            c * 100.0
        );
    }
}

fn rows_json(rows: &[Row]) -> Json {
    Json::obj(rows.iter().map(|r| {
        let s = &r.summary;
        (
            r.name,
            Json::obj([
                ("unit", Json::str(r.unit)),
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
            ]),
        )
    }))
}

/// `results.json`: what `compare` reads.
pub fn results_json(meta: Json, reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("meta", meta),
        (
            "workloads",
            Json::obj(reports.iter().map(|rep| {
                (
                    rep.workload.name(),
                    Json::obj([
                        ("ops", Json::Num(rep.ops as f64)),
                        ("failed_ops", Json::Num(rep.failed as f64)),
                        ("ops_wall_s", Json::Num(rep.ops_wall_s)),
                        ("end_to_end", rows_json(&rep.end_to_end)),
                        ("per_layer", rows_json(&rep.per_layer)),
                    ]),
                )
            })),
        ),
    ])
}

/// The last line of a contract run: with `trace` the per-layer metrics,
/// without it the end-to-end ones — each one named in `BENCHMARK.json`,
/// whether or not it applies to the workload. A per-layer metric that does
/// not apply reads 0 here (and is simply absent from the table above and
/// from `results.json`).
pub fn contract_line(rep: &WorkloadReport, trace: bool) -> Json {
    let value = |rows: &[Row], name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.summary.median)
    };
    let mut missing = false;
    let metrics: Vec<(&str, Json)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = value(&rep.per_layer, m.name).unwrap_or(0.0);
                (m.name, metric_json(v, m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = value(&rep.end_to_end, m.name).unwrap_or_else(|| {
                    missing = true;
                    f64::NAN
                });
                (m.name, metric_json(v, m.unit))
            })
            .collect()
    };
    // An end-to-end metric that could not be measured means ops failed;
    // that is already in `failed`, and `correct` must say so too.
    let correct = rep.failed == 0 && !missing;
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rep.ops.max(1) as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Writes `trace-<workload>.json` in Chrome trace format.
pub fn write_trace(dir: &Path, w: Workload, events: &[Json]) -> std::io::Result<()> {
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events.to_vec())),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(
        dir.join(format!("trace-{}.json", w.name())),
        doc.to_line() + "\n",
    )
}
