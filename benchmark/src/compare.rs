//! `benchmark compare <a.json> <b.json>`: per workload and end-to-end
//! metric, both medians, the relative gap, the bound, and a verdict; then
//! the same for the job's ungated figures in seconds (`job.*`), which is how
//! a claim about absolute speed is checked: two builds as alternating sets.
//! The tool the acceptance check and every later A/B uses.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// gap of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let gap = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => gap,
        Better::Higher => -gap,
    }
}

pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if worsening(a.median, b.median, better) > bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn summary(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

/// What `compare` holds the ungated `job.*` seconds to: the most a
/// `BENCHMARK.json` bound may be.
pub const JOB_BOUND: f64 = 0.25;

pub struct Line {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares two `results.json` documents. A workload or metric present in
/// only one of them is an error: the two sets did not run the same thing.
/// When both sets ran the same seed and scale, the exact metrics (byte
/// counts, `ok_ops_share`) get a bound of 0: identical inputs must give
/// identical counts. The `job.*` figures have no bound of their own and are
/// held to [`JOB_BOUND`].
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Line>, String> {
    let input = |j: &Json| {
        let meta = j.get("meta")?;
        Some((meta.get("seed")?.as_f64()?, meta.get("smoke")?.as_bool()?))
    };
    let same_input = input(a).is_some() && input(a) == input(b);
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no `workloads` object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    if wa.len() != wb.len() {
        return Err("the two sets ran different workloads".into());
    }
    let mut lines = Vec::new();
    for (name, in_a) in &wa {
        let in_b = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or(format!("workload {name} is only in the first set"))?;
        let gated = END_TO_END.iter().map(|m| {
            let bound = if m.exact && same_input { 0.0 } else { m.bound };
            ("end_to_end", m.name, m.better, bound)
        });
        let job = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("job."))
            .map(|m| ("per_layer", m.name, m.better, JOB_BOUND));
        for (section, metric, better, bound) in gated.chain(job) {
            let get = |w: &Json| w.get(section)?.get(metric).and_then(summary);
            let (sa, sb) = match (get(in_a), get(in_b)) {
                (Some(sa), Some(sb)) => (sa, sb),
                (None, None) => continue,
                _ => return Err(format!("{name}: {metric} is only in one set")),
            };
            lines.push(Line {
                workload: name.clone(),
                metric,
                a: sa,
                b: sb,
                worsening: worsening(sa.median, sb.median, better),
                bound,
                verdict: verdict(&sa, &sb, better, bound),
            });
        }
    }
    Ok(lines)
}

pub fn print(lines: &[Line]) {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound", "spread a", "spread b"
    );
    for l in lines {
        println!(
            "{:<16} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
            l.workload,
            l.metric,
            l.a.median,
            l.b.median,
            l.worsening * 100.0,
            l.bound * 100.0,
            l.a.spread() * 100.0,
            l.b.spread() * 100.0,
            l.verdict.name()
        );
    }
    let count = |v| lines.iter().filter(|l| l.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}
