//! Order statistics and the two timeline-derived figures.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread the
    /// acceptance check and `compare` hold against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method) gives them, so the numbers printed here are the ones
/// the acceptance protocol computes. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Median, quartiles and count; `None` when empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let (q1, q3) = quartiles(xs)?;
    Some(Summary {
        median: median(xs)?,
        q1,
        q3,
        n: xs.len(),
    })
}

/// Nearest-rank percentile (`p` in 0..=100); `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Commit-to-commit gaps in milliseconds of a `RunReport::timeline` given
/// as commit offsets in seconds. The stretch before the first commit is not
/// a gap: it has no earlier commit to be measured from.
pub fn commit_gaps_ms(commit_offsets_s: &[f64]) -> Vec<f64> {
    commit_offsets_s
        .windows(2)
        .map(|w| (w[1] - w[0]) * 1e3)
        .collect()
}

/// `iter_ms_q1`: the lower-quartile gap (nearest rank) — what an ordinary
/// superstep takes. Ordinary supersteps are the fast, dense part of an op's
/// gaps; checkpoint writes, the crash gap, replayed supersteps and the
/// slower supersteps after a Migration are the slow, sparse part. On
/// `pr_ec_ckpt` that part is half the op, so the *median* sat on the edge
/// between the two and moved 40 % when the box slowed by 10 %; the lower
/// quartile sits inside the dense part on every workload.
pub fn iter_ms_q1(gaps_ms: &[f64]) -> Option<f64> {
    percentile(gaps_ms, 25.0)
}

/// `outage_ms`: the 99th-percentile gap (nearest rank) — how long the job
/// stood still. With fewer than 100 supersteps that is the largest gap, the
/// one a crash stretches; on a run of hundreds of sub-millisecond supersteps
/// it is the tail stall without the single worst scheduler hiccup, which
/// says nothing about the program and does not repeat.
pub fn outage_ms(gaps_ms: &[f64]) -> Option<f64> {
    percentile(gaps_ms, 99.0)
}
