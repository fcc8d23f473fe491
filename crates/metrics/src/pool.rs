//! Worker-pool and pipelining observability.
//!
//! Each node runs a persistent worker pool and pipelines its
//! supersteps: a compute/gather chunk's sync batch is staged and shipped
//! while later chunks are still computing. [`PoolStats`] records how much
//! that machinery actually did — chunk jobs dispatched, peak worker
//! occupancy, envelopes shipped ahead of the tail fence, and main-thread
//! staging time that overlapped with outstanding compute — so run reports
//! can show whether multicore paid off rather than assuming it.

use std::time::Duration;

/// Per-node (mergeable to per-run) pool/pipelining counters.
///
/// # Examples
///
/// ```
/// use imitator_metrics::PoolStats;
/// use std::time::Duration;
///
/// let mut a = PoolStats { jobs: 10, peak_busy: 3, early_batches: 4, overlap: Duration::from_millis(2) };
/// let b = PoolStats { jobs: 5, peak_busy: 4, early_batches: 1, overlap: Duration::from_millis(9) };
/// a.merge(&b);
/// assert_eq!((a.jobs, a.peak_busy, a.early_batches), (15, 4, 5));
/// assert_eq!(a.overlap, Duration::from_millis(9));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunk jobs dispatched to the pool (counted even in inline mode).
    pub jobs: u64,
    /// Peak number of simultaneously busy workers (0 in inline mode —
    /// jobs run on the driving thread itself).
    pub peak_busy: u64,
    /// Sync/gather envelopes shipped *before* the phase's tail fence,
    /// i.e. while later chunks were still computing. 0 with one worker
    /// thread: one chunk, nothing later.
    pub early_batches: u64,
    /// Main-thread staging/shipping time that overlapped with outstanding
    /// chunk compute (work the strict phase ordering used to serialize).
    pub overlap: Duration,
}

impl PoolStats {
    /// Merges another node's view: activity counters add, occupancy and
    /// overlap take the maximum (nodes run concurrently, so the run-level
    /// figure is the busiest node's).
    pub fn merge(&mut self, other: &Self) {
        self.jobs += other.jobs;
        self.early_batches += other.early_batches;
        self.peak_busy = self.peak_busy.max(other.peak_busy);
        self.overlap = self.overlap.max(other.overlap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_activity_and_maxes_occupancy() {
        let mut a = PoolStats {
            jobs: 7,
            peak_busy: 2,
            early_batches: 3,
            overlap: Duration::from_millis(5),
        };
        a.merge(&PoolStats {
            jobs: 1,
            peak_busy: 6,
            early_batches: 0,
            overlap: Duration::from_millis(1),
        });
        assert_eq!(a.jobs, 8);
        assert_eq!(a.peak_busy, 6);
        assert_eq!(a.early_batches, 3);
        assert_eq!(a.overlap, Duration::from_millis(5));
    }

    #[test]
    fn default_is_zero() {
        let p = PoolStats::default();
        assert_eq!((p.jobs, p.peak_busy, p.early_batches), (0, 0, 0));
        assert_eq!(p.overlap, Duration::ZERO);
    }
}
