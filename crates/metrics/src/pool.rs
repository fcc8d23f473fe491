//! Worker-pool observability.
//!
//! Each node runs a persistent worker pool for its superstep's compute
//! kernels. [`PoolStats`] records what that pool did — chunk jobs run and
//! peak worker occupancy — so run reports can show whether multicore was
//! used rather than assuming it.

/// Per-node (mergeable to per-run) pool counters.
///
/// # Examples
///
/// ```
/// use imitator_metrics::PoolStats;
///
/// let mut a = PoolStats { jobs: 10, peak_busy: 3 };
/// let b = PoolStats { jobs: 5, peak_busy: 4 };
/// a.merge(&b);
/// assert_eq!((a.jobs, a.peak_busy), (15, 4));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunk jobs run by the pool (counted even in inline mode).
    pub jobs: u64,
    /// Peak number of simultaneously busy workers (0 in inline mode —
    /// jobs run on the driving thread itself).
    pub peak_busy: u64,
}

impl PoolStats {
    /// Merges another node's view: jobs add, occupancy takes the maximum
    /// (nodes run concurrently, so the run-level figure is the busiest
    /// node's).
    pub fn merge(&mut self, other: &Self) {
        self.jobs += other.jobs;
        self.peak_busy = self.peak_busy.max(other.peak_busy);
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
        };
        a.merge(&PoolStats {
            jobs: 1,
            peak_busy: 6,
        });
        assert_eq!(a.jobs, 8);
        assert_eq!(a.peak_busy, 6);
    }

    #[test]
    fn default_is_zero() {
        let p = PoolStats::default();
        assert_eq!((p.jobs, p.peak_busy), (0, 0));
    }
}
