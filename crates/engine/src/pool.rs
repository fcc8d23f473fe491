//! Persistent per-node worker pool.
//!
//! Spawning threads every phase of every superstep costs, at
//! PageRank-iteration granularity, what the compute itself does. A
//! [`WorkerPool`] is spawned **once per node per run** instead: workers park
//! on a blocking channel between phases and wake only when a superstep
//! runs its chunk jobs, so steady-state supersteps pay one enqueue per chunk
//! rather than one thread spawn per chunk.
//!
//! The pool runs the superstep's three compute kernels —
//! [`ec_compute_chunks`], [`vc_gather_chunks`] and [`vc_apply_chunks`] — and
//! nothing else. Determinism contract (same as `par.rs`): work is split into
//! disjoint contiguous chunks and [`WorkerPool::run`] returns their results
//! **in submission order**, regardless of which worker finishes first. Each
//! chunk job is a pure function of its inputs, so the kernels' chunk-order
//! concatenation is bit-identical to the serial phase for any thread count.
//!
//! Two invariants hold:
//!
//! 1. **Results are published only after the job's captures are dropped.**
//!    The wrapper invokes the boxed job (consuming it and its `Arc` clones
//!    of the shared graph) *before* sending the result, so once `run`
//!    returns, `Arc::get_mut` on the graph is guaranteed to succeed — no
//!    reference counting races.
//! 2. **With one thread the pool runs jobs inline**, in submission order on
//!    the calling thread: a single code path whose observable order is
//!    trivially the serial order.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender};

use crate::compute::{ec_compute_frontier, vc_apply_range, MasterUpdate};
use crate::ecut::EcLocalGraph;
use crate::par::{chunk_ranges, VcGatherIndex};
use crate::program::{Degrees, VertexProgram};
use crate::vcut::VcLocalGraph;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of parked worker threads, spawned once per node per
/// run and reused across every superstep phase.
///
/// With `threads <= 1` no workers are spawned and jobs run inline, keeping a
/// single code path for serial and parallel execution.
pub struct WorkerPool {
    jobs_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    dispatched: AtomicU64,
    peak_busy: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers (none when `threads <= 1`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let busy = Arc::new(AtomicU64::new(0));
        let peak_busy = Arc::new(AtomicU64::new(0));
        if threads == 1 {
            return WorkerPool {
                jobs_tx: None,
                workers: Vec::new(),
                threads,
                dispatched: AtomicU64::new(0),
                peak_busy,
            };
        }
        let (tx, rx) = channel::unbounded::<Job>();
        let workers = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                let busy = Arc::clone(&busy);
                let peak = Arc::clone(&peak_busy);
                std::thread::spawn(move || {
                    // Blocking recv parks the worker between phases; the
                    // pool's Drop disconnects the channel to wake and
                    // retire every worker.
                    while let Ok(job) = rx.recv() {
                        let now = busy.fetch_add(1, Ordering::Relaxed) + 1;
                        peak.fetch_max(now, Ordering::Relaxed);
                        job();
                        busy.fetch_sub(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        WorkerPool {
            jobs_tx: Some(tx),
            workers,
            threads,
            dispatched: AtomicU64::new(0),
            peak_busy,
        }
    }

    /// Worker-thread budget this pool was built for (`>= 1`); the kernels
    /// use it as their chunk count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total jobs run and the peak number of simultaneously busy workers
    /// observed (0 in inline mode — there are no workers).
    pub fn counters(&self) -> (u64, u64) {
        (
            self.dispatched.load(Ordering::Relaxed),
            self.peak_busy.load(Ordering::Relaxed),
        )
    }

    /// Runs `jobs` and returns every result **in submission order**. Workers
    /// finishing out of order are buffered; with no workers the jobs run
    /// inline, one after another.
    pub fn run<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        self.dispatched
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let Some(tx) = &self.jobs_tx else {
            return jobs.into_iter().map(|job| job()).collect();
        };
        let total = jobs.len();
        let (res_tx, res_rx) = channel::unbounded();
        for (i, job) in jobs.into_iter().enumerate() {
            let res_tx = res_tx.clone();
            tx.send(Box::new(move || {
                // Run to completion *before* publishing: the send
                // happens-after every capture of `job` (including Arc
                // clones of the shared graph) has been dropped, so once
                // every result is in, `Arc::get_mut` succeeds.
                let out = job();
                let _ = res_tx.send((i, out));
            }))
            .expect("worker pool alive while running jobs");
        }
        let mut out: Vec<Option<T>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (i, v) = res_rx
                .recv()
                .expect("pool worker died before finishing chunk");
            debug_assert!(out[i].is_none(), "duplicate chunk result");
            out[i] = Some(v);
        }
        out.into_iter()
            .map(|v| v.expect("every chunk ran"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the job channel: parked workers observe RecvError
        // and exit; then reap them.
        self.jobs_tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (jobs, peak) = self.counters();
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("dispatched", &jobs)
            .field("peak_busy", &peak)
            .finish()
    }
}

/// Chunk outputs joined in chunk order; a single chunk is returned as is.
fn concat<T>(chunks: Vec<Vec<T>>) -> Vec<T> {
    let mut chunks = chunks.into_iter();
    let mut out = chunks.next().unwrap_or_default();
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Edge-cut compute phase on the pool: the sorted activation frontier is
/// split into contiguous chunks (one per pool thread) and the chunks' master
/// updates are concatenated in chunk order — bit-identical to
/// [`crate::ec_compute`] for any thread count.
pub fn ec_compute_chunks<P: VertexProgram>(
    pool: &WorkerPool,
    lg: &Arc<EcLocalGraph<P::Value>>,
    prog: &Arc<P>,
    degrees: &Arc<Degrees>,
    step: u64,
) -> Vec<MasterUpdate<P::Value>> {
    let ranges = chunk_ranges(lg.active_frontier.len(), pool.threads());
    let jobs = ranges
        .into_iter()
        .map(|r| {
            let lg = Arc::clone(lg);
            let prog = Arc::clone(prog);
            let degrees = Arc::clone(degrees);
            Box::new(move || {
                let mut ups = Vec::new();
                let frontier = &lg.active_frontier[r];
                ec_compute_frontier(&lg, &*prog, &degrees, step, frontier, &mut ups);
                ups
            }) as Box<dyn FnOnce() -> Vec<MasterUpdate<P::Value>> + Send>
        })
        .collect();
    concat(pool.run(jobs))
}

/// Vertex-cut local gather on the pool: workers own disjoint contiguous
/// destination ranges (balanced by edge count via the gather index) and
/// return their accumulator slots; each destination folds its edges in
/// original edge-list order, so the slots joined in range order are
/// [`crate::vc_partial_gather`]'s table exactly.
pub fn vc_gather_chunks<P: VertexProgram>(
    pool: &WorkerPool,
    lg: &Arc<VcLocalGraph<P::Value>>,
    prog: &Arc<P>,
    index: &Arc<VcGatherIndex>,
) -> Vec<Option<P::Accum>> {
    assert!(index.is_valid_for(lg), "stale gather index for this graph");
    let ranges = index.ranges(pool.threads());
    let jobs = ranges
        .into_iter()
        .map(|r| {
            let lg = Arc::clone(lg);
            let prog = Arc::clone(prog);
            let index = Arc::clone(index);
            Box::new(move || {
                let mut slots: Vec<Option<P::Accum>> = vec![None; r.len()];
                for (slot, d) in slots.iter_mut().zip(r) {
                    for &ei in index.edges_for(d) {
                        let e = &lg.edges[ei as usize];
                        let contribution = prog.gather(e.weight, &lg.verts[e.src as usize].value);
                        *slot = Some(match slot.take() {
                            None => contribution,
                            Some(a) => prog.combine(a, contribution),
                        });
                    }
                }
                slots
            }) as Box<dyn FnOnce() -> Vec<Option<P::Accum>> + Send>
        })
        .collect();
    concat(pool.run(jobs))
}

/// Vertex-cut apply on the pool: the accumulator table is carved into
/// owned contiguous position chunks, each worker runs the serial path's
/// range kernel over its chunk, and chunk-order concatenation reproduces
/// [`crate::vc_apply`]'s ascending-position output.
pub fn vc_apply_chunks<P: VertexProgram>(
    pool: &WorkerPool,
    lg: &Arc<VcLocalGraph<P::Value>>,
    prog: &Arc<P>,
    degrees: &Arc<Degrees>,
    step: u64,
    mut acc: Vec<Option<P::Accum>>,
) -> Vec<MasterUpdate<P::Value>> {
    assert_eq!(acc.len(), lg.verts.len(), "accumulator table size mismatch");
    let ranges = chunk_ranges(acc.len(), pool.threads());
    let mut drain = acc.drain(..);
    let jobs = ranges
        .into_iter()
        .map(|r| {
            let chunk: Vec<Option<P::Accum>> = drain.by_ref().take(r.len()).collect();
            let lg = Arc::clone(lg);
            let prog = Arc::clone(prog);
            let degrees = Arc::clone(degrees);
            Box::new(move || {
                let mut ups = Vec::new();
                vc_apply_range(&lg, &*prog, &degrees, step, r.start, chunk, &mut ups);
                ups
            }) as Box<dyn FnOnce() -> Vec<MasterUpdate<P::Value>> + Send>
        })
        .collect();
    concat(pool.run(jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecut::build_edge_cut_graphs;
    use crate::ftplan::FtPlan;
    use crate::par::weighted_ranges;
    use crate::vcut::build_vertex_cut_graphs;
    use crate::{ec_commit, ec_compute, ec_compute_scan, vc_apply, vc_partial_gather};
    use imitator_graph::{gen, Vid};
    use imitator_partition::{
        EdgeCutPartitioner, HashEdgeCut, RandomVertexCut, VertexCutPartitioner,
    };
    use std::time::Duration;

    struct MinLabel;
    impl crate::VertexProgram for MinLabel {
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

    fn job<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Box<dyn FnOnce() -> T + Send + 'static> {
        Box::new(f)
    }

    #[test]
    fn results_arrive_in_submission_order() {
        // Later jobs finish first (earlier ones sleep longer); `run` must
        // still return 0, 1, 2, ...
        let pool = WorkerPool::new(4);
        for _round in 0..3 {
            let jobs: Vec<_> = (0..8u64)
                .map(|i| {
                    job(move || {
                        std::thread::sleep(Duration::from_millis(8u64.saturating_sub(i)));
                        i
                    })
                })
                .collect();
            let got: Vec<u64> = pool.run(jobs);
            assert_eq!(got, (0..8).collect::<Vec<_>>());
        }
        let (jobs, peak) = pool.counters();
        assert_eq!(jobs, 24);
        assert!((1..=4).contains(&peak), "peak busy {peak}");
    }

    #[test]
    fn inline_pool_runs_in_order_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let jobs = (0..5u32).map(|i| job(move || (i * 10, std::thread::current().id())));
        let got = pool.run(jobs.collect());
        assert!(got.iter().all(|&(_, thread)| thread == caller));
        let values: Vec<u32> = got.into_iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40]);
        let (jobs, peak) = pool.counters();
        assert_eq!((jobs, peak), (5, 0));
    }

    #[test]
    fn zero_jobs_is_fine_and_pool_survives_reuse() {
        for threads in [1usize, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.run(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new()), []);
            // Park/unpark across many phases: repeated small runs.
            for round in 0..50u32 {
                let got = pool.run(vec![job(move || round)]);
                assert_eq!(got, vec![round]);
            }
        }
    }

    // Satellite: chunk_ranges/weighted_ranges edge cases *under the pool*.

    #[test]
    fn empty_frontier_dispatches_no_jobs() {
        let pool = WorkerPool::new(4);
        assert!(chunk_ranges(0, pool.threads()).is_empty());
        assert!(weighted_ranges(&[0u32], pool.threads()).is_empty());
        let got = pool.run(Vec::<Box<dyn FnOnce() -> Vec<u32> + Send + 'static>>::new());
        assert!(got.is_empty());
        assert_eq!(pool.counters().0, 0);
    }

    #[test]
    fn fewer_items_than_workers_yields_singleton_chunks() {
        let pool = WorkerPool::new(8);
        let ranges = chunk_ranges(3, pool.threads());
        assert_eq!(ranges.len(), 3);
        assert!(ranges.iter().all(|r| r.len() == 1));
        let got: Vec<usize> = pool.run(ranges.into_iter().map(|r| job(move || r.start)).collect());
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn single_mega_chunk_on_one_thread() {
        let pool = WorkerPool::new(1);
        let ranges = chunk_ranges(1000, pool.threads());
        assert_eq!(ranges, vec![0..1000]);
        let got: Vec<usize> = pool.run(ranges.into_iter().map(|r| job(move || r.len())).collect());
        assert_eq!(got, vec![1000]);
    }

    #[test]
    fn pooled_ec_compute_matches_serial() {
        let g = gen::power_law(600, 2.0, 6, 43);
        let cut = HashEdgeCut.partition(&g, 3);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Arc::new(Degrees::of(&g));
        let prog = Arc::new(MinLabel);
        let lgs = build_edge_cut_graphs(&g, &cut, &plan, &*prog, &degrees);
        let mut lgs: Vec<_> = lgs.into_iter().map(Arc::new).collect();
        for step in 0..4 {
            for lg in &mut lgs {
                let serial = ec_compute(lg, &*prog, &degrees, step);
                let scan = ec_compute_scan(lg, &*prog, &degrees, step);
                assert_eq!(serial, scan, "frontier path diverged from full scan");
                for t in [1usize, 2, 3, 8] {
                    let pool = WorkerPool::new(t);
                    let merged = ec_compute_chunks(&pool, lg, &prog, &degrees, step);
                    assert_eq!(merged, serial, "threads={t} diverged");
                    // Every worker dropped its Arc clone before publishing.
                    assert!(Arc::get_mut(lg).is_some(), "graph still shared");
                }
                let lg = Arc::get_mut(lg).expect("graph still shared");
                ec_commit(lg, &*prog, serial, Vec::new());
                lg.debug_validate();
            }
        }
    }

    #[test]
    fn pooled_vc_gather_and_apply_match_serial() {
        let g = gen::power_law(500, 2.0, 5, 47);
        let cut = RandomVertexCut.partition(&g, 4);
        let plan = FtPlan::none(g.num_vertices());
        let degrees = Arc::new(Degrees::of(&g));
        let prog = Arc::new(MinLabel);
        let lgs = build_vertex_cut_graphs(&g, &cut, &plan, &*prog, &degrees);
        for lg in lgs {
            let serial = vc_partial_gather(&lg, &*prog);
            let serial_ups = vc_apply(&lg, &*prog, serial.clone(), &degrees, 0);
            let index = Arc::new(VcGatherIndex::build(&lg));
            let mut lg = Arc::new(lg);
            for t in [1usize, 2, 5, 8] {
                let pool = WorkerPool::new(t);
                let table = vc_gather_chunks(&pool, &lg, &prog, &index);
                assert_eq!(table, serial, "gather threads={t} diverged");
                let ups = vc_apply_chunks(&pool, &lg, &prog, &degrees, 0, table);
                assert_eq!(ups, serial_ups, "apply threads={t} diverged");
                assert!(Arc::get_mut(&mut lg).is_some(), "graph still shared");
            }
        }
    }
}
