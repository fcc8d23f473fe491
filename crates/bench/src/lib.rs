//! Experiment harness for the Imitator reproduction.
//!
//! One binary per table and figure of the paper's evaluation (see
//! `DESIGN.md` §3 for the index); this library holds what they share:
//! scaled dataset construction, workload dispatch over the four algorithms,
//! engine-agnostic run summaries, and table printing.
//!
//! Every binary honours three environment variables:
//!
//! * `IMITATOR_SCALE` — multiplies the default dataset sizes (default 1.0;
//!   the defaults are ~1/100th of the paper's sizes for the Cyclops suite
//!   and ~1/1000th for the PowerLyra suite);
//! * `IMITATOR_NODES` — simulated cluster size (default 8);
//! * `IMITATOR_SEED` — generator seed (default 42).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use imitator::{run_edge_cut, run_vertex_cut, RunConfig, RunReport};
use imitator_algos::{Als, CommunityDetection, PageRank, Sssp};
use imitator_cluster::{FailPoint, FailurePlan, NodeId};
use imitator_graph::{gen, gen::Dataset, Graph, Vid};
use imitator_metrics::{CommBreakdown, CommStats, SuspicionStats};
use imitator_partition::{EdgeCut, VertexCut};
use imitator_storage::{Dfs, DfsConfig};

pub use imitator::RecoveryReport;

/// Common experiment options, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Multiplier on the default dataset sizes.
    pub scale: f64,
    /// Simulated cluster size.
    pub nodes: usize,
    /// Generator seed.
    pub seed: u64,
}

impl BenchOpts {
    /// Reads `IMITATOR_SCALE` / `IMITATOR_NODES` / `IMITATOR_SEED`.
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok();
        BenchOpts {
            scale: get("IMITATOR_SCALE")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1.0),
            nodes: get("IMITATOR_NODES")
                .and_then(|v| v.parse().ok())
                .unwrap_or(8),
            seed: get("IMITATOR_SEED")
                .and_then(|v| v.parse().ok())
                .unwrap_or(42),
        }
    }

    /// Generates a Cyclops-suite dataset at bench scale (~1/100 paper size).
    pub fn cyclops_graph(&self, d: Dataset) -> Graph {
        d.generate(0.01 * self.scale, self.seed)
    }

    /// Generates a PowerLyra-suite dataset at bench scale (~1/1000 paper
    /// size — these graphs are an order of magnitude larger).
    pub fn powerlyra_graph(&self, d: Dataset) -> Graph {
        d.generate(0.001 * self.scale, self.seed)
    }
}

/// Prints the experiment banner.
pub fn banner(id: &str, what: &str, opts: &BenchOpts) {
    println!("== {id}: {what}");
    println!(
        "   (scale {} · {} nodes · seed {} — shapes, not absolute numbers, are the contract)",
        opts.scale, opts.nodes, opts.seed
    );
}

/// The paper's workload per dataset (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PageRank, fixed 20 iterations.
    PageRank,
    /// Alternating least squares on a bipartite rating graph.
    Als {
        /// User/item ID boundary.
        num_users: usize,
    },
    /// Label-propagation community detection.
    CommunityDetection,
    /// Single-source shortest paths from vertex 0.
    Sssp,
}

impl Workload {
    /// The workload the paper pairs with `d` (Table 1).
    pub fn for_dataset(d: Dataset, g: &Graph) -> Workload {
        match d {
            Dataset::SynGl => Workload::Als {
                num_users: g.num_vertices() * 10 / 11,
            },
            Dataset::Dblp => Workload::CommunityDetection,
            Dataset::RoadCa => Workload::Sssp,
            _ => Workload::PageRank,
        }
    }

    /// Iteration budget matching the paper's setup (PageRank runs 20
    /// iterations; the others until quiescence).
    pub fn max_iters(&self) -> u64 {
        match self {
            Workload::PageRank => 20,
            Workload::Als { .. } => 10,
            Workload::CommunityDetection => 30,
            Workload::Sssp => 5_000,
        }
    }

    /// Short name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::PageRank => "PageRank",
            Workload::Als { .. } => "ALS",
            Workload::CommunityDetection => "CD",
            Workload::Sssp => "SSSP",
        }
    }
}

/// Engine-agnostic, value-type-agnostic run outcome.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Committed iterations.
    pub iterations: u64,
    /// Total wall time.
    pub elapsed: Duration,
    /// Mean committed-iteration time.
    pub avg_iter: Duration,
    /// Total traffic.
    pub comm: CommStats,
    /// Fault-tolerance-only traffic.
    pub ft_comm: CommStats,
    /// Time spent checkpointing.
    pub ckpt_time: Duration,
    /// Recovery episodes.
    pub recoveries: Vec<RecoveryReport>,
    /// Per-node resident graph bytes after load.
    pub mem_bytes: Vec<usize>,
    /// Extra FT replicas created at load.
    pub extra_replicas: usize,
    /// `(iteration, offset)` commit stamps.
    pub timeline: Vec<(u64, Duration)>,
    /// Fabric traffic split by kind (sync / gather / recovery / control /
    /// heartbeat) — the denominator for heartbeat-overhead figures.
    pub fabric: CommBreakdown,
    /// Failure-detector activity (all-zero under the oracle detector).
    pub suspicion: SuspicionStats,
}

fn summarize<V>(r: RunReport<V>) -> Summary {
    Summary {
        iterations: r.iterations,
        elapsed: r.elapsed,
        avg_iter: r.avg_iteration(),
        comm: r.comm,
        ft_comm: r.ft_comm,
        ckpt_time: r.ckpt_time,
        recoveries: r.recoveries,
        mem_bytes: r.mem_bytes,
        extra_replicas: r.extra_replicas,
        timeline: r.timeline,
        fabric: r.fabric,
        suspicion: r.suspicion,
    }
}

impl Summary {
    /// Total recovery wall time across episodes.
    pub fn recovery_total(&self) -> Duration {
        self.recoveries.iter().map(RecoveryReport::total).sum()
    }

    /// Runtime overhead of this run relative to `base`, in percent.
    pub fn overhead_vs(&self, base: &Summary) -> f64 {
        100.0 * (self.elapsed.as_secs_f64() / base.elapsed.as_secs_f64() - 1.0)
    }
}

/// Runs `workload` on the edge-cut engine.
pub fn run_ec(
    workload: Workload,
    g: &Graph,
    cut: &EdgeCut,
    cfg: RunConfig,
    failures: Vec<FailurePlan>,
    dfs: Dfs,
) -> Summary {
    let mut cfg = cfg;
    cfg.max_iters = cfg.max_iters.min(workload.max_iters());
    match workload {
        Workload::PageRank => summarize(run_edge_cut(
            g,
            cut,
            Arc::new(PageRank::new(0.85, 0.0)),
            cfg,
            failures,
            dfs,
        )),
        Workload::Als { num_users } => summarize(run_edge_cut(
            g,
            cut,
            Arc::new(Als::for_bipartite(8, 0.1, 1e-4, num_users)),
            cfg,
            failures,
            dfs,
        )),
        Workload::CommunityDetection => summarize(run_edge_cut(
            g,
            cut,
            Arc::new(CommunityDetection),
            cfg,
            failures,
            dfs,
        )),
        Workload::Sssp => summarize(run_edge_cut(
            g,
            cut,
            Arc::new(Sssp::from_source(Vid::new(0))),
            cfg,
            failures,
            dfs,
        )),
    }
}

/// Runs `workload` on the vertex-cut engine.
pub fn run_vc(
    workload: Workload,
    g: &Graph,
    cut: &VertexCut,
    cfg: RunConfig,
    failures: Vec<FailurePlan>,
    dfs: Dfs,
) -> Summary {
    let mut cfg = cfg;
    cfg.max_iters = cfg.max_iters.min(workload.max_iters());
    match workload {
        Workload::PageRank => summarize(run_vertex_cut(
            g,
            cut,
            Arc::new(PageRank::new(0.85, 0.0)),
            cfg,
            failures,
            dfs,
        )),
        Workload::Als { num_users } => summarize(run_vertex_cut(
            g,
            cut,
            Arc::new(Als::for_bipartite(8, 0.1, 1e-4, num_users)),
            cfg,
            failures,
            dfs,
        )),
        Workload::CommunityDetection => summarize(run_vertex_cut(
            g,
            cut,
            Arc::new(CommunityDetection),
            cfg,
            failures,
            dfs,
        )),
        Workload::Sssp => summarize(run_vertex_cut(
            g,
            cut,
            Arc::new(Sssp::from_source(Vid::new(0))),
            cfg,
            failures,
            dfs,
        )),
    }
}

/// Number of repetitions for wall-clock measurements
/// (`IMITATOR_REPEAT`, default 3); reports keep the fastest run, the
/// standard defence against scheduler noise on a shared machine.
pub fn reps() -> usize {
    std::env::var("IMITATOR_REPEAT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Runs `f` `n` times and keeps the summary with the smallest wall time.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn best_of<F: FnMut() -> Summary>(n: usize, mut f: F) -> Summary {
    assert!(n > 0, "need at least one repetition");
    let mut best: Option<Summary> = None;
    for _ in 0..n {
        let s = f();
        if best.as_ref().is_none_or(|b| s.elapsed < b.elapsed) {
            best = Some(s);
        }
    }
    best.expect("n > 0")
}

/// A single crash of `node` at `iteration` (before the barrier).
pub fn crash(node: usize, iteration: u64) -> FailurePlan {
    FailurePlan {
        node: NodeId::from_index(node),
        iteration,
        point: FailPoint::BeforeBarrier,
    }
}

/// The HDFS-like DFS used by checkpoint and edge-ckpt experiments.
pub fn hdfs() -> Dfs {
    Dfs::new(DfsConfig::hdfs_like())
}

/// A cost-free DFS for experiments where storage is not under test.
pub fn ramfs() -> Dfs {
    Dfs::new(DfsConfig::instant())
}

/// The synthetic power-law family of Table 4: `(α, graph)` at bench scale.
pub fn alpha_family(opts: &BenchOpts) -> Vec<(f64, Graph)> {
    [2.2, 2.1, 2.0, 1.9, 1.8]
        .into_iter()
        .map(|alpha| {
            (
                alpha,
                gen::power_law_natural((10_000.0 * opts.scale) as usize, alpha, opts.seed),
            )
        })
        .collect()
}

/// Formats a duration as seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a duration in milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Formats bytes as GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imitator::FtMode;
    use imitator_partition::{EdgeCutPartitioner, HashEdgeCut};

    #[test]
    fn workload_mapping_matches_table1() {
        let opts = BenchOpts {
            scale: 0.1,
            nodes: 4,
            seed: 1,
        };
        let g = opts.cyclops_graph(Dataset::Dblp);
        assert_eq!(
            Workload::for_dataset(Dataset::Dblp, &g),
            Workload::CommunityDetection
        );
        assert_eq!(Workload::for_dataset(Dataset::RoadCa, &g), Workload::Sssp);
        assert_eq!(Workload::for_dataset(Dataset::GWeb, &g), Workload::PageRank);
        assert!(matches!(
            Workload::for_dataset(Dataset::SynGl, &g),
            Workload::Als { .. }
        ));
    }

    #[test]
    fn run_ec_produces_consistent_summary() {
        let opts = BenchOpts {
            scale: 0.05,
            nodes: 3,
            seed: 2,
        };
        let g = opts.cyclops_graph(Dataset::GWeb);
        let cut = HashEdgeCut.partition(&g, 3);
        let cfg = RunConfig {
            num_nodes: 3,
            max_iters: 5,
            ft: FtMode::None,
            ..RunConfig::default()
        };
        let s = run_ec(Workload::PageRank, &g, &cut, cfg, vec![], ramfs());
        assert_eq!(s.iterations, 5);
        assert!(s.comm.messages > 0);
        assert_eq!(s.mem_bytes.len(), 3);
    }

    #[test]
    fn alpha_family_density_increases() {
        let opts = BenchOpts {
            scale: 0.2,
            nodes: 4,
            seed: 3,
        };
        let fam = alpha_family(&opts);
        assert_eq!(fam.len(), 5);
        for w in fam.windows(2) {
            assert!(w[1].1.num_edges() > w[0].1.num_edges());
        }
    }
}
