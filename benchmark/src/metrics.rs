//! The metric tables: every name the benchmark may print, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is
//! generated from these tables (`benchmark manifest`) and a self-test holds
//! the two together.

use crate::config::Workload;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. README "Bounds" has the
    /// measured between-set gaps and spreads each one was set from.
    pub bound: f64,
    /// A count that repeats bit for bit for a seed. Its bound above only
    /// absorbs how much the count differs between seeds; two sets of the
    /// same seed must agree exactly, and `compare` holds them to that.
    pub exact: bool,
}

/// One metric of a single layer (no bound: it explains, it does not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ft_job_ratio", "ratio", Lower, 0.25),
    e2e("ft_iter_ratio", "ratio", Lower, 0.25),
    e2e("ft_cpu_ratio", "ratio", Lower, 0.25),
    e2e("ft_setup_ratio", "ratio", Lower, 0.25),
    exact("comm_bytes", "B", Lower, 0.20),
    exact("mem_bytes", "B", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    exact("ok_ops_share", "ratio", Higher, 0.001),
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 68] = [
    // the job as a whole, in the units the user waits in: what the pair
    // ratios above are made of, reported but not gated (README, "Bounds")
    pl("job.total_s", "s", Lower),
    pl("job.run_s", "s", Lower),
    pl("job.iter_ms_q1", "ms", Lower),
    pl("job.outage_ms", "ms", Lower),
    pl("job.cpu_s", "s", Lower),
    // graph
    pl("graph.gen_s", "s", Lower),
    pl("graph.edges", "count", Lower),
    // partition
    pl("partition.cut_s", "s", Lower),
    pl("partition.replication_factor", "ratio", Lower),
    // core::plan
    pl("plan.ft_plan_s", "s", Lower),
    pl("plan.extra_replica_fraction", "ratio", Lower),
    // engine
    pl("engine.build_s", "s", Lower),
    pl("engine.ec_compute_ms", "ms", Lower),
    pl("engine.ec_commit_ms", "ms", Lower),
    pl("engine.vc_gather_ms", "ms", Lower),
    pl("engine.vc_apply_ms", "ms", Lower),
    pl("engine.compute_medges_per_s", "Medges/s", Higher),
    // core::wire
    pl("wire.sync_encode_ms", "ms", Lower),
    pl("wire.sync_decode_ms", "ms", Lower),
    pl("wire.bytes_per_sync", "B", Lower),
    // cluster
    pl("cluster.barrier_us", "us", Lower),
    pl("cluster.sync_round_ms", "ms", Lower),
    pl("cluster.connect_s", "s", Lower),
    pl("cluster.detect_ms", "ms", Lower),
    pl("cluster.hb_bytes", "B", Lower),
    pl("cluster.barrier_wait_share", "ratio", Lower),
    // storage
    pl("storage.dfs_write_ms", "ms", Lower),
    pl("storage.dfs_read_ms", "ms", Lower),
    pl("storage.ckpt_bytes", "B", Lower),
    pl("storage.dfs_ops", "count", Lower),
    // core::driver and the runners
    pl("driver.load_s", "s", Lower),
    pl("driver.compute_ms", "ms", Lower),
    pl("driver.gather_ms", "ms", Lower),
    pl("driver.apply_ms", "ms", Lower),
    pl("driver.send_ms", "ms", Lower),
    pl("driver.barrier_ms", "ms", Lower),
    pl("driver.commit_ms", "ms", Lower),
    pl("driver.overlap_ms", "ms", Higher),
    pl("driver.ckpt_s", "s", Lower),
    pl("driver.iter_ms_p95", "ms", Lower),
    pl("driver.phase_sum_ratio", "ratio", Higher),
    pl("driver.supersteps", "count", Lower),
    pl("driver.msgs_per_iter", "count", Lower),
    pl("driver.bytes_per_iter", "B", Lower),
    pl("driver.ft_bytes_share", "ratio", Lower),
    pl("driver.suppressed_syncs", "count", Higher),
    // core::recovery
    pl("recovery.total_ms", "ms", Lower),
    pl("recovery.reload_ms", "ms", Lower),
    pl("recovery.reconstruct_ms", "ms", Lower),
    pl("recovery.replay_ms", "ms", Lower),
    pl("recovery.fence_ms", "ms", Lower),
    pl("recovery.migration_round1_ms", "ms", Lower),
    pl("recovery.migration_round2_ms", "ms", Lower),
    pl("recovery.migration_round3_ms", "ms", Lower),
    pl("recovery.migration_round4_ms", "ms", Lower),
    pl("recovery.migration_round5_ms", "ms", Lower),
    pl("recovery.migration_round6_ms", "ms", Lower),
    pl("recovery.migration_round7_ms", "ms", Lower),
    pl("recovery.migration_round8_ms", "ms", Lower),
    pl("recovery.comm_bytes", "B", Lower),
    pl("recovery.vertices", "count", Lower),
    pl("recovery.edges", "count", Lower),
    pl("recovery.attempts", "count", Lower),
    pl("recovery.aborts", "count", Lower),
    pl("recovery.unattributed_ms", "ms", Lower),
    // the instrument itself
    pl("bench.machine_ref_ms", "ms", Lower),
    pl("bench.trace_overhead_ratio", "ratio", Lower),
    pl("bench.set_wall_s", "s", Lower),
];

/// What one run of the contract command measures, in seconds.
pub const RUN_SECONDS: u32 = 25;

/// The root `BENCHMARK.json`, generated so the file and the tables cannot
/// drift apart.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .filter(|w| w.gated())
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
