//! `imitator-cli` — run graph algorithms on the simulated cluster with any
//! fault-tolerance configuration, from the command line.
//!
//! ```text
//! imitator-cli run   --algo pagerank --dataset ljournal --nodes 8 --ft rep \
//!                    --recovery rebirth --fail 2@6 --iters 20
//! imitator-cli run   --algo sssp --input graph.txt --source 0 --ft rep --recovery migration
//! imitator-cli stats --dataset gweb --nodes 8 --cut fennel
//! ```
//!
//! `--input` accepts a plain edge-list file (`src dst [weight]` per line);
//! `--dataset` one of the paper's stand-ins. Exit code 2 reports usage errors.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use imitator_repro::algos::{Als, CommunityDetection, PageRank, Sssp};
use imitator_repro::cluster::{FailPoint, FailurePlan, NodeId};
use imitator_repro::ft::{
    run_edge_cut, FtMode, NetFaults, RecoveryStrategy, RunConfig, RunReport, TransportKind,
};
use imitator_repro::graph::gen::Dataset;
use imitator_repro::graph::{Graph, Vid};
use imitator_repro::partition::{EdgeCutPartitioner, FennelEdgeCut, HashEdgeCut};
use imitator_repro::storage::{Dfs, DfsConfig};

const USAGE: &str = "\
imitator-cli — replication-based fault tolerance for graph processing

USAGE:
  imitator-cli run   [OPTIONS]      run an algorithm on the simulated cluster
  imitator-cli stats [OPTIONS]      partitioning & replica statistics only

OPTIONS (run):
  --algo <pagerank|sssp|cd|als>     algorithm            [default: pagerank]
  --dataset <name>                  gweb|ljournal|wiki|syn-gl|dblp|roadca|uk|twitter
  --input <file>                    edge-list file instead of --dataset
  --scale <f64>                     dataset scale        [default: 0.01]
  --nodes <n>                       simulated machines   [default: 8]
  --cut <hash|fennel>               edge-cut partitioner [default: hash]
  --ft <none|rep|ckpt>              fault tolerance      [default: rep]
  --recovery <rebirth|migration>    REP recovery         [default: rebirth]
  --tolerance <k>                   failures tolerated   [default: 1]
  --interval <n>                    CKPT interval        [default: 4]
  --incremental                     incremental CKPT snapshots (§2.3)
  --fail <node@iter>                inject a crash (repeatable; --ft rep
                                    recovers --tolerance crashes per iteration)
  --tcp                             ship frames over loopback TCP sockets
                                    (results identical to channels)
  --lossy <seed>                    seeded drop/dup/reorder/delay fault
                                    schedule on every link (results identical)
  --hb-interval <ms>                heartbeat period     [default: 10]
  --hb-timeout <ms>                 silence before suspicion [default: 60]
                                    (must exceed --hb-interval)
  --iters <n>                       iteration budget     [default: 20]
  --source <vid>                    SSSP source          [default: 0]
  --seed <u64>                      generator seed       [default: 42]
  --top <n>                         print n top-valued vertices [default: 5]
";

#[derive(Debug)]
struct Opts {
    command: String,
    algo: String,
    dataset: Option<String>,
    input: Option<String>,
    scale: f64,
    nodes: usize,
    cut: String,
    ft: String,
    recovery: String,
    tolerance: usize,
    interval: u64,
    incremental: bool,
    transport: TransportKind,
    hb_interval_ms: u64,
    hb_timeout_ms: u64,
    fails: Vec<(u32, u64)>,
    iters: u64,
    source: u32,
    seed: u64,
    top: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: args.first().cloned().ok_or("missing command")?,
        algo: "pagerank".into(),
        dataset: None,
        input: None,
        scale: 0.01,
        nodes: 8,
        cut: "hash".into(),
        ft: "rep".into(),
        recovery: "rebirth".into(),
        tolerance: 1,
        interval: 4,
        incremental: false,
        transport: TransportKind::Channel,
        hb_interval_ms: 10,
        hb_timeout_ms: 60,
        fails: Vec::new(),
        iters: 20,
        source: 0,
        seed: 42,
        top: 5,
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algo" => opts.algo = value()?,
            "--dataset" => opts.dataset = Some(value()?),
            "--input" => opts.input = Some(value()?),
            "--scale" => opts.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--nodes" => opts.nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--cut" => opts.cut = value()?,
            "--ft" => opts.ft = value()?,
            "--recovery" => opts.recovery = value()?,
            "--tolerance" => {
                opts.tolerance = value()?.parse().map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--interval" => {
                opts.interval = value()?.parse().map_err(|e| format!("--interval: {e}"))?;
            }
            "--incremental" => opts.incremental = true,
            "--tcp" => opts.transport = TransportKind::Tcp,
            "--lossy" => {
                let seed = value()?.parse().map_err(|e| format!("--lossy: {e}"))?;
                opts.transport = TransportKind::Lossy(NetFaults::from_seed(seed));
            }
            "--hb-interval" => {
                opts.hb_interval_ms = value()?
                    .parse()
                    .map_err(|e| format!("--hb-interval: {e}"))?;
            }
            "--hb-timeout" => {
                opts.hb_timeout_ms = value()?.parse().map_err(|e| format!("--hb-timeout: {e}"))?;
            }
            "--fail" => {
                let v = value()?;
                let (node, iter) = v
                    .split_once('@')
                    .ok_or_else(|| format!("--fail wants node@iter, got {v}"))?;
                opts.fails.push((
                    node.parse().map_err(|e| format!("--fail node: {e}"))?,
                    iter.parse().map_err(|e| format!("--fail iter: {e}"))?,
                ));
            }
            "--iters" => opts.iters = value()?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--source" => opts.source = value()?.parse().map_err(|e| format!("--source: {e}"))?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--top" => opts.top = value()?.parse().map_err(|e| format!("--top: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn dataset_by_name(name: &str) -> Result<Dataset, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "gweb" => Dataset::GWeb,
        "ljournal" | "lj" => Dataset::LJournal,
        "wiki" => Dataset::Wiki,
        "syn-gl" | "syngl" => Dataset::SynGl,
        "dblp" => Dataset::Dblp,
        "roadca" | "road" => Dataset::RoadCa,
        "uk" | "uk-2005" => Dataset::Uk2005,
        "twitter" => Dataset::Twitter,
        other => return Err(format!("unknown dataset {other}")),
    })
}

fn load_graph(opts: &Opts) -> Result<Graph, String> {
    match (&opts.input, &opts.dataset) {
        (Some(path), _) => {
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            Graph::from_edge_list(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
        }
        (None, Some(name)) => Ok(dataset_by_name(name)?.generate(opts.scale, opts.seed)),
        (None, None) => Ok(Dataset::LJournal.generate(opts.scale, opts.seed)),
    }
}

fn ft_mode(opts: &Opts) -> Result<(FtMode, usize), String> {
    let recovery = match opts.recovery.as_str() {
        "rebirth" => RecoveryStrategy::Rebirth,
        "migration" => RecoveryStrategy::Migration,
        other => return Err(format!("unknown recovery {other}")),
    };
    Ok(match opts.ft.as_str() {
        "none" => (FtMode::None, 0),
        "rep" => (
            FtMode::Replication {
                tolerance: opts.tolerance,
                selfish_opt: true,
                recovery,
            },
            match recovery {
                RecoveryStrategy::Rebirth => opts.fails.len().max(opts.tolerance),
                RecoveryStrategy::Migration => 0,
            },
        ),
        "ckpt" => (
            FtMode::Checkpoint {
                interval: opts.interval,
                incremental: opts.incremental,
            },
            opts.fails.len().max(1),
        ),
        other => return Err(format!("unknown ft mode {other}")),
    })
}

/// Rejects a cluster nothing can be partitioned over or replicated on: no
/// node, a replication level of none, or one that leaves no survivor; a
/// checkpoint interval of 0, which never checkpoints; and a heartbeat
/// timeout that does not exceed its interval, which would confirm every live
/// node dead.
fn check_cluster(opts: &Opts, ft: FtMode) -> Result<(), String> {
    let (nodes, interval, timeout) = (opts.nodes, opts.hb_interval_ms, opts.hb_timeout_ms);
    match ft {
        _ if nodes == 0 => Err("--nodes: a cluster needs at least one node".into()),
        _ if timeout <= interval => Err(format!(
            "--hb-timeout: {timeout} ms does not exceed --hb-interval {interval} ms"
        )),
        FtMode::Replication { tolerance: 0, .. } => {
            Err("--tolerance: --ft rep tolerates at least 1 failure".into())
        }
        FtMode::Replication { tolerance, .. } if tolerance >= nodes => Err(format!(
            "--tolerance: {tolerance} failures leave no survivor among --nodes {nodes}"
        )),
        FtMode::Checkpoint { interval: 0, .. } => {
            Err("--interval: --ft ckpt checkpoints every 1 or more iterations".into())
        }
        _ => Ok(()),
    }
}

/// Rejects a `--fail` schedule the run could not honour: a node the cluster
/// does not have, a crash nothing would recover, or more simultaneous
/// crashes than the replication level tolerates.
fn check_fails(opts: &Opts, ft: FtMode) -> Result<(), String> {
    for &(node, iter) in &opts.fails {
        let together = opts.fails.iter().filter(|f| f.1 == iter).count();
        return Err(match ft {
            _ if node as usize >= opts.nodes => {
                format!("--fail: no node {node} among --nodes {}", opts.nodes)
            }
            FtMode::None => "--fail: --ft none recovers from no crash".into(),
            FtMode::Replication { tolerance, .. } if together > tolerance => format!(
                "--fail: {together} crashes in iteration {iter} exceed --tolerance {tolerance}"
            ),
            _ => continue,
        });
    }
    Ok(())
}

fn report_common<V>(r: &RunReport<V>) {
    println!(
        "finished {} iterations in {:.3}s ({} sync records, {:.1} MiB cluster state)",
        r.iterations,
        r.elapsed.as_secs_f64(),
        r.comm.messages,
        r.total_mem_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!("fabric: {}", r.fabric);
    for rec in &r.recoveries {
        println!(
            "recovery: {} of {} node(s) in {:.1} ms (reload {:.1} / reconstruct {:.1} / replay {:.1})",
            rec.strategy,
            rec.failed_nodes,
            rec.total().as_secs_f64() * 1e3,
            rec.reload.as_secs_f64() * 1e3,
            rec.reconstruct.as_secs_f64() * 1e3,
            rec.replay.as_secs_f64() * 1e3,
        );
    }
    if !r.suspicion.is_empty() {
        println!("detector: {}", r.suspicion);
    }
}

fn print_top(label: &str, scored: Vec<(usize, f64)>, top: usize) {
    let mut scored = scored;
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top {top} by {label}:");
    for (vid, score) in scored.into_iter().take(top) {
        println!("  v{vid:<10} {score:.6}");
    }
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let (ft, standbys) = ft_mode(opts)?;
    check_cluster(opts, ft)?;
    check_fails(opts, ft)?;
    let g = load_graph(opts)?;
    println!("graph: {}", g.stats());
    let cut = match opts.cut.as_str() {
        "hash" => HashEdgeCut.partition(&g, opts.nodes),
        "fennel" => FennelEdgeCut::default().partition(&g, opts.nodes),
        other => return Err(format!("unknown cut {other}")),
    };
    println!(
        "partitioned over {} nodes, replication factor {:.2}",
        opts.nodes,
        cut.replication_factor()
    );
    let cfg = RunConfig {
        num_nodes: opts.nodes,
        max_iters: opts.iters,
        ft,
        standbys,
        hb_interval: Duration::from_millis(opts.hb_interval_ms),
        hb_timeout: Duration::from_millis(opts.hb_timeout_ms),
        transport: opts.transport,
        ..RunConfig::default()
    };
    let failures: Vec<FailurePlan> = opts
        .fails
        .iter()
        .map(|&(node, iteration)| FailurePlan {
            node: NodeId::new(node),
            iteration,
            point: FailPoint::BeforeBarrier,
        })
        .collect();
    let dfs = Dfs::new(DfsConfig::hdfs_like());

    match opts.algo.as_str() {
        "pagerank" => {
            let r = run_edge_cut(
                &g,
                &cut,
                Arc::new(PageRank::new(0.85, 0.0)),
                cfg,
                failures,
                dfs,
            );
            report_common(&r);
            print_top(
                "rank",
                r.values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i, v.rank))
                    .collect(),
                opts.top,
            );
        }
        "sssp" => {
            let r = run_edge_cut(
                &g,
                &cut,
                Arc::new(Sssp::from_source(Vid::new(opts.source))),
                cfg,
                failures,
                dfs,
            );
            report_common(&r);
            let reached = r.values.iter().filter(|d| d.is_finite()).count();
            println!(
                "{reached}/{} vertices reachable from v{}",
                r.values.len(),
                opts.source
            );
        }
        "cd" => {
            let r = run_edge_cut(&g, &cut, Arc::new(CommunityDetection), cfg, failures, dfs);
            report_common(&r);
            let mut labels = r.values.clone();
            labels.sort_unstable();
            labels.dedup();
            println!(
                "{} communities over {} vertices",
                labels.len(),
                r.values.len()
            );
        }
        "als" => {
            // Assume the bipartite layout of the SYN-GL generator.
            let users = g.num_vertices() * 10 / 11;
            let r = run_edge_cut(
                &g,
                &cut,
                Arc::new(Als::for_bipartite(8, 0.05, 1e-3, users)),
                cfg,
                failures,
                dfs,
            );
            report_common(&r);
            println!(
                "rmse: {:.4}",
                imitator_repro::algos::als_rmse(&g, &r.values)
            );
        }
        other => return Err(format!("unknown algorithm {other}")),
    }
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    check_cluster(opts, FtMode::None)?;
    let g = load_graph(opts)?;
    println!("graph: {}", g.stats());
    for (name, cut) in [
        ("hash", HashEdgeCut.partition(&g, opts.nodes)),
        ("fennel", FennelEdgeCut::default().partition(&g, opts.nodes)),
    ] {
        println!(
            "{name:>8}: replication factor {:.2}, {:.2}% vertices without replicas, sizes {:?}",
            cut.replication_factor(),
            100.0 * cut.fraction_without_replicas(),
            cut.part_sizes()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.command.as_str() {
        "run" => cmd_run(&opts),
        "stats" => cmd_stats(&opts),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        let v: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&v)
    }

    #[test]
    fn defaults_are_sensible() {
        let o = parse(&["run"]).unwrap();
        assert_eq!(o.algo, "pagerank");
        assert_eq!(o.nodes, 8);
        assert_eq!(o.ft, "rep");
        assert!(o.fails.is_empty());
        assert!(!o.incremental);
    }

    #[test]
    fn parses_full_command_line() {
        let o = parse(&[
            "run",
            "--algo",
            "sssp",
            "--dataset",
            "roadca",
            "--nodes",
            "4",
            "--ft",
            "ckpt",
            "--interval",
            "2",
            "--incremental",
            "--fail",
            "1@3",
            "--fail",
            "2@5",
            "--iters",
            "50",
            "--source",
            "7",
        ])
        .unwrap();
        assert_eq!(o.algo, "sssp");
        assert_eq!(o.interval, 2);
        assert!(o.incremental);
        assert_eq!(o.fails, vec![(1, 3), (2, 5)]);
        assert_eq!(o.source, 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["run", "--nodes"]).is_err()); // missing value
        assert!(parse(&["run", "--nodes", "abc"]).is_err());
        assert!(parse(&["run", "--fail", "3"]).is_err()); // no @
        assert!(parse(&["run", "--wat"]).is_err());
        assert!(parse(&["run", "--hb-interval", "soon"]).is_err());
    }

    #[test]
    fn rejects_failure_schedules_it_cannot_honour() {
        // The command line's verdict on four nodes (a later `--nodes` wins):
        // "" when the run can honour it.
        let verdict = |flags: &str| {
            let args = format!("run --nodes 4 {flags}");
            let checked = parse(&args.split(' ').collect::<Vec<_>>()).and_then(|o| {
                let ft = ft_mode(&o)?.0;
                check_cluster(&o, ft)?;
                check_fails(&o, ft)
            });
            checked.err().unwrap_or_default()
        };
        assert_eq!(verdict("--fail 3@2"), "");
        assert_eq!(verdict("--fail 9@2"), "--fail: no node 9 among --nodes 4");
        assert!(verdict("--fail 4@2").starts_with("--fail: no node 4"));
        assert!(verdict("--ft none --fail 1@2").starts_with("--fail: --ft none"));
        assert_eq!(verdict("--ft none --top 3"), "");
        // Replication survives `--tolerance` crashes at once, any number one
        // after another; a checkpoint rollback, however many crashed.
        let both_at_2 = "--fail: 2 crashes in iteration 2 exceed --tolerance 1";
        assert_eq!(verdict("--fail 1@2 --fail 2@2"), both_at_2);
        let migration = verdict("--recovery migration --fail 1@2 --fail 2@2");
        assert_eq!(migration, both_at_2);
        assert_eq!(verdict("--fail 1@2 --fail 2@2 --tolerance 2"), "");
        assert_eq!(verdict("--fail 1@2 --fail 2@3 --fail 3@4"), "");
        assert_eq!(verdict("--ft ckpt --fail 1@2 --fail 2@2"), "");
        // A cluster of no node, a replication level of none, and one that
        // leaves no survivor are usage errors, not panics deeper in.
        let no_node = "--nodes: a cluster needs at least one node";
        assert_eq!(verdict("--nodes 0"), no_node);
        let none = "--tolerance: --ft rep tolerates at least 1 failure";
        assert_eq!(verdict("--tolerance 0"), none);
        assert_eq!(verdict("--ft ckpt --tolerance 0"), "");
        // A checkpoint every 0 iterations is none: a crash would replay the
        // run from its start.
        let never = "--interval: --ft ckpt checkpoints every 1 or more iterations";
        assert_eq!(verdict("--ft ckpt --interval 0"), never);
        assert_eq!(verdict("--ft ckpt --interval 1"), "");
        assert_eq!(verdict("--interval 0"), "");
        let all = "--tolerance: 4 failures leave no survivor among --nodes 4";
        assert_eq!(verdict("--tolerance 4"), all);
        assert_eq!(verdict("--tolerance 3"), "");
        assert!(verdict("--tolerance 2 --nodes 2").starts_with("--tolerance: 2 failures"));
        // A heartbeat timeout at or below the interval would fence every
        // live node.
        let zero = "--hb-timeout: 0 ms does not exceed --hb-interval 10 ms";
        assert_eq!(verdict("--hb-timeout 0"), zero);
        assert_eq!(verdict("--hb-timeout 0 --ft none"), zero);
        let equal = "--hb-timeout: 5 ms does not exceed --hb-interval 5 ms";
        assert_eq!(verdict("--hb-timeout 5 --hb-interval 5"), equal);
        assert_eq!(verdict("--hb-timeout 11"), "");
        // One path each: the switches that chose another are gone, and so are
        // the thread count of a machine that is one thread and the choice of
        // a failure detector other than heartbeats.
        for flag in [
            "--no-sync-suppress",
            "--no-pipeline",
            "--no-delta-sync",
            "--threads",
            "--detector",
        ] {
            assert_eq!(verdict(flag), format!("unknown flag {flag}"));
        }
    }

    #[test]
    fn detector_flags_parse() {
        // The heartbeat defaults are the library's.
        let o = parse(&["run"]).unwrap();
        let lib = RunConfig::default();
        assert_eq!(Duration::from_millis(o.hb_interval_ms), lib.hb_interval);
        assert_eq!(Duration::from_millis(o.hb_timeout_ms), lib.hb_timeout);
        assert_eq!((o.hb_interval_ms, o.hb_timeout_ms), (10, 60));
        let o = parse(&["run", "--hb-interval", "5", "--hb-timeout", "25"]).unwrap();
        assert_eq!((o.hb_interval_ms, o.hb_timeout_ms), (5, 25));
    }

    #[test]
    fn dataset_names_resolve() {
        for name in [
            "gweb", "LJOURNAL", "wiki", "syn-gl", "dblp", "roadca", "uk", "twitter",
        ] {
            assert!(dataset_by_name(name).is_ok(), "{name}");
        }
        assert!(dataset_by_name("nope").is_err());
    }

    #[test]
    fn ft_mode_resolution() {
        let mut o = parse(&["run", "--ft", "rep", "--recovery", "migration"]).unwrap();
        let (mode, standbys) = ft_mode(&o).unwrap();
        assert!(matches!(mode, FtMode::Replication { .. }));
        assert_eq!(standbys, 0);
        o.ft = "ckpt".into();
        o.incremental = true;
        let (mode, standbys) = ft_mode(&o).unwrap();
        assert!(matches!(
            mode,
            FtMode::Checkpoint {
                incremental: true,
                ..
            }
        ));
        assert_eq!(standbys, 1);
        o.ft = "bogus".into();
        assert!(ft_mode(&o).is_err());
    }
}
