//! Command line of the benchmark. `run.sh` builds this binary and calls:
//!
//! * `run --workload W --seed N --seconds T --trace 0|1` — one workload for
//!   `T` seconds, one JSON result on the last line (the `BENCHMARK.json`
//!   contract);
//! * `suite [--seed 42] [--reps 10] [--smoke] [--trace]` — every workload,
//!   round-robin, `out/results.json`;
//! * `compare <a.json> <b.json>`, `manifest`;
//! * `op` / `replay` — what the two above run as child processes.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use benchmark::config::{Scale, Variant, Workload};
use benchmark::json::{self, Json};
use benchmark::op::{OpSpec, ReplayHints};
use benchmark::sched::Runner;
use benchmark::{compare, layers, metrics, op, report};

/// Flags after the subcommand: `--name value` pairs and bare switches.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or(format!("--workload: unknown workload `{name}`"))
    }

    fn scale(&self) -> Scale {
        if self.switch("--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let done = match sub.as_str() {
        "op" => child_op(&args),
        "replay" => child_replay(&args),
        "run" => contract_run(&args),
        "suite" => suite(&args),
        "compare" => compare_files(&args),
        "manifest" => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        _ => Err(
            "usage: benchmark <run|suite|compare|manifest|op|replay> [flags] (see README.md)"
                .into(),
        ),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        // Ops failed: the numbers were printed, the exit code says not to
        // trust a speed-up bought by being wrong.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

fn child_op(args: &Args) -> Result<bool, String> {
    let variant = args.value("--variant").unwrap_or("ft");
    let spec = OpSpec {
        workload: args.workload()?,
        variant: Variant::from_name(variant).ok_or(format!("--variant: unknown `{variant}`"))?,
        scale: args.scale(),
        seed: args.parsed("--seed", 42)?,
        check_reference: args.switch("--check-reference"),
        trace: args.switch("--trace"),
    };
    println!("{}", op::run(&spec).to_json().to_line());
    Ok(true)
}

fn child_replay(args: &Args) -> Result<bool, String> {
    let hints = ReplayHints {
        records_per_node_step: args.parsed("--records", 1.0)?,
        dfs_part_bytes: args.parsed("--part-bytes", 0.0)?,
    };
    let out = layers::replay(
        args.workload()?,
        args.scale(),
        args.parsed("--seed", 42)?,
        hints,
    );
    println!("{}", out.to_json().to_line());
    Ok(true)
}

/// Where results and traces go: `out/` beside the package's sources, unless
/// `--out` says otherwise.
fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = args
        .value("--out")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn runner(args: &Args) -> Result<Runner, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    Ok(Runner::new(exe, args.scale(), args.parsed("--seed", 42)?))
}

/// Share of a traced contract run spent on traced/untraced op pairs; the
/// rest is left for the layer replays.
const TRACE_PAIR_SHARE: f64 = 0.6;

/// One workload for `--seconds` seconds; the last line printed is the
/// contract's JSON object.
fn contract_run(args: &Args) -> Result<bool, String> {
    let w = args.workload()?;
    let seconds: f64 = args.parsed("--seconds", f64::from(metrics::RUN_SECONDS))?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
    };
    let dir = out_dir(args)?;
    let mut r = runner(args)?;
    r.warm_up(w);
    let measure = Instant::now();
    let budget = Duration::from_secs_f64(if trace {
        seconds * TRACE_PAIR_SHARE
    } else {
        seconds
    });
    let mut round = 0;
    while round == 0 || measure.elapsed() < budget {
        r.machine_ref();
        if trace {
            r.traced_pair(w, round);
        } else {
            r.pair(w, round);
        }
        round += 1;
    }
    if trace {
        r.replay(w);
        report::write_trace(&dir, w, &r.workload(w).trace_events)
            .map_err(|e| format!("write trace: {e}"))?;
    }
    let rep = report::build(&r, w);
    report::print(&rep);
    for why in &r.workload(w).failures {
        println!("  failed: {why}");
    }
    println!("{}", report::contract_line(&rep, trace).to_line());
    // The contract reports failures in the JSON; the exit code stays 0 so
    // the line is read.
    Ok(true)
}

/// Every workload, `--reps` rounds, round-robin.
fn suite(args: &Args) -> Result<bool, String> {
    let reps: usize = args.parsed("--reps", 10)?;
    let reps = if args.switch("--smoke") { 1 } else { reps };
    let dir = out_dir(args)?;
    let mut r = runner(args)?;
    for w in Workload::ALL {
        r.warm_up(w);
    }
    for round in 0..reps {
        r.machine_ref();
        for w in Workload::ALL {
            r.pair(w, round);
        }
        eprintln!("round {}/{reps} done", round + 1);
    }
    if args.switch("--trace") {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            // The traced op with an untraced neighbour, so the overhead
            // ratio compares two ops the box treated alike.
            r.traced_pair(w, i);
            r.replay(w);
            report::write_trace(&dir, w, &r.workload(w).trace_events)
                .map_err(|e| format!("write trace: {e}"))?;
        }
    }
    let reports: Vec<_> = Workload::ALL
        .iter()
        .map(|&w| report::build(&r, w))
        .collect();
    for rep in &reports {
        report::print(rep);
    }
    let (ops, failed) = r.total_ops();
    println!(
        "suite: {ops} ops, {failed} failed, {:.1} s",
        r.started.elapsed().as_secs_f64()
    );
    for wd in r.data.values() {
        for why in &wd.failures {
            println!("  failed: {why}");
        }
    }
    let meta = Json::obj([
        ("seed", Json::Num(r.seed as f64)),
        ("reps", Json::Num(reps as f64)),
        ("smoke", Json::Bool(args.switch("--smoke"))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        // run.sh knows these; the binary does not look outside itself.
        (
            "commit",
            Json::str(args.value("--commit").unwrap_or("unknown")),
        ),
        (
            "rustc",
            Json::str(args.value("--rustc").unwrap_or("unknown")),
        ),
        ("set_wall_s", Json::Num(r.started.elapsed().as_secs_f64())),
    ]);
    let path = dir.join("results.json");
    std::fs::write(&path, report::results_json(meta, &reports).to_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(failed == 0)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("usage: benchmark compare <a.json> <b.json>".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let lines = compare::compare(&load(a)?, &load(b)?)?;
    compare::print(&lines);
    Ok(lines.iter().all(|l| l.verdict != compare::Verdict::Worse))
}
