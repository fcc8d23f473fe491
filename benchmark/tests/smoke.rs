//! The whole instrument at smoke scale (5k-vertex graphs), through the real
//! binary and its child processes: every named metric is emitted, nothing
//! unnamed is, and counts repeat exactly for a seed.

use std::collections::BTreeSet;
use std::path::PathBuf;

use benchmark::config::{Scale, Variant, Workload};
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::op::{self, OpSpec};
use benchmark::report;
use benchmark::sched::{Runner, PAIR_RATIOS};

fn runner(seed: u64) -> Runner {
    Runner::new(
        PathBuf::from(env!("CARGO_BIN_EXE_benchmark")),
        Scale::Smoke,
        seed,
    )
}

#[test]
fn every_named_metric_is_emitted_and_nothing_else() {
    let mut r = runner(42);
    let mut per_layer_seen = BTreeSet::new();
    for w in Workload::ALL {
        r.warm_up(w);
        r.machine_ref();
        r.pair(w, 0);
        r.pair(w, 1);
        r.traced_pair(w, 0);
        r.replay(w);
        let rep = report::build(&r, w);
        assert_eq!(rep.failed, 0, "{}: {:?}", w.name(), r.workload(w).failures);
        assert_eq!(rep.ops, 8);

        // All ten end-to-end metrics apply to every workload, and none is 0.
        let e2e: Vec<&str> = rep.end_to_end.iter().map(|row| row.name).collect();
        let named: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(e2e, named, "{}", w.name());
        for row in &rep.end_to_end {
            assert!(row.summary.median > 0.0, "{} {}", w.name(), row.name);
        }
        per_layer_seen.extend(rep.per_layer.iter().map(|row| row.name));

        // Every timed ratio is the ft op over its base neighbour, one sample
        // per pair: a staged crash stalls the ft side only.
        let wd = r.workload(w);
        for (ratio, _) in PAIR_RATIOS {
            assert_eq!(wd.ratios[ratio].len(), 2, "{} {ratio}", w.name());
        }
        if w.crashes() {
            let slower = &wd.ratios["ft_job_ratio"];
            assert!(slower.iter().all(|&x| x > 1.2), "{}: {slower:?}", w.name());
        }

        // The children print nothing the tables do not name.
        let wd = r.workload(w);
        for name in wd.samples.keys().chain(wd.layer_samples.keys()) {
            assert!(
                END_TO_END.iter().any(|m| m.name == name)
                    || PER_LAYER.iter().any(|m| m.name == name),
                "{}: unnamed metric {name}",
                w.name()
            );
        }

        // What applies where: the separation the workloads exist for.
        let has = |name: &str| rep.per_layer.iter().any(|row| row.name == name);
        assert_eq!(has("driver.ckpt_s"), w == Workload::PrEcCkpt);
        assert_eq!(has("recovery.unattributed_ms"), w.crashes());
        assert_eq!(
            has("recovery.migration_round8_ms"),
            w == Workload::PrEcMigration
        );
        assert_eq!(has("plan.ft_plan_s"), w.replicates());
        assert_eq!(has("storage.dfs_write_ms"), w.uses_dfs());
        assert_eq!(has("engine.vc_gather_ms"), w == Workload::PrVcRebirth);
        assert_eq!(has("engine.ec_compute_ms"), w != Workload::PrVcRebirth);
        let coverage = rep.trace_coverage.expect("a traced op ran");
        assert!(coverage >= 0.95, "{}: spans cover {coverage}", w.name());

        // The contract line names exactly the manifest's metrics.
        for (trace, want) in [(false, named.len()), (true, PER_LAYER.len())] {
            let line = report::contract_line(&rep, trace);
            assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));
            let metrics = line.get("metrics").and_then(|m| m.as_obj()).unwrap();
            assert_eq!(metrics.len(), want);
        }
    }
    let named: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(
        per_layer_seen, named,
        "a per-layer metric no workload emits"
    );

    // pr_ec_tcp differs from pr_ec by the transport alone.
    let bytes = |r: &Runner, w: Workload, name: &str| r.data[w.name()].samples[name].clone();
    for name in ["comm_bytes", "mem_bytes"] {
        assert_eq!(
            bytes(&r, Workload::PrEc, name),
            bytes(&r, Workload::PrEcTcp, name)
        );
    }
}

#[test]
fn the_same_seed_repeats_counts_exactly() {
    let exact = ["comm_bytes", "mem_bytes", "driver.supersteps"];
    for w in [Workload::PrEcMigration, Workload::SsspEc] {
        let run = |seed| {
            let out = op::run(&OpSpec {
                workload: w,
                variant: Variant::Ft,
                scale: Scale::Smoke,
                seed,
                check_reference: false,
                trace: false,
            });
            let counts: Vec<f64> = exact
                .iter()
                .map(|name| out.metrics.iter().find(|(k, _)| k == name).unwrap().1)
                .collect();
            (counts, out.values_hash)
        };
        assert_eq!(run(7), run(7), "{}", w.name());
        assert_ne!(
            run(7).1,
            run(8).1,
            "{}: the seed must change the input",
            w.name()
        );
    }
}

#[test]
fn a_dead_child_is_a_failed_op_not_a_dead_benchmark() {
    let mut r = runner(1);
    r.exe = PathBuf::from("/bin/false");
    assert!(r.op(Workload::PrEc, Variant::Ft, false, false).is_none());
    let wd = r.workload(Workload::PrEc);
    assert_eq!((wd.ops, wd.failed, wd.failures.len()), (1, 1, 1));
    let rep = report::build(&r, Workload::PrEc);
    let line = report::contract_line(&rep, false);
    assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(false));
    assert_eq!(line.get("failed").and_then(|f| f.as_f64()), Some(1.0));
}
