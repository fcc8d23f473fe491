//! Self-tests of the instrument's own arithmetic and tables.

use benchmark::compare::{verdict, worsening, Verdict};
use benchmark::config::{Variant, Workload};
use benchmark::json::{self, Json};
use benchmark::metrics::{self, Better, END_TO_END, PER_LAYER};
use benchmark::sched::check_op;
use benchmark::stats::{
    commit_gaps_ms, iter_ms_q1, median, outage_ms, percentile, quartiles, Summary,
};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
    assert_eq!(median(&xs), Some(5.5));
    // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
    assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(percentile(&xs, 95.0), Some(19.0));
    assert_eq!(percentile(&xs, 100.0), Some(20.0));
    assert_eq!(percentile(&xs, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn outage_and_iter_q1_from_a_synthetic_timeline() {
    // Five commits 10 ms apart, a 500 ms stall, four more 10 ms apart. The
    // 30 ms before the first commit is not a gap.
    let mut at = 0.030;
    let mut offsets = vec![at];
    for gap in [10, 10, 10, 10, 500, 10, 10, 10, 10] {
        at += f64::from(gap) / 1e3;
        offsets.push(at);
    }
    let gaps = commit_gaps_ms(&offsets);
    assert_eq!(gaps.len(), 9);
    assert!((outage_ms(&gaps).unwrap() - 500.0).abs() < 1e-6);
    assert!((iter_ms_q1(&gaps).unwrap() - 10.0).abs() < 1e-6);
    // Half the supersteps slow (checkpoint writes): the median sits on the
    // edge between the two kinds, the lower quartile inside the ordinary one.
    let mixed = [15.0, 16.0, 17.0, 18.0, 19.0, 40.0, 45.0, 50.0, 60.0, 600.0];
    assert_eq!(iter_ms_q1(&mixed), Some(17.0));
    assert_eq!(median(&mixed), Some(29.5));
    assert_eq!(outage_ms(&[]), None);
    // Hundreds of supersteps: the tail stall, not the single worst hiccup.
    let mut many = vec![1.0; 800];
    many[17] = 90.0;
    many[400] = 4.0;
    many[401] = 5.0;
    assert_eq!(outage_ms(&many), Some(1.0));
    many.extend([6.0; 10]);
    assert_eq!(outage_ms(&many), Some(6.0));
}

#[test]
fn json_round_trips_through_the_parser() {
    let doc = Json::obj([
        (
            "name",
            Json::str("a \"quoted\"\\ line\nwith\ttabs and \u{1}"),
        ),
        ("count", Json::Num(63950263.0)),
        ("ratio", Json::Num(1.0603546951468811)),
        ("tiny", Json::Num(-4.4e-7)),
        (
            "flags",
            Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
        ),
        ("nested", Json::obj([("xs", Json::nums(&[1.5, 2.0, 3.25]))])),
        ("empty", Json::Arr(vec![])),
    ]);
    assert_eq!(json::parse(&doc.to_line()).unwrap(), doc);
    assert_eq!(json::parse(&doc.to_pretty()).unwrap(), doc);
    assert!(json::parse("{\"a\": 1} x").is_err());
    assert!(json::parse("{\"a\": ").is_err());
    assert!(json::parse(&"[".repeat(1000)).is_err());
    // JSON has no NaN: it is written as null.
    assert_eq!(Json::Num(f64::NAN).to_line(), "null");
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_units_and_bounds_are_within_the_manifest_limits() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for u in units {
        assert!(
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {u}"
        );
    }
    for m in &END_TO_END {
        assert!((0.0..=0.25).contains(&m.bound), "{} bound", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        json::parse(&text).unwrap(),
        metrics::manifest(),
        "regenerate with `target/release/benchmark manifest > BENCHMARK.json`"
    );
}

fn summary(median: f64, q1: f64, q3: f64) -> Summary {
    Summary {
        median,
        q1,
        q3,
        n: 10,
    }
}

#[test]
fn compare_verdicts() {
    let a = summary(100.0, 99.0, 101.0);
    assert_eq!(
        verdict(&a, &summary(105.0, 104.0, 106.0), Better::Lower, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&a, &summary(80.0, 79.0, 81.0), Better::Lower, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&a, &summary(120.0, 119.0, 121.0), Better::Lower, 0.10),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&a, &summary(80.0, 79.0, 81.0), Better::Higher, 0.10),
        Verdict::Worse
    );
    // Within the bound, but one side's quartiles are 30 % apart.
    assert_eq!(
        verdict(&a, &summary(100.0, 85.0, 115.0), Better::Lower, 0.10),
        Verdict::Unresolved
    );
    assert!((worsening(1.0, 0.9, Better::Higher) - 0.1).abs() < 1e-12);
    assert!((worsening(200.0, 210.0, Better::Lower) - 0.05).abs() < 1e-12);
    // Exact metrics: equal medians with zero spread pass a zero bound.
    let exact = summary(64_344_591.0, 64_344_591.0, 64_344_591.0);
    assert_eq!(verdict(&exact, &exact, Better::Lower, 0.0), Verdict::Ok);
}

/// A child's result line, as `op` prints it.
fn op_line(hash: &str, supersteps: u64, recoveries: u64, reference_err: Option<f64>) -> Json {
    Json::obj([
        ("metrics", Json::obj([("job.run_s", Json::Num(0.5))])),
        ("gaps_ms", Json::nums(&[1.0, 2.0])),
        ("values_hash", Json::str(hash)),
        ("supersteps", Json::Num(supersteps as f64)),
        ("recoveries", Json::Num(recoveries as f64)),
        ("reference_err", reference_err.map_or(Json::Null, Json::Num)),
        ("records_per_node_step", Json::Num(10.0)),
        ("dfs_part_bytes", Json::Num(0.0)),
        ("trace_coverage", Json::Num(0.0)),
        ("trace_events", Json::Arr(vec![])),
    ])
}

#[test]
fn a_faster_wrong_answer_is_a_failed_op() {
    let w = Workload::PrEcMigration;
    let mut expect = None;
    // The reference-checked warm-up fixes what every later op must match.
    assert!(check_op(
        w,
        Variant::Ft,
        &op_line("aa", 20, 1, Some(3e-12)),
        &mut expect
    )
    .is_ok());
    assert!(check_op(w, Variant::Base, &op_line("aa", 20, 0, None), &mut expect).is_ok());
    let fails = |line: Json, variant| {
        let mut expect = expect.clone();
        check_op(w, variant, &line, &mut expect).err()
    };
    let why = fails(op_line("ab", 20, 1, None), Variant::Ft).expect("hash differs");
    assert!(why.contains("bit-identical"), "{why}");
    assert!(
        fails(op_line("aa", 19, 1, None), Variant::Ft).is_some(),
        "supersteps"
    );
    assert!(
        fails(op_line("aa", 20, 0, None), Variant::Ft).is_some(),
        "crash not recovered"
    );
    assert!(
        fails(op_line("aa", 20, 2, None), Variant::Ft).is_some(),
        "two episodes"
    );
    assert!(
        fails(op_line("aa", 20, 1, None), Variant::Base).is_some(),
        "base recovered"
    );
    assert!(
        fails(op_line("aa", 20, 1, Some(1e-6)), Variant::Ft).is_some(),
        "reference"
    );
    assert!(
        fails(Json::obj([("metrics", Json::Null)]), Variant::Ft).is_some(),
        "garbage"
    );
    // SSSP: no fixed superstep count, but every op of a seed agrees, exactly.
    let mut expect = None;
    assert!(check_op(
        Workload::SsspEc,
        Variant::Ft,
        &op_line("cc", 827, 0, Some(0.0)),
        &mut expect
    )
    .is_ok());
    assert!(check_op(
        Workload::SsspEc,
        Variant::Base,
        &op_line("cc", 826, 0, None),
        &mut expect
    )
    .is_err());
    assert!(check_op(
        Workload::SsspEc,
        Variant::Ft,
        &op_line("cc", 827, 0, Some(1e-12)),
        &mut expect
    )
    .is_err());
}
