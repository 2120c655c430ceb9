//! The benchmark's own tests: the percentile rule, the metric-name
//! grammar, the `BENCHMARK.json` round trip, and a tiny run of every
//! workload through its correctness checks.

use vdm_obs::util::{json_number, json_string, Json};
use vdm_perfbench::check::{self, Reference};
use vdm_perfbench::report::{self, END_TO_END, PER_LAYER};
use vdm_perfbench::stats::{tail, MIN_BEYOND};
use vdm_perfbench::workloads::{Config, Workload};
use vdm_storage::Batch;
use vdm_types::{Field, Schema, SqlType, Value};

#[test]
fn tail_leaves_ten_samples_beyond_the_reported_percentile() {
    for n in 1..=2_500usize {
        let sample: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = tail(&sample, 0.99).expect("non-empty sample");
        let beyond = sample.iter().filter(|v| **v > t.value).count();
        assert_eq!(t.samples, n);
        if n > MIN_BEYOND {
            // Nearest rank: the smallest value with at least 99% at or below.
            assert!(t.percentile < 0.99 + 1.0 / n as f64, "n={n}: p{}", t.percentile);
            assert!(beyond >= MIN_BEYOND, "n={n}: only {beyond} samples beyond");
            // The rule lowers the percentile only as far as it must.
            assert!(beyond == MIN_BEYOND || t.percentile >= 0.99, "n={n}");
        } else {
            assert_eq!(t.percentile, 1.0);
            assert_eq!(t.value, (n - 1) as f64);
        }
    }
    let thousand: Vec<f64> = (0..1_000).map(f64::from).collect();
    assert_eq!(tail(&thousand, 0.99).map(|t| t.percentile), Some(0.99));
    assert_eq!(tail(&thousand, 0.5).map(|t| t.value), Some(499.0));
    assert!(tail(&[], 0.5).is_none());
}

#[test]
fn metric_names_follow_the_grammar() {
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(report::valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} is used twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit:?}");
    }
    for bad in ["", "_x", ".x", "a b", "a/b", "naïve", &"x".repeat(65)] {
        assert!(!report::valid_name(bad), "{bad:?} must be rejected");
    }
}

fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => json_number(*n),
        Json::Str(s) => json_string(s),
        Json::Arr(items) => {
            format!("[{}]", items.iter().map(render).collect::<Vec<_>>().join(", "))
        }
        Json::Obj(members) => format!(
            "{{{}}}",
            members
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn keys(v: &Json) -> Vec<&str> {
    match v {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn benchmark_json_round_trips_and_matches_the_code() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(Json::parse(&render(&spec)).expect("re-parses"), spec);
    assert_eq!(
        keys(&spec),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    assert_eq!(workloads, Workload::BENCHMARKED.map(Workload::name));

    let declared = |list: &str, with_bound: bool| -> Vec<(String, String)> {
        spec.get(list)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                if with_bound {
                    assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
                    let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
                } else {
                    assert_eq!(keys(m), ["name", "unit", "better"]);
                }
                let better = m.get("better").and_then(Json::as_str).unwrap();
                assert!(better == "lower" || better == "higher");
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end", true), code(&END_TO_END));
    assert_eq!(declared("per_layer", false), code(&PER_LAYER));
    let setup = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

fn batch(rows: &[(i64, i64)]) -> Batch {
    let schema = std::sync::Arc::new(Schema::new(vec![
        Field::new("k", SqlType::Int, false),
        Field::new("v", SqlType::Int, false),
    ]));
    let rows: Vec<Vec<Value>> =
        rows.iter().map(|&(k, v)| vec![Value::Int(k), Value::Int(v)]).collect();
    Batch::from_rows(schema, &rows).unwrap()
}

#[test]
fn verify_accepts_exact_multisets_only() {
    let reference = batch(&[(1, 0), (2, 0), (2, 0), (3, 0)]);
    let exact = Reference::Exact {
        digest: vdm_cache::multiset_digest(&reference),
        rows: reference.num_rows(),
    };
    assert!(check::verify(&exact, &batch(&[(3, 0), (2, 0), (1, 0), (2, 0)])).is_ok());
    assert!(check::verify(&exact, &batch(&[(3, 0), (2, 0), (1, 0), (1, 0)])).is_err());
}

#[test]
fn verify_checks_a_page_against_its_ordered_reference() {
    // Ordered by `k`; the two rows with k = 2 tie.
    let ordered = batch(&[(1, 10), (2, 20), (2, 21), (3, 30), (4, 40)]);
    let page = |limit| Reference::page(limit, &ordered, vec![0]);
    assert!(check::verify(&page(3), &batch(&[(1, 10), (2, 20), (2, 21)])).is_ok());
    assert!(check::verify(&page(3), &batch(&[(1, 10), (2, 21), (2, 20)])).is_ok(), "ties swap");
    assert!(check::verify(&page(2), &batch(&[(1, 10), (2, 21)])).is_ok(), "either tied row");
    assert!(check::verify(&page(9), &ordered).is_ok(), "page of min(limit, n) rows");
    let bad = [
        (batch(&[(1, 10), (2, 20)]), "short page"),
        (batch(&[(1, 10), (2, 20), (2, 20)]), "more copies than the reference"),
        (batch(&[(1, 10), (2, 20), (2, 22)]), "a row not in the reference"),
        (batch(&[(3, 30), (4, 40), (2, 20)]), "the last rows, not the first"),
        (batch(&[(2, 20), (1, 10), (2, 21)]), "out of order"),
        (batch(&[(4, 40), (3, 30), (2, 21)]), "the wrong direction"),
    ];
    for (got, why) in bad {
        assert!(check::verify(&page(3), &got).is_err(), "{why} must be rejected");
    }
    // Without ORDER BY any rows of the reference make a page.
    let unordered = Reference::page(2, &ordered, vec![]);
    assert!(check::verify(&unordered, &batch(&[(4, 40), (2, 21)])).is_ok());
}

#[test]
fn statement_parts_for_references() {
    assert_eq!(check::split_limit("select 1 limit 20"), ("select 1", Some(20)));
    assert_eq!(check::split_limit("select 1"), ("select 1", None));
    assert_eq!(check::order_by("select a, b from t order by a, b"), ["a", "b"]);
    assert_eq!(check::order_by("select a from t"), Vec::<&str>::new());
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        journal_rows: 300,
        merge_every_rows: 40,
        setup_reps: 2,
        ..Config::new(workload, seed, 0.3, trace)
    }
}

#[test]
fn every_workload_runs_tiny_and_passes_its_checks() {
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        for trace in [false, true] {
            let cfg = tiny(workload, 9_000 + i as u64, trace);
            let out = vdm_perfbench::run(&cfg).expect("tiny run");
            assert!(out.correct, "{}: {:?}", workload.name(), out.problems);
            assert!(out.attempted >= 1);
            assert_eq!(out.failed, 0, "{}: {}", workload.name(), out.record);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
            assert_eq!(names, want.iter().map(|(n, _)| *n).collect::<Vec<_>>());
            let line = report::result_line(out.correct, out.attempted, out.failed, &out.metrics);
            let parsed = Json::parse(&line).expect("result line is JSON");
            assert_eq!(keys(&parsed), ["correct", "attempted", "failed", "metrics"]);
            assert!(Json::parse(&out.record).is_ok(), "{}", out.record);
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{}: {} = {}", workload.name(), m.name, m.value);
            }
        }
    }
}
