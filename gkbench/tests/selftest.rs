//! Tiny-corpus self-test: every workload runs untraced and traced over
//! a 100-decision corpus with a 4-cycle designer budget, passes its own
//! output checks, and prints exactly the metrics `BENCHMARK.json`
//! names, each with its declared unit.

use gkbench::json::Json;
use gkbench::{RunConfig, Workload, WORKLOADS};
use std::path::PathBuf;
use std::time::Duration;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric in a printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let result = Json::parse(line).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn workload_names_match_benchmark_json() {
    let spec = benchmark_json();
    let declared: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared, ours);
}

#[test]
fn tiny_corpus_runs_print_every_declared_metric() {
    let spec = benchmark_json();
    let e2e = sorted(declared(&spec, "end_to_end"));
    let per_layer = sorted(declared(&spec, "per_layer"));
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work/selftest");
    for w in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload: Workload {
                    decisions: 100,
                    cycles: 4,
                    ..w
                },
                seed: 7,
                length: Duration::from_millis(1500),
                trace,
                work_dir: work_dir.clone(),
                exe: PathBuf::from(env!("CARGO_BIN_EXE_gkbench")),
            };
            let report =
                gkbench::run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
            let identity = Json::parse(&report.identity_line()).expect("identity line is JSON");
            let corpus = identity.get("corpus").expect("corpus identity");
            assert_eq!(corpus.get("seed").and_then(Json::as_f64), Some(7.0));
            assert!(corpus.get("fingerprint").and_then(Json::as_str).is_some());
            assert!(corpus.get("props").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
            let want = if trace { &per_layer } else { &e2e };
            assert_eq!(
                &sorted(printed(&report.result_line())),
                want,
                "{} trace={trace}",
                w.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
}
