//! Self-test: every workload at toy size, end-to-end and traced. Checks that
//! every metric `BENCHMARK.json` names is printed with its unit, that the
//! oracle passes, and that count metrics repeat exactly across two runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

const WORKLOADS: [&str; 3] = [
    "sweep-tiling-bernoulli",
    "sweep-aloha-stream",
    "search-figure2",
];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    manifest
        .get(list)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark at toy size and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "toy"])
        .output()
        .expect("the benchmark starts");
    assert!(
        output.status.success(),
        "{workload}: exit {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

/// Checks the result's accounting and that it prints exactly the declared
/// metrics with their units; returns `(name, unit, value)` triples.
fn checked(result: &Value, list: &str, workload: &str) -> Vec<(String, String, f64)> {
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: oracle"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let expected = declared(list);
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    expected
        .into_iter()
        .map(|(name, unit)| {
            let metric = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                metric.get("unit").and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .expect("a numeric value");
            (name, unit, value)
        })
        .collect()
}

#[test]
fn end_to_end_metrics_are_printed_and_nonzero() {
    for workload in WORKLOADS {
        for (name, _, value) in checked(&run(workload, 0, false), "end_to_end", workload) {
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for workload in WORKLOADS {
        let first = checked(&run(workload, 7, true), "per_layer", workload);
        let second = checked(&run(workload, 7, true), "per_layer", workload);
        for (a, b) in first.iter().zip(&second) {
            if a.1 == "count" {
                assert_eq!(a, b, "{workload}: count metric {} moved between runs", a.0);
            }
        }
        let value = |name: &str| first.iter().find(|m| m.0 == name).expect(name).2;
        assert!(value("trace.layer_sum_ms") > 0.0);
        match workload {
            "sweep-tiling-bernoulli" => {
                assert_eq!(value("sweep.redundant_run_share"), 0.75);
                assert_eq!(value("simkernel.trace_count"), 16.0);
            }
            "sweep-aloha-stream" => {
                assert_eq!(value("simkernel.trace_count"), 0.0);
                assert_eq!(value("store.cold.traces.misses"), 0.0);
                assert_eq!(value("store.warm.traces.hits"), 0.0);
                assert!(value("simkernel.lanes_ms") > 0.0);
            }
            _ => assert_eq!(value("store.warm.searches.hits"), 1.0),
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("the benchmark starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
