//! `perf-gate`: the CI perf-regression comparator.
//!
//! Checks a freshly measured baseline file (`harness --bench FRESH.json`)
//! against the committed `BENCH.json` row by row through the gate table in
//! [`latsched_bench::baseline`], prints every row, and fails (exit code 1)
//! naming every failing row:
//!
//! ```bash
//! perf-gate BENCH.json fresh_bench.json
//! ```

use latsched_bench::baseline::check;
use serde_json::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("failed to parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perf-gate BENCH.json FRESH.json";
    if args.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    let [committed, fresh] = args.as_slice() else {
        eprintln!("perf-gate: expected exactly two file operands\n{usage}");
        return ExitCode::FAILURE;
    };
    let (committed, fresh) = match (load(committed), load(fresh)) {
        (Ok(committed), Ok(fresh)) => (committed, fresh),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("perf-gate: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let rows = check(&committed, &fresh);
    for row in &rows {
        let status = if row.passed { "ok  " } else { "FAIL" };
        println!("perf-gate: {status} {} {}", row.name, row.detail);
    }
    let failed: Vec<&str> = rows
        .iter()
        .filter(|row| !row.passed)
        .map(|row| row.name.as_str())
        .collect();
    if failed.is_empty() {
        println!("perf-gate: all {} rows passed", rows.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf-gate: {} of {} rows failed: {}",
            failed.len(),
            rows.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
