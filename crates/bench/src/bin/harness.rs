//! The experiment harness: regenerates every figure-level experiment of the paper and
//! prints the result tables (optionally also writing them to JSON).
//!
//! Usage:
//!
//! ```bash
//! harness                      # run all experiments (E1..E8)
//! harness E3 E5                # run selected experiments
//! harness --json results.json  # also write the tables as JSON
//! harness --bench fresh.json   # measure every performance baseline entry in
//!                              # one process and write them as one file
//!                              # (default BENCH.json); compare it with the
//!                              # committed one using `perf_gate`
//! ```

use latsched_bench::baseline::ENTRIES;
use latsched_bench::{run_all, run_by_id, Table};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Measures every [`ENTRIES`] entry and writes them to `path` as one JSON
/// object keyed by entry name. Fails after writing the file if any entry's
/// in-measure parity check failed.
fn emit_baseline(path: &str) -> ExitCode {
    let mut entries = BTreeMap::new();
    let mut failed_parity = Vec::new();
    for (name, measure) in ENTRIES {
        let start = Instant::now();
        let measurement = match measure() {
            Ok(measurement) => measurement,
            Err(err) => {
                eprintln!("{name} baseline failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{name} ({:.1} s): {measurement}",
            start.elapsed().as_secs_f64()
        );
        if !measurement.parity() {
            failed_parity.push(name);
        }
        entries.insert(name.to_string(), measurement.to_json_value());
    }
    let json = serde_json::to_string_pretty(&Value::Object(entries));
    if let Err(err) = std::fs::write(path, json + "\n") {
        eprintln!("failed to write {path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} baseline entries to {path}", ENTRIES.len());
    if !failed_parity.is_empty() {
        eprintln!("parity check failed: {}", failed_parity.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--bench" => {
                // Optional path operand; defaults to BENCH.json.
                bench_path = Some(match iter.peek() {
                    Some(next) if !next.starts_with('-') => iter.next().unwrap(),
                    _ => "BENCH.json".to_string(),
                });
            }
            "--help" | "-h" => {
                println!("usage: harness [--json FILE] [--bench [FILE]] [E1..E8 | all]...");
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }

    if let Some(path) = bench_path {
        // The baseline run is its own mode; refuse silently dropped work.
        if !ids.is_empty() || json_path.is_some() {
            eprintln!("--bench cannot be combined with experiment ids or --json");
            return ExitCode::FAILURE;
        }
        return emit_baseline(&path);
    }

    let run_everything = ids.is_empty() || ids.iter().any(|id| id.eq_ignore_ascii_case("all"));
    let tables: Result<Vec<Table>, _> = if run_everything {
        run_all()
    } else {
        ids.iter().map(|id| run_by_id(id)).collect()
    };

    let tables = match tables {
        Ok(tables) => tables,
        Err(err) => {
            eprintln!("experiment failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    for table in &tables {
        println!("{table}");
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&serde_json::Value::Array(
            tables.iter().map(Table::to_json_value).collect(),
        ));
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} experiment table(s) to {path}", tables.len());
    }
    ExitCode::SUCCESS
}
