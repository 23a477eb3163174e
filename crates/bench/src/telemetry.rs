//! The telemetry-overhead benchmark workload, shared by the criterion bench
//! (`benches/bench_telemetry.rs`) and the `telemetry` entry of
//! `harness --bench` so both always measure exactly the same thing: the warm
//! 64-run acceptance sweep (`sweep_spec`) executed through
//! `latsched_engine::run_sweep` **unprofiled** (the sweep's recorder counts
//! dispatches and cache lookups, spans read no clock) and again inside a
//! `telemetry::profile` scope (stage spans timed too), reporting the off/on
//! wall-clock ratio.
//!
//! The committed gate is `overhead_ratio = off_ms / on_ms`: ~1.0 when the
//! instrumentation is cheap, dropping below 1.0 as the enabled-path cost
//! grows, so the perf gate can treat it as a plain higher-is-better metric.
//! The unprofiled path is additionally sanity-checked in-measure: it must
//! cost no more than a small multiple of the profiled run (the unprofiled
//! span checks must not have turned into real work), the profiled run must
//! attach a snapshot whose dispatch counters sum to exactly the grid size,
//! and both runs must produce bit-identical per-run metrics. All of that
//! folds into the measurement's `parity` flag, which the perf gate refuses
//! to pass when false.

use crate::baseline::{median, time_ms, Measurement};
use crate::sweep::sweep_spec;
use latsched_engine::telemetry::profile;
use latsched_engine::{run_sweep, SweepCaches};

/// Measures the warm acceptance sweep unprofiled and profiled.
///
/// The shared caches are warmed once up front so both sides time the
/// steady-state grid execution (the compile/setup tier would otherwise
/// dominate and mask any counting overhead). Unprofiled and profiled samples
/// alternate, `samples` of each, so drift on a shared host lands on both
/// sides alike; each side reports its median. `dispatch_total` is the
/// profiled run's dispatch-counter sum (it must equal `runs`).
pub fn measure_telemetry(
    window: i64,
    slots: u64,
    samples: usize,
) -> latsched_engine::Result<Measurement> {
    let spec = sweep_spec(window, slots);
    let caches = SweepCaches::new();
    let reference = run_sweep(&spec, &caches)?;

    let (mut off_report, mut on_report) = (None, None);
    let (mut off_times, mut on_times) = (Vec::new(), Vec::new());
    for _ in 0..samples.max(1) {
        off_times.push(time_ms(|| {
            off_report = Some(run_sweep(&spec, &caches).expect("warm sweep (telemetry off)"));
        }));
        on_times.push(time_ms(|| {
            let (report, _) = profile(|| run_sweep(&spec, &caches));
            on_report = Some(report.expect("warm sweep (telemetry on)"));
        }));
    }
    let (off_ms, on_ms) = (median(off_times), median(on_times));

    let off_report = off_report.expect("at least one disabled sample");
    let on_report = on_report.expect("at least one enabled sample");
    let results_match = off_report.per_run == on_report.per_run
        && off_report.per_run == reference.per_run
        && off_report.aggregate == on_report.aggregate;
    let dispatch_total = on_report
        .telemetry
        .as_ref()
        .map_or(0, |snapshot| snapshot.dispatch_total());
    let counters_ok = dispatch_total == spec.num_runs() as u64 && off_report.telemetry.is_none();
    let overhead_ratio = off_ms / on_ms.max(1e-9);
    // In-measure overhead bound, deliberately loose against timer noise on
    // loaded CI hosts: enabling telemetry may not triple the warm sweep. The
    // perf gate's `telemetry.overhead_ratio` row tracks the tight regression
    // bound.
    let overhead_ok = overhead_ratio > 1.0 / 3.0;

    Ok(Measurement::new(format!(
        "warm {} ({} runs, telemetry off vs on)",
        spec.name,
        spec.num_runs()
    ))
    .with("runs", spec.num_runs())
    .with("slots", slots)
    .with("samples", samples)
    .with("off_ms", off_ms)
    .with("on_ms", on_ms)
    .with("overhead_ratio", overhead_ratio)
    .with("dispatch_total", dispatch_total)
    .with("parity", results_match && counters_ok && overhead_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // Medians of five sweeps per side, each several milliseconds long: on
        // a loaded host one scheduler stall in a single 1 ms sample can
        // decide the overhead bound on its own.
        let baseline = measure_telemetry(16, 128, 5).unwrap();
        assert!(baseline.num("off_ms") > 0.0 && baseline.num("on_ms") > 0.0);
        assert!(baseline.parity(), "off/on sweeps must agree: {baseline:?}");
        let json = baseline.to_json_value();
        assert_eq!(json.get("runs").unwrap().as_u64(), Some(64));
        assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
        assert!(json.get("overhead_ratio").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(json.get("dispatch_total").unwrap().as_u64(), Some(64));
    }
}
