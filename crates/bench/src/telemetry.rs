//! The telemetry-overhead benchmark workload, shared by the criterion bench
//! (`benches/bench_telemetry.rs`) and the `telemetry` entry of
//! `harness --bench` so both always measure exactly the same thing: the warm
//! 64-run acceptance sweep (`sweep_spec`) executed through
//! `latsched_engine::run_sweep` with telemetry **disabled** (the sweep's
//! recorder counts dispatches and cache lookups, spans read no clock) and
//! again with telemetry **enabled** (stage spans timed too), reporting the
//! off/on wall-clock ratio.
//!
//! The committed gate is `overhead_ratio = off_ms / on_ms`: ~1.0 when the
//! instrumentation is cheap, dropping below 1.0 as the enabled-path cost
//! grows, so the perf gate can treat it as a plain higher-is-better metric. The disabled path is additionally sanity-checked
//! in-measure: with telemetry off the sweep must cost no more than a small
//! multiple of the enabled run (the unprofiled span checks must not have
//! turned into real work), the enabled run must attach a snapshot whose
//! dispatch counters sum to exactly the grid size, and both runs must produce
//! bit-identical per-run metrics. All of that folds into the measurement's
//! `parity` flag, which the perf gate refuses to pass when false.

use crate::baseline::{median_ms, Measurement};
use crate::sweep::sweep_spec;
use latsched_engine::telemetry::telemetry;
use latsched_engine::{run_sweep, SweepCaches};

/// Measures the warm acceptance sweep with telemetry disabled and enabled.
///
/// The shared caches are warmed once up front so both sides time the
/// steady-state grid execution (the compile/setup tier would otherwise
/// dominate and mask any counting overhead). The process-wide flag is restored
/// to its prior enabled state before returning. `dispatch_total` is the
/// enabled run's dispatch-counter sum (it must equal `runs`).
pub fn measure_telemetry(
    window: i64,
    slots: u64,
    samples: usize,
) -> latsched_engine::Result<Measurement> {
    let spec = sweep_spec(window, slots);
    let registry = telemetry();
    let was_enabled = registry.enabled();
    registry.set_enabled(false);

    let caches = SweepCaches::new();
    let reference = run_sweep(&spec, &caches)?;

    let mut off_report = None;
    let off_ms = median_ms(samples, || {
        off_report = Some(run_sweep(&spec, &caches).expect("warm sweep (telemetry off)"));
    });

    registry.set_enabled(true);
    let mut on_report = None;
    let on_ms = median_ms(samples, || {
        on_report = Some(run_sweep(&spec, &caches).expect("warm sweep (telemetry on)"));
    });
    registry.set_enabled(was_enabled);

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
