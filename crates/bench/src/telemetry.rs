//! The telemetry-overhead benchmark workload, shared by the criterion bench
//! (`benches/bench_telemetry.rs`) and the harness's `--bench-telemetry`
//! baseline emitter so both always measure exactly the same thing: the warm
//! 64-run acceptance sweep (`sweep_spec`) executed through
//! `latsched_engine::run_sweep` with telemetry **disabled** and again with
//! telemetry **enabled** (dispatch counters, per-tier cache counters, and
//! stage spans all live), reporting the off/on wall-clock ratio.
//!
//! The committed gate is `overhead_ratio = off_ms / on_ms`: ~1.0 when the
//! instrumentation is cheap, dropping below 1.0 as the enabled-path cost
//! grows, so `perf_gate --metric overhead_ratio` can treat it as a plain
//! higher-is-better metric. The disabled path is additionally sanity-checked
//! in-measure: with telemetry off the sweep must cost no more than a small
//! multiple of the enabled run (the relaxed-load fast checks must not have
//! turned into real work), the enabled run must attach a snapshot whose
//! dispatch counters sum to exactly the grid size, and both runs must produce
//! bit-identical per-run metrics. All of that folds into the baseline's
//! `parity` flag, which the perf gate refuses to pass when false.

use crate::sweep::{median_ms, sweep_spec};
use latsched_engine::telemetry::telemetry;
use latsched_engine::{run_sweep, SweepCaches};
use serde_json::Value;
use std::collections::BTreeMap;

/// One measured baseline of the sweep engine with telemetry off versus on.
#[derive(Clone, Debug)]
pub struct TelemetryBaseline {
    /// Human-readable workload description.
    pub workload: String,
    /// Number of runs in the grid.
    pub runs: usize,
    /// Number of slots simulated per run.
    pub slots: u64,
    /// Timed sweep executions per side (the median is reported).
    pub samples: usize,
    /// Median wall-clock of one warm sweep with telemetry disabled, in
    /// milliseconds.
    pub off_ms: f64,
    /// Median wall-clock of the same warm sweep with telemetry enabled, in
    /// milliseconds.
    pub on_ms: f64,
    /// `off_ms / on_ms` — ~1.0 when instrumentation is near-free, below 1.0
    /// as the enabled path gets more expensive (higher is better).
    pub overhead_ratio: f64,
    /// Dispatch-counter sum of the enabled run's snapshot (must equal `runs`).
    pub dispatch_total: u64,
    /// Whether the off and on runs produced bit-identical per-run metrics,
    /// the enabled snapshot accounted for every grid run, the disabled run
    /// attached no snapshot, and the in-measure overhead bound held.
    pub parity: bool,
}

impl TelemetryBaseline {
    /// The baseline as a JSON object for `BENCH_telemetry.json`.
    pub fn to_json_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("workload".into(), Value::String(self.workload.clone()));
        map.insert("runs".into(), Value::from(self.runs));
        map.insert("slots".into(), Value::from(self.slots));
        map.insert("samples".into(), Value::from(self.samples));
        map.insert("off_ms".into(), Value::from(self.off_ms));
        map.insert("on_ms".into(), Value::from(self.on_ms));
        map.insert("overhead_ratio".into(), Value::from(self.overhead_ratio));
        map.insert("dispatch_total".into(), Value::from(self.dispatch_total));
        map.insert("parity".into(), Value::Bool(self.parity));
        Value::Object(map)
    }
}

/// Measures the warm acceptance sweep with telemetry disabled and enabled.
///
/// The shared caches are warmed once up front so both sides time the
/// steady-state grid execution (the compile/setup tier would otherwise
/// dominate and mask any counting overhead). The global registry is restored
/// to its prior enabled state before returning.
pub fn measure_telemetry(
    window: i64,
    slots: u64,
    samples: usize,
) -> Result<TelemetryBaseline, latsched_engine::EngineError> {
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
    // committed-baseline gate (`perf_gate --metric overhead_ratio`) tracks
    // the tight regression bound.
    let overhead_ok = overhead_ratio > 1.0 / 3.0;

    Ok(TelemetryBaseline {
        workload: format!(
            "warm {} ({} runs, telemetry off vs on)",
            spec.name,
            spec.num_runs()
        ),
        runs: spec.num_runs(),
        slots,
        samples,
        off_ms,
        on_ms,
        overhead_ratio,
        dispatch_total,
        parity: results_match && counters_ok && overhead_ok,
    })
}
