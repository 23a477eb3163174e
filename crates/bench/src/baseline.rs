//! The committed benchmark baseline, `BENCH.json`: one record type for every
//! measurement, the entries `harness --bench` measures, and the gate table
//! `perf_gate` checks a fresh file against.
//!
//! `BENCH.json` is one JSON object keyed by entry name (`simkernel`, `sweep`,
//! …), each value the fields of one [`Measurement`]. Every gated metric is a
//! ratio of two timings (or, for `aggregate`, of two peak allocations) taken
//! in the same process, so it transfers across differently sized CI runners
//! where absolute milliseconds would not.

use crate::{
    measure_aggregate, measure_replay, measure_search, measure_simkernel, measure_sweep,
    measure_telemetry, measure_tracecache,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// One measured benchmark entry: the named fields of one `BENCH.json` entry
/// (`workload` describes it, `parity` says whether its in-measure checks
/// passed).
#[derive(Clone, Debug)]
pub struct Measurement(BTreeMap<String, Value>);

impl Measurement {
    /// A measurement of the described workload, with no fields yet.
    pub fn new(workload: String) -> Self {
        Measurement(BTreeMap::from([("workload".to_string(), workload.into())]))
    }

    /// The measurement with `field` set to `value`.
    pub fn with(mut self, field: &str, value: impl Into<Value>) -> Self {
        self.0.insert(field.to_string(), value.into());
        self
    }

    /// The value of a numeric field.
    ///
    /// # Panics
    ///
    /// Panics if the measurement has no numeric field of that name: field
    /// names are fixed by the `measure_*` function that built it.
    pub fn num(&self, field: &str) -> f64 {
        self.0
            .get(field)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("measurement has no numeric field '{field}'"))
    }

    /// Whether every in-measure parity check passed.
    pub fn parity(&self) -> bool {
        self.0.get("parity").and_then(Value::as_bool) == Some(true)
    }

    /// The measurement as a JSON object (one `BENCH.json` entry).
    pub fn to_json_value(&self) -> Value {
        Value::Object(self.0.clone())
    }
}

impl fmt::Display for Measurement {
    /// The workload, then every other field as `name value`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(workload) = self.0.get("workload").and_then(Value::as_str) {
            write!(f, "{workload}")?;
        }
        for (field, value) in self.0.iter().filter(|(field, _)| *field != "workload") {
            match value {
                Value::Number(n) if n.fract() != 0.0 => write!(f, "\n  {field} {n:.4}")?,
                _ => write!(f, "\n  {field} {value}")?,
            }
        }
        Ok(())
    }
}

/// Median wall clock of `samples` (at least one) runs of `run`, in
/// milliseconds.
pub(crate) fn median_ms(samples: usize, mut run: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Measures one entry at its committed workload size.
pub type Measure = fn() -> Result<Measurement, Box<dyn Error>>;

/// The entries `harness --bench` measures, in order, each at the workload
/// size and sample count its committed baseline was measured at.
pub const ENTRIES: [(&str, Measure); 7] = [
    // 256×256 window (65 536 sensors), 256 slots, median of 3 runs per kernel.
    ("simkernel", || Ok(measure_simkernel(256, 256, 3)?)),
    // The 64-run stochastic grid on the Moore 64×64 window, 512 slots per
    // run, median of 3 sweeps against the sequential reference.
    ("sweep", || Ok(measure_sweep(64, 512, 3)?)),
    // The same grid cold against warm, median of 3 per side.
    ("tracecache", || Ok(measure_tracecache(64, 512, 3)?)),
    // 100 000 runs: 4 periods × 5 retry budgets × 5 000 seeds, 2 samples.
    ("aggregate", || Ok(measure_aggregate(5_000, 2)?)),
    // The builtin Figure-2 search cold against warm, median of 3 per side.
    ("search", || Ok(measure_search(3)?)),
    // Moore 64×64, 1 024 slots per run, median of 3 per side.
    ("replay", || Ok(measure_replay(64, 1024, 3)?)),
    // The warm acceptance sweep, median of 5 per side. Last, because it
    // toggles the process-wide telemetry flag.
    ("telemetry", || Ok(measure_telemetry(64, 512, 5)?)),
];

/// What one gate row checks.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// A higher-is-better metric: the fresh value may not fall below
    /// `committed × (1 − max_regression)`.
    Metric {
        /// The metric's field name.
        field: &'static str,
        /// The allowed fractional drop.
        max_regression: f64,
    },
    /// Every `peak_*_bytes` field of the committed entry, lower-is-better:
    /// the fresh value may not exceed `committed × (1 + max_growth)`.
    PeakBytes {
        /// The allowed fractional growth.
        max_growth: f64,
    },
}

const fn metric(field: &'static str, max_regression: f64) -> Check {
    Check::Metric {
        field,
        max_regression,
    }
}

/// The gate table. Besides these rows, every [`ENTRIES`] entry must record
/// `parity: true` in both files.
pub const GATES: [(&str, Check); 12] = [
    ("simkernel", metric("speedup", 0.25)),
    ("sweep", metric("speedup", 0.25)),
    // One worker measures stealing ≈ the static split by design, so the
    // ratio sits near 1.0 with a noise floor of a few percent of a ~5 ms
    // timing. A multi-core runner measures > 1.0; `cargo bench` asserts the
    // thread-count-dependent floor.
    ("sweep", metric("steal_speedup", 0.4)),
    ("tracecache", metric("speedup", 0.25)),
    // The aggregate `speedup` is the full-over-streaming peak-allocation
    // ratio, and the streaming peak scales with the worker count (per-band
    // folds, kernel scratch): both bounds are wide. The tight bounds (16 MiB
    // cap, ≥ 2× reduction, fold parity) are in the entry's `parity`.
    ("aggregate", metric("speedup", 0.9)),
    ("aggregate", Check::PeakBytes { max_growth: 7.0 }),
    // A warm search is one tier-5 hit measured in microseconds, so the ratio
    // is huge but noisy. Outcome parity, zero warm misses and the optimal
    // winner are in the entry's `parity`.
    ("search", metric("speedup", 0.9)),
    ("replay", metric("analytic_speedup", 0.25)),
    ("replay", metric("lane_speedup", 0.25)),
    ("replay", metric("bernoulli_lane_speedup", 0.25)),
    // The hybrid side runs in ~0.5 ms and its cost moves by tens of percent
    // between processes while staying stable within one. Falling back to the
    // full loop measures ~1.0 and still fails; `cargo bench` asserts ≥ 2×.
    ("replay", metric("partial_analytic_speedup", 0.5)),
    // off_ms / on_ms, ~1.0 while instrumentation is near free.
    ("telemetry", metric("overhead_ratio", 0.15)),
];

/// The outcome of one gate row.
#[derive(Debug)]
pub struct GateRow {
    /// `entry.field`, e.g. `replay.lane_speedup`.
    pub name: String,
    /// The compared values and the bound.
    pub detail: String,
    /// Whether the fresh file passed this row.
    pub passed: bool,
}

impl GateRow {
    fn new(name: String, passed: bool, detail: String) -> Self {
        GateRow {
            name,
            detail,
            passed,
        }
    }
}

/// Checks a fresh baseline file against the committed one, returning one row
/// per gated value: the parity of every [`ENTRIES`] entry, then every row of
/// [`GATES`]. An entry or field missing from either file fails its row.
pub fn check(committed: &Value, fresh: &Value) -> Vec<GateRow> {
    let mut rows: Vec<GateRow> = ENTRIES
        .iter()
        .map(|(entry, _)| {
            let parity = |file: &Value| {
                file.get(entry)
                    .and_then(|e| e.get("parity"))
                    .and_then(Value::as_bool)
            };
            let (was, now) = (parity(committed), parity(fresh));
            let show = |p: Option<bool>| p.map_or("missing".to_string(), |p| p.to_string());
            GateRow::new(
                format!("{entry}.parity"),
                was == Some(true) && now == Some(true),
                format!("committed {}, fresh {}", show(was), show(now)),
            )
        })
        .collect();
    for (entry, check) in GATES {
        let fields: Vec<&str> = match check {
            Check::Metric { field, .. } => vec![field],
            Check::PeakBytes { .. } => committed
                .get(entry)
                .and_then(Value::as_object)
                .into_iter()
                .flat_map(|fields| fields.keys())
                .filter(|field| field.starts_with("peak_") && field.ends_with("_bytes"))
                .map(String::as_str)
                .collect(),
        };
        if fields.is_empty() {
            rows.push(GateRow::new(
                format!("{entry}.peak_*_bytes"),
                false,
                "the committed entry has no peak_*_bytes fields".into(),
            ));
        }
        for field in fields {
            let name = format!("{entry}.{field}");
            let value = |file: &Value| {
                file.get(entry)
                    .and_then(|e| e.get(field))
                    .and_then(Value::as_f64)
            };
            let row = match (value(committed), value(fresh)) {
                (None, _) => GateRow::new(name, false, "missing from the committed file".into()),
                (_, None) => GateRow::new(name, false, "missing from the fresh file".into()),
                (Some(was), Some(now)) => {
                    let change = (now / was - 1.0) * 100.0;
                    let (passed, detail) = match check {
                        Check::Metric { max_regression, .. } => {
                            let floor = was * (1.0 - max_regression);
                            let detail = format!(
                                "{was:.4} -> {now:.4} ({change:+.1}%), floor {floor:.4} \
                                 (max regression {:.0}%)",
                                max_regression * 100.0
                            );
                            (now >= floor, detail)
                        }
                        Check::PeakBytes { max_growth } => {
                            let ceiling = was * (1.0 + max_growth);
                            let detail = format!(
                                "{was:.0} -> {now:.0} bytes ({change:+.1}%), ceiling \
                                 {ceiling:.0} (max growth {:.0}%)",
                                max_growth * 100.0
                            );
                            (now <= ceiling, detail)
                        }
                    };
                    GateRow::new(name, passed, detail)
                }
            };
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file holding every gated entry: each metric 10, two peak fields.
    fn synthetic() -> Value {
        let mut file = Value::Object(BTreeMap::new());
        for (entry, check) in GATES {
            set(&mut file, entry, "parity", true.into());
            match check {
                Check::Metric { field, .. } => set(&mut file, entry, field, 10.0.into()),
                Check::PeakBytes { .. } => {
                    set(&mut file, entry, "peak_stream_bytes", 1000.0.into());
                    set(&mut file, entry, "peak_full_bytes", 5000.0.into());
                }
            }
        }
        file
    }

    fn set(file: &mut Value, entry: &str, field: &str, value: Value) {
        let Value::Object(entries) = file else {
            unreachable!("files are objects")
        };
        let fields = entries
            .entry(entry.to_string())
            .or_insert_with(|| Value::Object(BTreeMap::new()));
        let Value::Object(fields) = fields else {
            unreachable!("entries are objects")
        };
        fields.insert(field.to_string(), value);
    }

    fn remove(file: &mut Value, entry: &str, field: Option<&str>) {
        let Value::Object(entries) = file else {
            unreachable!("files are objects")
        };
        match (field, entries.get_mut(entry)) {
            (None, _) => {
                entries.remove(entry);
            }
            (Some(field), Some(Value::Object(fields))) => {
                fields.remove(field);
            }
            _ => unreachable!("the entry exists"),
        }
    }

    fn failures(committed: &Value, fresh: &Value) -> Vec<String> {
        check(committed, fresh)
            .into_iter()
            .filter(|row| !row.passed)
            .map(|row| row.name)
            .collect()
    }

    #[test]
    fn gate_table_covers_every_measured_entry() {
        let mut gated: Vec<&str> = GATES.iter().map(|(entry, _)| *entry).collect();
        gated.dedup();
        let measured: Vec<&str> = ENTRIES.iter().map(|(name, _)| *name).collect();
        assert_eq!(gated, measured);
    }

    #[test]
    fn identical_files_pass_every_row() {
        let file = synthetic();
        let rows = check(&file, &file);
        // 7 parity rows, 11 metric rows, 2 peak rows.
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|row| row.passed), "{rows:?}");
    }

    #[test]
    fn committed_baseline_passes_against_itself() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
        let text = std::fs::read_to_string(path).expect("BENCH.json is committed");
        let committed = serde_json::from_str(&text).expect("BENCH.json parses");
        assert_eq!(failures(&committed, &committed), Vec::<String>::new());
    }

    #[test]
    fn metric_below_its_floor_fails_naming_the_row() {
        let committed = synthetic();
        let mut fresh = synthetic();
        // lane_speedup may drop 25%: 7.5 passes, just below fails.
        set(&mut fresh, "replay", "lane_speedup", 7.5.into());
        assert!(failures(&committed, &fresh).is_empty());
        set(&mut fresh, "replay", "lane_speedup", 7.49.into());
        assert_eq!(failures(&committed, &fresh), ["replay.lane_speedup"]);
        // The same drop is inside the search row's 90% bound.
        set(&mut fresh, "replay", "lane_speedup", 10.0.into());
        set(&mut fresh, "search", "speedup", 7.49.into());
        assert!(failures(&committed, &fresh).is_empty());
    }

    #[test]
    fn missing_entry_or_metric_fails() {
        let committed = synthetic();
        let mut fresh = synthetic();
        remove(&mut fresh, "search", None);
        assert_eq!(
            failures(&committed, &fresh),
            ["search.parity", "search.speedup"]
        );
        let mut fresh = synthetic();
        remove(&mut fresh, "telemetry", Some("overhead_ratio"));
        assert_eq!(failures(&committed, &fresh), ["telemetry.overhead_ratio"]);
        // A committed file missing a gated metric fails too.
        assert_eq!(failures(&fresh, &committed), ["telemetry.overhead_ratio"]);
    }

    #[test]
    fn parity_false_in_either_file_fails() {
        let mut bad = synthetic();
        set(&mut bad, "sweep", "parity", false.into());
        assert_eq!(failures(&synthetic(), &bad), ["sweep.parity"]);
        assert_eq!(failures(&bad, &synthetic()), ["sweep.parity"]);
    }

    #[test]
    fn peak_above_its_ceiling_fails() {
        let committed = synthetic();
        let mut fresh = synthetic();
        // Growth ≤ 7.0: 8× the committed peak is the ceiling.
        set(&mut fresh, "aggregate", "peak_stream_bytes", 8000.0.into());
        assert!(failures(&committed, &fresh).is_empty());
        set(&mut fresh, "aggregate", "peak_stream_bytes", 8001.0.into());
        assert_eq!(
            failures(&committed, &fresh),
            ["aggregate.peak_stream_bytes"]
        );
        remove(&mut fresh, "aggregate", Some("peak_full_bytes"));
        assert_eq!(
            failures(&committed, &fresh),
            ["aggregate.peak_full_bytes", "aggregate.peak_stream_bytes"]
        );
    }

    #[test]
    fn every_failure_is_reported() {
        let committed = synthetic();
        let mut fresh = synthetic();
        set(&mut fresh, "simkernel", "speedup", 1.0.into());
        set(&mut fresh, "tracecache", "parity", false.into());
        set(&mut fresh, "aggregate", "peak_full_bytes", 1e9.into());
        remove(&mut fresh, "replay", Some("partial_analytic_speedup"));
        assert_eq!(
            failures(&committed, &fresh),
            [
                "tracecache.parity",
                "simkernel.speedup",
                "aggregate.peak_full_bytes",
                "replay.partial_analytic_speedup",
            ]
        );
    }

    #[test]
    fn measurement_builds_its_entry() {
        let m = Measurement::new("w".into())
            .with("speedup", 2.5)
            .with("parity", true);
        assert_eq!(m.num("speedup"), 2.5);
        assert!(m.parity());
        assert!(!Measurement::new("w".into()).parity());
        let json = m.to_json_value();
        assert_eq!(json.get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(m.to_string(), "w\n  parity true\n  speedup 2.5000");
    }
}
