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
            match value.as_f64() {
                Some(n) if n.fract() != 0.0 => write!(f, "\n  {field} {n:.4}")?,
                _ => write!(f, "\n  {field} {value}")?,
            }
        }
        Ok(())
    }
}

/// Wall clock of one run of `run`, in milliseconds.
pub(crate) fn time_ms(run: impl FnOnce()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of a nonempty list of timings (the upper middle one of an
/// even count).
pub(crate) fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median wall clock of `samples` (at least one) runs of `run`, in
/// milliseconds.
pub(crate) fn median_ms(samples: usize, mut run: impl FnMut()) -> f64 {
    median((0..samples.max(1)).map(|_| time_ms(&mut run)).collect())
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
    // 100 000 runs: 4 periods × 5 retry budgets × 5 000 seeds, 2 samples;
    // then 160 seeds of the tiling × Bernoulli trace-streaming grid.
    ("aggregate", || Ok(measure_aggregate(5_000, 160, 2)?)),
    // The builtin Figure-2 search cold against warm, median of 3 per side
    // (a warm sample is the mean of 100 searches); then a 2-run search cold
    // at windows 16 and 64, median of 3 each.
    ("search", || Ok(measure_search(3, 16, 64)?)),
    // Moore 64×64, 1 024 slots per run, median of 3 per side.
    ("replay", || Ok(measure_replay(64, 1024, 3)?)),
    // The warm acceptance sweep unprofiled and profiled, alternating, median
    // of 15 per side.
    ("telemetry", || Ok(measure_telemetry(64, 512, 15)?)),
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
    /// A higher-is-better ratio of two recorded timings, named `name` and
    /// gated like [`Check::Metric`]: the `numerator` field of another entry
    /// (`(entry, field)`) over this entry's `denominator` field. Both files
    /// already hold both fields, so the row needs no field of its own.
    Ratio {
        /// The row's name after the entry's.
        name: &'static str,
        /// The reference timing: an entry and one of its fields.
        numerator: (&'static str, &'static str),
        /// This entry's timed field.
        denominator: &'static str,
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
    // Each side is the median of three fills of the 96-item mixed grid: 48
    // clean-plan runs through the general loop's bitset passes and 48
    // closed-form replays, 90–265 ms a fill on a 2-vCPU host. One worker
    // measures stealing ≈ the static split by design, so the ratio sits near
    // 1.0, and host load between the two back-to-back medians moves it by
    // tens of percent. A multi-core runner measures > 1.0; `cargo bench`
    // asserts the thread-count-dependent floor.
    ("sweep", metric("steal_speedup", 0.4)),
    // The warm sweep against the reference simulator on the same 64-run
    // grid, both timed in the same process. Cold ÷ warm (the entry's
    // `speedup`, still recorded) fell whenever trace builds, the cold side,
    // got faster; this ratio moves only with the warm path.
    (
        "tracecache",
        Check::Ratio {
            name: "warm_speedup",
            numerator: ("sweep", "reference_ms"),
            denominator: "warm_ms",
            max_regression: 0.25,
        },
    ),
    // The aggregate `speedup` is the full-over-streaming peak-allocation
    // ratio, and the streaming peak scales with the worker count (per-band
    // folds, kernel scratch): both bounds are wide. The tight bounds (16 MiB
    // cap, ≥ 2× reduction, fold parity) are in the entry's `parity`.
    ("aggregate", metric("speedup", 0.9)),
    ("aggregate", Check::PeakBytes { max_growth: 7.0 }),
    // A warm search is one tier-5 hit measured in microseconds (a warm
    // sample is the mean of 100), so the ratio is huge. Outcome parity, zero
    // warm misses and the optimal winner are in the entry's `parity`.
    ("search", metric("speedup", 0.9)),
    // Cold search time per node, large window over small: a search whose
    // cost grows faster than its window (a dense conflict graph, an O(n³)
    // colouring) falls far below half.
    ("search", metric("scaling_efficiency", 0.5)),
    ("replay", metric("analytic_speedup", 0.25)),
    ("replay", metric("lane_speedup", 0.25)),
    ("replay", metric("bernoulli_lane_speedup", 0.25)),
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

/// One gate row: the value `read` takes from the committed and the fresh
/// file, checked by `bound(committed, fresh)`; a value missing from either
/// file fails the row.
fn compare(
    name: String,
    read: impl Fn(&Value) -> Option<f64>,
    (committed, fresh): (&Value, &Value),
    bound: impl Fn(f64, f64) -> (bool, String),
) -> GateRow {
    match (read(committed), read(fresh)) {
        (None, _) => GateRow::new(name, false, "missing from the committed file".into()),
        (_, None) => GateRow::new(name, false, "missing from the fresh file".into()),
        (Some(was), Some(now)) => {
            let (passed, detail) = bound(was, now);
            GateRow::new(name, passed, detail)
        }
    }
}

/// Whether a higher-is-better value stays above `committed × (1 −
/// max_regression)`, and the row detail saying so.
fn floor_check(was: f64, now: f64, max_regression: f64) -> (bool, String) {
    let change = (now / was - 1.0) * 100.0;
    let floor = was * (1.0 - max_regression);
    let detail = format!(
        "{was:.4} -> {now:.4} ({change:+.1}%), floor {floor:.4} (max regression {:.0}%)",
        max_regression * 100.0
    );
    (now >= floor, detail)
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
    let number = |file: &Value, entry: &str, field: &str| {
        file.get(entry)
            .and_then(|e| e.get(field))
            .and_then(Value::as_f64)
    };
    for (entry, check) in GATES {
        match check {
            Check::Metric {
                field,
                max_regression,
            } => rows.push(compare(
                format!("{entry}.{field}"),
                |file| number(file, entry, field),
                (committed, fresh),
                |was, now| floor_check(was, now, max_regression),
            )),
            Check::Ratio {
                name,
                numerator: (num_entry, num_field),
                denominator,
                max_regression,
            } => {
                let mut row = compare(
                    format!("{entry}.{name}"),
                    |file| {
                        Some(
                            number(file, num_entry, num_field)? / number(file, entry, denominator)?,
                        )
                    },
                    (committed, fresh),
                    |was, now| floor_check(was, now, max_regression),
                );
                row.detail = format!(
                    "{num_entry}.{num_field} / {entry}.{denominator}: {}",
                    row.detail
                );
                rows.push(row);
            }
            Check::PeakBytes { max_growth } => {
                let fields: Vec<&str> = committed
                    .get(entry)
                    .and_then(Value::as_object)
                    .into_iter()
                    .flat_map(|fields| fields.keys())
                    .filter(|field| field.starts_with("peak_") && field.ends_with("_bytes"))
                    .map(String::as_str)
                    .collect();
                if fields.is_empty() {
                    rows.push(GateRow::new(
                        format!("{entry}.peak_*_bytes"),
                        false,
                        "the committed entry has no peak_*_bytes fields".into(),
                    ));
                }
                for field in fields {
                    rows.push(compare(
                        format!("{entry}.{field}"),
                        |file| number(file, entry, field),
                        (committed, fresh),
                        |was, now| {
                            let change = (now / was - 1.0) * 100.0;
                            let ceiling = was * (1.0 + max_growth);
                            let detail = format!(
                                "{was:.0} -> {now:.0} bytes ({change:+.1}%), ceiling \
                                 {ceiling:.0} (max growth {:.0}%)",
                                max_growth * 100.0
                            );
                            (now <= ceiling, detail)
                        },
                    ));
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file holding every gated entry: each metric and each field a ratio
    /// reads 10, two peak fields.
    fn synthetic() -> Value {
        let mut file = Value::Object(BTreeMap::new());
        for (entry, check) in GATES {
            set(&mut file, entry, "parity", true.into());
            match check {
                Check::Metric { field, .. } => set(&mut file, entry, field, 10.0.into()),
                Check::Ratio {
                    numerator: (num_entry, num_field),
                    denominator,
                    ..
                } => {
                    set(&mut file, num_entry, num_field, 10.0.into());
                    set(&mut file, entry, denominator, 10.0.into());
                }
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
        // 7 parity rows, 10 metric rows, 1 ratio row, 2 peak rows.
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
        // The warm ratio may drop 25% too: a warm sweep 1.333× as slow passes,
        // a slower one fails, and so does a faster reference simulator.
        set(&mut fresh, "tracecache", "warm_ms", 13.33.into());
        assert!(failures(&committed, &fresh).is_empty());
        set(&mut fresh, "tracecache", "warm_ms", 13.34.into());
        assert_eq!(failures(&committed, &fresh), ["tracecache.warm_speedup"]);
        set(&mut fresh, "tracecache", "warm_ms", 10.0.into());
        set(&mut fresh, "sweep", "reference_ms", 7.49.into());
        assert_eq!(failures(&committed, &fresh), ["tracecache.warm_speedup"]);
        // Cold over warm is recorded, not gated.
        set(&mut fresh, "sweep", "reference_ms", 10.0.into());
        set(&mut fresh, "tracecache", "speedup", 1.0.into());
        assert!(failures(&committed, &fresh).is_empty());
    }

    #[test]
    fn missing_entry_or_metric_fails() {
        let committed = synthetic();
        let mut fresh = synthetic();
        remove(&mut fresh, "search", None);
        assert_eq!(
            failures(&committed, &fresh),
            [
                "search.parity",
                "search.speedup",
                "search.scaling_efficiency"
            ]
        );
        let mut fresh = synthetic();
        remove(&mut fresh, "telemetry", Some("overhead_ratio"));
        assert_eq!(failures(&committed, &fresh), ["telemetry.overhead_ratio"]);
        // A committed file missing a gated metric fails too.
        assert_eq!(failures(&fresh, &committed), ["telemetry.overhead_ratio"]);
        // A ratio row fails when either of its entries misses its field.
        let mut fresh = synthetic();
        remove(&mut fresh, "sweep", Some("reference_ms"));
        assert_eq!(failures(&committed, &fresh), ["tracecache.warm_speedup"]);
        assert_eq!(failures(&fresh, &committed), ["tracecache.warm_speedup"]);
        let mut fresh = synthetic();
        remove(&mut fresh, "tracecache", Some("warm_ms"));
        assert_eq!(failures(&committed, &fresh), ["tracecache.warm_speedup"]);
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
        remove(&mut fresh, "replay", Some("bernoulli_lane_speedup"));
        assert_eq!(
            failures(&committed, &fresh),
            [
                "tracecache.parity",
                "simkernel.speedup",
                "aggregate.peak_full_bytes",
                "replay.bernoulli_lane_speedup",
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
