//! The metric tables (names and units, mirrored by `BENCHMARK.json`), the
//! order statistics behind them, and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cold_ms_p90", "ms"),
    ("warm_ms_p90", "ms"),
    ("node_slots_per_s_p10", "1/s"),
    ("peak_alloc_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. Layers a workload
/// does not reach read 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("parallel.threads", "count"),
    ("sweep.parse_ms", "ms"),
    ("sweep.serialize_ms", "ms"),
    ("search.key_us", "us"),
    ("sweep.adjacency_ms", "ms"),
    ("compiled.compile_ms", "ms"),
    ("compiled.assign_ms", "ms"),
    ("tiling.sublattice_search_ms", "ms"),
    ("coloring.conflict_graph_ms", "ms"),
    ("coloring.generators_ms", "ms"),
    ("frames.plan_ms", "ms"),
    ("frames.plan_count", "count"),
    ("simkernel.trace_ms", "ms"),
    ("simkernel.trace_count", "count"),
    ("simkernel.trace_mb", "MB"),
    ("simkernel.run_ms", "ms"),
    ("simkernel.run_node_slots_per_s", "1/s"),
    ("simkernel.lanes_ms", "ms"),
    ("simkernel.lanes_node_slots_per_s", "1/s"),
    ("aggregate.fold_ms", "ms"),
    ("aggregate.merge_us", "us"),
    ("store.cold.schedules.misses", "count"),
    ("store.cold.adjacencies.misses", "count"),
    ("store.cold.plans.misses", "count"),
    ("store.cold.traces.misses", "count"),
    ("store.cold.searches.misses", "count"),
    ("store.warm.schedules.hits", "count"),
    ("store.warm.adjacencies.hits", "count"),
    ("store.warm.plans.hits", "count"),
    ("store.warm.traces.hits", "count"),
    ("store.warm.searches.hits", "count"),
    ("store.warm_lookup_ms", "ms"),
    ("sweep.redundant_run_share", "ratio"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.cold_request_ms", "ms"),
    ("trace.warm_request_ms", "ms"),
];

/// The layer metrics whose times add up to one cold request
/// (`trace.layer_sum_ms`); `_us` entries are converted to milliseconds.
pub const LAYER_SUM_PARTS: [&str; 15] = [
    "sweep.parse_ms",
    "sweep.serialize_ms",
    "search.key_us",
    "sweep.adjacency_ms",
    "compiled.compile_ms",
    "compiled.assign_ms",
    "tiling.sublattice_search_ms",
    "coloring.conflict_graph_ms",
    "coloring.generators_ms",
    "frames.plan_ms",
    "simkernel.trace_ms",
    "simkernel.run_ms",
    "simkernel.lanes_ms",
    "aggregate.fold_ms",
    "aggregate.merge_us",
];

/// The median of a sample (the mean of the middle pair for even sizes); 0
/// for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of a sample; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Request accounting of one run: every attempt, and every attempt that
/// returned an error, panicked or failed its output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one failed attempt and says why on stderr.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {what} failed: {why}");
    }
}

/// The result line of one run.
pub struct BenchResult {
    pub tally: Tally,
    /// Metric name → value; units come from the metric tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The table the metrics belong to.
    pub table: &'static [(&'static str, &'static str)],
}

impl BenchResult {
    /// The one-line JSON object the benchmark prints last. `correct` holds
    /// when no attempt failed and every metric of the table was measured.
    pub fn to_json_line(&self) -> String {
        let mut correct = self.tally.failed == 0 && self.tally.attempted > 0;
        let mut entries = Vec::with_capacity(self.table.len());
        for &(name, unit) in self.table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    eprintln!("perfbench: metric {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            entries.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            entries.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&values, 0.9), 5.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 90.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn layer_sum_parts_are_per_layer_metrics() {
        for part in LAYER_SUM_PARTS {
            assert!(PER_LAYER.iter().any(|&(name, _)| name == part), "{part}");
        }
    }
}
