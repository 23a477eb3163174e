//! Streaming sweep statistics: online per-axis folds of kernel counters.
//!
//! A full-mode sweep materializes one [`SweepRunReport`] per grid point, so on
//! million-run grids the *report* — not the kernel — becomes the memory
//! ceiling. This module provides the streaming alternative: every statistic is
//! a **commutative monoid fold** over [`KernelCounts`], so runs can be folded
//! into accumulators in any order, worker-locally, and merged at a barrier —
//! the same communication-thrifty aggregation discipline congested-clique
//! algorithms use to combine per-node summaries. Dropping per-run detail loses
//! nothing that cannot be regenerated: the counter-based RNG makes every run
//! independently replayable from its grid coordinates.
//!
//! The pieces:
//!
//! * [`FieldFold`] — count/sum/sum-of-squares/min/max of one counter field,
//!   kept in exact integer arithmetic (`u64` sums, `u128` squares) so merges
//!   are associative *bit for bit*: a streaming fold equals a sequential fold
//!   of the same runs exactly, not just approximately. Mean and variance are
//!   derived on demand.
//! * [`Log2Histogram`] — a fixed-bucket base-2 histogram (bucket `b ≥ 1`
//!   covers `[2^(b-1), 2^b)`; bucket 0 is the exact value 0) with exact
//!   percentile queries at the stored-bucket level: `percentile(q)` returns
//!   the bucket containing the `⌈q·total⌉`-th smallest observation.
//! * [`RatioHistogram`] — 65 fixed buckets over `[0, 1]` (bucket
//!   `⌊64·delivered/generated⌋`, computed in integer arithmetic), for per-run
//!   delivery ratios.
//! * [`OnlineFold`] — one fold per [`KernelCounts`] field plus a per-run
//!   mean-delivery-latency histogram and a delivery-ratio histogram.
//! * [`GroupSpec`] / [`GroupBy`] — the grouping engine: folds a sweep grid
//!   onto any subset of its axes (window, traffic, retries, seed) in
//!   O(groups) memory instead of O(runs), producing stable
//!   [`GroupReport`]s. [`fold_full_report`] applies the same grouping to a
//!   full-mode report's `per_run` list, which is how streaming results are
//!   property-tested for exact parity.

use crate::error::Result;
use crate::scenario::invalid;
use crate::simkernel::KernelCounts;
use crate::sweep::{SweepRunReport, SweepSpec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;

/// The [`KernelCounts`] field names, in declaration order — the order every
/// per-field array in this module uses.
pub const COUNT_FIELDS: [&str; 11] = [
    "packets_generated",
    "packets_delivered",
    "packets_dropped",
    "packets_pending",
    "transmissions",
    "receptions",
    "collisions",
    "total_latency",
    "tx_slots",
    "rx_slots",
    "idle_slots",
];

/// The values of one [`KernelCounts`] in [`COUNT_FIELDS`] order.
pub fn count_values(c: &KernelCounts) -> [u64; 11] {
    [
        c.packets_generated,
        c.packets_delivered,
        c.packets_dropped,
        c.packets_pending,
        c.transmissions,
        c.receptions,
        c.collisions,
        c.total_latency,
        c.tx_slots,
        c.rx_slots,
        c.idle_slots,
    ]
}

/// The online fold of one counter field: exact integer sum, sum of squares,
/// min and max. Merging two folds is associative and commutative bit for bit,
/// so per-worker partial folds combine into exactly the sequential result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FieldFold {
    /// Sum of observations.
    pub sum: u64,
    /// Sum of squared observations (exact: observations are `u64`, squares
    /// accumulate in `u128`).
    pub sum_sq: u128,
    /// Smallest observation (`u64::MAX` while empty).
    pub min: u64,
    /// Largest observation (0 while empty).
    pub max: u64,
}

impl Default for FieldFold {
    fn default() -> Self {
        FieldFold {
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl FieldFold {
    /// Folds one observation in.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.sum += v;
        self.sum_sq += u128::from(v) * u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another fold in (the monoid operation).
    pub fn merge(&mut self, other: &FieldFold) {
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean over `count` observations (0 for an empty fold).
    pub fn mean(&self, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        self.sum as f64 / count as f64
    }

    /// Population variance over `count` observations, derived from the exact
    /// integer sums (0 for an empty fold; clamped at 0 against rounding).
    pub fn variance(&self, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let mean = self.mean(count);
        (self.sum_sq as f64 / count as f64 - mean * mean).max(0.0)
    }

    /// The fold as a JSON object (min reported as 0 when empty).
    pub fn to_json_value(&self, count: u64) -> Value {
        let mut map = BTreeMap::new();
        map.insert("sum".to_string(), Value::from(self.sum));
        map.insert(
            "min".to_string(),
            Value::from(if count == 0 { 0 } else { self.min }),
        );
        map.insert("max".to_string(), Value::from(self.max));
        map.insert("mean".to_string(), Value::from(self.mean(count)));
        map.insert("variance".to_string(), Value::from(self.variance(count)));
        Value::Object(map)
    }
}

/// Number of buckets of the base-2 histogram: bucket 0 for the exact value 0,
/// buckets 1..=64 for the 64 possible bit lengths of a nonzero `u64`.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram over `u64` observations.
///
/// Bucket 0 holds the exact value 0; bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
/// Merging is element-wise addition, so the histogram is a commutative monoid
/// and percentile queries are *exact at the stored-bucket level*: the answer
/// is the bucket provably containing the requested order statistic, never an
/// interpolation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::EMPTY
    }
}

impl Log2Histogram {
    /// The histogram of no observations.
    pub(crate) const EMPTY: Log2Histogram = Log2Histogram {
        buckets: [0; LOG2_BUCKETS],
    };

    /// The bucket index of a value.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// The smallest value a bucket covers.
    pub fn bucket_lower_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << (bucket - 1)
        }
    }

    /// Folds one observation in.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Merges another histogram in (element-wise addition).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The count of one bucket.
    pub fn count(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// The bucket containing the `⌈q·total⌉`-th smallest observation
    /// (`q` clamped to `[0, 1]`; `None` when the histogram is empty).
    pub fn percentile_bucket(&self, q: f64) -> Option<usize> {
        percentile_over(&self.buckets, q)
    }

    /// The lower bound of the percentile bucket (`None` when empty) — an
    /// exact statement "the q-quantile is at least this value".
    pub fn percentile_lower_bound(&self, q: f64) -> Option<u64> {
        self.percentile_bucket(q).map(Self::bucket_lower_bound)
    }

    /// The histogram as a sparse JSON array of `[bucket, count]` pairs.
    pub fn to_json_value(&self) -> Value {
        sparse_buckets_json(&self.buckets)
    }
}

/// Number of ratio buckets: `⌊64·d/g⌋` ranges over `0..=64` for `d ≤ g`.
pub const RATIO_BUCKETS: usize = 65;

/// A fixed-bucket histogram over per-run ratios in `[0, 1]` (delivery ratios:
/// delivered / generated).
///
/// Bucket indices are computed in integer arithmetic — `⌊64·d/g⌋` — so the
/// histogram is exactly reproducible regardless of fold order. Runs with no
/// generated packets have no defined ratio and are counted separately in
/// [`RatioHistogram::undefined`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RatioHistogram {
    buckets: [u64; RATIO_BUCKETS],
    /// Observations with a zero denominator (no defined ratio).
    pub undefined: u64,
}

impl Default for RatioHistogram {
    fn default() -> Self {
        RatioHistogram {
            buckets: [0; RATIO_BUCKETS],
            undefined: 0,
        }
    }
}

impl RatioHistogram {
    /// The bucket index of `numerator / denominator` (requires
    /// `numerator ≤ denominator`).
    #[inline]
    pub fn bucket_of(numerator: u64, denominator: u64) -> usize {
        debug_assert!(numerator <= denominator && denominator > 0);
        ((u128::from(numerator) * (RATIO_BUCKETS as u128 - 1)) / u128::from(denominator)) as usize
    }

    /// The smallest ratio a bucket covers.
    pub fn bucket_lower_bound(bucket: usize) -> f64 {
        bucket as f64 / (RATIO_BUCKETS as f64 - 1.0)
    }

    /// Folds one ratio observation in (`numerator ≤ denominator`; a zero
    /// denominator counts as undefined).
    #[inline]
    pub fn observe(&mut self, numerator: u64, denominator: u64) {
        if denominator == 0 {
            self.undefined += 1;
        } else {
            self.buckets[Self::bucket_of(numerator, denominator)] += 1;
        }
    }

    /// Merges another histogram in (element-wise addition).
    pub fn merge(&mut self, other: &RatioHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.undefined += other.undefined;
    }

    /// Total defined-ratio observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The count of one bucket.
    pub fn count(&self, bucket: usize) -> u64 {
        self.buckets[bucket]
    }

    /// The bucket containing the `⌈q·total⌉`-th smallest defined ratio
    /// (`None` when no ratio is defined).
    pub fn percentile_bucket(&self, q: f64) -> Option<usize> {
        percentile_over(&self.buckets, q)
    }

    /// The lower bound of the percentile bucket (`None` when empty).
    pub fn percentile_lower_bound(&self, q: f64) -> Option<f64> {
        self.percentile_bucket(q).map(Self::bucket_lower_bound)
    }

    /// The histogram as a sparse JSON array of `[bucket, count]` pairs.
    pub fn to_json_value(&self) -> Value {
        sparse_buckets_json(&self.buckets)
    }
}

/// The bucket containing the `⌈q·total⌉`-th smallest observation of a bucket
/// array, by one cumulative walk.
fn percentile_over(buckets: &[u64], q: f64) -> Option<usize> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(i);
        }
    }
    Some(buckets.len() - 1)
}

/// Sparse `[bucket, count]` JSON encoding shared by both histograms.
fn sparse_buckets_json(buckets: &[u64]) -> Value {
    Value::Array(
        buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Array(vec![Value::from(i), Value::from(c)]))
            .collect(),
    )
}

/// The full online accumulator of one run group: a [`FieldFold`] per
/// [`KernelCounts`] field, a per-run mean-delivery-latency histogram and a
/// per-run delivery-ratio histogram.
///
/// All parts are commutative monoids over exact integers, so
/// [`OnlineFold::merge`] is associative bit for bit: folding runs worker-
/// locally and merging at a barrier yields exactly the fold of the whole
/// sequence.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct OnlineFold {
    /// Number of runs folded in.
    pub runs: u64,
    /// One fold per counter field, in [`COUNT_FIELDS`] order.
    pub fields: [FieldFold; 11],
    /// Histogram of per-run mean delivery latency (`total_latency /
    /// packets_delivered`, integer division; runs with no delivered packet
    /// contribute no observation).
    pub latency: Log2Histogram,
    /// Histogram of per-run delivery ratios (`packets_delivered /
    /// packets_generated`; runs with no generated packet count as undefined).
    pub delivery: RatioHistogram,
}

impl OnlineFold {
    /// An empty fold.
    pub fn new() -> Self {
        OnlineFold::default()
    }

    /// Folds one run's counters in.
    pub fn observe(&mut self, counts: &KernelCounts) {
        self.runs += 1;
        for (fold, v) in self.fields.iter_mut().zip(count_values(counts)) {
            fold.observe(v);
        }
        if let Some(mean_latency) = counts.total_latency.checked_div(counts.packets_delivered) {
            self.latency.observe(mean_latency);
        }
        self.delivery
            .observe(counts.packets_delivered, counts.packets_generated);
    }

    /// Merges another fold in (the monoid operation).
    pub fn merge(&mut self, other: &OnlineFold) {
        self.runs += other.runs;
        for (a, b) in self.fields.iter_mut().zip(&other.fields) {
            a.merge(b);
        }
        self.latency.merge(&other.latency);
        self.delivery.merge(&other.delivery);
    }

    /// The fold of one field, by [`COUNT_FIELDS`] name.
    pub fn field(&self, name: &str) -> Option<&FieldFold> {
        COUNT_FIELDS
            .iter()
            .position(|&f| f == name)
            .map(|i| &self.fields[i])
    }

    /// The element-wise field sums as a [`KernelCounts`] (the group's
    /// aggregate counters).
    pub fn sums(&self) -> KernelCounts {
        KernelCounts {
            packets_generated: self.fields[0].sum,
            packets_delivered: self.fields[1].sum,
            packets_dropped: self.fields[2].sum,
            packets_pending: self.fields[3].sum,
            transmissions: self.fields[4].sum,
            receptions: self.fields[5].sum,
            collisions: self.fields[6].sum,
            total_latency: self.fields[7].sum,
            tx_slots: self.fields[8].sum,
            rx_slots: self.fields[9].sum,
            idle_slots: self.fields[10].sum,
        }
    }

    /// Aggregate delivery ratio (sum of delivered / sum of generated; 0 when
    /// nothing was generated).
    pub fn delivery_ratio(&self) -> f64 {
        let generated = self.fields[0].sum;
        if generated == 0 {
            0.0
        } else {
            self.fields[1].sum as f64 / generated as f64
        }
    }

    /// The fold as a stable JSON object: per-field statistics (keyed by field
    /// name), both histograms and their p50/p90/p99 bucket lower bounds.
    pub fn to_json_value(&self) -> Value {
        let mut stats = BTreeMap::new();
        for (name, fold) in COUNT_FIELDS.iter().zip(&self.fields) {
            stats.insert(name.to_string(), fold.to_json_value(self.runs));
        }
        let mut map = BTreeMap::new();
        map.insert("runs".to_string(), Value::from(self.runs));
        map.insert(
            "stats".to_string(),
            Value::Object(stats.into_iter().collect()),
        );
        map.insert(
            "latency_log2_hist".to_string(),
            self.latency.to_json_value(),
        );
        for (key, q) in [
            ("latency_p50", 0.50),
            ("latency_p90", 0.90),
            ("latency_p99", 0.99),
        ] {
            map.insert(
                key.to_string(),
                self.latency
                    .percentile_lower_bound(q)
                    .map_or(Value::Null, Value::from),
            );
        }
        map.insert("delivery_hist".to_string(), self.delivery.to_json_value());
        map.insert(
            "delivery_undefined_runs".to_string(),
            Value::from(self.delivery.undefined),
        );
        for (key, q) in [("delivery_p10", 0.10), ("delivery_p50", 0.50)] {
            map.insert(
                key.to_string(),
                self.delivery
                    .percentile_lower_bound(q)
                    .map_or(Value::Null, Value::from),
            );
        }
        Value::Object(map)
    }
}

/// One grid axis a sweep can be grouped by. The canonical order —
/// window, traffic, retries, seed — mirrors the sweep's grid expansion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum GroupAxis {
    /// The deployment window axis.
    Window,
    /// The traffic axis (Bernoulli load or period; `load` is accepted as an
    /// alias when parsing).
    Traffic,
    /// The retry-budget axis.
    Retries,
    /// The RNG-seed axis.
    Seed,
}

impl GroupAxis {
    /// The canonical axis name.
    pub fn name(self) -> &'static str {
        match self {
            GroupAxis::Window => "window",
            GroupAxis::Traffic => "traffic",
            GroupAxis::Retries => "retries",
            GroupAxis::Seed => "seed",
        }
    }

    fn parse(name: &str) -> Result<GroupAxis> {
        match name.trim() {
            "window" => Ok(GroupAxis::Window),
            "traffic" | "load" => Ok(GroupAxis::Traffic),
            "retries" => Ok(GroupAxis::Retries),
            "seed" => Ok(GroupAxis::Seed),
            other => Err(invalid(&format!(
                "unknown group axis '{other}' (expected window, traffic/load, retries or seed)"
            ))),
        }
    }

    fn index(self) -> usize {
        match self {
            GroupAxis::Window => 0,
            GroupAxis::Traffic => 1,
            GroupAxis::Retries => 2,
            GroupAxis::Seed => 3,
        }
    }
}

/// The axes a streaming sweep folds onto: any subset of the grid axes, kept
/// deduplicated in canonical order. The empty spec folds the whole grid into
/// one global group.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GroupSpec {
    axes: Vec<GroupAxis>,
}

impl GroupSpec {
    /// A spec over the given axes (deduplicated, canonical order).
    pub fn new(axes: impl IntoIterator<Item = GroupAxis>) -> Self {
        let mut axes: Vec<GroupAxis> = axes.into_iter().collect();
        axes.sort_unstable();
        axes.dedup();
        GroupSpec { axes }
    }

    /// Parses a comma-separated axis list (e.g. `"load,retries"`; the empty
    /// string yields the empty spec).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::InvalidSpec`] for an unknown axis name.
    pub fn parse(list: &str) -> Result<Self> {
        let names: Vec<&str> = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        Ok(GroupSpec::new(
            names
                .into_iter()
                .map(GroupAxis::parse)
                .collect::<Result<Vec<GroupAxis>>>()?,
        ))
    }

    /// Parses a JSON array of axis-name strings.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::InvalidSpec`] for non-string entries or
    /// unknown axis names.
    pub fn from_json(value: &Value) -> Result<Self> {
        let items = value
            .as_array()
            .ok_or_else(|| invalid("'group_by' must be an array of axis names"))?;
        Ok(GroupSpec::new(
            items
                .iter()
                .map(|item| {
                    item.as_str()
                        .ok_or_else(|| invalid("'group_by' entries must be strings"))
                        .and_then(GroupAxis::parse)
                })
                .collect::<Result<Vec<GroupAxis>>>()?,
        ))
    }

    /// The selected axes, in canonical order.
    pub fn axes(&self) -> &[GroupAxis] {
        &self.axes
    }

    /// Whether no axis is selected (one global group).
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The axis names as a JSON array.
    pub fn to_json_value(&self) -> Value {
        Value::Array(self.axes.iter().map(|a| Value::from(a.name())).collect())
    }
}

impl fmt::Display for GroupSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.axes.iter().map(|a| a.name()).collect();
        write!(f, "{}", names.join(","))
    }
}

/// The coordinate values identifying one group: the selected axes' values
/// (unselected axes are `None` — the group spans them).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct GroupKey {
    /// Window side length, when grouped by window.
    pub window: Option<i64>,
    /// Traffic description, when grouped by traffic.
    pub traffic: Option<String>,
    /// Retry budget, when grouped by retries.
    pub retries: Option<u32>,
    /// RNG seed, when grouped by seed.
    pub seed: Option<u64>,
}

impl GroupKey {
    /// The key as a JSON object holding only the selected axes.
    pub fn to_json_value(&self) -> Value {
        let mut map = BTreeMap::new();
        if let Some(w) = self.window {
            map.insert("window".to_string(), Value::from(w));
        }
        if let Some(t) = &self.traffic {
            map.insert("traffic".to_string(), Value::from(t.clone()));
        }
        if let Some(r) = self.retries {
            map.insert("retries".to_string(), Value::from(u64::from(r)));
        }
        if let Some(s) = self.seed {
            map.insert("seed".to_string(), Value::from(s));
        }
        Value::Object(map)
    }
}

impl fmt::Display for GroupKey {
    /// `axis=value` pairs in canonical order, or `(all)` for the global group.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(w) = self.window {
            parts.push(format!("window={w}"));
        }
        if let Some(t) = &self.traffic {
            parts.push(format!("traffic={t}"));
        }
        if let Some(r) = self.retries {
            parts.push(format!("retries={r}"));
        }
        if let Some(s) = self.seed {
            parts.push(format!("seed={s}"));
        }
        if parts.is_empty() {
            write!(f, "(all)")
        } else {
            write!(f, "{}", parts.join(" "))
        }
    }
}

/// One group of a streaming (or grouped full-mode) sweep: its key and its
/// fold.
#[derive(Clone, PartialEq, Debug)]
pub struct GroupReport {
    /// The selected axes' values.
    pub key: GroupKey,
    /// The online fold of every run in the group.
    pub fold: OnlineFold,
}

impl GroupReport {
    /// The report as a stable JSON object.
    pub fn to_json_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("key".to_string(), self.key.to_json_value());
        if let Value::Object(fold) = self.fold.to_json_value() {
            map.extend(fold);
        }
        Value::Object(map)
    }
}

/// Upper bound on the number of groups a sweep may fold into: the report is
/// O(groups), so this caps accidental per-run-sized groupings of huge grids
/// at a few hundred MiB instead of letting them exhaust memory.
pub const MAX_GROUPS: usize = 1 << 16;

/// The grouping engine of one sweep grid: maps run indices (in the sweep's
/// expansion order, windows × traffic × retries × seeds) to group ids and
/// back to group keys.
#[derive(Clone, Debug)]
pub struct GroupBy {
    spec: GroupSpec,
    /// Axis lengths: windows, traffic, retries, seeds.
    dims: [usize; 4],
    /// Whether each canonical axis is selected.
    selected: [bool; 4],
    groups: usize,
}

impl GroupBy {
    /// The grouping of a sweep grid by the given spec.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::InvalidSpec`] when the grouping would
    /// produce more than [`MAX_GROUPS`] groups.
    pub fn for_spec(spec: &SweepSpec, group_spec: &GroupSpec) -> Result<GroupBy> {
        let dims = [
            spec.windows.len(),
            spec.traffic.len(),
            spec.retries.len(),
            spec.seeds.len(),
        ];
        let mut selected = [false; 4];
        for axis in group_spec.axes() {
            selected[axis.index()] = true;
        }
        let mut groups = 1usize;
        for (i, &dim) in dims.iter().enumerate() {
            if selected[i] {
                groups = groups.saturating_mul(dim);
            }
        }
        if groups > MAX_GROUPS {
            return Err(invalid(&format!(
                "grouping by '{group_spec}' yields {groups} groups (max {MAX_GROUPS})"
            )));
        }
        Ok(GroupBy {
            spec: group_spec.clone(),
            dims,
            selected,
            groups,
        })
    }

    /// The grouping spec.
    pub fn spec(&self) -> &GroupSpec {
        &self.spec
    }

    /// Number of groups (1 for the empty spec).
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// The grid coordinates (window, traffic, retries, seed indices) of a run
    /// index in expansion order.
    #[inline]
    fn coords_of_run(&self, run: usize) -> [usize; 4] {
        let [_, t, r, s] = self.dims;
        [run / (s * r * t), run / (s * r) % t, run / s % r, run % s]
    }

    /// The group id of a run index.
    #[inline]
    pub fn group_of_run(&self, run: usize) -> usize {
        let coords = self.coords_of_run(run);
        let mut g = 0usize;
        for ((&selected, &dim), &coord) in self.selected.iter().zip(&self.dims).zip(&coords) {
            if selected {
                g = g * dim + coord;
            }
        }
        g
    }

    /// The selected axes' coordinate indices of a group id (unselected axes
    /// are `None`).
    pub fn coords_of_group(&self, mut group: usize) -> [Option<usize>; 4] {
        let mut coords = [None; 4];
        for i in (0..4).rev() {
            if self.selected[i] {
                coords[i] = Some(group % self.dims[i]);
                group /= self.dims[i];
            }
        }
        coords
    }

    /// Folds an in-order sequence of run counters (starting at run index
    /// `offset`) into dense per-group accumulators of length
    /// [`GroupBy::num_groups`].
    pub fn fold_counts<'a>(
        &self,
        offset: usize,
        counts: impl IntoIterator<Item = &'a KernelCounts>,
    ) -> Vec<OnlineFold> {
        let mut folds = vec![OnlineFold::new(); self.groups];
        for (i, c) in counts.into_iter().enumerate() {
            folds[self.group_of_run(offset + i)].observe(c);
        }
        folds
    }

    /// Attaches group keys to dense per-group folds, in group-id order.
    pub fn reports(&self, spec: &SweepSpec, folds: Vec<OnlineFold>) -> Vec<GroupReport> {
        debug_assert_eq!(folds.len(), self.groups);
        folds
            .into_iter()
            .enumerate()
            .map(|(g, fold)| {
                let [w, t, r, s] = self.coords_of_group(g);
                GroupReport {
                    key: GroupKey {
                        window: w.map(|i| spec.windows[i]),
                        traffic: t.map(|i| spec.traffic.label(i)),
                        retries: r.map(|i| spec.retries[i]),
                        seed: s.map(|i| spec.seeds.get(i)),
                    },
                    fold,
                }
            })
            .collect()
    }
}

/// Dense worker-local per-group accumulators: a fixed `u32` index vector (one
/// slot per group) pointing into a compact vector of folds for the groups the
/// worker actually touched, plus the touched-group list.
///
/// Streaming sweeps and search evaluations fold every run into a per-band
/// accumulator; near [`MAX_GROUPS`] a per-band `HashMap` spends most of its
/// fold time hashing and probing. Here an observation is one array read (plus,
/// on a group's first touch, one push), the index costs 4 bytes per group
/// (256 KiB at [`MAX_GROUPS`]) and fold storage stays proportional to the
/// groups the band actually saw. Within one band every group owns exactly one
/// fold, so [`GroupFolds::merge_into`] reproduces the per-group sequential
/// fold bit for bit whenever bands are merged in a fixed order.
#[derive(Clone, Debug, Default)]
pub struct GroupFolds {
    /// Group id → slot in `folds` (`u32::MAX` marks an untouched group).
    index: Vec<u32>,
    /// One fold per touched group, in first-touch order.
    folds: Vec<OnlineFold>,
    /// The touched group ids, parallel to `folds`.
    touched: Vec<u32>,
}

impl GroupFolds {
    const UNTOUCHED: u32 = u32::MAX;

    /// Empty accumulators over `num_groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `num_groups` does not fit the `u32` index (far above
    /// [`MAX_GROUPS`]).
    pub fn new(num_groups: usize) -> Self {
        assert!(
            num_groups < Self::UNTOUCHED as usize,
            "{num_groups} groups exceed the dense u32 index"
        );
        GroupFolds {
            index: vec![Self::UNTOUCHED; num_groups],
            folds: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The number of groups the accumulator covers.
    pub fn num_groups(&self) -> usize {
        self.index.len()
    }

    /// The number of groups touched so far.
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// Whether no run has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// Folds one run's counters into its group (first touch allocates the
    /// group's fold).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[inline]
    pub fn observe(&mut self, group: usize, counts: &KernelCounts) {
        let mut slot = self.index[group];
        if slot == Self::UNTOUCHED {
            slot = self.folds.len() as u32;
            self.index[group] = slot;
            self.folds.push(OnlineFold::new());
            self.touched.push(group as u32);
        }
        self.folds[slot as usize].observe(counts);
    }

    /// The touched groups and their folds, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &OnlineFold)> + '_ {
        self.touched
            .iter()
            .zip(&self.folds)
            .map(|(&g, fold)| (g as usize, fold))
    }

    /// Merges every touched fold into a dense per-group vector indexed by
    /// group id.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is shorter than [`GroupFolds::num_groups`].
    pub fn merge_into(&self, dense: &mut [OnlineFold]) {
        for (group, fold) in self.iter() {
            dense[group].merge(fold);
        }
    }
}

/// Folds a full-mode report's per-run list onto the given axes — the exact
/// sequential counterpart of a streaming sweep's worker-local folds, used to
/// property-test streaming parity and to print group tables for full-mode
/// sweeps.
///
/// # Errors
///
/// Returns [`crate::EngineError::InvalidSpec`] when `per_run` does not cover
/// the spec's grid exactly, or the grouping exceeds [`MAX_GROUPS`].
pub fn fold_full_report(
    spec: &SweepSpec,
    group_spec: &GroupSpec,
    per_run: &[SweepRunReport],
) -> Result<Vec<GroupReport>> {
    if per_run.len() != spec.num_runs() {
        return Err(invalid(&format!(
            "per-run list covers {} runs, the spec grid has {}",
            per_run.len(),
            spec.num_runs()
        )));
    }
    let grouping = GroupBy::for_spec(spec, group_spec)?;
    let folds = grouping.fold_counts(0, per_run.iter().map(|r| &r.counts));
    Ok(grouping.reports(spec, folds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{builtin_sweep, SweepTraffic};

    fn counts(generated: u64, delivered: u64, latency: u64) -> KernelCounts {
        KernelCounts {
            packets_generated: generated,
            packets_delivered: delivered,
            total_latency: latency,
            ..KernelCounts::default()
        }
    }

    #[test]
    fn field_fold_tracks_exact_moments() {
        let mut fold = FieldFold::default();
        for v in [3u64, 5, 7] {
            fold.observe(v);
        }
        assert_eq!(fold.sum, 15);
        assert_eq!(fold.sum_sq, 9 + 25 + 49);
        assert_eq!((fold.min, fold.max), (3, 7));
        assert!((fold.mean(3) - 5.0).abs() < 1e-12);
        // Population variance of {3,5,7} is 8/3.
        assert!((fold.variance(3) - 8.0 / 3.0).abs() < 1e-12);
        // Merging two partial folds equals the sequential fold exactly.
        let mut a = FieldFold::default();
        let mut b = FieldFold::default();
        a.observe(3);
        b.observe(5);
        b.observe(7);
        a.merge(&b);
        assert_eq!(a, fold);
        // The empty fold is the merge identity.
        let mut with_identity = fold;
        with_identity.merge(&FieldFold::default());
        assert_eq!(with_identity, fold);
        assert_eq!(FieldFold::default().mean(0), 0.0);
        assert_eq!(FieldFold::default().variance(0), 0.0);
    }

    #[test]
    fn log2_histogram_buckets_and_percentiles_are_exact() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Log2Histogram::bucket_lower_bound(1), 1);
        assert_eq!(Log2Histogram::bucket_lower_bound(64), 1 << 63);

        let mut h = Log2Histogram::default();
        assert_eq!(h.percentile_bucket(0.5), None);
        // 4 observations: 0, 1, 5, 9 → buckets 0, 1, 3, 4.
        for v in [0u64, 1, 5, 9] {
            h.observe(v);
        }
        assert_eq!(h.total(), 4);
        // p25 → 1st smallest (bucket 0); p50 → 2nd (bucket 1); p75 → 3rd
        // (bucket 3); p100 → 4th (bucket 4).
        assert_eq!(h.percentile_bucket(0.25), Some(0));
        assert_eq!(h.percentile_bucket(0.5), Some(1));
        assert_eq!(h.percentile_bucket(0.75), Some(3));
        assert_eq!(h.percentile_bucket(1.0), Some(4));
        assert_eq!(h.percentile_lower_bound(0.75), Some(4));
        // q = 0 clamps to the smallest observation.
        assert_eq!(h.percentile_bucket(0.0), Some(0));

        // Merge is element-wise addition.
        let mut a = Log2Histogram::default();
        a.observe(5);
        let mut b = Log2Histogram::default();
        b.observe(9);
        a.merge(&b);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.count(4), 1);
        let json = h.to_json_value();
        assert_eq!(json.as_array().unwrap().len(), 4, "sparse buckets only");
    }

    #[test]
    fn ratio_histogram_buckets_in_integer_arithmetic() {
        assert_eq!(RatioHistogram::bucket_of(0, 10), 0);
        assert_eq!(RatioHistogram::bucket_of(10, 10), 64);
        assert_eq!(RatioHistogram::bucket_of(5, 10), 32);
        assert_eq!(RatioHistogram::bucket_of(1, 3), 21); // ⌊64/3⌋
        let mut h = RatioHistogram::default();
        h.observe(3, 4);
        h.observe(4, 4);
        h.observe(0, 0); // undefined
        assert_eq!(h.total(), 2);
        assert_eq!(h.undefined, 1);
        assert_eq!(h.percentile_bucket(0.5), Some(48));
        assert_eq!(h.percentile_lower_bound(1.0), Some(1.0));
        assert_eq!(RatioHistogram::bucket_lower_bound(32), 0.5);
    }

    #[test]
    fn online_fold_merge_equals_sequential_fold() {
        let runs: Vec<KernelCounts> = (0..10).map(|i| counts(10 + i, 5 + i / 2, 30 * i)).collect();
        let mut sequential = OnlineFold::new();
        for c in &runs {
            sequential.observe(c);
        }
        assert_eq!(sequential.runs, 10);
        // Any split point merges to the same fold, bit for bit.
        for split in 0..=runs.len() {
            let (left, right) = runs.split_at(split);
            let mut a = OnlineFold::new();
            let mut b = OnlineFold::new();
            for c in left {
                a.observe(c);
            }
            for c in right {
                b.observe(c);
            }
            a.merge(&b);
            assert_eq!(a, sequential, "split at {split}");
        }
        assert_eq!(sequential.sums().packets_generated, (10..20).sum::<u64>());
        assert!(sequential.delivery_ratio() > 0.0);
        assert_eq!(
            sequential.field("packets_generated").unwrap().min,
            10,
            "field lookup by name"
        );
        assert!(sequential.field("no_such_field").is_none());
        let json = sequential.to_json_value();
        assert_eq!(json.get("runs").unwrap().as_u64(), Some(10));
        assert!(json.get("stats").unwrap().get("collisions").is_some());
    }

    #[test]
    fn latency_observations_skip_undelivered_runs() {
        let mut fold = OnlineFold::new();
        fold.observe(&counts(4, 0, 0)); // nothing delivered: no latency sample
        fold.observe(&counts(4, 2, 12)); // mean latency 6 → bucket 3
        assert_eq!(fold.latency.total(), 1);
        assert_eq!(fold.latency.count(3), 1);
        // A zero-generation run counts as undefined delivery.
        fold.observe(&counts(0, 0, 0));
        assert_eq!(fold.delivery.undefined, 1);
        assert_eq!(fold.runs, 3);
    }

    #[test]
    fn group_spec_parses_dedupes_and_orders() {
        let spec = GroupSpec::parse("retries, load").unwrap();
        assert_eq!(spec.axes(), &[GroupAxis::Traffic, GroupAxis::Retries]);
        assert_eq!(spec.to_string(), "traffic,retries");
        let spec = GroupSpec::parse("seed,window,seed").unwrap();
        assert_eq!(spec.axes(), &[GroupAxis::Window, GroupAxis::Seed]);
        assert!(GroupSpec::parse("").unwrap().is_empty());
        assert!(GroupSpec::parse("warp").is_err());
        let json: Value = serde_json::from_str(r#"["retries", "traffic"]"#).unwrap();
        assert_eq!(
            GroupSpec::from_json(&json).unwrap().axes(),
            &[GroupAxis::Traffic, GroupAxis::Retries]
        );
        assert!(GroupSpec::from_json(&Value::from(3u64)).is_err());
        assert_eq!(
            GroupSpec::parse("seed").unwrap().to_json_value(),
            serde_json::from_str(r#"["seed"]"#).unwrap()
        );
    }

    fn grid_spec() -> SweepSpec {
        SweepSpec {
            windows: vec![8, 16],
            traffic: SweepTraffic::Bernoulli(vec![0.1, 0.2, 0.3]),
            retries: vec![0, 2],
            seeds: vec![1, 2, 3, 4, 5].into(),
            ..builtin_sweep()
        }
    }

    #[test]
    fn group_ids_partition_the_grid() {
        let spec = grid_spec();
        let gspec = GroupSpec::parse("traffic,retries").unwrap();
        let grouping = GroupBy::for_spec(&spec, &gspec).unwrap();
        assert_eq!(grouping.num_groups(), 3 * 2);
        // Every run lands in exactly one group; group sizes are the product of
        // the unselected axes.
        let mut sizes = vec![0usize; grouping.num_groups()];
        for run in 0..spec.num_runs() {
            sizes[grouping.group_of_run(run)] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 2 * 5));
        // Keys carry exactly the selected axes, in group-id order.
        let folds = vec![OnlineFold::new(); grouping.num_groups()];
        let reports = grouping.reports(&spec, folds);
        assert_eq!(reports.len(), 6);
        assert_eq!(
            reports[0].key.traffic.as_deref(),
            Some("bernoulli(p=0.100)")
        );
        assert_eq!(reports[0].key.retries, Some(0));
        assert_eq!(reports[1].key.retries, Some(2));
        assert_eq!(
            reports[5].key.traffic.as_deref(),
            Some("bernoulli(p=0.300)")
        );
        assert!(reports[0].key.window.is_none());
        assert!(reports[0].key.seed.is_none());
        assert!(reports[0].key.to_string().contains("retries=0"));

        // The empty spec folds everything into one global group.
        let global = GroupBy::for_spec(&spec, &GroupSpec::default()).unwrap();
        assert_eq!(global.num_groups(), 1);
        assert!((0..spec.num_runs()).all(|run| global.group_of_run(run) == 0));
        assert_eq!(
            global.reports(&spec, vec![OnlineFold::new()])[0]
                .key
                .to_string(),
            "(all)"
        );

        // Grouping by every axis is one group per run.
        let full = GroupBy::for_spec(
            &spec,
            &GroupSpec::parse("window,traffic,retries,seed").unwrap(),
        )
        .unwrap();
        assert_eq!(full.num_groups(), spec.num_runs());
        let mut seen = vec![false; full.num_groups()];
        for run in 0..spec.num_runs() {
            let g = full.group_of_run(run);
            assert!(!seen[g], "group {g} hit twice");
            seen[g] = true;
        }
    }

    #[test]
    fn oversized_groupings_are_rejected() {
        let spec = SweepSpec {
            seeds: (0..=MAX_GROUPS as u64).collect(),
            ..grid_spec()
        };
        assert!(GroupBy::for_spec(&spec, &GroupSpec::parse("seed").unwrap()).is_err());
        // Unselected huge axes are fine.
        assert!(GroupBy::for_spec(&spec, &GroupSpec::parse("retries").unwrap()).is_ok());
    }

    #[test]
    fn fold_counts_groups_in_run_order() {
        let spec = SweepSpec {
            windows: vec![8],
            traffic: SweepTraffic::Bernoulli(vec![0.1]),
            retries: vec![0, 1],
            seeds: vec![1, 2, 3].into(),
            ..builtin_sweep()
        };
        let gspec = GroupSpec::parse("retries").unwrap();
        let grouping = GroupBy::for_spec(&spec, &gspec).unwrap();
        let runs: Vec<KernelCounts> = (0..6).map(|i| counts(100, 10 * i, i)).collect();
        let folds = grouping.fold_counts(0, runs.iter());
        assert_eq!(folds.len(), 2);
        // Expansion order: retries 0 → seeds 1,2,3 (runs 0..3); retries 1 →
        // runs 3..6.
        assert_eq!(folds[0].runs, 3);
        assert_eq!(folds[0].sums().packets_delivered, 10 + 20);
        assert_eq!(folds[1].sums().packets_delivered, 30 + 40 + 50);
        // Folding the same runs in two offset chunks merges to the same folds.
        let mut chunked = grouping.fold_counts(0, runs[..2].iter());
        let tail = grouping.fold_counts(2, runs[2..].iter());
        for (a, b) in chunked.iter_mut().zip(&tail) {
            a.merge(b);
        }
        assert_eq!(chunked, folds);
    }

    #[test]
    fn group_folds_match_dense_sequential_folding() {
        // A sparse banded accumulation over 1000 groups, touching a few.
        let mut sparse = GroupFolds::new(1000);
        assert_eq!(sparse.num_groups(), 1000);
        assert!(sparse.is_empty());
        let mut dense_reference = vec![OnlineFold::new(); 1000];
        for (group, generated, delivered) in
            [(7usize, 100, 90), (999, 50, 10), (7, 200, 150), (0, 30, 30)]
        {
            let c = counts(generated, delivered, delivered);
            sparse.observe(group, &c);
            dense_reference[group].observe(&c);
        }
        assert_eq!(sparse.len(), 3);
        // Touched groups iterate in first-touch order, not group order.
        let touched: Vec<usize> = sparse.iter().map(|(g, _)| g).collect();
        assert_eq!(touched, vec![7, 999, 0]);
        // merge_into reproduces the sequential dense fold bit-for-bit.
        let mut dense = vec![OnlineFold::new(); 1000];
        sparse.merge_into(&mut dense);
        assert_eq!(dense, dense_reference);
        // Merging a second band accumulates, exactly like sequential folding.
        let mut band2 = GroupFolds::new(1000);
        let extra = counts(10, 5, 5);
        band2.observe(999, &extra);
        band2.observe(3, &extra);
        band2.merge_into(&mut dense);
        dense_reference[999].observe(&extra);
        dense_reference[3].observe(&extra);
        assert_eq!(dense, dense_reference);
    }
}
