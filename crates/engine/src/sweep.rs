//! The batched sweep engine: whole parameter grids of simulation runs served
//! from one set of compiled artifacts.
//!
//! The paper's schedules are meant to be evaluated across *families* of
//! deployments — seeds, offered loads, window sizes, retry budgets — but a
//! naive sweep rebuilds every compiled structure (schedule table, frame plan,
//! stochastic draws) from scratch for every run. [`run_sweep`] instead:
//!
//! 1. compiles each window's schedule and fused [`FramePlan`] once, through the
//!    sharded [`ScheduleCache`] / [`PlanCache`];
//! 2. compiles each `(seed, load)` pair's Bernoulli generation draws once into
//!    a [`TrafficTrace`] through the content-addressed [`TraceCache`] — shared
//!    by every run that varies only MAC-side knobs (retry budgets) *and* by
//!    every later sweep over the same caches, in the spirit of
//!    derandomization: the sequential random draws of the reference simulator
//!    become one deterministic per-position structure evaluated once;
//! 3. compiles each `(seed, p)` pair's slotted-ALOHA MAC decisions once into
//!    a decision bitmap through the same [`TraceCache`] (stream-tagged keys)
//!    when ALOHA runs replay compiled traffic, so MAC draws join generation
//!    draws in being hashed once per sweep instead of once per run;
//! 4. dispatches the seed axis to the bit-sliced lane kernel
//!    ([`crate::run_frames_lanes`]) where eligible — ALOHA access over
//!    periodic, staggered *or* Bernoulli traffic — packing up to 64 seeds of
//!    one `(window, traffic, retries)` grid point into one pass over the slot
//!    structure, bit-identical to scalar per-seed runs (lane-dispatched
//!    Bernoulli grids skip trace prefetch entirely: the lane kernel draws
//!    generation bits inline, bit-identical to trace replay);
//! 5. simulates each distinct run once: a run whose window repeats an
//!    earlier window's plan, whose retry budget cannot matter (scheduled
//!    access on a conflict-free plan never collides) or whose seed cannot
//!    matter (scheduled access under periodic or staggered traffic draws
//!    nothing) receives a copy of its canonical run's [`KernelCounts`]
//!    (counted as `dispatch_copy` in the telemetry);
//! 6. executes the grid's work items (scalar runs or lane batches) through
//!    one band executor, shared with [`crate::run_search`]: the items are cut
//!    into about four contiguous bands per worker, workers steal whole bands
//!    ([`crate::parallel::steal_chunks`]) so heterogeneous run costs
//!    (analytic vs loop vs lane batches) balance, and each band folds its
//!    runs and their copies into its own accumulator — `(run, counts)` pairs
//!    scattered back into run order in full mode, per-group folds in
//!    streaming mode — merged in band order, so the [`SweepReport`] does not
//!    depend on which worker ran which band. The report also carries
//!    per-tier cache hit/miss/entry counters ([`SweepCacheStats`]), read from
//!    the sweep's own telemetry recording ([`crate::telemetry`]), whose bands
//!    merge in the same order.
//!
//! Because all three tiers are content-addressed, a *warm* repeat of a sweep
//! (same [`SweepCaches`]) skips schedule compilation, plan fusion and trace
//! generation entirely — its setup phase degenerates to adjacency
//! construction and cache lookups, which is what the `tracecache` entry of
//! the `BENCH.json` baseline measures.
//!
//! A sweep spec is JSON (one object):
//!
//! ```json
//! {
//!   "name": "moore-bernoulli",
//!   "shape": { "kind": "ball", "dim": 2, "radius": 1, "metric": "chebyshev" },
//!   "windows": [64],
//!   "slots": 512,
//!   "mac": { "kind": "tiling" },
//!   "traffic": { "kind": "bernoulli", "loads": [0.02, 0.05] },
//!   "seeds": [1, 2, 3, 4],
//!   "retries": [0, 1, 2, 4]
//! }
//! ```
//!
//! `mac` is `{"kind": "tiling"}` or `{"kind": "aloha", "p": 0.25}`; `traffic`
//! is `{"kind": "bernoulli", "loads": [...]}`, `{"kind": "periodic",
//! "periods": [...]}` or `{"kind": "staggered", "periods": [...]}`. The grid is
//! the product `windows × traffic values × retries × seeds`.
//!
//! Two optional fields select the reporting mode: `"mode"` (`"full"`, the
//! default, or `"streaming"`) and `"group_by"` (an array over `"window"`,
//! `"traffic"`/`"load"`, `"retries"`, `"seed"`; implies streaming when given
//! alone). A streaming sweep folds every run online into per-axis group
//! accumulators ([`crate::aggregate::OnlineFold`]) — exact integer monoids,
//! one set per band, merged at the fan-out barrier — so its report is
//! O(groups) instead of O(runs) and the `per_run` section is never
//! allocated, which is what makes million-run grids feasible (see
//! [`crate::aggregate`]).
//!
//! Node ids reproduce the sensor-network simulator's exactly (positions in
//! lexicographic window order, neighbours `p + N \ {p}`), so every run's
//! counters are bit-identical to a reference-simulator run of the same
//! configuration — property-tested across the crates in `tests/sweep_parity.rs`.

use crate::aggregate::{
    count_values, GroupBy, GroupFolds, GroupReport, GroupSpec, OnlineFold, COUNT_FIELDS,
};
use crate::cache::{
    AdjacencyCache, PlanCache, ScheduleCache, SearchCache, TierKey, TraceCache, TraceKey,
};
use crate::error::{EngineError, Result};
use crate::frames::InterferenceCsr;
use crate::parallel::{steal_chunks, worker_threads};
use crate::scenario::{get_u64, invalid, window_side, ShapeSpec};
use crate::simkernel::{
    capped_words, run_frames, run_frames_lanes, KernelConfig, KernelCounts, KernelMac,
    KernelTraffic, TrafficTrace,
};
use crate::store::StoreStats;
use crate::telemetry::{self, span, CacheTier, Counter, Origin, Stage, TelemetrySnapshot};
use crate::FramePlan;
use latsched_lattice::BoxRegion;
use latsched_tiling::Prototile;
use serde_json::Value;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The MAC family a sweep runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SweepMac {
    /// The shape's Theorem 1 tiling schedule (deterministic slotted access).
    Tiling,
    /// Slotted ALOHA with the given per-slot transmission probability.
    Aloha {
        /// Per-slot transmission probability.
        p: f64,
    },
}

impl fmt::Display for SweepMac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepMac::Tiling => write!(f, "tiling"),
            SweepMac::Aloha { p } => write!(f, "aloha(p={p:.3})"),
        }
    }
}

/// The seed axis of a sweep grid: an explicit list, or an inclusive range
/// iterated lazily — a `{"range": [1, 5000000]}` axis costs two words instead
/// of a ~40 MB seed vector materialized before the first run.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SeedAxis {
    /// Explicit seeds, in grid order.
    List(Vec<u64>),
    /// Every seed of the inclusive range `start..=end`, generated on demand.
    Range {
        /// First seed of the range.
        start: u64,
        /// Last seed of the range (inclusive; at least `start`).
        end: u64,
    },
}

impl SeedAxis {
    /// The number of grid values along the seed axis.
    ///
    /// Range axes are validated at parse time to fit `usize`; a hand-built
    /// range longer than `usize::MAX` saturates.
    pub fn len(&self) -> usize {
        match self {
            SeedAxis::List(seeds) => seeds.len(),
            SeedAxis::Range { start, end } => usize::try_from(end.wrapping_sub(*start))
                .unwrap_or(usize::MAX)
                .saturating_add(1),
        }
    }

    /// Whether the seed axis is empty (a range never is).
    pub fn is_empty(&self) -> bool {
        match self {
            SeedAxis::List(seeds) => seeds.is_empty(),
            SeedAxis::Range { .. } => false,
        }
    }

    /// The `i`-th seed in grid order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            SeedAxis::List(seeds) => seeds[i],
            SeedAxis::Range { start, end } => {
                let seed = start + i as u64;
                assert!(seed <= *end, "seed index {i} out of range");
                seed
            }
        }
    }

    /// Iterates the seeds in grid order without materializing them.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Parses the `seeds` field of a spec: either an array of seeds or a
    /// `{"range": [first, last]}` object (inclusive bounds, iterated lazily).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for a malformed axis or an empty
    /// or inverted range.
    pub fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) => {
                if items.is_empty() {
                    return Err(invalid("'seeds' must not be empty"));
                }
                let seeds = items
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .ok_or_else(|| invalid("'seeds' entries must be nonnegative integers"))
                    })
                    .collect::<Result<Vec<u64>>>()?;
                Ok(SeedAxis::List(seeds))
            }
            Value::Object(_) => {
                let range = value
                    .get("range")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid("'seeds' object needs a 'range' array"))?;
                if range.len() != 2 {
                    return Err(invalid("'seeds.range' must be [first, last]"));
                }
                let (start, end) = match (range[0].as_u64(), range[1].as_u64()) {
                    (Some(lo), Some(hi)) => (lo, hi),
                    _ => return Err(invalid("'seeds.range' bounds must be nonnegative integers")),
                };
                if start > end {
                    return Err(invalid("'seeds.range' must satisfy first <= last"));
                }
                if usize::try_from(end - start)
                    .ok()
                    .and_then(|d| d.checked_add(1))
                    .is_none()
                {
                    return Err(invalid("'seeds.range' is too long for this platform"));
                }
                Ok(SeedAxis::Range { start, end })
            }
            _ => Err(invalid(
                "'seeds' must be an array or a {\"range\": [first, last]} object",
            )),
        }
    }
}

impl From<Vec<u64>> for SeedAxis {
    fn from(seeds: Vec<u64>) -> Self {
        SeedAxis::List(seeds)
    }
}

impl FromIterator<u64> for SeedAxis {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        SeedAxis::List(iter.into_iter().collect())
    }
}

/// The traffic axis of a sweep grid.
#[derive(Clone, PartialEq, Debug)]
pub enum SweepTraffic {
    /// Bernoulli arrivals at each listed per-slot probability.
    Bernoulli(Vec<f64>),
    /// Phase-aligned periodic traffic at each listed period.
    Periodic(Vec<u64>),
    /// Staggered (per-node-offset) periodic traffic at each listed period.
    Staggered(Vec<u64>),
}

impl SweepTraffic {
    /// The number of grid values along the traffic axis.
    pub fn len(&self) -> usize {
        match self {
            SweepTraffic::Bernoulli(loads) => loads.len(),
            SweepTraffic::Periodic(periods) | SweepTraffic::Staggered(periods) => periods.len(),
        }
    }

    /// Whether the traffic axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The human-readable label of the `i`-th traffic value (matches the
    /// sensor-network simulator's `TrafficModel` display format, so sweep
    /// reports and reference runs describe workloads identically).
    pub fn label(&self, i: usize) -> String {
        match self {
            SweepTraffic::Bernoulli(loads) => format!("bernoulli(p={:.3})", loads[i]),
            SweepTraffic::Periodic(periods) => format!("periodic(every {} slots)", periods[i]),
            SweepTraffic::Staggered(periods) => format!("staggered(every {} slots)", periods[i]),
        }
    }

    /// Parses the `traffic` field of a spec: `{"kind": "bernoulli", "loads":
    /// [...]}`, `{"kind": "periodic", "periods": [...]}` or `{"kind":
    /// "staggered", "periods": [...]}`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the first malformed field.
    pub fn from_json(traffic: &Value) -> Result<Self> {
        match traffic.get("kind").and_then(Value::as_str) {
            Some("bernoulli") => {
                let loads = traffic
                    .get("loads")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid("bernoulli traffic needs a 'loads' array"))?
                    .iter()
                    .map(|v| probability(Some(v), "'traffic.loads' entries"))
                    .collect::<Result<Vec<f64>>>()?;
                Ok(SweepTraffic::Bernoulli(loads))
            }
            Some(kind @ ("periodic" | "staggered")) => {
                let periods = get_u64_array(traffic, "periods")?;
                if periods.contains(&0) {
                    return Err(invalid("'periods' entries must be positive"));
                }
                if kind == "periodic" {
                    Ok(SweepTraffic::Periodic(periods))
                } else {
                    Ok(SweepTraffic::Staggered(periods))
                }
            }
            _ => Err(invalid(
                "'traffic.kind' must be 'bernoulli', 'periodic' or 'staggered'",
            )),
        }
    }
}

/// How a sweep reports its grid.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum SweepMode {
    /// Materialize one [`SweepRunReport`] per grid point (O(runs) report
    /// memory).
    #[default]
    Full,
    /// Fold runs online onto the given grid axes — each worker folds its
    /// chunk locally and the monoid accumulators merge at the barrier — so
    /// the report is O(groups) and `per_run` is never allocated. The empty
    /// [`GroupSpec`] folds the whole grid into one global group.
    Streaming(GroupSpec),
}

impl SweepMode {
    /// The mode's spec-file name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepMode::Full => "full",
            SweepMode::Streaming(_) => "streaming",
        }
    }

    /// The grouping spec of a streaming mode (`None` for full mode).
    pub fn group_spec(&self) -> Option<&GroupSpec> {
        match self {
            SweepMode::Full => None,
            SweepMode::Streaming(spec) => Some(spec),
        }
    }
}

/// One sweep: a shape, a window axis and the stochastic parameter grid.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepSpec {
    /// Sweep name (used in reports).
    pub name: String,
    /// The neighbourhood shape.
    pub shape: ShapeSpec,
    /// Side lengths of the square deployment windows.
    pub windows: Vec<i64>,
    /// Number of slots each run simulates.
    pub slots: u64,
    /// The MAC family.
    pub mac: SweepMac,
    /// The traffic axis.
    pub traffic: SweepTraffic,
    /// RNG seeds (an explicit list or a lazily iterated range).
    pub seeds: SeedAxis,
    /// Retry budgets.
    pub retries: Vec<u32>,
    /// How the grid is reported: full per-run detail, or streaming per-axis
    /// folds.
    pub mode: SweepMode,
}

impl SweepSpec {
    /// Parses one sweep spec object.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the first malformed field.
    pub fn from_json(value: &Value) -> Result<Self> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("unnamed-sweep")
            .to_string();
        let shape = ShapeSpec::from_json(
            value
                .get("shape")
                .ok_or_else(|| invalid("sweep needs a 'shape' object"))?,
        )?;
        let windows = get_u64_array(value, "windows")?
            .into_iter()
            .map(|w| window_side(w, shape.dim(), "windows"))
            .collect::<Result<Vec<i64>>>()?;
        let slots = get_u64(value, "slots")?;
        let mac = match value.get("mac") {
            None => SweepMac::Tiling,
            Some(mac) => match mac.get("kind").and_then(Value::as_str) {
                Some("tiling") => SweepMac::Tiling,
                Some("aloha") => SweepMac::Aloha {
                    p: probability(mac.get("p"), "'mac.p'")?,
                },
                _ => return Err(invalid("'mac.kind' must be 'tiling' or 'aloha'")),
            },
        };
        let traffic = SweepTraffic::from_json(
            value
                .get("traffic")
                .ok_or_else(|| invalid("sweep needs a 'traffic' object"))?,
        )?;
        let seeds = SeedAxis::from_json(
            value
                .get("seeds")
                .ok_or_else(|| invalid("missing field 'seeds'"))?,
        )?;
        let retries = get_u32_array(value, "retries")?;
        // "mode" selects full or streaming reporting; "group_by" names the
        // fold axes and, when present without an explicit mode, implies
        // streaming.
        let group_by = value
            .get("group_by")
            .map(GroupSpec::from_json)
            .transpose()?;
        let mode = match value.get("mode") {
            None => match group_by {
                Some(spec) => SweepMode::Streaming(spec),
                None => SweepMode::Full,
            },
            Some(mode) => match mode.as_str() {
                Some("full") => {
                    if group_by.is_some() {
                        return Err(invalid(
                            "'group_by' requires streaming mode (drop 'mode' or set it to 'streaming')",
                        ));
                    }
                    SweepMode::Full
                }
                Some("streaming") => SweepMode::Streaming(group_by.unwrap_or_default()),
                _ => return Err(invalid("'mode' must be 'full' or 'streaming'")),
            },
        };
        let spec = SweepSpec {
            name,
            shape,
            windows,
            slots,
            mac,
            traffic,
            seeds,
            retries,
            mode,
        };
        if spec.num_runs() == 0 {
            return Err(invalid("sweep grid is empty"));
        }
        Ok(spec)
    }

    /// Parses a spec document: one sweep object or an array of them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for malformed JSON or fields.
    pub fn parse_spec(text: &str) -> Result<Vec<SweepSpec>> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| invalid(&format!("malformed JSON: {e}")))?;
        match &value {
            Value::Array(items) => items.iter().map(SweepSpec::from_json).collect(),
            _ => Ok(vec![SweepSpec::from_json(&value)?]),
        }
    }

    /// Total grid size: `windows × traffic values × retries × seeds`.
    pub fn num_runs(&self) -> usize {
        self.windows.len() * self.traffic.len() * self.retries.len() * self.seeds.len()
    }
}

/// Whether a count of window points or interference edges fits the `u32`
/// indices of an [`InterferenceCsr`]: the bound every window is held to
/// before anything per point is allocated.
pub(crate) fn indexable(count: u64) -> bool {
    count < u64::from(u32::MAX)
}

/// The interference adjacency of all lattice sensors in a window under a
/// homogeneous neighbourhood shape: node ids follow the lexicographic window
/// order and node `v`'s neighbours are `v + N \ {v}` clipped to the window —
/// exactly the network the sensor-network simulator builds, so sweep runs are
/// comparable (and bit-identical) to reference-simulator runs.
///
/// # Errors
///
/// Propagates CSR size-limit errors.
pub fn grid_adjacency(region: &BoxRegion, shape: &Prototile) -> Result<InterferenceCsr> {
    let _span = span(Stage::AdjacencyBuild);
    let dim = region.dim();
    let lo = region.min().coords().to_vec();
    let hi = region.max().coords().to_vec();
    let extents: Vec<i64> = (0..dim).map(|i| hi[i] - lo[i] + 1).collect();
    // Lexicographic iteration makes the *first* coordinate most significant.
    let mut strides = vec![1i64; dim];
    for i in (0..dim.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * extents[i + 1];
    }
    let n = region.len();
    let offsets: Vec<&[i64]> = shape
        .iter()
        .filter(|d| !d.is_zero())
        .map(|d| d.coords())
        .collect();
    // The CSR indexes nodes and edges with `u32`. Offset `d` links the
    // `Π (extent_i − |d_i|)` window points whose `p + d` stays inside, so
    // the exact edge count is known before anything is allocated: an
    // oversized window is an error here, not an allocation abort.
    let edges = offsets.iter().try_fold(0u64, |sum, d| {
        let pairs = (0..dim).try_fold(1u64, |pairs, i| {
            let extent = u64::try_from(extents[i]).unwrap_or(0);
            pairs.checked_mul(extent.saturating_sub(d[i].unsigned_abs()))
        })?;
        sum.checked_add(pairs)
    });
    if !indexable(n) || !edges.is_some_and(indexable) {
        return Err(EngineError::WindowTooLarge { points: n });
    }
    let mut lists: Vec<Vec<usize>> = vec![Vec::with_capacity(offsets.len()); n as usize];
    let mut q = vec![0i64; dim];
    for (id, p) in region.iter().enumerate() {
        let pc = p.coords();
        'offsets: for d in &offsets {
            let mut qid = 0i64;
            for i in 0..dim {
                q[i] = pc[i] + d[i];
                if q[i] < lo[i] || q[i] > hi[i] {
                    continue 'offsets;
                }
                qid += (q[i] - lo[i]) * strides[i];
            }
            lists[id].push(qid as usize);
        }
        // The simulator's interference graph keeps neighbour lists sorted.
        lists[id].sort_unstable();
    }
    InterferenceCsr::from_lists(&lists)
}

/// The tiered artifact pipeline a sweep (or several sweeps) compiles through:
/// one cache per artifact tier, chained by content fingerprints.
#[derive(Default)]
pub struct SweepCaches {
    /// Tier 1 — shape → compiled Theorem 1 schedule.
    pub schedules: ScheduleCache,
    /// Tier 2 — (region, shape) → window interference adjacency.
    pub adjacencies: AdjacencyCache,
    /// Tier 3 — (assignment, adjacency) → fused frame plan.
    pub plans: PlanCache,
    /// Tier 4 — (plan fingerprint, seed, load, slots) → compiled traffic
    /// trace.
    pub traces: TraceCache,
    /// Tier 5 — (scenario, objective) fingerprint → ranked search outcome
    /// (see [`crate::search::run_search`]).
    pub searches: SearchCache,
}

impl SweepCaches {
    /// Empty caches.
    pub fn new() -> Self {
        SweepCaches::default()
    }
}

/// Per-tier cache counters of the artifact pipeline, as reported by
/// [`SweepReport`]: hit/miss counts over one sweep and entry counts at its
/// end.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepCacheStats {
    /// Schedule-tier counters.
    pub schedules: StoreStats,
    /// Adjacency-tier counters.
    pub adjacencies: StoreStats,
    /// Plan-tier counters.
    pub plans: StoreStats,
    /// Trace-tier counters.
    pub traces: StoreStats,
    /// Search-tier counters.
    pub searches: StoreStats,
}

impl SweepCacheStats {
    /// The per-tier lookups a recording holds, beside the caches' current
    /// entry counts (entries are levels, not flows, so they come from the
    /// shared caches).
    pub fn recorded(recording: &TelemetrySnapshot, caches: &SweepCaches) -> Self {
        let tier = |tier: CacheTier, entries: usize| StoreStats {
            hits: recording.counter(tier.counter(true)),
            misses: recording.counter(tier.counter(false)),
            entries,
        };
        SweepCacheStats {
            schedules: tier(CacheTier::Schedules, caches.schedules.len()),
            adjacencies: tier(CacheTier::Adjacencies, caches.adjacencies.len()),
            plans: tier(CacheTier::Plans, caches.plans.len()),
            traces: tier(CacheTier::Traces, caches.traces.len()),
            searches: tier(CacheTier::Searches, caches.searches.len()),
        }
    }

    /// The stats as a JSON object (one `{hits, misses, entries}` object per
    /// tier).
    pub fn to_json_value(&self) -> Value {
        let tier = |s: &StoreStats| {
            let mut map = BTreeMap::new();
            map.insert("hits".to_string(), Value::from(s.hits));
            map.insert("misses".to_string(), Value::from(s.misses));
            map.insert("entries".to_string(), Value::from(s.entries));
            Value::Object(map)
        };
        let mut map = BTreeMap::new();
        map.insert("schedules".to_string(), tier(&self.schedules));
        map.insert("adjacencies".to_string(), tier(&self.adjacencies));
        map.insert("plans".to_string(), tier(&self.plans));
        map.insert("traces".to_string(), tier(&self.traces));
        map.insert("searches".to_string(), tier(&self.searches));
        Value::Object(map)
    }
}

impl fmt::Display for SweepCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedules {} | adjacencies {} | plans {} | traces {} | searches {}",
            self.schedules, self.adjacencies, self.plans, self.traces, self.searches
        )
    }
}

/// One run of a sweep grid: its coordinates and its kernel counters.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRunReport {
    /// Window side length.
    pub window: i64,
    /// Nodes in the window.
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Human-readable traffic description (e.g. `bernoulli(p=0.020)`).
    pub traffic: String,
    /// Retry budget.
    pub retries: u32,
    /// The run's counters.
    pub counts: KernelCounts,
}

/// The measured outcome of one sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// Sweep name.
    pub name: String,
    /// MAC family description.
    pub mac: String,
    /// Number of runs in the grid.
    pub runs: usize,
    /// Slots simulated per run.
    pub slots: u64,
    /// Seconds spent compiling shared artifacts (schedules, plans, traces).
    pub setup_seconds: f64,
    /// Seconds spent executing the grid.
    pub run_seconds: f64,
    /// Runs executed per second (excluding setup).
    pub runs_per_second: f64,
    /// Per-tier cache counters: hits/misses over this sweep, entries at its
    /// end. Hit/miss counts come from this sweep's own recording, so they are
    /// exact even when concurrent sweeps (or searches) share the caches.
    pub caches: SweepCacheStats,
    /// Element-wise sum of every run's counters.
    pub aggregate: KernelCounts,
    /// The reporting mode the sweep ran under.
    pub mode: SweepMode,
    /// Streaming group folds, in group-id order (empty in full mode).
    pub groups: Vec<GroupReport>,
    /// Per-run reports, in grid order (windows × traffic × retries × seeds);
    /// empty in streaming mode, which never materializes them.
    pub per_run: Vec<SweepRunReport>,
    /// This sweep's telemetry recording (counters, stage timings and the
    /// stage tree) when it ran inside a [`crate::telemetry::profile`] scope;
    /// `None` otherwise.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl SweepReport {
    /// The report as a JSON object.
    pub fn to_json_value(&self) -> Value {
        let counts_json = |c: &KernelCounts| {
            Value::Object(
                COUNT_FIELDS
                    .iter()
                    .zip(count_values(c))
                    .map(|(name, value)| (name.to_string(), Value::from(value)))
                    .collect(),
            )
        };
        let mut map = BTreeMap::new();
        map.insert("name".to_string(), Value::from(self.name.clone()));
        map.insert("mac".to_string(), Value::from(self.mac.clone()));
        map.insert("runs".to_string(), Value::from(self.runs));
        map.insert("slots".to_string(), Value::from(self.slots));
        map.insert("setup_seconds".to_string(), Value::from(self.setup_seconds));
        map.insert("run_seconds".to_string(), Value::from(self.run_seconds));
        map.insert(
            "runs_per_second".to_string(),
            Value::from(self.runs_per_second),
        );
        map.insert("caches".to_string(), self.caches.to_json_value());
        map.insert("aggregate".to_string(), counts_json(&self.aggregate));
        map.insert("mode".to_string(), Value::from(self.mode.name()));
        if let SweepMode::Streaming(group_spec) = &self.mode {
            map.insert("group_by".to_string(), group_spec.to_json_value());
            map.insert(
                "groups".to_string(),
                Value::Array(self.groups.iter().map(GroupReport::to_json_value).collect()),
            );
        }
        map.insert(
            "per_run".to_string(),
            Value::Array(
                self.per_run
                    .iter()
                    .map(|r| {
                        let mut run = BTreeMap::new();
                        run.insert("window".to_string(), Value::from(r.window));
                        run.insert("nodes".to_string(), Value::from(r.nodes));
                        run.insert("seed".to_string(), Value::from(r.seed));
                        run.insert("traffic".to_string(), Value::from(r.traffic.clone()));
                        run.insert("retries".to_string(), Value::from(u64::from(r.retries)));
                        run.insert("counts".to_string(), counts_json(&r.counts));
                        Value::Object(run)
                    })
                    .collect(),
            ),
        );
        if let Some(telemetry) = &self.telemetry {
            map.insert("telemetry".to_string(), telemetry.to_json_value());
        }
        Value::Object(map)
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<20} {:>4} runs x {:>6} slots ({}) in {:>8.2} ms (+{:.2} ms setup, {:>8.1} runs/s), \
             {} delivered / {} generated, {} collisions, plans {}h/{}m, traces {}h/{}m",
            self.name,
            self.runs,
            self.slots,
            self.mac,
            self.run_seconds * 1e3,
            self.setup_seconds * 1e3,
            self.runs_per_second,
            self.aggregate.packets_delivered,
            self.aggregate.packets_generated,
            self.aggregate.collisions,
            self.caches.plans.hits,
            self.caches.plans.misses,
            self.caches.traces.hits,
            self.caches.traces.misses,
        )
    }
}

/// The run grid behind both [`run_sweep`] and [`crate::run_search`]: an outer
/// axis of fused plans (a sweep's windows or a search's candidates) crossed
/// with the traffic × retries × seeds axes, expanded in that order. Any run
/// index resolves to its kernel configuration in O(1), so no O(runs) work
/// list is ever materialized, and [`GridContext::run_bands`] is the one
/// fan-out that executes the grid.
///
/// Every run maps to a *canonical* run whose counts it provably shares, and
/// only canonical runs are simulated. A run is a pure function of the inputs
/// its kernel path reads (the counter RNG keys every draw by seed, stream,
/// node and slot), so three axes collapse without changing any count:
///
/// * **outer:** a value maps to the first outer index holding the same plan
///   `Arc` (within a request the plan tier returns one `Arc` per distinct
///   plan content);
/// * **retries:** under scheduled access on a conflict-free plan nothing
///   collides, so the retry budget is never consulted and every budget maps
///   to the first;
/// * **seeds:** under scheduled access with periodic or staggered traffic
///   nothing is drawn, so every seed maps to the first.
///
/// Lane grids (ALOHA) copy nothing. Retry and seed values are collapsed by
/// axis position, not by value, so a repeated retry budget or seed still runs
/// twice where its axis does not collapse.
pub(crate) struct GridContext<'a> {
    /// One fused plan per outer-axis value.
    plans: Vec<Arc<FramePlan>>,
    /// Per outer index, the first outer index holding the same plan `Arc`
    /// (itself on lane grids).
    first_outer: Vec<usize>,
    /// One label per outer-axis value (`window 64`, `candidate 3 (dsatur)`),
    /// naming a panicked run's coordinate.
    outer: Vec<String>,
    slots: u64,
    traffic: &'a SweepTraffic,
    retries: &'a [u32],
    seeds: &'a SeedAxis,
    mac: KernelMac,
    /// Whether a work item is a lane batch of up to 64 seeds of one
    /// `(outer, traffic, retries)` point instead of one scalar run.
    lanes: bool,
    /// Per-(outer index, seed, load bits) compiled traffic traces.
    traces: HashMap<(usize, u64, u64), Arc<TrafficTrace>>,
    /// Per-(outer index, seed) compiled ALOHA MAC decision bitmaps.
    mac_traces: HashMap<(usize, u64), Arc<TrafficTrace>>,
}

impl<'a> GridContext<'a> {
    /// The grid `plans × traffic × retries × seeds` under `mac`, with no
    /// traces fetched yet; `outer` labels the plans.
    ///
    /// ALOHA grids with a multi-seed axis run as lane batches: their runs need
    /// the slot loop (the MAC is stochastic), differ only in seed within one
    /// `(outer, traffic, retries)` point, and the seed axis is innermost, so
    /// every batch of up to 64 seeds is a contiguous run range. Scheduled
    /// grids keep scalar runs, whose clean runs replay analytically.
    pub(crate) fn new(
        plans: Vec<Arc<FramePlan>>,
        outer: Vec<String>,
        slots: u64,
        traffic: &'a SweepTraffic,
        retries: &'a [u32],
        seeds: &'a SeedAxis,
        mac: KernelMac,
    ) -> Self {
        let lanes = matches!(mac, KernelMac::Aloha { .. }) && seeds.len() > 1;
        let first_outer = plans
            .iter()
            .enumerate()
            .map(|(o, plan)| {
                if lanes {
                    return o;
                }
                plans.iter().position(|p| Arc::ptr_eq(p, plan)).unwrap_or(o)
            })
            .collect();
        GridContext {
            lanes,
            plans,
            first_outer,
            outer,
            slots,
            traffic,
            retries,
            seeds,
            mac,
            traces: HashMap::new(),
            mac_traces: HashMap::new(),
        }
    }

    /// Fetches the compiled traces the grid's scalar runs replay through the
    /// trace tier: one Bernoulli generation trace per (outer, seed, load),
    /// shared across the retry axis, and under ALOHA one MAC decision bitmap
    /// per (outer, seed), shared across the load and retry axes (plans past
    /// the trace size cap keep inline MAC draws). The fetch runs plan by
    /// plan, then seed by seed, and asks for every load of one (plan, seed)
    /// at once ([`TraceCache::get_or_build_loads`]), so the missing loads
    /// share one draw pass; the order matters only past the tier's
    /// [`TraceKey::MAX_ENTRIES`], where it decides what a wholesale reset
    /// evicts. Warm repeats over the same caches skip every draw
    /// compilation. Outer values that copy an earlier value's plan fetch
    /// nothing, since their runs are never simulated. Lane grids fetch
    /// nothing either: the lane kernel's inline draws are bit-identical to
    /// replaying traces. Their Bernoulli lane batches keep arrival bitmaps
    /// under the size cap of one trace, so a grid whose widest batch is over
    /// it fails here, before any run.
    ///
    /// Nor does a grid whose every trace would be replayed by exactly one
    /// simulated run (the retry axis collapses on every plan) and that needs
    /// more traces than the tier holds: the tier could only thrash, while
    /// the fetched traces, one per seed, would all stay resident for the
    /// whole run phase. Those runs draw inline, and [`run_frames`] compiles
    /// the same trace, uncached, so memory stays bounded by the worker count.
    pub(crate) fn fetch_traces(&mut self, cache: &TraceCache) -> Result<()> {
        let SweepTraffic::Bernoulli(loads) = self.traffic else {
            return Ok(());
        };
        if self.lanes {
            let lanes = self.seeds.len().min(64);
            for (o, plan) in self.plans.iter().enumerate() {
                let rows = (plan.num_nodes() * lanes) as u64;
                if capped_words(rows, self.slots.div_ceil(64)).is_none() {
                    return Err(EngineError::InvalidKernelConfig(format!(
                        "{}: arrival bitmaps of bernoulli lane batches of {lanes} seeds x {} \
                         slots exceed the size cap",
                        self.outer[o], self.slots
                    )));
                }
            }
            return Ok(());
        }
        let canonical = |&(o, _): &(usize, &Arc<FramePlan>)| self.first_outer[o] == o;
        let plans = || self.plans.iter().enumerate().filter(canonical);
        let single_replay = plans().all(|(o, _)| self.retries_collapse(o));
        let traces = plans().count() * loads.len() * self.seeds.len();
        if single_replay && traces > TraceKey::MAX_ENTRIES {
            return Ok(());
        }
        for (o, plan) in plans() {
            for seed in self.seeds.iter() {
                let traces = cache.get_or_build_loads(plan, seed, loads, self.slots)?;
                for (&p, trace) in loads.iter().zip(traces) {
                    self.traces.insert((o, seed, p.to_bits()), trace);
                }
            }
        }
        if let KernelMac::Aloha { p } = self.mac {
            for (o, plan) in plans() {
                if capped_words(plan.num_nodes().div_ceil(64) as u64, self.slots).is_none() {
                    continue;
                }
                for seed in self.seeds.iter() {
                    let trace = cache.get_or_build_mac(plan, seed, p, self.slots)?;
                    self.mac_traces.insert((o, seed), trace);
                }
            }
        }
        Ok(())
    }

    /// The (outer, traffic, retries, seed) coordinate indices of a run index.
    #[inline]
    fn coords(&self, run: usize) -> (usize, usize, usize, usize) {
        let s = self.seeds.len();
        let r = self.retries.len();
        let t = self.traffic.len();
        (run / (s * r * t), run / (s * r) % t, run / s % r, run % s)
    }

    /// The run index of an (outer, traffic, retries, seed) coordinate: the
    /// inverse of [`GridContext::coords`].
    #[inline]
    fn run_at(&self, o: usize, ti: usize, ri: usize, si: usize) -> usize {
        ((o * self.traffic.len() + ti) * self.retries.len() + ri) * self.seeds.len() + si
    }

    /// Whether the retry budget cannot change a run on outer value `o`:
    /// under scheduled access on a conflict-free plan nothing collides.
    fn retries_collapse(&self, o: usize) -> bool {
        matches!(self.mac, KernelMac::Scheduled) && self.plans[o].conflict_free()
    }

    /// The retry and seed index ranges of the runs that share the counts of
    /// the run at `(o, _, ri, si)`: a whole axis where it cannot change a
    /// run (see [`GridContext`]), else the run's own index.
    fn shared_axes(&self, o: usize, ri: usize, si: usize) -> (Range<usize>, Range<usize>) {
        let scheduled = matches!(self.mac, KernelMac::Scheduled);
        let retries_shared = self.retries_collapse(o);
        let seeds_shared = scheduled && !matches!(self.traffic, SweepTraffic::Bernoulli(_));
        let axis = |shared: bool, len: usize, i: usize| if shared { 0..len } else { i..i + 1 };
        (
            axis(retries_shared, self.retries.len(), ri),
            axis(seeds_shared, self.seeds.len(), si),
        )
    }

    /// The plan and kernel configuration of one run; fetched traces replace
    /// inline Bernoulli and ALOHA draws, bit-identically.
    fn run_config(&self, run: usize) -> (&FramePlan, KernelConfig) {
        let (o, ti, ri, si) = self.coords(run);
        let seed = self.seeds.get(si);
        let traffic = match self.traffic {
            SweepTraffic::Bernoulli(loads) => {
                match self.traces.get(&(o, seed, loads[ti].to_bits())) {
                    Some(trace) => KernelTraffic::Trace(Arc::clone(trace)),
                    None => KernelTraffic::Bernoulli { p: loads[ti] },
                }
            }
            SweepTraffic::Periodic(periods) => KernelTraffic::Periodic {
                period: periods[ti],
            },
            SweepTraffic::Staggered(periods) => KernelTraffic::Staggered {
                period: periods[ti],
            },
        };
        let mac = match self.mac_traces.get(&(o, seed)) {
            Some(trace) => KernelMac::AlohaTrace(Arc::clone(trace)),
            None => self.mac.clone(),
        };
        let config = KernelConfig {
            slots: self.slots,
            traffic,
            mac,
            max_retries: self.retries[ri],
            seed,
        };
        (&self.plans[o], config)
    }

    /// The number of work items: lane batches, or runs.
    fn items(&self) -> usize {
        let s = self.seeds.len();
        let runs = self.plans.len() * self.traffic.len() * self.retries.len() * s;
        if self.lanes {
            runs / s * s.div_ceil(64)
        } else {
            runs
        }
    }

    /// The first run of a work item. Lane batch `k` of a grid point covers
    /// seeds `64k..` of it, so its run range is plain index arithmetic.
    fn first_run(&self, item: usize) -> usize {
        if !self.lanes {
            return item;
        }
        let s = self.seeds.len();
        let batches = s.div_ceil(64);
        item / batches * s + item % batches * 64
    }

    /// Executes one work item, handing `emit` each run's index and counters.
    /// A lane batch emits its seeds in run order. A scalar item whose run is
    /// a copy emits nothing; a canonical one simulates once and emits every
    /// run of its class (itself first), each copy counted under
    /// [`Counter::DispatchCopy`].
    fn run_item(&self, item: usize, mut emit: impl FnMut(usize, &KernelCounts)) -> Result<()> {
        let first = self.first_run(item);
        if !self.lanes {
            let (o, ti, ri, si) = self.coords(first);
            let (retries, seeds) = self.shared_axes(o, ri, si);
            // A copy: the first run of its class emits it.
            if self.first_outer[o] != o || retries.start != ri || seeds.start != si {
                return Ok(());
            }
            let (plan, config) = self.run_config(first);
            let counts = run_frames(plan, &config)?;
            let outers = (o..self.plans.len()).filter(|&oo| self.first_outer[oo] == o);
            let class = outers.clone().count() * retries.len() * seeds.len();
            telemetry::count(Counter::DispatchCopy, class as u64 - 1);
            for oo in outers {
                for r in retries.clone() {
                    for s in seeds.clone() {
                        emit(self.run_at(oo, ti, r, s), &counts);
                    }
                }
            }
            return Ok(());
        }
        let (plan, config) = self.run_config(first);
        let (s, si) = (self.seeds.len(), first % self.seeds.len());
        let seeds: Vec<u64> = (si..s.min(si + 64)).map(|i| self.seeds.get(i)).collect();
        for (lane, counts) in run_frames_lanes(plan, &config, &seeds)?.iter().enumerate() {
            emit(first + lane, counts);
        }
        Ok(())
    }

    /// The error naming a run whose work item panicked.
    fn panicked(&self, run: usize, payload: &(dyn std::any::Any + Send)) -> EngineError {
        let (o, ti, ri, si) = self.coords(run);
        let message = match payload.downcast_ref::<&str>() {
            Some(m) => m.to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
        };
        EngineError::RunPanicked {
            run,
            coordinate: format!(
                "{}, {}, retries {}, seed {}",
                self.outer[o],
                self.traffic.label(ti),
                self.retries[ri],
                self.seeds.get(si)
            ),
            message,
        }
    }

    /// Executes the whole grid across the worker pool. The work items are cut
    /// into `⌈items / per_band⌉` contiguous bands of `per_band = ⌈items /
    /// (4·workers)⌉` items, so stealing has slack to balance heterogeneous
    /// costs (analytic replays, slot loops, lane batches); each band folds
    /// the runs its items emit into a fresh accumulator from `new` via
    /// `observe`. Every run of the grid is observed exactly once, but a
    /// canonical run's copies are observed by the band that simulated it,
    /// possibly out of run order (see [`GridContext::run_item`]), so `observe`
    /// must not depend on order: an exact-integer fold, or a collection that
    /// keeps the run index.
    ///
    /// Each band records its telemetry into a fresh recorder that starts from
    /// the span path open here, and the band recordings merge into this
    /// thread's recorder in band order, like the accumulators, which come
    /// back in band order too: nothing depends on which worker ran which
    /// band. A panicking work item fails its band with
    /// [`EngineError::RunPanicked`] naming the run it was on.
    fn run_bands<A: Send>(
        &self,
        new: impl Fn() -> A + Sync,
        observe: impl Fn(&mut A, usize, &KernelCounts) + Sync,
    ) -> Result<Vec<A>> {
        let items = self.items();
        let per_band = items.div_ceil(4 * worker_threads()).max(1);
        let origin = Origin::here();
        let mut bands: Vec<Option<(Result<A>, TelemetrySnapshot)>> = Vec::new();
        bands.resize_with(items.div_ceil(per_band), || None);
        let claims = steal_chunks(&mut bands, 2, 1, |offset, chunk| {
            for (b, out) in chunk.iter_mut().enumerate() {
                let start = (offset + b) * per_band;
                *out = Some(telemetry::record(&origin, || {
                    let _span = span(Stage::SweepBand);
                    let mut acc = new();
                    for item in start..items.min(start + per_band) {
                        let mut at = self.first_run(item);
                        // A panic discards the band's accumulator, so no
                        // half-updated state outlives the unwind.
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            self.run_item(item, |run, counts| {
                                at = run;
                                observe(&mut acc, run, counts);
                            })
                        }));
                        ran.unwrap_or_else(|payload| Err(self.panicked(at, &*payload)))?;
                    }
                    Ok(acc)
                }));
            }
        });
        telemetry::count(Counter::StealClaims, claims as u64);
        // Merge every band's recording, failed bands' too, before the first
        // error (in band order) ends the collect.
        let done: Vec<Result<A>> = bands
            .into_iter()
            .map(|band| {
                let (done, recorded) = band.expect("every band is filled");
                telemetry::merge(&recorded);
                done
            })
            .collect();
        done.into_iter().collect()
    }

    /// Executes the grid folding every run into group `group_of(run)`: one
    /// dense [`GroupFolds`] per band, merged in band order. The folds are
    /// exact-integer monoids, so the result equals the sequential fold bit
    /// for bit whatever the interleave, and whichever band folds a copy;
    /// copies cost no memory beyond the O(groups) folds.
    pub(crate) fn fold_groups(
        &self,
        num_groups: usize,
        group_of: impl Fn(usize) -> usize + Sync,
    ) -> Result<Vec<OnlineFold>> {
        let bands = self.run_bands(
            || GroupFolds::new(num_groups),
            |folds, run, counts| folds.observe(group_of(run), counts),
        )?;
        let _span = span(Stage::FoldMerge);
        let mut folds = vec![OnlineFold::new(); num_groups];
        for band in &bands {
            band.merge_into(&mut folds);
        }
        Ok(folds)
    }
}

/// Runs one sweep: compile every shared artifact once (through the caches),
/// execute the whole grid across all cores, and aggregate the counters —
/// per run in full mode, or as online per-axis group folds in streaming mode
/// (O(groups) report memory; `per_run` is never allocated). The sweep is one
/// telemetry request: its report's cache counters (and, when profiled, its
/// `telemetry`) are its own recording.
///
/// # Errors
///
/// Propagates compilation, trace and kernel errors, and
/// [`EngineError::RunPanicked`] for a run that panicked.
pub fn run_sweep(spec: &SweepSpec, caches: &SweepCaches) -> Result<SweepReport> {
    let (report, recording, profiled) = telemetry::request(|| execute_sweep(spec, caches));
    let mut report = report?;
    report.caches = SweepCacheStats::recorded(&recording, caches);
    report.telemetry = profiled.then_some(recording);
    Ok(report)
}

/// [`run_sweep`]'s body, recording into the sweep's recorder; the report's
/// `caches` and `telemetry` are left for [`run_sweep`] to fill in.
fn execute_sweep(spec: &SweepSpec, caches: &SweepCaches) -> Result<SweepReport> {
    let setup_start = Instant::now();
    let setup_span = span(Stage::SweepSetup);
    let shape = spec.shape.prototile()?;

    // Per-window shared artifacts: adjacency (through the content-addressed
    // adjacency tier, so warm sweeps skip the window walk), slot assignment,
    // fused plan.
    let mut plans = Vec::with_capacity(spec.windows.len());
    for &window in &spec.windows {
        let region = BoxRegion::square_window(spec.shape.dim(), window)?;
        let adjacency = caches.adjacencies.get_or_build(&region, &shape)?;
        let (assignment, period) = match spec.mac {
            SweepMac::Tiling => {
                let compiled = caches.schedules.get_or_compile(&shape)?;
                let slots = compiled.slots_of_region(&region)?;
                (
                    slots.into_iter().map(usize::from).collect::<Vec<usize>>(),
                    compiled.num_slots(),
                )
            }
            // ALOHA has no frame structure: every node is a candidate in a
            // 1-slot frame and the MAC thins candidates stochastically.
            SweepMac::Aloha { .. } => (vec![0usize; adjacency.num_nodes()], 1),
        };
        plans.push(caches.plans.get_or_build(&assignment, period, &adjacency)?);
    }
    let mac = match spec.mac {
        SweepMac::Tiling => KernelMac::Scheduled,
        SweepMac::Aloha { p } => KernelMac::Aloha { p },
    };
    let mut grid = GridContext::new(
        plans,
        spec.windows.iter().map(|w| format!("window {w}")).collect(),
        spec.slots,
        &spec.traffic,
        &spec.retries,
        &spec.seeds,
        mac,
    );
    grid.fetch_traces(&caches.traces)?;
    // Resolve the grouping before the timed run phase so misconfigured specs
    // fail fast and bookkeeping counts as setup.
    let grouping = match &spec.mode {
        SweepMode::Full => None,
        SweepMode::Streaming(group_spec) => Some(GroupBy::for_spec(spec, group_spec)?),
    };
    drop(setup_span);
    let setup_seconds = setup_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let run_span = span(Stage::SweepRun);
    let mut aggregate = KernelCounts::default();
    let (groups, per_run) = match &grouping {
        // Full mode: every band collects `(run, counts)` pairs, copies
        // included, which scatter back into run order.
        None => {
            let labels: Vec<String> = (0..spec.traffic.len())
                .map(|ti| spec.traffic.label(ti))
                .collect();
            let bands = grid.run_bands(Vec::new, |runs, run, counts| runs.push((run, *counts)))?;
            let mut ordered = vec![KernelCounts::default(); spec.num_runs()];
            for (run, counts) in bands.into_iter().flatten() {
                ordered[run] = counts;
            }
            let per_run = ordered
                .into_iter()
                .enumerate()
                .map(|(run, counts)| {
                    aggregate.accumulate(&counts);
                    let (w, ti, ri, si) = grid.coords(run);
                    SweepRunReport {
                        window: spec.windows[w],
                        nodes: grid.plans[w].num_nodes(),
                        seed: spec.seeds.get(si),
                        traffic: labels[ti].clone(),
                        retries: spec.retries[ri],
                        counts,
                    }
                })
                .collect();
            (Vec::new(), per_run)
        }
        // Streaming mode: the aggregate is the sum of the group sums.
        Some(grouping) => {
            let folds =
                grid.fold_groups(grouping.num_groups(), |run| grouping.group_of_run(run))?;
            for fold in &folds {
                aggregate.accumulate(&fold.sums());
            }
            (grouping.reports(spec, folds), Vec::new())
        }
    };
    drop(run_span);
    let run_seconds = run_start.elapsed().as_secs_f64();

    let num_runs = spec.num_runs();
    Ok(SweepReport {
        name: spec.name.clone(),
        mac: spec.mac.to_string(),
        runs: num_runs,
        slots: spec.slots,
        setup_seconds,
        run_seconds,
        runs_per_second: num_runs as f64 / run_seconds.max(1e-12),
        caches: SweepCacheStats::default(),
        aggregate,
        mode: spec.mode.clone(),
        groups,
        per_run,
        telemetry: None,
    })
}

/// The default sweep `engine-cli sweep` runs when given no spec file: a 64-run
/// stochastic grid (2 loads × 4 retry budgets × 8 seeds) of Bernoulli traffic
/// under the Moore tiling schedule on a 64×64 window.
pub fn builtin_sweep() -> SweepSpec {
    SweepSpec {
        name: "moore-bernoulli-64".into(),
        shape: ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: latsched_lattice::Metric::Chebyshev,
        },
        windows: vec![64],
        slots: 512,
        mac: SweepMac::Tiling,
        traffic: SweepTraffic::Bernoulli(vec![0.02, 0.05]),
        seeds: (1..=8).collect(),
        retries: vec![0, 1, 2, 4],
        mode: SweepMode::Full,
    }
}

/// A probability spec value: a number in `[0, 1]`, as the kernels require.
/// `what` names the field in the error.
fn probability(value: Option<&Value>, what: &str) -> Result<f64> {
    value
        .and_then(Value::as_f64)
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| invalid(&format!("{what} must be in [0, 1]")))
}

/// A nonempty array of `u32` spec values (retry budgets), range-checked
/// instead of truncated.
pub(crate) fn get_u32_array(value: &Value, field: &str) -> Result<Vec<u32>> {
    get_u64_array(value, field)?
        .into_iter()
        .map(|v| {
            u32::try_from(v).map_err(|_| invalid(&format!("'{field}' entries must be below 2^32")))
        })
        .collect()
}

fn get_u64_array(value: &Value, field: &str) -> Result<Vec<u64>> {
    let raw = value
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| invalid(&format!("missing or non-array field '{field}'")))?;
    if raw.is_empty() {
        return Err(invalid(&format!("'{field}' must not be empty")));
    }
    raw.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| invalid(&format!("'{field}' entries must be nonnegative integers")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            windows: vec![8],
            slots: 64,
            seeds: vec![1, 2].into(),
            retries: vec![0, 2],
            traffic: SweepTraffic::Bernoulli(vec![0.1]),
            ..builtin_sweep()
        }
    }

    #[test]
    fn parses_sweep_specs() {
        let text = r#"{
            "name": "s",
            "shape": {"kind": "ball", "dim": 2, "radius": 1},
            "windows": [16, 32],
            "slots": 128,
            "mac": {"kind": "aloha", "p": 0.2},
            "traffic": {"kind": "bernoulli", "loads": [0.05, 0.1]},
            "seeds": [1, 2, 3],
            "retries": [0, 4]
        }"#;
        let specs = SweepSpec::parse_spec(text).unwrap();
        assert_eq!(specs.len(), 1);
        let spec = &specs[0];
        assert_eq!(spec.name, "s");
        assert_eq!(spec.mac, SweepMac::Aloha { p: 0.2 });
        assert_eq!(spec.num_runs(), 2 * 2 * 2 * 3);
        // Defaults: omitted mac means the tiling schedule.
        let text = r#"{
            "shape": {"kind": "hex7"}, "windows": [8], "slots": 16,
            "traffic": {"kind": "staggered", "periods": [4, 8]},
            "seeds": [0], "retries": [1]
        }"#;
        let spec = &SweepSpec::parse_spec(text).unwrap()[0];
        assert_eq!(spec.mac, SweepMac::Tiling);
        assert_eq!(spec.traffic, SweepTraffic::Staggered(vec![4, 8]));
    }

    #[test]
    fn rejects_malformed_sweep_specs() {
        for bad in [
            "not json",
            r#"{"windows": [8]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [], "slots": 8,
                "traffic": {"kind": "bernoulli", "loads": [0.1]}, "seeds": [1], "retries": [0]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [8], "slots": 8,
                "traffic": {"kind": "warp"}, "seeds": [1], "retries": [0]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [8], "slots": 8,
                "traffic": {"kind": "periodic", "periods": [0]}, "seeds": [1], "retries": [0]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [8], "slots": 8,
                "mac": {"kind": "aloha"},
                "traffic": {"kind": "bernoulli", "loads": [0.1]}, "seeds": [1], "retries": [0]}"#,
        ] {
            assert!(SweepSpec::parse_spec(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn seed_axis_parses_ranges_lazily() {
        let spec_text = |seeds: &str| {
            format!(
                r#"{{"shape": {{"kind": "hex7"}}, "windows": [8], "slots": 16,
                    "traffic": {{"kind": "bernoulli", "loads": [0.1]}},
                    "seeds": {seeds}, "retries": [0]}}"#
            )
        };
        let spec = &SweepSpec::parse_spec(&spec_text(r#"{"range": [1, 5000000]}"#)).unwrap()[0];
        assert_eq!(
            spec.seeds,
            SeedAxis::Range {
                start: 1,
                end: 5_000_000
            }
        );
        // A five-million-seed axis is O(1) memory: length and lookups are
        // computed, never materialized.
        assert_eq!(spec.seeds.len(), 5_000_000);
        assert_eq!(spec.num_runs(), 5_000_000);
        assert_eq!(spec.seeds.get(0), 1);
        assert_eq!(spec.seeds.get(4_999_999), 5_000_000);
        assert_eq!(spec.seeds.iter().take(3).collect::<Vec<u64>>(), [1, 2, 3]);
        // A singleton range is valid.
        let one =
            SeedAxis::from_json(&serde_json::from_str(r#"{"range": [7, 7]}"#).unwrap()).unwrap();
        assert_eq!(one.iter().collect::<Vec<u64>>(), [7]);
        // Malformed axes are rejected.
        for bad in [
            r#"[]"#,
            r#"[1, -2]"#,
            r#"{"range": [5, 1]}"#,
            r#"{"range": [1]}"#,
            r#"{"range": [1, 2, 3]}"#,
            r#"{"range": ["a", "b"]}"#,
            r#"{"span": [1, 2]}"#,
            r#""everything""#,
        ] {
            assert!(
                SweepSpec::parse_spec(&spec_text(bad)).is_err(),
                "accepted seeds: {bad}"
            );
        }
    }

    #[test]
    fn seed_range_sweeps_match_list_sweeps() {
        let caches = SweepCaches::new();
        let list = run_sweep(&tiny_spec(), &caches).unwrap();
        let ranged = run_sweep(
            &SweepSpec {
                seeds: SeedAxis::Range { start: 1, end: 2 },
                ..tiny_spec()
            },
            &caches,
        )
        .unwrap();
        // Equal seed contents ⇒ bit-identical runs, whatever the axis form.
        assert_eq!(list.per_run, ranged.per_run);
        assert_eq!(list.aggregate, ranged.aggregate);
    }

    #[test]
    fn grid_adjacency_matches_hand_counts() {
        // 3×3 Moore window: the centre node affects all 8 others, corners 3.
        let region = BoxRegion::square_window(2, 3).unwrap();
        let shape = latsched_tiling::shapes::moore();
        let csr = grid_adjacency(&region, &shape).unwrap();
        assert_eq!(csr.num_nodes(), 9);
        let degrees: Vec<usize> = (0..9).map(|v| csr.degree(v)).collect();
        // Lexicographic order: (0,0), (0,1), (0,2), (1,0), (1,1), …
        assert_eq!(degrees, vec![3, 5, 3, 5, 8, 5, 3, 5, 3]);
        // Neighbour lists are sorted and self-free.
        for v in 0..9 {
            let ns = csr.neighbours_of(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
            assert!(!ns.contains(&(v as u32)));
        }
    }

    #[test]
    fn oversized_windows_are_errors_not_allocation_aborts() {
        // 8^9 ≈ 134M nodes and 22^9 − 8^9 ≈ 1.2e12 edges: past the CSR's
        // u32 edge bound, which must be checked before anything allocates.
        let shape = ShapeSpec::Ball {
            dim: 9,
            radius: 1,
            metric: latsched_lattice::Metric::Chebyshev,
        };
        for mac in [SweepMac::Tiling, SweepMac::Aloha { p: 0.5 }] {
            let spec = SweepSpec {
                shape: shape.clone(),
                windows: vec![8],
                mac,
                ..builtin_sweep()
            };
            assert!(matches!(
                run_sweep(&spec, &SweepCaches::new()),
                Err(EngineError::WindowTooLarge { .. })
            ));
        }
        let search = crate::SearchSpec {
            shape,
            window: 8,
            ..crate::builtin_search()
        };
        assert!(matches!(
            crate::run_search(&search, &SweepCaches::new()),
            Err(EngineError::WindowTooLarge { .. })
        ));
    }

    #[test]
    fn sweep_runs_whole_grid_and_aggregates() {
        let spec = tiny_spec();
        let caches = SweepCaches::new();
        let report = run_sweep(&spec, &caches).unwrap();
        assert_eq!(report.runs, 4);
        assert_eq!(report.per_run.len(), 4);
        // One plan built, reused by every other run of the window; one trace
        // per (seed, load) pair, shared across the retry axis.
        assert_eq!(report.caches.plans.misses, 1);
        assert_eq!(
            report.caches.plans.hits, 0,
            "plan looked up once per window"
        );
        assert_eq!(report.caches.schedules.misses, 1);
        assert_eq!(report.caches.traces.misses, 2, "one trace per seed");
        assert_eq!(report.caches.traces.hits, 0);
        let mut sum = KernelCounts::default();
        for run in &report.per_run {
            assert_eq!(run.window, 8);
            assert_eq!(run.nodes, 64);
            assert_eq!(
                run.counts.packets_generated,
                run.counts.packets_delivered
                    + run.counts.packets_dropped
                    + run.counts.packets_pending
            );
            sum.accumulate(&run.counts);
        }
        assert_eq!(sum, report.aggregate);
        assert!(report.aggregate.packets_generated > 0);
        // Same seed + load + retries ⇒ same counters regardless of grid position.
        let again = run_sweep(&spec, &caches).unwrap();
        assert_eq!(report.per_run, again.per_run);
        // The warm sweep hits every tier: no schedule, plan or trace rebuilds.
        assert_eq!(again.caches.plans.misses, 0);
        assert!(again.caches.plans.hits > 0);
        assert_eq!(again.caches.schedules.misses, 0);
        assert_eq!(again.caches.traces.misses, 0, "warm sweeps reuse traces");
        assert_eq!(again.caches.traces.hits, 2);
        assert_eq!(again.caches.traces.entries, 2);
        let json = report.to_json_value();
        assert_eq!(json.get("runs").unwrap().as_u64(), Some(4));
        assert!(json.get("per_run").unwrap().as_array().unwrap().len() == 4);
        let caches_json = json.get("caches").unwrap();
        assert_eq!(
            caches_json
                .get("traces")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert!(report.to_string().contains("4 runs"));
        assert!(report.caches.to_string().contains("traces"));
    }

    #[test]
    fn streaming_mode_folds_groups_without_per_run_reports() {
        use crate::aggregate::fold_full_report;

        let full_spec = SweepSpec {
            windows: vec![6, 8],
            slots: 96,
            seeds: vec![1, 2, 3].into(),
            retries: vec![0, 2],
            traffic: SweepTraffic::Bernoulli(vec![0.1, 0.3]),
            ..builtin_sweep()
        };
        let group_spec = GroupSpec::parse("load,retries").unwrap();
        let streaming_spec = SweepSpec {
            mode: SweepMode::Streaming(group_spec.clone()),
            ..full_spec.clone()
        };
        let caches = SweepCaches::new();
        let full = run_sweep(&full_spec, &caches).unwrap();
        let streaming = run_sweep(&streaming_spec, &caches).unwrap();

        assert_eq!(streaming.runs, full.runs);
        assert!(
            streaming.per_run.is_empty(),
            "streaming never builds per_run"
        );
        assert!(full.groups.is_empty(), "full mode reports no groups");
        assert_eq!(streaming.aggregate, full.aggregate);
        assert_eq!(streaming.groups.len(), 2 * 2);

        // The streaming folds are bit-identical to folding the full report's
        // per-run list by the same axes.
        let folded = fold_full_report(&full_spec, &group_spec, &full.per_run).unwrap();
        assert_eq!(streaming.groups, folded);
        let total_runs: u64 = streaming.groups.iter().map(|g| g.fold.runs).sum();
        assert_eq!(total_runs, full.runs as u64);

        // Group JSON carries keys, stats and histograms under stable names.
        let json = streaming.to_json_value();
        assert_eq!(json.get("mode").unwrap().as_str(), Some("streaming"));
        assert_eq!(json.get("group_by").unwrap(), &group_spec.to_json_value());
        let groups = json.get("groups").unwrap().as_array().unwrap();
        assert_eq!(groups.len(), 4);
        assert!(groups[0].get("key").unwrap().get("traffic").is_some());
        assert!(groups[0]
            .get("stats")
            .unwrap()
            .get("packets_delivered")
            .is_some());
        assert!(json.get("per_run").unwrap().as_array().unwrap().is_empty());
        // Full-mode JSON stays shaped as before (mode only).
        assert_eq!(
            full.to_json_value().get("mode").unwrap().as_str(),
            Some("full")
        );
        assert!(full.to_json_value().get("groups").is_none());
    }

    #[test]
    fn streaming_specs_parse_from_json() {
        let text = r#"{
            "shape": {"kind": "ball", "dim": 2, "radius": 1},
            "windows": [8], "slots": 32,
            "traffic": {"kind": "bernoulli", "loads": [0.1]},
            "seeds": [1, 2], "retries": [0],
            "mode": "streaming", "group_by": ["seed"]
        }"#;
        let spec = &SweepSpec::parse_spec(text).unwrap()[0];
        assert_eq!(
            spec.mode,
            SweepMode::Streaming(GroupSpec::parse("seed").unwrap())
        );
        // group_by alone implies streaming…
        let implied = text.replace(r#""mode": "streaming", "#, "");
        let spec = &SweepSpec::parse_spec(&implied).unwrap()[0];
        assert!(matches!(spec.mode, SweepMode::Streaming(_)));
        // …but full mode with group_by is contradictory.
        let contradictory = text.replace(r#""mode": "streaming""#, r#""mode": "full""#);
        assert!(SweepSpec::parse_spec(&contradictory).is_err());
        let bad_mode = text.replace(r#""mode": "streaming""#, r#""mode": "warp""#);
        assert!(SweepSpec::parse_spec(&bad_mode).is_err());
        // Streaming with no group_by folds everything into one group.
        let global = text.replace(r#", "group_by": ["seed"]"#, "");
        let spec = &SweepSpec::parse_spec(&global).unwrap()[0];
        assert_eq!(spec.mode, SweepMode::Streaming(GroupSpec::default()));
        let report = run_sweep(spec, &SweepCaches::new()).unwrap();
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].fold.runs, 2);
        assert_eq!(report.groups[0].fold.sums(), report.aggregate);
    }

    #[test]
    fn adjacency_tier_serves_warm_sweeps() {
        let spec = tiny_spec();
        let caches = SweepCaches::new();
        let cold = run_sweep(&spec, &caches).unwrap();
        assert_eq!(cold.caches.adjacencies.misses, 1);
        assert_eq!(cold.caches.adjacencies.hits, 0);
        let warm = run_sweep(&spec, &caches).unwrap();
        assert_eq!(warm.caches.adjacencies.misses, 0, "adjacency reused warm");
        assert_eq!(warm.caches.adjacencies.hits, 1);
        assert_eq!(warm.caches.adjacencies.entries, 1);
        // The tier shows up in the JSON and display surfaces.
        let json = warm.to_json_value();
        assert_eq!(
            json.get("caches")
                .unwrap()
                .get("adjacencies")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert!(warm.caches.to_string().contains("adjacencies"));
    }

    #[test]
    fn retry_axis_shares_traces_but_changes_outcomes() {
        let spec = SweepSpec {
            retries: vec![0, 8],
            traffic: SweepTraffic::Bernoulli(vec![0.4]),
            mac: SweepMac::Aloha { p: 0.5 },
            seeds: vec![7].into(),
            ..tiny_spec()
        };
        let report = run_sweep(&spec, &SweepCaches::new()).unwrap();
        assert_eq!(report.runs, 2);
        let (a, b) = (&report.per_run[0], &report.per_run[1]);
        // Same trace ⇒ identical generation counts; different budgets ⇒
        // different drop behaviour.
        assert_eq!(a.counts.packets_generated, b.counts.packets_generated);
        assert!(a.counts.packets_dropped > b.counts.packets_dropped);
    }

    #[test]
    fn partly_warm_trace_tiers_build_only_the_missing_loads() {
        // Loads [0.1] and then [0.1, 0.3] on shared caches: the second
        // request finds 0.1 of every (plan, seed) and builds 0.3 alone, so it
        // counts one hit and one miss and one compilation per (plan, seed),
        // in one draw pass each, and reports what a cold run reports.
        let spec = |loads: Vec<f64>| SweepSpec {
            traffic: SweepTraffic::Bernoulli(loads),
            ..tiny_spec()
        };
        let seeds = tiny_spec().seeds.len() as u64;
        let caches = SweepCaches::new();
        run_sweep(&spec(vec![0.1]), &caches).unwrap();
        let (warm, _) = telemetry::profile(|| run_sweep(&spec(vec![0.1, 0.3]), &caches).unwrap());
        let (cold, _) =
            telemetry::profile(|| run_sweep(&spec(vec![0.1, 0.3]), &SweepCaches::new()).unwrap());
        let passes = |report: &SweepReport| {
            let snapshot = report.telemetry.as_ref().expect("profiled");
            (
                report.caches.traces.hits,
                report.caches.traces.misses,
                snapshot.counter(Counter::TraceCompilations),
                snapshot.stage(Stage::TraceCompile).count,
            )
        };
        assert_eq!(passes(&warm), (seeds, seeds, seeds, seeds));
        assert_eq!(passes(&cold), (0, 2 * seeds, 2 * seeds, seeds));
        assert_eq!(warm.per_run, cold.per_run);
        assert_eq!(warm.aggregate, cold.aggregate);
        // A load listed twice builds once: the second lookup of its key hits.
        let (doubled, _) =
            telemetry::profile(|| run_sweep(&spec(vec![0.3, 0.3]), &SweepCaches::new()).unwrap());
        assert_eq!(passes(&doubled), (seeds, seeds, seeds, seeds));
        let runs_per_load = doubled.per_run.len() / 2;
        assert_eq!(
            doubled.per_run[..runs_per_load],
            cold.per_run[runs_per_load..]
        );
        assert_eq!(
            doubled.per_run[runs_per_load..],
            cold.per_run[runs_per_load..]
        );
    }

    #[test]
    fn wrapping_slot_counts_fail_at_the_trace_size_cap() {
        // A 12×12 window takes three words per slot, and 3 · ⌈2⁶⁴ / 3⌉
        // wraps to 2: the fetch must refuse the trace, not allocate it.
        let spec = SweepSpec {
            windows: vec![12],
            slots: u64::MAX / 3 + 1,
            ..tiny_spec()
        };
        let err = run_sweep(&spec, &SweepCaches::new()).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidKernelConfig(ref m) if m.contains("size cap")),
            "{err}"
        );
    }

    #[test]
    fn lane_dispatched_sweeps_match_scalar_per_seed_sweeps() {
        // ALOHA + staggered + 3 seeds lane-dispatches; the same grid with
        // single-seed axes stays scalar (lanes need a multi-seed axis), so
        // this pins lane batches bit-for-bit against the scalar kernel at the
        // sweep level, across the traffic and retry axes.
        let spec = SweepSpec {
            mac: SweepMac::Aloha { p: 0.4 },
            traffic: SweepTraffic::Staggered(vec![3, 8]),
            seeds: vec![5, 6, 7].into(),
            retries: vec![0, 2],
            ..tiny_spec()
        };
        let caches = SweepCaches::new();
        let report = run_sweep(&spec, &caches).unwrap();
        assert_eq!(report.runs, 12);
        assert_eq!(report.per_run.len(), 12);
        for (i, seed) in [5u64, 6, 7].into_iter().enumerate() {
            let scalar = run_sweep(
                &SweepSpec {
                    seeds: vec![seed].into(),
                    ..spec.clone()
                },
                &caches,
            )
            .unwrap();
            for (j, run) in scalar.per_run.iter().enumerate() {
                assert_eq!(report.per_run[j * 3 + i], *run, "seed {seed} point {j}");
            }
        }
        // Streaming over the same grid folds the identical lane counts.
        let streaming = run_sweep(
            &SweepSpec {
                mode: SweepMode::Streaming(GroupSpec::default()),
                ..spec
            },
            &caches,
        )
        .unwrap();
        assert_eq!(streaming.aggregate, report.aggregate);
    }

    #[test]
    fn lane_batches_past_64_seeds_land_on_their_runs() {
        // 130 seeds make three lane batches per grid point (64 + 64 + 2), so
        // later batches' run ranges come from index arithmetic past the first
        // 64 seeds; seeds on every batch boundary must match scalar sweeps.
        let spec = SweepSpec {
            windows: vec![4],
            slots: 32,
            mac: SweepMac::Aloha { p: 0.4 },
            traffic: SweepTraffic::Staggered(vec![3]),
            seeds: SeedAxis::Range { start: 1, end: 130 },
            retries: vec![0, 2],
            ..tiny_spec()
        };
        let caches = SweepCaches::new();
        let laned = run_sweep(&spec, &caches).unwrap();
        assert_eq!(laned.per_run.len(), 260);
        for (i, run) in laned.per_run.iter().enumerate() {
            assert_eq!(run.seed, 1 + (i % 130) as u64);
        }
        for si in [0usize, 63, 64, 127, 128, 129] {
            let single = SweepSpec {
                seeds: vec![spec.seeds.get(si)].into(),
                ..spec.clone()
            };
            let scalar = run_sweep(&single, &caches).unwrap();
            for (j, run) in scalar.per_run.iter().enumerate() {
                assert_eq!(laned.per_run[j * 130 + si], *run, "seed index {si}");
            }
        }
        let streaming = SweepSpec {
            mode: SweepMode::Streaming(GroupSpec::default()),
            ..spec
        };
        assert_eq!(
            run_sweep(&streaming, &caches).unwrap().aggregate,
            laned.aggregate
        );
    }

    #[test]
    fn over_cap_lane_grids_fail_before_running() {
        // 4096 nodes x 64 lanes x ⌈65 600 / 64⌉ arrival words is just past
        // the cap of one trace; the 8x8 window before it fits. The sweep
        // names the window, lane count and slots and runs no lane batch.
        let spec = SweepSpec {
            windows: vec![8, 64],
            slots: 65_600,
            mac: SweepMac::Aloha { p: 0.25 },
            seeds: SeedAxis::Range { start: 1, end: 64 },
            retries: vec![0],
            ..tiny_spec()
        };
        let (result, recording, _) = telemetry::request(|| run_sweep(&spec, &SweepCaches::new()));
        match result {
            Err(EngineError::InvalidKernelConfig(message)) => {
                assert!(message.starts_with("window 64:"), "{message}");
                assert!(message.contains("64 seeds x 65600 slots"), "{message}");
            }
            other => panic!("expected the arrival-bitmap cap, got {other:?}"),
        }
        assert_eq!(recording.counter(Counter::LaneBatches), 0);
        // The same grid below the cap runs as lane batches.
        let small = SweepSpec {
            windows: vec![8],
            slots: 64,
            ..spec
        };
        let (result, recording, _) = telemetry::request(|| run_sweep(&small, &SweepCaches::new()));
        assert_eq!(result.unwrap().runs, 64);
        assert_eq!(recording.counter(Counter::LaneBatches), 1);
    }

    #[test]
    fn mac_decision_bitmaps_are_cached_for_bernoulli_aloha_sweeps() {
        // A *single-seed* ALOHA × Bernoulli grid keeps the scalar trace path:
        // one traffic trace and one MAC decision bitmap for the seed, both
        // replayed warm, and results unchanged by where the draws came from.
        // (Multi-seed grids lane-dispatch and compile no traces at all — see
        // `bernoulli_lane_sweeps_match_scalar_trace_sweeps`.)
        let spec = SweepSpec {
            mac: SweepMac::Aloha { p: 0.3 },
            traffic: SweepTraffic::Bernoulli(vec![0.2]),
            seeds: vec![9].into(),
            retries: vec![1, 4],
            ..tiny_spec()
        };
        let caches = SweepCaches::new();
        let cold = run_sweep(&spec, &caches).unwrap();
        assert_eq!(
            cold.caches.traces.misses, 2,
            "one traffic trace + one MAC bitmap for the seed"
        );
        let warm = run_sweep(&spec, &caches).unwrap();
        assert_eq!(
            warm.caches.traces.misses, 0,
            "warm sweeps reuse MAC bitmaps"
        );
        assert_eq!(warm.caches.traces.hits, 2);
        assert_eq!(warm.caches.traces.entries, 2);
        assert_eq!(cold.per_run, warm.per_run);
        assert!(cold.aggregate.collisions > 0, "ALOHA at p=0.3 collides");
    }

    #[test]
    fn bernoulli_lane_sweeps_match_scalar_trace_sweeps() {
        // A multi-seed ALOHA × Bernoulli grid lane-dispatches: no traffic
        // traces or MAC bitmaps are compiled (inline lane draws replace
        // both), and every run's counters are bit-identical to the
        // trace-replaying scalar path of the same single-seed grid.
        let spec = SweepSpec {
            mac: SweepMac::Aloha { p: 0.3 },
            traffic: SweepTraffic::Bernoulli(vec![0.1, 0.2]),
            seeds: vec![1, 9, 23].into(),
            retries: vec![1, 4],
            ..tiny_spec()
        };
        let caches = SweepCaches::new();
        let laned = run_sweep(&spec, &caches).unwrap();
        assert_eq!(laned.runs, 12);
        assert_eq!(
            laned.caches.traces.misses + laned.caches.traces.hits,
            0,
            "lane dispatch never touches the trace tier"
        );
        for (i, seed) in [1u64, 9, 23].into_iter().enumerate() {
            let scalar = run_sweep(
                &SweepSpec {
                    seeds: vec![seed].into(),
                    ..spec.clone()
                },
                &caches,
            )
            .unwrap();
            for (j, run) in scalar.per_run.iter().enumerate() {
                assert_eq!(laned.per_run[j * 3 + i], *run, "seed {seed} point {j}");
            }
        }
        assert!(laned.aggregate.collisions > 0, "ALOHA at p=0.3 collides");
    }

    #[test]
    fn panicking_runs_surface_as_errors_naming_their_run() {
        let spec = tiny_spec();
        let caches = SweepCaches::new();
        let shape = spec.shape.prototile().unwrap();
        let region = BoxRegion::square_window(2, 8).unwrap();
        let adjacency = caches.adjacencies.get_or_build(&region, &shape).unwrap();
        let compiled = caches.schedules.get_or_compile(&shape).unwrap();
        let slots: Vec<usize> = compiled
            .slots_of_region(&region)
            .unwrap()
            .into_iter()
            .map(usize::from)
            .collect();
        let plan = caches
            .plans
            .get_or_build(&slots, compiled.num_slots(), &adjacency)
            .unwrap();
        let grid = GridContext::new(
            vec![plan],
            vec!["window 8".into()],
            spec.slots,
            &spec.traffic,
            &spec.retries,
            &spec.seeds,
            KernelMac::Scheduled,
        );
        // Runs expand retries × seeds here: run 2 is retries 2, seed 1, a
        // copy of run 0 (retries collapse on this conflict-free plan) that
        // run 0's item emits, and the error still names run 2.
        let err = grid
            .run_bands(|| (), |_, run, _| assert_ne!(run, 2, "injected failure"))
            .unwrap_err();
        let EngineError::RunPanicked {
            run,
            coordinate,
            message,
        } = &err
        else {
            panic!("expected a run panic, got {err}");
        };
        assert_eq!(*run, 2);
        assert_eq!(
            coordinate,
            "window 8, bernoulli(p=0.100), retries 2, seed 1"
        );
        assert!(message.contains("injected failure"), "{message}");
        assert!(err.to_string().starts_with("run 2 (window 8,"), "{err}");
        // No band recorder outlived the panic: the next sweep on this thread
        // reports exactly its own lookups (the grid above warmed three tiers
        // and fetched no trace).
        let warm = run_sweep(&spec, &caches).unwrap();
        for tier in [
            warm.caches.schedules,
            warm.caches.adjacencies,
            warm.caches.plans,
        ] {
            assert_eq!((tier.hits, tier.misses), (1, 0));
        }
        assert_eq!((warm.caches.traces.hits, warm.caches.traces.misses), (0, 2));
        assert_eq!(warm.caches.searches, StoreStats::default());
    }

    #[test]
    fn colliding_plans_keep_their_retry_axis_and_share_seeds_only_without_draws() {
        // Every node of an 8×8 Moore window in slot 0 of a period-1 plan:
        // every slot collides, so the retry budget changes the counts.
        let caches = SweepCaches::new();
        let region = BoxRegion::square_window(2, 8).unwrap();
        let shape = latsched_tiling::shapes::moore();
        let adjacency = caches.adjacencies.get_or_build(&region, &shape).unwrap();
        let plan = caches
            .plans
            .get_or_build(&vec![0; adjacency.num_nodes()], 1, &adjacency)
            .unwrap();
        assert!(!plan.conflict_free());
        let (retries, seeds) = ([0, 2], SeedAxis::from(vec![1, 2, 3]));
        // Every run's counts in run order, each checked against its own
        // kernel run, and the number of copies the grid made.
        let run_grid = |traffic: &SweepTraffic| {
            let grid = GridContext::new(
                vec![Arc::clone(&plan)],
                vec!["window 8".into()],
                64,
                traffic,
                &retries,
                &seeds,
                KernelMac::Scheduled,
            );
            let (bands, recording, _) = telemetry::request(|| {
                grid.run_bands(Vec::new, |runs, run, counts| runs.push((run, *counts)))
            });
            let mut runs: Vec<(usize, KernelCounts)> =
                bands.unwrap().into_iter().flatten().collect();
            runs.sort_by_key(|&(run, _)| run);
            assert_eq!(runs.len(), 6);
            for &(run, counts) in &runs {
                let (plan, config) = grid.run_config(run);
                assert_eq!(counts, run_frames(plan, &config).unwrap(), "run {run}");
            }
            let counts: Vec<KernelCounts> = runs.into_iter().map(|(_, c)| c).collect();
            (counts, recording.counter(Counter::DispatchCopy))
        };
        // Runs expand retries × seeds: runs 0..3 have budget 0, 3..6 budget 2.
        let (counts, copies) = run_grid(&SweepTraffic::Bernoulli(vec![0.3]));
        assert_eq!(
            copies, 0,
            "Bernoulli runs on a colliding plan are all distinct"
        );
        for si in 0..3 {
            assert_ne!(counts[si], counts[3 + si], "seed index {si}");
        }
        // Periodic traffic draws nothing, so the seeds still collapse.
        let (counts, copies) = run_grid(&SweepTraffic::Periodic(vec![3]));
        assert_eq!(copies, 4, "two seeds copied per retry budget");
        assert_ne!(counts[0], counts[3]);
    }

    #[test]
    fn periodic_sweeps_run_without_traces() {
        let spec = SweepSpec {
            traffic: SweepTraffic::Periodic(vec![16, 32]),
            seeds: vec![1].into(),
            retries: vec![2],
            ..tiny_spec()
        };
        let report = run_sweep(&spec, &SweepCaches::new()).unwrap();
        assert_eq!(report.runs, 2);
        assert_eq!(report.aggregate.collisions, 0, "tiling MACs never collide");
        assert!(report.aggregate.packets_delivered > 0);
    }
}
