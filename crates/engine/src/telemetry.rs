//! Stage-scoped tracing and fast-path dispatch metrics for the whole engine
//! pipeline.
//!
//! The engine has six CI-gated kernel fast paths (analytic, partial-analytic,
//! scalar/Bernoulli seed lanes, the conflict-free loop shortcut and the
//! general loop) and five content-addressed cache tiers, but timing a sweep
//! from outside says nothing about *which* path each run took or where the
//! wall-clock went. This module is the engine's hand-rolled instrumentation
//! layer — no external tracing crates, just atomics and the exact-integer
//! histogram machinery from [`crate::aggregate`]:
//!
//! * **Counters** ([`Counter`]) — monotonic relaxed atomics: one per kernel
//!   dispatch path (every [`crate::run_frames`] call and every lane-kernel
//!   seed bumps exactly one, so the six dispatch counters sum to the number
//!   of simulated runs), plus steal-chunk claims, trace compilations,
//!   lane-batch/lane-run totals and per-tier cache hits/misses.
//! * **Stage histograms** — every [`Stage`] keeps a count, a total duration
//!   and a log₂-bucketed nanosecond histogram (the [`Log2Histogram`] bucket
//!   layout, held in atomics), so percentile queries cost nothing at record
//!   time.
//! * **Stage spans** ([`StageSpan`], from [`span`] / [`span_within`]) — RAII
//!   guards that record into the stage histogram *and* into a nested
//!   stage-time tree keyed by the thread-local span path, so a profile shows
//!   `sweep_run → sweep_band` nesting with per-node counts and totals.
//!   Worker threads have an empty span path of their own; [`span_within`]
//!   seeds the ancestor path so their spans still nest under the right
//!   parent in the tree.
//!
//! The registry ([`telemetry`]) is process-global and **disabled by
//! default**: every record site first does one relaxed [`AtomicBool`] load
//! and otherwise touches nothing — no clock read, no allocation, no atomic
//! write — so the instrumented hot paths cost nothing measurable when
//! telemetry is off (`BENCH_telemetry.json` gates the off/on overhead in
//! CI). Enabling is one call ([`TelemetryRegistry::set_enabled`]); the
//! `engine-cli` `--profile` and `--metrics-out` flags do it for a whole
//! invocation.
//!
//! Three export surfaces, all driven by [`TelemetrySnapshot`]:
//!
//! * [`TelemetryRegistry::snapshot`] + [`TelemetrySnapshot::since`] — the
//!   delta of a window of activity, embedded by [`crate::run_sweep`] /
//!   [`crate::run_search`] into their reports when telemetry is enabled;
//! * [`TelemetrySnapshot::to_json_value`] — the report-JSON form;
//! * `Display` — the human profile (`engine-cli sweep --profile`): dispatch
//!   mix, cache tiers, stage table and the nested stage-time tree;
//! * [`TelemetrySnapshot::to_prometheus`] — Prometheus text exposition
//!   (`latsched_*_total` counters and cumulative `_bucket{le=…}` histogram
//!   families) for `engine-cli --metrics-out FILE` and, later, the served
//!   daemon's metrics endpoint.

use crate::aggregate::{Log2Histogram, LOG2_BUCKETS};
use serde_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One monotonic event counter of the registry.
///
/// The first six variants are the kernel dispatch paths: every simulated run
/// — a [`crate::run_frames`] call or one seed of a [`crate::run_frames_lanes`]
/// batch — bumps exactly one of them, so their sum over a window equals the
/// number of runs simulated in that window (property-tested in
/// `tests/sweep_parity.rs`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Counter {
    /// Runs replayed fully closed-form (analytic periodic/staggered/trace
    /// replay, including the idle no-traffic path).
    DispatchAnalytic,
    /// Runs replayed closed-form on clean slot classes with a loop only over
    /// the conflicted minority.
    DispatchPartialAnalytic,
    /// Seeds simulated by the 64-seed bit-sliced lane kernel under
    /// deterministic (periodic/staggered/trace) traffic.
    DispatchLaneScalar,
    /// Seeds simulated by the lane kernel under Bernoulli traffic (batched
    /// in-kernel draws, no trace compilation).
    DispatchLaneBernoulli,
    /// Runs through the slot loop's conflict-free shortcut (no interference
    /// passes).
    DispatchConflictFree,
    /// Runs through the general slot loop (bitset interference passes).
    DispatchGeneralLoop,
    /// Chunk claims taken from [`crate::parallel::steal_chunks`]'s atomic
    /// counter (one per `fetch_add` that yielded work).
    StealClaims,
    /// Traffic traces compiled ([`crate::TrafficTrace`] Bernoulli bitmaps and
    /// ALOHA MAC decision bitmaps, cached or not).
    TraceCompilations,
    /// Lane-kernel batches executed (each covers up to 64 seeds).
    LaneBatches,
    /// Seeds covered by lane-kernel batches (the sum of batch widths).
    LaneRuns,
    /// Schedule-tier cache lookups answered from the cache.
    ScheduleHits,
    /// Schedule-tier cache lookups that had to compile.
    ScheduleMisses,
    /// Adjacency-tier cache lookups answered from the cache.
    AdjacencyHits,
    /// Adjacency-tier cache lookups that had to build.
    AdjacencyMisses,
    /// Plan-tier cache lookups answered from the cache.
    PlanHits,
    /// Plan-tier cache lookups that had to build.
    PlanMisses,
    /// Trace-tier cache lookups answered from the cache.
    TraceHits,
    /// Trace-tier cache lookups that had to build.
    TraceMisses,
    /// Search-tier cache lookups answered from the cache.
    SearchHits,
    /// Search-tier cache lookups that had to run the search.
    SearchMisses,
}

/// Every counter, in declaration order (the dense index order of the
/// registry's atomic array).
pub const COUNTERS: [Counter; 20] = [
    Counter::DispatchAnalytic,
    Counter::DispatchPartialAnalytic,
    Counter::DispatchLaneScalar,
    Counter::DispatchLaneBernoulli,
    Counter::DispatchConflictFree,
    Counter::DispatchGeneralLoop,
    Counter::StealClaims,
    Counter::TraceCompilations,
    Counter::LaneBatches,
    Counter::LaneRuns,
    Counter::ScheduleHits,
    Counter::ScheduleMisses,
    Counter::AdjacencyHits,
    Counter::AdjacencyMisses,
    Counter::PlanHits,
    Counter::PlanMisses,
    Counter::TraceHits,
    Counter::TraceMisses,
    Counter::SearchHits,
    Counter::SearchMisses,
];

/// The six kernel dispatch-path counters, whose sum over a window equals the
/// number of runs simulated in that window.
pub const DISPATCH_COUNTERS: [Counter; 6] = [
    Counter::DispatchAnalytic,
    Counter::DispatchPartialAnalytic,
    Counter::DispatchLaneScalar,
    Counter::DispatchLaneBernoulli,
    Counter::DispatchConflictFree,
    Counter::DispatchGeneralLoop,
];

impl Counter {
    /// The snake_case name used in JSON snapshots and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DispatchAnalytic => "dispatch_analytic",
            Counter::DispatchPartialAnalytic => "dispatch_partial_analytic",
            Counter::DispatchLaneScalar => "dispatch_lane_scalar",
            Counter::DispatchLaneBernoulli => "dispatch_lane_bernoulli",
            Counter::DispatchConflictFree => "dispatch_conflict_free",
            Counter::DispatchGeneralLoop => "dispatch_general_loop",
            Counter::StealClaims => "steal_claims",
            Counter::TraceCompilations => "trace_compilations",
            Counter::LaneBatches => "lane_batches",
            Counter::LaneRuns => "lane_runs",
            Counter::ScheduleHits => "schedules_hits",
            Counter::ScheduleMisses => "schedules_misses",
            Counter::AdjacencyHits => "adjacencies_hits",
            Counter::AdjacencyMisses => "adjacencies_misses",
            Counter::PlanHits => "plans_hits",
            Counter::PlanMisses => "plans_misses",
            Counter::TraceHits => "traces_hits",
            Counter::TraceMisses => "traces_misses",
            Counter::SearchHits => "searches_hits",
            Counter::SearchMisses => "searches_misses",
        }
    }

    fn index(self) -> usize {
        COUNTERS.iter().position(|&c| c == self).expect("listed")
    }
}

/// The five content-addressed cache tiers, as telemetry label values; each
/// maps to its hit/miss [`Counter`] pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheTier {
    /// Shape → compiled Theorem 1 schedule ([`crate::ScheduleCache`]).
    Schedules,
    /// (window, shape) → interference adjacency ([`crate::AdjacencyCache`]).
    Adjacencies,
    /// (assignment, adjacency) → fused plan ([`crate::PlanCache`]).
    Plans,
    /// (plan, seed, load, slots) → compiled trace ([`crate::TraceCache`]).
    Traces,
    /// (scenario, objective) → ranked outcome ([`crate::SearchCache`]).
    Searches,
}

/// Every cache tier, in pipeline order.
pub const CACHE_TIERS: [CacheTier; 5] = [
    CacheTier::Schedules,
    CacheTier::Adjacencies,
    CacheTier::Plans,
    CacheTier::Traces,
    CacheTier::Searches,
];

impl CacheTier {
    /// The tier's Prometheus label value.
    pub fn name(self) -> &'static str {
        match self {
            CacheTier::Schedules => "schedules",
            CacheTier::Adjacencies => "adjacencies",
            CacheTier::Plans => "plans",
            CacheTier::Traces => "traces",
            CacheTier::Searches => "searches",
        }
    }

    /// The counter a lookup outcome on this tier bumps.
    pub fn counter(self, hit: bool) -> Counter {
        match (self, hit) {
            (CacheTier::Schedules, true) => Counter::ScheduleHits,
            (CacheTier::Schedules, false) => Counter::ScheduleMisses,
            (CacheTier::Adjacencies, true) => Counter::AdjacencyHits,
            (CacheTier::Adjacencies, false) => Counter::AdjacencyMisses,
            (CacheTier::Plans, true) => Counter::PlanHits,
            (CacheTier::Plans, false) => Counter::PlanMisses,
            (CacheTier::Traces, true) => Counter::TraceHits,
            (CacheTier::Traces, false) => Counter::TraceMisses,
            (CacheTier::Searches, true) => Counter::SearchHits,
            (CacheTier::Searches, false) => Counter::SearchMisses,
        }
    }
}

/// One instrumented pipeline stage; every stage has a duration histogram in
/// the registry and appears as a node of the span tree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// Theorem 1 schedule compilation (tiling search + table build).
    ScheduleCompile,
    /// Window interference-adjacency construction.
    AdjacencyBuild,
    /// Frame-plan fusion (per-slot CSR + conflict bitmasks).
    PlanFuse,
    /// Traffic-trace compilation (Bernoulli bitmaps / MAC decision bitmaps).
    TraceCompile,
    /// One cold schedule search (candidate enumeration + evaluation).
    SearchCompile,
    /// The single-threaded setup phase of a sweep (artifact resolution).
    SweepSetup,
    /// The parallel execution phase of a sweep.
    SweepRun,
    /// One stolen band of sweep or search grid work, folded into its own
    /// accumulator.
    SweepBand,
    /// The merge of per-band group folds at the fan-in barrier.
    FoldMerge,
    /// One `FrameKernel` backend run from `latsched-sensornet`.
    FrameSimRun,
}

/// Every stage, in declaration order (the dense index order of the registry's
/// histogram array).
pub const STAGES: [Stage; 10] = [
    Stage::ScheduleCompile,
    Stage::AdjacencyBuild,
    Stage::PlanFuse,
    Stage::TraceCompile,
    Stage::SearchCompile,
    Stage::SweepSetup,
    Stage::SweepRun,
    Stage::SweepBand,
    Stage::FoldMerge,
    Stage::FrameSimRun,
];

impl Stage {
    /// The snake_case name used in JSON snapshots and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ScheduleCompile => "schedule_compile",
            Stage::AdjacencyBuild => "adjacency_build",
            Stage::PlanFuse => "plan_fuse",
            Stage::TraceCompile => "trace_compile",
            Stage::SearchCompile => "search_compile",
            Stage::SweepSetup => "sweep_setup",
            Stage::SweepRun => "sweep_run",
            Stage::SweepBand => "sweep_band",
            Stage::FoldMerge => "fold_merge",
            Stage::FrameSimRun => "framesim_run",
        }
    }

    fn index(self) -> usize {
        STAGES.iter().position(|&s| s == self).expect("listed")
    }
}

/// The atomic duration accumulator of one stage: observation count, total
/// nanoseconds, and the [`Log2Histogram`] bucket layout held in atomics.
struct StageCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; LOG2_BUCKETS],
}

impl StageCell {
    fn new() -> Self {
        StageCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[Log2Histogram::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// One node of the nested stage-time tree: how often a stage closed at this
/// exact span path, and the total time spent there (children's time is *not*
/// subtracted — a parent span covers its children).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct StageTreeNode {
    /// Spans closed at this path.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Child stages nested under this node.
    pub children: BTreeMap<Stage, StageTreeNode>,
}

impl StageTreeNode {
    /// Records one closed span along `path` under this node.
    fn record(&mut self, path: &[Stage], ns: u64) {
        match path.split_first() {
            None => {
                self.count += 1;
                self.total_ns = self.total_ns.saturating_add(ns);
            }
            Some((head, rest)) => self.children.entry(*head).or_default().record(rest, ns),
        }
    }

    /// The node-wise difference against an earlier snapshot of the same tree,
    /// dropping nodes with no activity in the window.
    fn since(&self, earlier: &StageTreeNode) -> StageTreeNode {
        let mut children = BTreeMap::new();
        for (stage, node) in &self.children {
            let delta = match earlier.children.get(stage) {
                Some(before) => node.since(before),
                None => node.clone(),
            };
            if delta.count > 0 || !delta.children.is_empty() {
                children.insert(*stage, delta);
            }
        }
        StageTreeNode {
            count: self.count - earlier.count,
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            children,
        }
    }

    fn to_json_children(&self) -> Value {
        let items = self
            .children
            .iter()
            .map(|(stage, node)| {
                let mut map = BTreeMap::new();
                map.insert("stage".to_string(), Value::from(stage.name()));
                map.insert("count".to_string(), Value::from(node.count));
                map.insert("total_ns".to_string(), Value::from(node.total_ns));
                map.insert("children".to_string(), node.to_json_children());
                Value::Object(map)
            })
            .collect();
        Value::Array(items)
    }
}

/// The process-global instrumentation registry: an enable flag, the counter
/// array, per-stage duration histograms and the nested span tree. Obtain it
/// with [`telemetry`].
pub struct TelemetryRegistry {
    enabled: AtomicBool,
    counters: [AtomicU64; COUNTERS.len()],
    stages: [StageCell; STAGES.len()],
    tree: Mutex<StageTreeNode>,
}

thread_local! {
    /// The current span path of this thread (innermost open span last).
    static SPAN_PATH: RefCell<Vec<Stage>> = const { RefCell::new(Vec::new()) };
}

impl TelemetryRegistry {
    fn new() -> Self {
        TelemetryRegistry {
            enabled: AtomicBool::new(false),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stages: std::array::from_fn(|_| StageCell::new()),
            tree: Mutex::new(StageTreeNode::default()),
        }
    }

    /// Whether recording is on (one relaxed load — the fast check every
    /// instrumentation site does first).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off, process-wide. Counters are monotonic and
    /// never reset; consumers window them with [`TelemetrySnapshot::since`].
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Adds `n` to a counter (no-op while disabled).
    #[inline]
    pub fn count(&self, counter: Counter, n: u64) {
        if self.enabled() {
            self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Records one closed span: `path` is the full span path (the closing
    /// stage last), `ns` its duration.
    fn record_span(&self, path: &[Stage], ns: u64) {
        let stage = *path.last().expect("span path is never empty");
        self.stages[stage.index()].record(ns);
        self.tree
            .lock()
            .expect("telemetry tree poisoned")
            .record(path, ns);
    }

    /// A point-in-time snapshot of every counter, stage histogram and the
    /// span tree. Pair two snapshots with [`TelemetrySnapshot::since`] to
    /// window one sweep or search.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed));
        let stages = std::array::from_fn(|i| {
            let cell = &self.stages[i];
            let mut buckets = [0u64; LOG2_BUCKETS];
            for (b, atomic) in buckets.iter_mut().zip(&cell.buckets) {
                *b = atomic.load(Ordering::Relaxed);
            }
            StageStats {
                count: cell.count.load(Ordering::Relaxed),
                total_ns: cell.total_ns.load(Ordering::Relaxed),
                histogram: Log2Histogram::from_buckets(buckets),
            }
        });
        let tree = self.tree.lock().expect("telemetry tree poisoned").clone();
        TelemetrySnapshot {
            counters,
            stages,
            tree,
        }
    }
}

/// The process-global registry every instrumentation site records into.
pub fn telemetry() -> &'static TelemetryRegistry {
    static REGISTRY: OnceLock<TelemetryRegistry> = OnceLock::new();
    REGISTRY.get_or_init(TelemetryRegistry::new)
}

/// An RAII stage span: created by [`span`] / [`span_within`], records its
/// duration (and its position in the span tree) into the global registry when
/// dropped. A span created while telemetry is disabled is inert — it reads no
/// clock and records nothing.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct StageSpan {
    /// `None` while disabled; otherwise the start instant and how many path
    /// entries this span pushed (1, plus any seeded ancestors).
    armed: Option<(Instant, usize)>,
}

impl StageSpan {
    const INERT: StageSpan = StageSpan { armed: None };
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some((start, pushed)) = self.armed.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_PATH.with(|path| {
                let mut path = path.borrow_mut();
                telemetry().record_span(&path, ns);
                let keep = path.len().saturating_sub(pushed);
                path.truncate(keep);
            });
        }
    }
}

/// Opens a stage span nested under whatever spans are already open on this
/// thread (no-op while telemetry is disabled).
#[inline]
pub fn span(stage: Stage) -> StageSpan {
    span_within(&[], stage)
}

/// Opens a stage span, seeding `ancestors` as the span path first **if this
/// thread has no open spans**. Worker threads spawned inside a parallel stage
/// have fresh (empty) span paths; seeding lets their spans nest under the
/// logical parent (e.g. a `sweep_band` under `sweep_run`) instead of
/// appearing as roots. On threads that already have open spans the ancestors
/// are ignored and the span nests normally.
#[inline]
pub fn span_within(ancestors: &[Stage], stage: Stage) -> StageSpan {
    if !telemetry().enabled() {
        return StageSpan::INERT;
    }
    let pushed = SPAN_PATH.with(|path| {
        let mut path = path.borrow_mut();
        let mut pushed = 1;
        if path.is_empty() && !ancestors.is_empty() {
            path.extend_from_slice(ancestors);
            pushed += ancestors.len();
        }
        path.push(stage);
        pushed
    });
    StageSpan {
        armed: Some((Instant::now(), pushed)),
    }
}

/// The frozen duration statistics of one stage.
#[derive(Clone, PartialEq, Debug)]
pub struct StageStats {
    /// Spans recorded.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Log₂-bucketed span durations (nanoseconds).
    pub histogram: Log2Histogram,
}

impl StageStats {
    fn since(&self, earlier: &StageStats) -> StageStats {
        let mut buckets = [0u64; LOG2_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = self.histogram.count(i) - earlier.histogram.count(i);
        }
        StageStats {
            count: self.count - earlier.count,
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            histogram: Log2Histogram::from_buckets(buckets),
        }
    }
}

/// A frozen copy of the registry: counters, per-stage duration statistics and
/// the span tree. Two snapshots subtract ([`TelemetrySnapshot::since`]) to
/// window one sweep/search, which is exactly what [`crate::SweepReport`] and
/// [`crate::SearchReport`] embed when telemetry is enabled.
#[derive(Clone, PartialEq, Debug)]
pub struct TelemetrySnapshot {
    counters: [u64; COUNTERS.len()],
    stages: [StageStats; STAGES.len()],
    /// The nested stage-time tree (root children are top-level stages).
    pub tree: StageTreeNode,
}

impl TelemetrySnapshot {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The duration statistics of one stage.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        &self.stages[stage.index()]
    }

    /// The sum of the six dispatch-path counters — the number of simulated
    /// runs covered by this snapshot (or window).
    pub fn dispatch_total(&self) -> u64 {
        DISPATCH_COUNTERS.iter().map(|&c| self.counter(c)).sum()
    }

    /// The counter/stage/tree movement since an earlier snapshot of the same
    /// registry (all counters are monotonic, so plain subtraction windows a
    /// sweep exactly; concurrent activity in the same process lands in the
    /// same window).
    #[must_use]
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: std::array::from_fn(|i| self.counters[i] - earlier.counters[i]),
            stages: std::array::from_fn(|i| self.stages[i].since(&earlier.stages[i])),
            tree: self.tree.since(&earlier.tree),
        }
    }

    /// The snapshot as a JSON object: a flat `counters` map, per-stage
    /// `{count, total_ns, histogram}` objects (stages with no spans are
    /// omitted), and the nested `tree`.
    pub fn to_json_value(&self) -> Value {
        let mut counters = BTreeMap::new();
        for c in COUNTERS {
            counters.insert(c.name().to_string(), Value::from(self.counter(c)));
        }
        let mut stages = BTreeMap::new();
        for s in STAGES {
            let stats = self.stage(s);
            if stats.count == 0 {
                continue;
            }
            let mut map = BTreeMap::new();
            map.insert("count".to_string(), Value::from(stats.count));
            map.insert("total_ns".to_string(), Value::from(stats.total_ns));
            map.insert("histogram".to_string(), stats.histogram.to_json_value());
            stages.insert(s.name().to_string(), Value::Object(map));
        }
        let mut map = BTreeMap::new();
        map.insert("counters".to_string(), Value::Object(counters));
        map.insert("stages".to_string(), Value::Object(stages));
        map.insert("tree".to_string(), self.tree.to_json_children());
        Value::Object(map)
    }

    /// The snapshot in Prometheus text exposition format: counter families
    /// (`latsched_dispatch_runs_total{path=…}`,
    /// `latsched_cache_lookups_total{tier=…,outcome=…}`, the scalar
    /// `latsched_*_total` counters) and one cumulative histogram family
    /// (`latsched_stage_duration_ns{stage=…}` with `_bucket{le=…}`, `_sum`
    /// and `_count` series).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# TYPE latsched_dispatch_runs_total counter\n");
        for (c, label) in DISPATCH_COUNTERS.iter().zip([
            "analytic",
            "partial_analytic",
            "lane_scalar",
            "lane_bernoulli",
            "conflict_free",
            "general_loop",
        ]) {
            let _ = writeln!(
                out,
                "latsched_dispatch_runs_total{{path=\"{label}\"}} {}",
                self.counter(*c)
            );
        }
        for (family, counter) in [
            ("latsched_steal_claims_total", Counter::StealClaims),
            (
                "latsched_trace_compilations_total",
                Counter::TraceCompilations,
            ),
            ("latsched_lane_batches_total", Counter::LaneBatches),
            ("latsched_lane_runs_total", Counter::LaneRuns),
        ] {
            let _ = writeln!(
                out,
                "# TYPE {family} counter\n{family} {}",
                self.counter(counter)
            );
        }
        out.push_str("# TYPE latsched_cache_lookups_total counter\n");
        for tier in CACHE_TIERS {
            for (outcome, hit) in [("hit", true), ("miss", false)] {
                let _ = writeln!(
                    out,
                    "latsched_cache_lookups_total{{tier=\"{}\",outcome=\"{outcome}\"}} {}",
                    tier.name(),
                    self.counter(tier.counter(hit))
                );
            }
        }
        out.push_str("# TYPE latsched_stage_duration_ns histogram\n");
        for stage in STAGES {
            let stats = self.stage(stage);
            if stats.count == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for bucket in 0..LOG2_BUCKETS {
                let n = stats.histogram.count(bucket);
                if n == 0 {
                    continue;
                }
                cumulative += n;
                // Bucket b covers values < 2^b, so its inclusive `le` upper
                // bound is 2^b - 1 (bucket 0 holds the exact value 0).
                let le = if bucket >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bucket) - 1
                };
                let _ = writeln!(
                    out,
                    "latsched_stage_duration_ns_bucket{{stage=\"{}\",le=\"{le}\"}} {cumulative}",
                    stage.name()
                );
            }
            let _ = writeln!(
                out,
                "latsched_stage_duration_ns_bucket{{stage=\"{}\",le=\"+Inf\"}} {}",
                stage.name(),
                stats.count
            );
            let _ = writeln!(
                out,
                "latsched_stage_duration_ns_sum{{stage=\"{}\"}} {}",
                stage.name(),
                stats.total_ns
            );
            let _ = writeln!(
                out,
                "latsched_stage_duration_ns_count{{stage=\"{}\"}} {}",
                stage.name(),
                stats.count
            );
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit for the human profile.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl StageTreeNode {
    fn fmt_children(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        for (stage, node) in &self.children {
            let mean = node.total_ns.checked_div(node.count).unwrap_or(0);
            writeln!(
                f,
                "  {:indent$}{:width$} {:>8} × {:>9}  (mean {})",
                "",
                stage.name(),
                node.count,
                fmt_ns(node.total_ns),
                fmt_ns(mean),
                indent = depth * 2,
                width = 24usize.saturating_sub(depth * 2),
            )?;
            node.fmt_children(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for TelemetrySnapshot {
    /// The human profile printed by `engine-cli … --profile`: the fast-path
    /// dispatch mix (summing to the simulated run count), scalar counters,
    /// per-tier cache lookups, a stage summary table and the nested
    /// stage-time tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fast-path dispatch mix")?;
        for (c, label) in DISPATCH_COUNTERS.iter().zip([
            "analytic",
            "partial-analytic",
            "lane-scalar",
            "lane-bernoulli",
            "conflict-free",
            "general-loop",
        ]) {
            writeln!(f, "  {label:<18} {:>10}", self.counter(*c))?;
        }
        writeln!(f, "  {:<18} {:>10}", "total runs", self.dispatch_total())?;
        writeln!(
            f,
            "counters: steal_claims={} trace_compilations={} lane_batches={} lane_runs={}",
            self.counter(Counter::StealClaims),
            self.counter(Counter::TraceCompilations),
            self.counter(Counter::LaneBatches),
            self.counter(Counter::LaneRuns),
        )?;
        writeln!(f, "cache tiers (hits/misses)")?;
        for tier in CACHE_TIERS {
            writeln!(
                f,
                "  {:<13} {:>6} / {:<6}",
                tier.name(),
                self.counter(tier.counter(true)),
                self.counter(tier.counter(false)),
            )?;
        }
        writeln!(f, "stages (count · total · mean · p99≥)")?;
        for stage in STAGES {
            let stats = self.stage(stage);
            if stats.count == 0 {
                continue;
            }
            let p99 = stats.histogram.percentile_lower_bound(0.99).unwrap_or(0);
            writeln!(
                f,
                "  {:<17} {:>8} · {:>9} · {:>9} · {:>9}",
                stage.name(),
                stats.count,
                fmt_ns(stats.total_ns),
                fmt_ns(stats.total_ns / stats.count),
                fmt_ns(p99),
            )?;
        }
        writeln!(f, "stage tree")?;
        self.tree.fmt_children(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with chosen counter values and one recorded stage, built
    /// without touching the global registry.
    fn synthetic(counts: &[(Counter, u64)], stage_ns: &[(Stage, u64)]) -> TelemetrySnapshot {
        let registry = TelemetryRegistry::new();
        registry.set_enabled(true);
        for &(c, n) in counts {
            registry.count(c, n);
        }
        for &(s, ns) in stage_ns {
            registry.record_span(&[s], ns);
        }
        registry.snapshot()
    }

    #[test]
    fn counters_are_inert_while_disabled() {
        let registry = TelemetryRegistry::new();
        registry.count(Counter::DispatchAnalytic, 5);
        assert_eq!(registry.counter(Counter::DispatchAnalytic), 0);
        registry.set_enabled(true);
        registry.count(Counter::DispatchAnalytic, 5);
        assert_eq!(registry.counter(Counter::DispatchAnalytic), 5);
        registry.set_enabled(false);
        registry.count(Counter::DispatchAnalytic, 5);
        assert_eq!(registry.counter(Counter::DispatchAnalytic), 5);
    }

    #[test]
    fn snapshot_deltas_window_counters_and_stages() {
        let registry = TelemetryRegistry::new();
        registry.set_enabled(true);
        registry.count(Counter::DispatchGeneralLoop, 3);
        registry.record_span(&[Stage::SweepRun], 1000);
        let before = registry.snapshot();
        registry.count(Counter::DispatchGeneralLoop, 4);
        registry.count(Counter::StealClaims, 2);
        registry.record_span(&[Stage::SweepRun], 3000);
        registry.record_span(&[Stage::SweepRun, Stage::SweepBand], 2000);
        let delta = registry.snapshot().since(&before);
        assert_eq!(delta.counter(Counter::DispatchGeneralLoop), 4);
        assert_eq!(delta.counter(Counter::StealClaims), 2);
        assert_eq!(delta.dispatch_total(), 4);
        assert_eq!(delta.stage(Stage::SweepRun).count, 1);
        assert_eq!(delta.stage(Stage::SweepRun).total_ns, 3000);
        assert_eq!(delta.stage(Stage::SweepBand).count, 1);
        // The tree delta keeps only the window's activity, nested.
        let run = delta.tree.children.get(&Stage::SweepRun).expect("node");
        assert_eq!((run.count, run.total_ns), (1, 3000));
        let band = run.children.get(&Stage::SweepBand).expect("nested");
        assert_eq!((band.count, band.total_ns), (1, 2000));
    }

    #[test]
    fn span_tree_nests_by_thread_local_path() {
        let registry = TelemetryRegistry::new();
        // Simulate what spans record: a sweep_run containing two bands, one
        // of which compiled a trace.
        registry.record_span(&[Stage::SweepRun, Stage::SweepBand], 10);
        registry.record_span(&[Stage::SweepRun, Stage::SweepBand, Stage::TraceCompile], 4);
        registry.record_span(&[Stage::SweepRun, Stage::SweepBand], 20);
        registry.record_span(&[Stage::SweepRun], 50);
        let snap = registry.snapshot();
        let run = snap.tree.children.get(&Stage::SweepRun).expect("root");
        assert_eq!((run.count, run.total_ns), (1, 50));
        let band = run.children.get(&Stage::SweepBand).expect("child");
        assert_eq!((band.count, band.total_ns), (2, 30));
        let compile = band.children.get(&Stage::TraceCompile).expect("leaf");
        assert_eq!((compile.count, compile.total_ns), (1, 4));
    }

    #[test]
    fn json_snapshot_has_counters_stages_and_tree() {
        let snap = synthetic(
            &[(Counter::DispatchAnalytic, 64), (Counter::TraceHits, 7)],
            &[(Stage::SweepSetup, 1500)],
        );
        let json = snap.to_json_value();
        let text = serde_json::to_string(&json);
        assert!(text.contains("\"dispatch_analytic\":64"));
        assert!(text.contains("\"traces_hits\":7"));
        assert!(text.contains("\"sweep_setup\""));
        assert!(text.contains("\"tree\""));
        // Stages with no spans are omitted from the stage map.
        assert!(!text.contains("\"search_compile\""));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let snap = synthetic(
            &[
                (Counter::DispatchAnalytic, 64),
                (Counter::StealClaims, 12),
                (Counter::ScheduleHits, 3),
            ],
            &[(Stage::SweepRun, 1000), (Stage::SweepRun, 3000)],
        );
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE latsched_dispatch_runs_total counter"));
        assert!(text.contains("latsched_dispatch_runs_total{path=\"analytic\"} 64"));
        assert!(text.contains("latsched_steal_claims_total 12"));
        assert!(text.contains("latsched_cache_lookups_total{tier=\"schedules\",outcome=\"hit\"} 3"));
        assert!(text.contains("# TYPE latsched_stage_duration_ns histogram"));
        // 1000 ns lands in bucket 10 (le 1023), 3000 ns in bucket 12 (le
        // 4095); the bucket series is cumulative and closed by +Inf.
        assert!(
            text.contains("latsched_stage_duration_ns_bucket{stage=\"sweep_run\",le=\"1023\"} 1")
        );
        assert!(
            text.contains("latsched_stage_duration_ns_bucket{stage=\"sweep_run\",le=\"4095\"} 2")
        );
        assert!(
            text.contains("latsched_stage_duration_ns_bucket{stage=\"sweep_run\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("latsched_stage_duration_ns_sum{stage=\"sweep_run\"} 4000"));
        assert!(text.contains("latsched_stage_duration_ns_count{stage=\"sweep_run\"} 2"));
        // Every line is `name{labels} value` or a comment.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .split_once(' ')
                        .is_some_and(|(_, v)| v.parse::<u64>().is_ok()),
                "unparseable line: {line}"
            );
        }
    }

    #[test]
    fn display_profile_lists_mix_tiers_and_tree() {
        let snap = synthetic(
            &[
                (Counter::DispatchAnalytic, 60),
                (Counter::DispatchGeneralLoop, 4),
            ],
            &[(Stage::SweepRun, 2_500_000)],
        );
        let text = snap.to_string();
        assert!(text.contains("fast-path dispatch mix"));
        assert!(text.contains("total runs"));
        assert!(text.contains("64"));
        assert!(text.contains("schedules"));
        assert!(text.contains("sweep_run"));
        assert!(text.contains("2.50ms"));
    }

    #[test]
    fn inert_spans_do_not_touch_the_path() {
        // The global registry is disabled by default in this process: spans
        // must be inert and leave no thread-local state behind.
        assert!(!telemetry().enabled());
        {
            let _outer = span(Stage::SweepRun);
            let _inner = span_within(&[Stage::SweepRun], Stage::SweepBand);
        }
        SPAN_PATH.with(|p| assert!(p.borrow().is_empty()));
    }

    #[test]
    fn counter_and_stage_names_are_unique() {
        let mut names: Vec<&str> = COUNTERS.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len());
        let mut stages: Vec<&str> = STAGES.iter().map(|s| s.name()).collect();
        stages.sort_unstable();
        stages.dedup();
        assert_eq!(stages.len(), STAGES.len());
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
