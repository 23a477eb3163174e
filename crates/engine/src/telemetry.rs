//! Per-request instrumentation of the whole engine pipeline: stage spans,
//! fast-path dispatch counters and cache-tier lookups, each counted once, in
//! the request that made it.
//!
//! Timing a sweep from outside says nothing about *which* of the four kernel
//! paths each run took (or whether it was copied from an identical
//! run), how the five cache tiers answered, or where the wall-clock went.
//! This module is the engine's hand-rolled instrumentation layer — no
//! external tracing crates, just a thread-local recorder and the
//! exact-integer histogram machinery from [`crate::aggregate`]:
//!
//! * **Counters** ([`Counter`]) — one per kernel dispatch path plus one for
//!   copied runs (every [`crate::run_frames`] call, every lane-kernel seed
//!   and every grid run that copies a canonical run's counts bumps exactly
//!   one, so the five dispatch counters sum to the grid size), plus
//!   steal-chunk claims, trace compilations, lane-batch/lane-run totals and
//!   per-tier cache hits/misses.
//! * **Stage spans** ([`StageSpan`], from [`span`]) — RAII guards that record
//!   each [`Stage`]'s count, total and exact maximum duration plus a
//!   [`Log2Histogram`] ([`StageStats`]), and a nested stage-time tree keyed by
//!   the open span path, so a profile shows `sweep_run → sweep_band` nesting.
//!
//! **Recorders.** Every [`crate::run_sweep`], [`crate::run_search`] and
//! [`crate::run_scenario`] call (and every `latsched-sensornet` frame-kernel
//! run) is one *request* ([`request`]): for its duration a thread-local
//! recorder — a [`TelemetrySnapshot`] plus the open span path — collects
//! every counter, cache lookup and span on its thread. The band executor
//! gives each band a fresh recorder starting from the span path open at the
//! fan-out, and merges the band recordings into the request's in band order,
//! the way group folds merge. A request that runs inside another recorder
//! merges its recording into that one when it ends, the same way, nested
//! under the span path open there. So a request's numbers are its own even
//! when requests run concurrently, they do not depend on which worker ran
//! which band, and an enclosing recording is the sum of the requests in it,
//! each counted once. Outside any recorder nothing records.
//!
//! **Profiling.** Counters record in every request; reports read their
//! per-tier cache hits and misses from the recording. Spans read the clock
//! only in *profiled* recorders: the root recorder of a [`profile`] scope and
//! every request and band nested in it, since a request takes its setting
//! from the recorder it runs in. There is no process-wide state: two threads
//! profile independently, and a request outside any [`profile`] is never
//! profiled. A profiled request embeds its recording in its report;
//! `engine-cli --profile` profiles each spec's request, and `--metrics-out`
//! runs the whole command in one [`profile`] and writes its recording.
//! Unprofiled, a span is one thread-local check (the `telemetry` entry of
//! `BENCH.json` gates the off/on overhead in CI).
//!
//! A [`TelemetrySnapshot`] exports as report JSON
//! ([`TelemetrySnapshot::to_json_value`]), as the human profile (`Display`:
//! dispatch mix, cache tiers, stage table and stage tree) and as Prometheus
//! text exposition ([`TelemetrySnapshot::to_prometheus`], for the recording
//! `engine-cli --metrics-out FILE` writes).

use crate::aggregate::{Log2Histogram, LOG2_BUCKETS};
use serde_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// One event counter of a recording.
///
/// The first five variants are the dispatch counters. Every simulated run —
/// a [`crate::run_frames`] call or one seed of a [`crate::run_frames_lanes`]
/// batch — bumps exactly one of the four kernel paths, and every grid run
/// that receives a copy of a canonical run's counts bumps
/// [`Counter::DispatchCopy`], so over a sweep or search grid their sum equals
/// the grid size (property-tested in `tests/sweep_parity.rs`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Counter {
    /// Runs replayed fully closed-form: periodic, staggered or trace traffic
    /// on a conflict-free plan under scheduled access, and the idle
    /// no-traffic path.
    DispatchAnalytic,
    /// Seeds simulated by the 64-seed bit-sliced lane kernel under
    /// deterministic (periodic or staggered) traffic; lane batches refuse
    /// trace traffic.
    DispatchLaneScalar,
    /// Seeds simulated by the lane kernel under Bernoulli traffic (batched
    /// in-kernel draws, no trace compilation).
    DispatchLaneBernoulli,
    /// Runs through the general slot loop, which resolves every slot with
    /// bitset interference passes: slotted ALOHA on any plan, and scheduled
    /// access on a conflicted plan.
    DispatchGeneralLoop,
    /// Grid runs not simulated: they received a copy of a canonical run's
    /// counts, which their retry budget, seed or repeated plan cannot change.
    DispatchCopy,
    /// Band claims the sweep engine's band executor took from
    /// [`crate::parallel::steal_chunks`]'s atomic counter (one per
    /// `fetch_add` that yielded work); a trace build's claims are not
    /// counted.
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

/// Every counter, in declaration order (the dense index order of a
/// snapshot's counter array).
pub const COUNTERS: [Counter; 19] = [
    Counter::DispatchAnalytic,
    Counter::DispatchLaneScalar,
    Counter::DispatchLaneBernoulli,
    Counter::DispatchGeneralLoop,
    Counter::DispatchCopy,
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

/// The five dispatch counters — four kernel paths and copies — whose sum
/// over a sweep or search recording equals its grid size.
pub const DISPATCH_COUNTERS: [Counter; 5] = [
    Counter::DispatchAnalytic,
    Counter::DispatchLaneScalar,
    Counter::DispatchLaneBernoulli,
    Counter::DispatchGeneralLoop,
    Counter::DispatchCopy,
];

impl Counter {
    /// The snake_case name used in JSON snapshots and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DispatchAnalytic => "dispatch_analytic",
            Counter::DispatchLaneScalar => "dispatch_lane_scalar",
            Counter::DispatchLaneBernoulli => "dispatch_lane_bernoulli",
            Counter::DispatchGeneralLoop => "dispatch_general_loop",
            Counter::DispatchCopy => "dispatch_copy",
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

    /// A dispatch counter's path label (`analytic`, `copy`, …): its name
    /// without the `dispatch_` prefix.
    fn dispatch_path(self) -> &'static str {
        let name = self.name();
        name.strip_prefix("dispatch_").unwrap_or(name)
    }

    fn index(self) -> usize {
        self as usize
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

/// One instrumented pipeline stage; every stage has duration statistics in a
/// recording and appears as a node of its span tree.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// Theorem 1 schedule compilation (tiling search + table build).
    ScheduleCompile,
    /// Window interference-adjacency construction.
    AdjacencyBuild,
    /// Frame-plan fusion (slot-major relabelling, adjacency and conflict
    /// check).
    PlanFuse,
    /// Traffic-trace compilation (Bernoulli bitmaps / MAC decision bitmaps).
    TraceCompile,
    /// One cold schedule search (candidate enumeration + evaluation).
    SearchCompile,
    /// A search's candidate enumeration, both families up to their plans.
    CandidateEnumerate,
    /// The distance-2 conflict graph the colouring family colours.
    ConflictGraph,
    /// One colouring generator's run over the conflict graph.
    ColoringGenerator,
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

/// Every stage, in declaration order (the order a snapshot lists its stages
/// in).
pub const STAGES: [Stage; 13] = [
    Stage::ScheduleCompile,
    Stage::AdjacencyBuild,
    Stage::PlanFuse,
    Stage::TraceCompile,
    Stage::SearchCompile,
    Stage::CandidateEnumerate,
    Stage::ConflictGraph,
    Stage::ColoringGenerator,
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
            Stage::CandidateEnumerate => "candidate_enumerate",
            Stage::ConflictGraph => "conflict_graph",
            Stage::ColoringGenerator => "coloring_generator",
            Stage::SweepSetup => "sweep_setup",
            Stage::SweepRun => "sweep_run",
            Stage::SweepBand => "sweep_band",
            Stage::FoldMerge => "fold_merge",
            Stage::FrameSimRun => "framesim_run",
        }
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

    /// Adds another tree node by node.
    fn merge(&mut self, other: &StageTreeNode) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for (stage, node) in &other.children {
            self.children.entry(*stage).or_default().merge(node);
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

/// The duration statistics of one stage.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct StageStats {
    /// Spans recorded.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// The longest span, exactly (the histogram only bounds it to a power of
    /// two).
    pub max_ns: u64,
    /// Log₂-bucketed span durations (nanoseconds).
    pub histogram: Log2Histogram,
}

impl StageStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.histogram.observe(ns);
    }

    fn merge(&mut self, other: &StageStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.histogram.merge(&other.histogram);
    }
}

/// One recording: counters, per-stage duration statistics and the span tree.
/// A request's recording is embedded in its [`crate::SweepReport`] or
/// [`crate::SearchReport`] when the request is profiled, and a [`profile`]
/// scope's recording is the merge of every request run inside it.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct TelemetrySnapshot {
    counters: [u64; COUNTERS.len()],
    /// Statistics of the stages that recorded a span: an unprofiled
    /// recording holds none.
    stages: BTreeMap<Stage, StageStats>,
    /// The nested stage-time tree (root children are top-level stages).
    pub tree: StageTreeNode,
}

impl TelemetrySnapshot {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The duration statistics of one stage (empty if it recorded no span).
    pub fn stage(&self, stage: Stage) -> &StageStats {
        const NO_SPANS: &StageStats = &StageStats {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            histogram: Log2Histogram::EMPTY,
        };
        self.stages.get(&stage).unwrap_or(NO_SPANS)
    }

    /// The sum of the five dispatch counters — over a sweep or search
    /// recording, the grid size (simulated runs plus copies).
    pub fn dispatch_total(&self) -> u64 {
        DISPATCH_COUNTERS.iter().map(|&c| self.counter(c)).sum()
    }

    /// Adds another recording: counters and stage statistics add (maxima
    /// take the larger), span trees merge node by node.
    pub(crate) fn merge(&mut self, other: &TelemetrySnapshot) {
        self.merge_under(&[], other);
    }

    /// [`TelemetrySnapshot::merge`], with `other`'s span tree nested under
    /// the tree node at `path`.
    fn merge_under(&mut self, path: &[Stage], other: &TelemetrySnapshot) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (stage, stats) in &other.stages {
            self.stages.entry(*stage).or_default().merge(stats);
        }
        let node = path.iter().fold(&mut self.tree, |node, stage| {
            node.children.entry(*stage).or_default()
        });
        node.merge(&other.tree);
    }

    fn count(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    /// Records one closed span: `path` is the full span path (the closing
    /// stage last), `ns` its duration.
    fn record_span(&mut self, path: &[Stage], ns: u64) {
        let stage = *path.last().expect("span path is never empty");
        self.stages.entry(stage).or_default().record(ns);
        self.tree.record(path, ns);
    }

    /// The snapshot as a JSON object: a flat `counters` map, per-stage
    /// `{count, total_ns, max_ns, histogram}` objects (stages with no spans
    /// are omitted), and the nested `tree`.
    pub fn to_json_value(&self) -> Value {
        let mut counters = BTreeMap::new();
        for c in COUNTERS {
            counters.insert(c.name().to_string(), Value::from(self.counter(c)));
        }
        let mut stages = BTreeMap::new();
        for (s, stats) in &self.stages {
            let mut map = BTreeMap::new();
            map.insert("count".to_string(), Value::from(stats.count));
            map.insert("total_ns".to_string(), Value::from(stats.total_ns));
            map.insert("max_ns".to_string(), Value::from(stats.max_ns));
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
        for c in DISPATCH_COUNTERS {
            let _ = writeln!(
                out,
                "latsched_dispatch_runs_total{{path=\"{}\"}} {}",
                c.dispatch_path(),
                self.counter(c)
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
        for (stage, stats) in &self.stages {
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

/// What one request or band records into: its snapshot, the open span path
/// (innermost span last), and whether its spans read the clock.
struct Recorder {
    snapshot: TelemetrySnapshot,
    path: Vec<Stage>,
    timed: bool,
}

thread_local! {
    /// The recorder of the request or band running on this thread, if any.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Where a band starts recording: whether its request is profiled, and the
/// span path open where the request fanned the band out.
#[derive(Default)]
pub(crate) struct Origin {
    timed: bool,
    path: Vec<Stage>,
}

impl Origin {
    /// The origin of bands fanned out from this thread's recorder (an
    /// unprofiled, empty one outside any request).
    pub(crate) fn here() -> Origin {
        RECORDER.with(|slot| {
            slot.borrow()
                .as_ref()
                .map_or_else(Origin::default, |r| Origin {
                    timed: r.timed,
                    path: r.path.clone(),
                })
        })
    }
}

/// Puts back the recorder a [`record`] call displaced when dropped — also
/// while unwinding, so a panic never leaves a band's recorder on its thread.
struct Displaced(Option<Recorder>);

impl Drop for Displaced {
    fn drop(&mut self) {
        let previous = self.0.take();
        RECORDER.with(|slot| *slot.borrow_mut() = previous);
    }
}

/// Runs `f` with a fresh recorder starting at `origin` installed on this
/// thread, then reinstalls whatever recorder was there before. Returns `f`'s
/// result and everything it recorded.
pub(crate) fn record<T>(origin: &Origin, f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    let fresh = Recorder {
        snapshot: TelemetrySnapshot::default(),
        path: origin.path.clone(),
        timed: origin.timed,
    };
    let displaced = Displaced(RECORDER.with(|slot| slot.replace(Some(fresh))));
    let out = f();
    let recorded = RECORDER.with(|slot| slot.borrow_mut().take());
    drop(displaced);
    (out, recorded.map(|r| r.snapshot).unwrap_or_default())
}

/// Merges a band's recording into this thread's recorder (a no-op outside
/// any request).
pub(crate) fn merge(band: &TelemetrySnapshot) {
    RECORDER.with(|slot| {
        if let Some(r) = slot.borrow_mut().as_mut() {
            r.snapshot.merge(band);
        }
    });
}

/// Runs `f` under a fresh recorder rooted at an empty span path, then merges
/// what it recorded into this thread's enclosing recorder, if any, nested
/// under the span path open there. Returns `f`'s result and its recording.
fn nest<T>(timed: bool, f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    let origin = Origin {
        timed,
        path: Vec::new(),
    };
    let (out, recorded) = record(&origin, f);
    RECORDER.with(|slot| {
        if let Some(r) = slot.borrow_mut().as_mut() {
            r.snapshot.merge_under(&r.path, &recorded);
        }
    });
    (out, recorded)
}

/// Runs `f` as one request under its own recorder, which records every count,
/// lookup and span `f` makes on this thread (and in the bands it fans out).
/// The request is profiled — its spans carry timings — exactly when the
/// recorder it runs in is (a [`profile`] scope, or a request or band inside
/// one); outside any recorder it is unprofiled. When `f` returns, the
/// recording merges once into that enclosing recorder. Returns `f`'s result,
/// the recording and whether the request was profiled.
pub fn request<T>(f: impl FnOnce() -> T) -> (T, TelemetrySnapshot, bool) {
    let profiled = RECORDER.with(|slot| slot.borrow().as_ref().is_some_and(|r| r.timed));
    let (out, recorded) = nest(profiled, f);
    (out, recorded, profiled)
}

/// Runs `f` under a profiled root recorder and returns `f`'s result with its
/// recording: every request inside `f` is profiled and merges into it once,
/// so its counters are the sum of theirs. Nested in another recorder, the
/// recording merges into that one too when `f` returns.
pub fn profile<T>(f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    nest(true, f)
}

/// Adds `n` to a counter of this thread's recorder (a no-op outside any
/// request).
#[inline]
pub fn count(counter: Counter, n: u64) {
    RECORDER.with(|slot| {
        if let Some(r) = slot.borrow_mut().as_mut() {
            r.snapshot.count(counter, n);
        }
    });
}

/// An RAII stage span: created by [`span`], records its duration (and its
/// position in the span tree) into this thread's recorder when dropped. A
/// span opened outside a profiled recorder is inert — it reads no clock and
/// records nothing.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct StageSpan {
    /// The start instant; `None` while inert.
    start: Option<Instant>,
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            RECORDER.with(|slot| {
                if let Some(r) = slot.borrow_mut().as_mut() {
                    r.snapshot.record_span(&r.path, ns);
                    r.path.pop();
                }
            });
        }
    }
}

/// Opens a stage span nested under whatever spans are already open in this
/// thread's recorder (inert outside a profiled recorder).
#[inline]
pub fn span(stage: Stage) -> StageSpan {
    let timed = RECORDER.with(|slot| match slot.borrow_mut().as_mut() {
        Some(r) if r.timed => {
            r.path.push(stage);
            true
        }
        _ => false,
    });
    StageSpan {
        start: timed.then(Instant::now),
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
    /// dispatch mix with its copy line (summing to the grid size), scalar
    /// counters, per-tier cache lookups, a stage summary table and the
    /// nested stage-time tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fast-path dispatch mix")?;
        for c in DISPATCH_COUNTERS {
            let label = c.dispatch_path().replace('_', "-");
            writeln!(f, "  {label:<18} {:>10}", self.counter(c))?;
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
        writeln!(f, "stages (count · total · mean · p99≥ · max)")?;
        for (stage, stats) in &self.stages {
            let p99 = stats.histogram.percentile_lower_bound(0.99).unwrap_or(0);
            writeln!(
                f,
                "  {:<17} {:>8} · {:>9} · {:>9} · {:>9} · {:>9}",
                stage.name(),
                stats.count,
                fmt_ns(stats.total_ns),
                fmt_ns(stats.total_ns / stats.count),
                fmt_ns(p99),
                fmt_ns(stats.max_ns),
            )?;
        }
        writeln!(f, "stage tree")?;
        self.tree.fmt_children(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with chosen counter values and recorded top-level stages,
    /// built without a recorder.
    fn synthetic(counts: &[(Counter, u64)], stage_ns: &[(Stage, u64)]) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for &(c, n) in counts {
            snap.count(c, n);
        }
        for &(s, ns) in stage_ns {
            snap.record_span(&[s], ns);
        }
        snap
    }

    /// The origin of a profiled request's top level.
    fn profiled() -> Origin {
        Origin {
            timed: true,
            path: Vec::new(),
        }
    }

    #[test]
    fn counters_are_inert_while_disabled() {
        // Outside any request there is no recorder: counts go nowhere.
        count(Counter::DispatchAnalytic, 5);
        let ((), inner) = record(&Origin::default(), || count(Counter::DispatchAnalytic, 2));
        assert_eq!(inner.counter(Counter::DispatchAnalytic), 2);
        // A request outside any profile still counts (its report reads cache
        // hits and misses from the recording), but its spans read no clock.
        let ((), recorded, profiled) = request(|| {
            let _run = span(Stage::SweepRun);
            count(Counter::DispatchGeneralLoop, 3);
        });
        assert!(!profiled);
        assert_eq!(recorded.counter(Counter::DispatchGeneralLoop), 3);
        assert_eq!(recorded.stage(Stage::SweepRun).count, 0);
        assert!(recorded.tree.children.is_empty());
        // And it leaves no recorder behind to collect later counts.
        assert!(RECORDER.with(|slot| slot.borrow().is_none()));
    }

    #[test]
    fn nested_requests_merge_into_the_enclosing_recording_once() {
        let (requests, profiled) = profile(|| {
            let _run = span(Stage::SweepRun);
            let first = request(|| {
                let _band = span(Stage::SweepBand);
                count(Counter::DispatchAnalytic, 4);
                count(Counter::TraceMisses, 1);
            });
            let second = request(|| {
                // A request inside a request merges into it, and from there
                // into the profile: still once.
                let ((), inner, _) = request(|| count(Counter::DispatchAnalytic, 2));
                assert_eq!(inner.counter(Counter::DispatchAnalytic), 2);
                count(Counter::TraceHits, 3);
            });
            [first, second]
        });
        let [((), a, a_profiled), ((), b, b_profiled)] = requests;
        assert!(a_profiled && b_profiled, "requests inherit the profile");
        // A request's own recording is rooted at itself.
        assert_eq!(
            a.tree.children.keys().collect::<Vec<_>>(),
            [&Stage::SweepBand]
        );
        assert_eq!(b.counter(Counter::DispatchAnalytic), 2);
        // The profile's counters are the sum of its requests' recordings.
        for c in COUNTERS {
            assert_eq!(
                profiled.counter(c),
                a.counter(c) + b.counter(c),
                "{}",
                c.name()
            );
        }
        // The requests' spans nest under the span open where they ran.
        let run = profiled.tree.children.get(&Stage::SweepRun).expect("root");
        assert_eq!(run.count, 1);
        assert_eq!(run.children.get(&Stage::SweepBand).expect("band").count, 1);
        assert_eq!(profiled.stage(Stage::SweepBand).count, 1);
        // Nothing is left installed once the profile returns.
        assert!(RECORDER.with(|slot| slot.borrow().is_none()));
    }

    #[test]
    fn profiling_is_scoped_to_the_thread_that_profiles() {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let profiler = scope.spawn(|| {
                profile(|| {
                    barrier.wait();
                    barrier.wait();
                    request(|| ()).2
                })
            });
            let bystander = scope.spawn(|| {
                barrier.wait();
                // The other thread is inside its profile right now.
                let ((), recorded, profiled) = request(|| {
                    let _run = span(Stage::SweepRun);
                    count(Counter::DispatchCopy, 1);
                });
                barrier.wait();
                (recorded, profiled)
            });
            let (inner_profiled, recording) = profiler.join().unwrap();
            let (recorded, profiled) = bystander.join().unwrap();
            assert!(inner_profiled);
            assert!(!profiled, "a request outside any profile is unprofiled");
            assert_eq!(recorded.stage(Stage::SweepRun).count, 0);
            assert_eq!(recording.counter(Counter::DispatchCopy), 0);
        });
    }

    #[test]
    fn snapshots_merge_counters_stages_and_trees() {
        // Two band recordings that started under an open `sweep_run` span
        // merge into the request's recording node by node.
        let mut request = synthetic(&[(Counter::DispatchGeneralLoop, 3)], &[]);
        let mut band = TelemetrySnapshot::default();
        band.count(Counter::DispatchGeneralLoop, 4);
        band.count(Counter::StealClaims, 2);
        band.record_span(&[Stage::SweepRun, Stage::SweepBand], 2000);
        request.merge(&band);
        request.merge(&band);
        request.record_span(&[Stage::SweepRun], 5000);
        assert_eq!(request.counter(Counter::DispatchGeneralLoop), 11);
        assert_eq!(request.counter(Counter::StealClaims), 4);
        assert_eq!(request.dispatch_total(), 11);
        assert_eq!(request.stage(Stage::SweepRun).count, 1);
        assert_eq!(request.stage(Stage::SweepBand).count, 2);
        assert_eq!(request.stage(Stage::SweepBand).total_ns, 4000);
        let run = request.tree.children.get(&Stage::SweepRun).expect("node");
        assert_eq!((run.count, run.total_ns), (1, 5000));
        let band = run.children.get(&Stage::SweepBand).expect("nested");
        assert_eq!((band.count, band.total_ns), (2, 4000));
    }

    #[test]
    fn stage_maximum_is_exact_and_merges_by_max() {
        // One 60.43 ms span: the log₂ percentile only says "≥ 33.55 ms", the
        // maximum column says what it was.
        let long = synthetic(&[], &[(Stage::SweepRun, 60_430_000)]);
        assert_eq!(long.stage(Stage::SweepRun).max_ns, 60_430_000);
        let text = long.to_string();
        assert!(text.contains("33.55ms"), "{text}");
        assert!(text.contains("60.43ms"), "{text}");
        let json = serde_json::to_string(&long.to_json_value());
        assert!(json.contains("\"max_ns\":60430000"), "{json}");
        // A merge keeps the larger maximum, whichever side holds it.
        let short = synthetic(&[], &[(Stage::SweepRun, 1_000), (Stage::SweepRun, 2_000)]);
        for (mut a, b) in [(short.clone(), &long), (long.clone(), &short)] {
            a.merge(b);
            assert_eq!(a.stage(Stage::SweepRun).max_ns, 60_430_000);
            assert_eq!(a.stage(Stage::SweepRun).count, 3);
        }
    }

    #[test]
    fn span_tree_nests_by_thread_local_path() {
        // A profiled request whose sweep_run contains two bands, one of which
        // compiled a trace.
        let ((), recorded) = record(&profiled(), || {
            let _run = span(Stage::SweepRun);
            {
                let _band = span(Stage::SweepBand);
                let _compile = span(Stage::TraceCompile);
            }
            let _band = span(Stage::SweepBand);
        });
        let run = recorded.tree.children.get(&Stage::SweepRun).expect("root");
        assert_eq!(run.count, 1);
        let band = run.children.get(&Stage::SweepBand).expect("child");
        assert_eq!(band.count, 2);
        let compile = band.children.get(&Stage::TraceCompile).expect("leaf");
        assert_eq!(compile.count, 1);
        assert!(run.total_ns >= band.total_ns && band.total_ns >= compile.total_ns);
        assert_eq!(recorded.stage(Stage::SweepBand).count, 2);
    }

    #[test]
    fn bands_start_from_the_fanout_path_and_merge_into_the_request() {
        let ((), recorded) = record(&profiled(), || {
            let _run = span(Stage::SweepRun);
            let origin = Origin::here();
            assert_eq!(origin.path, [Stage::SweepRun]);
            // A band (on this or any thread) records into its own snapshot.
            let ((), band) = record(&origin, || {
                let _band = span(Stage::SweepBand);
                count(Counter::DispatchAnalytic, 4);
            });
            assert_eq!(band.counter(Counter::DispatchAnalytic), 4);
            merge(&band);
        });
        assert_eq!(recorded.counter(Counter::DispatchAnalytic), 4);
        let run = recorded.tree.children.get(&Stage::SweepRun).expect("root");
        assert_eq!(run.count, 1);
        assert_eq!(run.children.get(&Stage::SweepBand).expect("band").count, 1);
    }

    #[test]
    fn record_reinstalls_the_outer_recorder_after_a_panic() {
        let ((), outer) = record(&profiled(), || {
            let _run = span(Stage::SweepRun);
            let origin = Origin::here();
            let caught = std::panic::catch_unwind(|| {
                record(&origin, || {
                    count(Counter::DispatchGeneralLoop, 1);
                    panic!("injected band panic");
                })
            });
            assert!(caught.is_err());
            // The outer recorder is back, path and all.
            assert_eq!(Origin::here().path, [Stage::SweepRun]);
            count(Counter::DispatchAnalytic, 1);
        });
        assert_eq!(outer.counter(Counter::DispatchAnalytic), 1);
        assert_eq!(outer.counter(Counter::DispatchGeneralLoop), 0);
        assert_eq!(outer.stage(Stage::SweepRun).count, 1);
        // And outside it, no recorder is left behind.
        assert!(RECORDER.with(|slot| slot.borrow().is_none()));
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
                (Counter::DispatchAnalytic, 16),
                (Counter::DispatchCopy, 48),
                (Counter::StealClaims, 12),
                (Counter::ScheduleHits, 3),
            ],
            &[(Stage::SweepRun, 1000), (Stage::SweepRun, 3000)],
        );
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE latsched_dispatch_runs_total counter"));
        assert!(text.contains("latsched_dispatch_runs_total{path=\"analytic\"} 16"));
        assert!(text.contains("latsched_dispatch_runs_total{path=\"copy\"} 48"));
        // One series per dispatch counter, each labelled by its path.
        for c in DISPATCH_COUNTERS {
            let series = format!(
                "latsched_dispatch_runs_total{{path=\"{}\"}}",
                c.dispatch_path()
            );
            assert_eq!(text.matches(&series).count(), 1, "{series}");
        }
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
                (Counter::DispatchCopy, 36),
            ],
            &[(Stage::SweepRun, 2_500_000)],
        );
        let text = snap.to_string();
        assert!(text.contains("fast-path dispatch mix"));
        // One line per dispatch counter, copies included, then the total.
        for line in [
            "analytic",
            "lane-scalar",
            "lane-bernoulli",
            "general-loop",
            "copy",
        ] {
            assert!(
                text.lines().any(|l| l.trim_start().starts_with(line)),
                "{text}"
            );
        }
        let total = text
            .lines()
            .find(|l| l.contains("total runs"))
            .expect("total line");
        assert!(total.ends_with(" 100"), "{total}");
        assert!(text.contains("schedules"));
        assert!(text.contains("sweep_run"));
        assert!(text.contains("2.50ms"));
    }

    #[test]
    fn inert_spans_do_not_touch_the_path() {
        // Outside a request, and inside an unprofiled one, spans are inert:
        // they push nothing onto the span path and record nothing.
        {
            let _outer = span(Stage::SweepRun);
            assert!(Origin::here().path.is_empty());
        }
        let ((), recorded) = record(&Origin::default(), || {
            let _outer = span(Stage::SweepRun);
            let _inner = span(Stage::SweepBand);
            assert!(Origin::here().path.is_empty());
        });
        assert!(recorded.tree.children.is_empty());
        assert_eq!(recorded.stage(Stage::SweepBand).count, 0);
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
            assert_eq!(*s as usize, i);
        }
    }
}
