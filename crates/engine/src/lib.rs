//! # latsched-engine
//!
//! A compiled, batched, parallel schedule-query engine for the `latsched`
//! workspace, a reproduction of *Scheduling Sensors by Tiling Lattices*
//! (Klappenecker, Lee, Welch, 2008).
//!
//! The paper's selling point is that a sensor computes its broadcast slot
//! *locally* from its lattice coordinates. The reference implementation
//! (`latsched_core::PeriodicSchedule::slot_of`) is written for clarity: it
//! allocates a canonical coset representative per query and looks it up in a
//! `BTreeMap`. This crate turns a schedule into a serving-grade artifact in three
//! layers:
//!
//! 1. [`CompiledSchedule`] — the Hermite-normal-form coset indexing of
//!    `latsched_lattice::Sublattice::coset_rank` flattened into a contiguous
//!    `Vec<u16>` slot table; a query is an `O(d²)` integer-only reduction on a
//!    stack buffer plus one table read, with no allocation.
//! 2. Batch evaluation — [`CompiledSchedule::slots_of_region`] and
//!    [`CompiledSchedule::slots_of_points`] answer millions of queries per call
//!    on the calling thread, and the [`ScheduleCache`] (keyed by
//!    neighbourhood shape) lets repeated scenarios reuse compiled tables.
//! 3. Scenario serving — [`Scenario`] specs describe a neighbourhood, window and
//!    query load in JSON; [`run_scenario`] and the `engine-cli` binary stream
//!    answers and report throughput.
//! 4. Frame-compiled simulation — [`FrameSchedule`] precomputes one schedule
//!    period's per-slot transmitter sets, [`InterferenceCsr`] /
//!    [`FramePlan`] compile the interference graph into a slot-major CSR
//!    layout that records whether the plan is conflict-free, and
//!    [`run_frames`] replays a conflict-free plan under scheduled access in
//!    closed form and every other run as allocation-free bitset passes (the
//!    fast backend behind `latsched_sensornet::run_simulation`, ~85× the
//!    reference simulator on a 256×256 window). Stochastic workloads
//!    (Bernoulli traffic, slotted ALOHA) replay bit-identically through the
//!    counter-based [`CounterRng`] — every draw is `hash(seed, node, slot)`.
//! 5. The tiered artifact pipeline — five content-addressed tiers, each one
//!    generic [`Tier`] (a single-flight, bounded map behind one lock) whose
//!    lookups count each hit or miss into the requesting sweep's or
//!    search's telemetry recording: [`ScheduleCache`] (shape →
//!    compiled schedule), [`AdjacencyCache`]
//!    ((window region, shape) → interference adjacency), [`PlanCache`]
//!    ((assignment, adjacency) → fused plan), [`TraceCache`]
//!    ((plan fingerprint, seed, load, slots) → compiled [`TrafficTrace`],
//!    each slot-major word drawn as 64 node lanes by
//!    [`CounterRng::bernoulli_words`], AVX-512 where the CPU has it, every
//!    missing load of one `(plan, seed)` from the same draws)
//!    and [`SearchCache`] ((scenario, objective) fingerprints → ranked
//!    [`SearchOutcome`]). Downstream keys embed upstream content
//!    fingerprints, so any engine — sweeps, the sensornet frame kernel,
//!    repeated benchmark samples — shares compiled artifacts without
//!    identity coupling.
//! 6. Batched sweeps — [`SweepSpec`] / [`run_sweep`] fan whole parameter grids
//!    (windows × loads × retry budgets × seeds) across all cores through the
//!    artifact pipeline and one work-stealing band executor, which schedule
//!    search shares (≥5× over sequential reference runs on the 64-run
//!    acceptance grid even cold; warm repeats skip every compile and report
//!    per-tier hit/miss counters in the [`SweepReport`]; `engine-cli sweep`
//!    serves specs from JSON).
//! 7. Streaming sweep statistics — [`SweepMode::Streaming`] folds every run
//!    online into per-axis group accumulators ([`aggregate::OnlineFold`]:
//!    exact integer count/sum/sum²/min/max per counter field plus log₂
//!    latency and delivery-ratio histograms with bucket-exact percentiles),
//!    merged as commutative monoids at the fan-out barrier — O(groups) report
//!    memory instead of O(runs), bit-identical to folding full-mode per-run
//!    reports by the same axes, which unlocks million-run grids
//!    (`engine-cli sweep --streaming --group-by load,retries`).
//! 8. Objective-driven schedule search — [`SearchSpec`] / [`run_search`]
//!    enumerate candidate schedules from two generator families (Theorem 1
//!    sublattice tilings and `latsched_coloring` TDMA/greedy/DSATUR/
//!    annealing/exact baselines), compile each through tiers 1–4, score them
//!    with streaming folds under a user-chosen [`Objective`] (latency
//!    percentile, delivery ratio, energy per delivery, period), and return a
//!    ranked [`SearchReport`] with optimality annotations from
//!    `latsched_core::optimality`; the ranked outcome itself is
//!    content-addressed in tier 5, so warm re-runs skip candidate
//!    enumeration and simulation entirely (`engine-cli search`).
//! 9. Runtime telemetry — every [`run_sweep`] and [`run_search`] records
//!    into its own [`telemetry`](mod@telemetry) recorder, merged from its
//!    bands in band order: every kernel fast-path dispatch and cache-tier
//!    lookup counts once, in the request that made it, and profiled requests
//!    also trace every pipeline stage (RAII spans into exact-maximum, log₂
//!    duration statistics and a nested stage-time tree). Requests are
//!    profiled inside a [`telemetry::profile`] scope, and each merges its
//!    recording once into the recorder it ran in. A profiled request embeds
//!    its [`TelemetrySnapshot`] in its report and prints as a human profile
//!    (`engine-cli sweep --profile`); a profile scope's recording exports as
//!    Prometheus text exposition (`engine-cli --metrics-out FILE`).
//!
//! Underneath the table queries, 2-D and 3-D schedules use the
//! dimension-specialized `latsched_lattice::FixedReducer`, which
//! strength-reduces the coset reduction's per-coordinate `div_euclid` chain to
//! precomputed reciprocal multiplications.
//!
//! The compiled table plugs back into the exact machinery: it implements
//! `latsched_core::SlotSource`, so [`CompiledSchedule::verify`] runs the paper's
//! whole-lattice collision-freedom proof on the fast backend, and
//! `latsched-sensornet` compiles its tiling MACs through this crate.
//!
//! ## Quick start
//!
//! ```
//! use latsched_engine::{CompiledSchedule, ScheduleCache};
//! use latsched_lattice::BoxRegion;
//! use latsched_tiling::shapes;
//!
//! // Compile (and cache) the optimal 9-slot Moore schedule …
//! let cache = ScheduleCache::new();
//! let compiled = cache.get_or_compile(&shapes::moore())?;
//! assert_eq!(compiled.num_slots(), 9);
//!
//! // … then answer a quarter-million point queries in one batched call.
//! let window = BoxRegion::square_window(2, 512)?;
//! let slots = compiled.slots_of_region(&window)?;
//! assert_eq!(slots.len(), 512 * 512);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
mod cache;
mod compiled;
mod error;
mod frames;
pub mod parallel;
mod scenario;
mod search;
mod simkernel;
mod sweep;
pub mod telemetry;

pub use aggregate::{
    count_values, fold_full_report, FieldFold, GroupAxis, GroupBy, GroupFolds, GroupKey,
    GroupReport, GroupSpec, Log2Histogram, OnlineFold, RatioHistogram, COUNT_FIELDS,
};
pub use cache::{
    compile_shape, AdjacencyCache, AdjacencyKey, PlanCache, PlanKey, ScheduleCache, SearchCache,
    SearchKey, Tier, TierKey, TraceCache, TraceKey,
};
pub use compiled::CompiledSchedule;
pub use error::{EngineError, Result};
pub use frames::{FramePlan, FrameSchedule, InterferenceCsr};
pub use latsched_lattice::CounterRng;
pub use scenario::{builtin_scenarios, run_scenario, Scenario, ScenarioReport, ShapeSpec};
pub use search::{
    builtin_search, run_search, CandidateReport, Objective, SearchFamily, SearchOutcome,
    SearchReport, SearchSpec,
};
pub use simkernel::{
    run_frames, run_frames_lanes, run_frames_loop, KernelConfig, KernelCounts, KernelMac,
    KernelTraffic, TrafficTrace,
};
pub use sweep::{
    builtin_sweep, grid_adjacency, run_sweep, SeedAxis, StoreStats, SweepCacheStats, SweepCaches,
    SweepMac, SweepMode, SweepReport, SweepRunReport, SweepSpec, SweepTraffic,
};
pub use telemetry::TelemetrySnapshot;
