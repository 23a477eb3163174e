//! The typed tiers of the engine's artifact pipeline.
//!
//! Simulation sweeps and benchmark scenarios evaluate the same handful of
//! neighbourhoods, networks, schedules and traffic draws over and over;
//! compiling an artifact (tiling search + table construction, frame-plan
//! fusion, or `n × slots` counter draws) is many orders of magnitude more
//! expensive than a query, so the tiers make repeated scenarios pay it once.
//! Every tier is one generic [`Tier`]: an [`ArtifactStore`] (sharded,
//! single-flight, bounded — see [`crate::store`]) whose lookups
//! ([`Tier::lookup`], or [`Tier::lookup_all`] for several keys) count each
//! hit or miss into the recorder of the request that made it
//! ([`crate::telemetry`]); that count is the only one kept, and a
//! tier itself holds only its entries. The five tiers are aliases that add
//! only their key derivation:
//!
//! * [`ScheduleCache`] — neighbourhood shape → compiled Theorem 1 schedule;
//! * [`PlanCache`] — (slot assignment, interference adjacency) → fused
//!   [`FramePlan`], content-addressed by 64-bit fingerprints so lookups never
//!   clone the assignment or the adjacency;
//! * [`AdjacencyCache`] — (window region, shape) → the window's interference
//!   adjacency ([`InterferenceCsr`]), content-addressed by region and shape
//!   fingerprints, so warm sweeps skip the O(window × shape) neighbour walk;
//! * [`TraceCache`] — (plan fingerprint, seed, load, slots) → compiled
//!   [`TrafficTrace`], so repeated sweeps, the retry axis of a grid and the
//!   CI gate's samples never rebuild a trace;
//! * [`SearchCache`] — (scenario fingerprint, objective fingerprint) → ranked
//!   [`SearchOutcome`], so a repeated schedule search resolves from the cache
//!   without enumerating, compiling or simulating a single candidate.
//!
//! The tiers chain: a schedule compiles once per neighbourhood shape, feeds
//! any number of plans (one per deployment window's adjacency), and each plan
//! feeds any number of traces (one per `(seed, load, slots)` tuple).
//! Downstream keys embed the upstream artifact's content fingerprint, so the
//! chain stays correct without identity or lifetime coupling between the
//! tiers.

use crate::compiled::CompiledSchedule;
use crate::error::{EngineError, Result};
use crate::frames::{fingerprint_words, FramePlan, FrameSchedule, InterferenceCsr};
use crate::search::SearchOutcome;
use crate::simkernel::TrafficTrace;
use crate::store::ArtifactStore;
use crate::telemetry::{self, span, CacheTier, Stage};
use latsched_core::theorem1;
use latsched_lattice::{BoxRegion, Point};
use latsched_tiling::{find_tiling, Prototile};
use std::hash::Hash;
use std::sync::Arc;

/// The key type of one cache tier: it names the telemetry tier the tier's
/// lookups count into and the tier's default entry bound.
pub trait TierKey: Clone + Eq + Hash {
    /// The tier whose hit and miss counters this key's lookups bump.
    const TIER: CacheTier;
    /// The entry bound: a new key arriving at it resets the tier wholesale
    /// (entries are content-addressed and cheap to rebuild; `usize::MAX`
    /// means unbounded).
    const MAX_ENTRIES: usize;
}

/// One content-addressed cache tier: a sharded, thread-safe, single-flight
/// [`ArtifactStore`] from `K` keys to compiled `V` artifacts, bounded by the
/// key type's [`TierKey::MAX_ENTRIES`]. A tier keeps no hit or miss counts:
/// each lookup counts in the request that made it (see [`crate::telemetry`]).
pub struct Tier<K, V> {
    store: ArtifactStore<K, V>,
}

impl<K: TierKey, V> Tier<K, V> {
    /// An empty tier with the default shard count and the key's entry bound.
    pub fn new() -> Self {
        Tier {
            store: ArtifactStore::new().with_max_entries(K::MAX_ENTRIES),
        }
    }

    /// The artifact under `key`, building it with `build` on first use, and
    /// whether this lookup hit. Concurrent misses on the same key wait for a
    /// single build; lookups of other keys are never blocked behind it. This
    /// and [`Tier::lookup_all`] are where tier lookups are counted: each hit
    /// or miss lands in the recorder of the request running on this thread.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; failed builds are evicted, so retries
    /// rebuild.
    fn lookup(&self, key: K, build: impl FnOnce() -> Result<V>) -> Result<(Arc<V>, bool)> {
        let looked_up = self.store.get_or_build_tracked(key, build);
        if let Ok((_, hit)) = looked_up {
            telemetry::count(K::TIER.counter(hit), 1);
        }
        looked_up
    }

    /// [`Tier::lookup`] for several keys at once: the keys this call claims
    /// are built together by one call of `build`, which receives their
    /// positions in `keys` (see [`ArtifactStore::get_or_build_all`]), and
    /// each key's hit or miss is counted as a single lookup's would be.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; failed builds are evicted, so retries
    /// rebuild.
    fn lookup_all(
        &self,
        keys: &[K],
        build: impl FnMut(&[usize]) -> Result<Vec<V>>,
    ) -> Result<Vec<Arc<V>>> {
        let looked_up = self.store.get_or_build_all(keys, build)?;
        for &(_, hit) in &looked_up {
            telemetry::count(K::TIER.counter(hit), 1);
        }
        Ok(looked_up.into_iter().map(|(value, _)| value).collect())
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Drops every cached artifact.
    pub fn clear(&self) {
        self.store.clear();
    }
}

impl<K: TierKey, V> Default for Tier<K, V> {
    fn default() -> Self {
        Tier::new()
    }
}

impl<K: TierKey, V> std::fmt::Debug for Tier<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tier")
            .field("tier", &K::TIER.name())
            .field("len", &self.len())
            .finish()
    }
}

/// A sharded, thread-safe cache from neighbourhood shapes to their compiled
/// Theorem 1 schedules, keyed by the shape's point set.
///
/// # Examples
///
/// ```
/// use latsched_engine::telemetry::{request, Counter};
/// use latsched_engine::ScheduleCache;
/// use latsched_tiling::shapes;
///
/// let cache = ScheduleCache::new();
/// // Each lookup counts in the request that made it.
/// let (tables, lookups, _) = request(|| {
///     let first = cache.get_or_compile(&shapes::moore())?;
///     let again = cache.get_or_compile(&shapes::moore())?;
///     Ok::<_, latsched_engine::EngineError>((first, again))
/// });
/// let (first, again) = tables?;
/// assert_eq!(first.num_slots(), 9);
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// assert_eq!(lookups.counter(Counter::ScheduleHits), 1);
/// assert_eq!(lookups.counter(Counter::ScheduleMisses), 1);
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
pub type ScheduleCache = Tier<Vec<Point>, CompiledSchedule>;

impl TierKey for Vec<Point> {
    const TIER: CacheTier = CacheTier::Schedules;
    const MAX_ENTRIES: usize = usize::MAX;
}

impl ScheduleCache {
    /// The compiled Theorem 1 schedule for the given neighbourhood shape,
    /// compiling and inserting it on first use.
    ///
    /// # Errors
    ///
    /// * [`EngineError::NotSchedulable`] if the shape does not tile the lattice;
    /// * compilation errors from [`CompiledSchedule::compile`].
    pub fn get_or_compile(&self, shape: &Prototile) -> Result<Arc<CompiledSchedule>> {
        self.get_or_compile_tracked(shape).map(|(v, _)| v)
    }

    /// [`ScheduleCache::get_or_compile`], also reporting whether this lookup
    /// hit the cache.
    ///
    /// # Errors
    ///
    /// As for [`ScheduleCache::get_or_compile`].
    pub fn get_or_compile_tracked(
        &self,
        shape: &Prototile,
    ) -> Result<(Arc<CompiledSchedule>, bool)> {
        self.lookup(shape.to_points(), || compile_shape(shape))
    }
}

/// The content-addressed key of a cached frame plan: fingerprints of the slot
/// assignment and of the interference adjacency, plus the exact sizes as a
/// safety margin. Equal inputs always produce equal keys; distinct inputs
/// collide with probability `~2^-128`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    assignment: u64,
    adjacency: u64,
    nodes: u64,
    period: u64,
}

/// Plans are multi-megabyte on large networks, so the plan tier resets
/// wholesale after 256 distinct plans; this bounds the process-wide default
/// cache under long-lived, many-network workloads.
impl TierKey for PlanKey {
    const TIER: CacheTier = CacheTier::Plans;
    const MAX_ENTRIES: usize = 256;
}

/// A sharded, thread-safe cache of fused [`FramePlan`]s, keyed by the content
/// of the (slot assignment, interference adjacency) pair they were built from.
///
/// Building a plan costs a few milliseconds on large networks — several times
/// the frame kernel's own run time — so sweeps that revisit a (schedule,
/// network) pair pay the build once and replay the shared plan from then on.
///
/// # Examples
///
/// ```
/// use latsched_engine::{InterferenceCsr, PlanCache};
///
/// let cache = PlanCache::new();
/// let adjacency = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]])?;
/// let first = cache.get_or_build(&[0, 1, 2], 3, &adjacency)?;
/// let again = cache.get_or_build(&[0, 1, 2], 3, &adjacency)?;
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
pub type PlanCache = Tier<PlanKey, FramePlan>;

impl PlanCache {
    /// The fused plan of the given per-node slot assignment (with temporal
    /// period `period`) over the given interference adjacency, building and
    /// inserting it on first use.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameSchedule::from_assignment`] and [`FramePlan::new`]
    /// errors (size limits, node-count mismatches).
    pub fn get_or_build(
        &self,
        slots: &[usize],
        period: usize,
        adjacency: &InterferenceCsr,
    ) -> Result<Arc<FramePlan>> {
        self.get_or_build_tracked(slots, period, adjacency)
            .map(|(v, _)| v)
    }

    /// [`PlanCache::get_or_build`], also reporting whether this lookup hit
    /// the cache.
    ///
    /// # Errors
    ///
    /// As for [`PlanCache::get_or_build`].
    pub fn get_or_build_tracked(
        &self,
        slots: &[usize],
        period: usize,
        adjacency: &InterferenceCsr,
    ) -> Result<(Arc<FramePlan>, bool)> {
        let key = PlanKey {
            assignment: fingerprint_words(period as u64, slots.iter().map(|&s| s as u64)),
            adjacency: adjacency.fingerprint(),
            nodes: slots.len() as u64,
            period: period as u64,
        };
        self.lookup(key, || {
            let frames = FrameSchedule::from_assignment(slots, period)?;
            FramePlan::new(&frames, adjacency)
        })
    }
}

/// The content-addressed key of a cached traffic trace: the source plan's
/// content fingerprint plus the draw coordinates. Two plans with equal
/// fingerprints produce identical traces by construction (draws are keyed by
/// the plan's original-id permutation, which the fingerprint covers).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceKey {
    plan: u64,
    seed: u64,
    p_bits: u64,
    slots: u64,
    nodes: u64,
    /// The counter-RNG stream the trace was drawn on: traffic generation
    /// bitmaps and MAC decision bitmaps of one `(seed, p)` pair share every
    /// other coordinate, so the stream tag keeps them distinct.
    stream: u64,
}

impl TraceKey {
    fn new(plan: &FramePlan, seed: u64, p: f64, slots: u64, stream: u64) -> Self {
        TraceKey {
            plan: plan.fingerprint(),
            seed,
            p_bits: p.to_bits(),
            slots,
            nodes: plan.num_nodes() as u64,
            stream,
        }
    }
}

/// Traces are the largest artifacts of the pipeline (one bit per `node ×
/// slot`), so the trace tier resets wholesale after 64 distinct traces.
impl TierKey for TraceKey {
    const TIER: CacheTier = CacheTier::Traces;
    const MAX_ENTRIES: usize = 64;
}

/// A sharded, thread-safe cache of compiled [`TrafficTrace`]s, keyed by
/// `(plan fingerprint, seed, load, slots)`.
///
/// A trace bakes every Bernoulli generation draw of one `(seed, p)` pair over
/// a plan's node set into per-slot bitmaps; compiling it costs `n × slots`
/// counter draws — the dominant setup cost of a stochastic sweep. The cache
/// makes repeated sweeps (and the CI perf gate's repeated samples) replay the
/// compiled bitmaps instead of re-drawing them. The draws do not depend on
/// the load, so a sweep asks for every load of one `(plan, seed, slots)` at
/// once and the missing ones build in one draw pass, while keys, hits and
/// misses stay per trace.
///
/// # Examples
///
/// ```
/// use latsched_engine::{FramePlan, FrameSchedule, InterferenceCsr, TraceCache};
///
/// let frames = FrameSchedule::from_assignment(&[0, 1, 2], 3)?;
/// let adjacency = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]])?;
/// let plan = FramePlan::new(&frames, &adjacency)?;
/// let cache = TraceCache::new();
/// let first = cache.get_or_build(&plan, 7, 0.1, 128)?;
/// let again = cache.get_or_build(&plan, 7, 0.1, 128)?;
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
pub type TraceCache = Tier<TraceKey, TrafficTrace>;

impl TraceCache {
    /// The compiled Bernoulli(`p`) trace of `seed`'s traffic stream over
    /// `slots` slots of the plan's node set, building and inserting it on
    /// first use.
    ///
    /// # Errors
    ///
    /// Propagates [`TrafficTrace::bernoulli`] errors (probability range, size
    /// cap).
    pub fn get_or_build(
        &self,
        plan: &FramePlan,
        seed: u64,
        p: f64,
        slots: u64,
    ) -> Result<Arc<TrafficTrace>> {
        self.get_or_build_tracked(plan, seed, p, slots)
            .map(|(v, _)| v)
    }

    /// [`TraceCache::get_or_build`], also reporting whether this lookup hit
    /// the cache.
    ///
    /// # Errors
    ///
    /// As for [`TraceCache::get_or_build`].
    pub fn get_or_build_tracked(
        &self,
        plan: &FramePlan,
        seed: u64,
        p: f64,
        slots: u64,
    ) -> Result<(Arc<TrafficTrace>, bool)> {
        let key = TraceKey::new(plan, seed, p, slots, latsched_lattice::TRAFFIC_STREAM);
        self.lookup(key, || TrafficTrace::bernoulli(plan, seed, p, slots))
    }

    /// The compiled Bernoulli traces of `seed`'s traffic stream at each of
    /// `loads` over `slots` slots of the plan's node set, in load order.
    ///
    /// Each load's key is looked up, and its hit or miss counted, exactly as
    /// [`TraceCache::get_or_build_tracked`] would, and the keys this lookup
    /// claims are built together in one draw pass
    /// ([`TrafficTrace::bernoulli_loads`]). A load listed twice builds once,
    /// and its second lookup hits; a key another request is building is
    /// waited for, not drawn again.
    ///
    /// # Errors
    ///
    /// As for [`TraceCache::get_or_build`].
    pub(crate) fn get_or_build_loads(
        &self,
        plan: &FramePlan,
        seed: u64,
        loads: &[f64],
        slots: u64,
    ) -> Result<Vec<Arc<TrafficTrace>>> {
        let keys: Vec<TraceKey> = loads
            .iter()
            .map(|&p| TraceKey::new(plan, seed, p, slots, latsched_lattice::TRAFFIC_STREAM))
            .collect();
        self.lookup_all(&keys, |claimed| {
            let claimed: Vec<f64> = claimed.iter().map(|&i| loads[i]).collect();
            TrafficTrace::bernoulli_loads(plan, seed, &claimed, slots)
        })
    }

    /// The compiled slotted-ALOHA decision bitmap of `seed`'s MAC stream over
    /// `slots` slots of the plan's node set (see
    /// [`TrafficTrace::aloha_decisions`]), building and inserting it on first
    /// use. Keyed separately from traffic traces by the counter-RNG stream
    /// tag, so a sweep can share both artifacts of one `(seed, p)` pair.
    ///
    /// # Errors
    ///
    /// Propagates [`TrafficTrace::aloha_decisions`] errors (probability
    /// range, size cap).
    pub fn get_or_build_mac(
        &self,
        plan: &FramePlan,
        seed: u64,
        p: f64,
        slots: u64,
    ) -> Result<Arc<TrafficTrace>> {
        let key = TraceKey::new(plan, seed, p, slots, latsched_lattice::MAC_STREAM);
        self.lookup(key, || TrafficTrace::aloha_decisions(plan, seed, p, slots))
            .map(|(v, _)| v)
    }
}

/// The content-addressed key of a cached window adjacency: fingerprints of
/// the box region (dimension plus corner coordinates) and of the shape's
/// offset set, with the point count as a safety margin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AdjacencyKey {
    region: u64,
    shape: u64,
    points: u64,
}

/// Adjacencies are O(window × shape) CSR structures — multi-megabyte on
/// large windows — so the adjacency tier resets wholesale after 64 distinct
/// (region, shape) pairs.
impl TierKey for AdjacencyKey {
    const TIER: CacheTier = CacheTier::Adjacencies;
    const MAX_ENTRIES: usize = 64;
}

/// A sharded, thread-safe cache of window interference adjacencies, keyed by
/// the content of the (box region, neighbourhood shape) pair.
///
/// Building an adjacency walks every window point against every shape offset
/// — about a millisecond on the 64×64 acceptance window, which used to be the
/// whole setup phase of a warm sweep. The cache makes repeated sweeps (and
/// repeated benchmark samples) over the same windows reuse the CSR instead.
///
/// # Examples
///
/// ```
/// use latsched_engine::AdjacencyCache;
/// use latsched_lattice::BoxRegion;
/// use latsched_tiling::shapes;
///
/// let cache = AdjacencyCache::new();
/// let window = BoxRegion::square_window(2, 8)?;
/// let first = cache.get_or_build(&window, &shapes::moore())?;
/// let again = cache.get_or_build(&window, &shapes::moore())?;
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type AdjacencyCache = Tier<AdjacencyKey, InterferenceCsr>;

impl AdjacencyCache {
    /// The interference adjacency of all lattice sensors in `region` under
    /// the homogeneous neighbourhood `shape` (see
    /// [`crate::sweep::grid_adjacency`]), building and inserting it on first
    /// use.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::sweep::grid_adjacency`] errors (window size
    /// limits).
    pub fn get_or_build(
        &self,
        region: &BoxRegion,
        shape: &Prototile,
    ) -> Result<Arc<InterferenceCsr>> {
        self.get_or_build_tracked(region, shape).map(|(v, _)| v)
    }

    /// [`AdjacencyCache::get_or_build`], also reporting whether this lookup
    /// hit the cache.
    ///
    /// # Errors
    ///
    /// As for [`AdjacencyCache::get_or_build`].
    pub fn get_or_build_tracked(
        &self,
        region: &BoxRegion,
        shape: &Prototile,
    ) -> Result<(Arc<InterferenceCsr>, bool)> {
        let key = AdjacencyKey {
            region: fingerprint_words(
                region.dim() as u64,
                region
                    .min()
                    .coords()
                    .iter()
                    .chain(region.max().coords())
                    .map(|&c| c as u64),
            ),
            shape: fingerprint_words(
                shape.len() as u64,
                shape
                    .iter()
                    .flat_map(|p| p.coords().iter().map(|&c| c as u64)),
            ),
            points: region.len(),
        };
        self.lookup(key, || crate::sweep::grid_adjacency(region, shape))
    }
}

/// The content-addressed key of a cached search outcome: the scenario's
/// content fingerprint (shape, window, slots, traffic, seeds, retries) and
/// the objective fingerprint (objective, families, budget, top) — see
/// [`SearchSpec::fingerprints`](crate::SearchSpec::fingerprints), which
/// derives both.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SearchKey {
    scenario: u64,
    objective: u64,
}

/// Outcomes hold per-candidate streaming folds (a few kilobytes each), so
/// the search tier resets wholesale after 64 distinct (scenario, objective)
/// pairs.
impl TierKey for SearchKey {
    const TIER: CacheTier = CacheTier::Searches;
    const MAX_ENTRIES: usize = 64;
}

/// A sharded, thread-safe cache of ranked [`SearchOutcome`]s, keyed by
/// `(scenario fingerprint, objective fingerprint)`.
///
/// A schedule search is the most expensive stage of the pipeline — it
/// enumerates candidate schedules from the lattice-tiling and graph-coloring
/// families, compiles each one and simulates the whole run grid over it — so
/// a warm hit here skips candidate evaluation entirely: repeated searches of
/// the same scenario under the same objective resolve without touching the
/// schedule, plan, adjacency or trace tiers at all.
pub type SearchCache = Tier<SearchKey, SearchOutcome>;

impl SearchCache {
    /// The search outcome of the given `(scenario, objective)` fingerprint
    /// pair, running `build` and inserting its result on first use.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors; failed searches are evicted, so retries
    /// rebuild.
    pub fn get_or_build(
        &self,
        scenario: u64,
        objective: u64,
        build: impl FnOnce() -> Result<SearchOutcome>,
    ) -> Result<Arc<SearchOutcome>> {
        self.get_or_build_tracked(scenario, objective, build)
            .map(|(v, _)| v)
    }

    /// [`SearchCache::get_or_build`], also reporting whether this lookup hit
    /// the cache.
    ///
    /// # Errors
    ///
    /// As for [`SearchCache::get_or_build`].
    pub fn get_or_build_tracked(
        &self,
        scenario: u64,
        objective: u64,
        build: impl FnOnce() -> Result<SearchOutcome>,
    ) -> Result<(Arc<SearchOutcome>, bool)> {
        let key = SearchKey {
            scenario,
            objective,
        };
        self.lookup(key, build)
    }
}

/// Compiles the Theorem 1 schedule of a neighbourhood shape from scratch.
///
/// # Errors
///
/// * [`EngineError::NotSchedulable`] if the shape does not tile the lattice;
/// * tiling and compilation errors otherwise.
pub fn compile_shape(shape: &Prototile) -> Result<CompiledSchedule> {
    let _span = span(Stage::ScheduleCompile);
    let tiling =
        find_tiling(shape)?.ok_or_else(|| EngineError::NotSchedulable(shape.to_string()))?;
    let schedule = theorem1::schedule_from_tiling(&tiling);
    CompiledSchedule::compile(&schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FrameSchedule;
    use latsched_tiling::{shapes, tetromino};

    /// Runs `f` as one request: its result, and the (hits, misses) it
    /// recorded on `K`'s tier.
    fn lookups<K: TierKey, T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let (out, recording, _) = telemetry::request(f);
        let count = |hit| recording.counter(K::TIER.counter(hit));
        (out, (count(true), count(false)))
    }

    #[test]
    fn hits_share_one_table() {
        let cache = ScheduleCache::new();
        let ((a, b), counts) = lookups::<Vec<Point>, _>(|| {
            (
                cache.get_or_compile(&shapes::moore()).unwrap(),
                cache.get_or_compile(&shapes::moore()).unwrap(),
            )
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(counts, (1, 1));
    }

    #[test]
    fn distinct_shapes_get_distinct_entries() {
        let cache = ScheduleCache::new();
        let moore = cache.get_or_compile(&shapes::moore()).unwrap();
        let antenna = cache
            .get_or_compile(&shapes::directional_antenna())
            .unwrap();
        assert_eq!(moore.num_slots(), 9);
        assert_eq!(antenna.num_slots(), 8);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn non_tiling_shapes_are_rejected_and_retried() {
        // The U pentomino does not tile the lattice by translations.
        let u = tetromino::u_pentomino();
        let cache = ScheduleCache::new();
        for _ in 0..2 {
            // Failed builds are evicted, so the error is reproducible.
            assert!(matches!(
                cache.get_or_compile(&u),
                Err(EngineError::NotSchedulable(_))
            ));
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = ScheduleCache::new();
        // Each thread's lookup counts in its own request.
        let tables: Vec<(Arc<CompiledSchedule>, (u64, u64))> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        lookups::<Vec<Point>, _>(|| cache.get_or_compile(&shapes::moore()).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        for (t, _) in &tables {
            assert_eq!(t.num_slots(), 9);
        }
        // Single-flight: exactly one lookup may have compiled.
        let (hits, misses) = tables
            .iter()
            .fold((0, 0), |(h, m), (_, (hit, miss))| (h + hit, m + miss));
        assert_eq!((hits, misses), (7, 1));
    }

    #[test]
    fn zero_shard_request_is_clamped() {
        // Tiers always use the default shard count; the store they wrap
        // clamps an explicit zero to one shard.
        let store = ArtifactStore::with_shards(0);
        let moore = shapes::moore();
        let compiled = store
            .get_or_build(moore.to_points(), || compile_shape(&moore))
            .unwrap();
        assert_eq!(compiled.num_slots(), 9);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn plan_cache_hammered_from_scoped_threads_builds_once() {
        let adjacency =
            InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1, 3], vec![2]]).unwrap();
        let cache = PlanCache::new();
        let plans: Vec<(Arc<FramePlan>, (u64, u64))> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..12)
                .map(|_| {
                    scope.spawn(|| {
                        lookups::<PlanKey, _>(|| {
                            cache.get_or_build(&[0, 1, 2, 0], 3, &adjacency).unwrap()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        let misses: u64 = plans.iter().map(|(_, (_, miss))| miss).sum();
        assert_eq!(misses, 1, "single-build semantics");
        for (p, _) in &plans {
            assert!(Arc::ptr_eq(p, &plans[0].0), "hits share one plan");
        }
    }

    #[test]
    fn plan_cache_distinguishes_assignments_periods_and_adjacencies() {
        let line = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]]).unwrap();
        let ring = InterferenceCsr::from_lists(&[vec![1, 2], vec![0, 2], vec![0, 1]]).unwrap();
        let cache = PlanCache::new();
        let ((a, b, c, d), counts) = lookups::<PlanKey, _>(|| {
            (
                cache.get_or_build(&[0, 1, 2], 3, &line).unwrap(),
                cache.get_or_build(&[0, 1, 0], 3, &line).unwrap(),
                cache.get_or_build(&[0, 1, 2], 4, &line).unwrap(),
                cache.get_or_build(&[0, 1, 2], 3, &ring).unwrap(),
            )
        });
        assert_eq!(cache.len(), 4);
        assert_eq!(counts, (0, 4));
        assert!(!Arc::ptr_eq(&a, &b) && !Arc::ptr_eq(&a, &c) && !Arc::ptr_eq(&a, &d));
        // And an equal-content adjacency (separate allocation) still hits.
        let line_again = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]]).unwrap();
        let e = cache.get_or_build(&[0, 1, 2], 3, &line_again).unwrap();
        assert!(Arc::ptr_eq(&a, &e));
    }

    #[test]
    fn plan_cache_entry_bound_resets_wholesale() {
        let adjacency = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]]).unwrap();
        let cache = PlanCache::new();
        // Distinct periods make distinct keys: fill the tier to its bound.
        for period in 3..3 + PlanKey::MAX_ENTRIES {
            cache.get_or_build(&[0, 1, 2], period, &adjacency).unwrap();
        }
        assert_eq!(cache.len(), PlanKey::MAX_ENTRIES);
        // A known key at capacity still hits without clearing.
        let (_, counts) =
            lookups::<PlanKey, _>(|| cache.get_or_build(&[0, 1, 2], 3, &adjacency).unwrap());
        assert_eq!(counts, (1, 0));
        assert_eq!(cache.len(), PlanKey::MAX_ENTRIES);
        // A new key at capacity resets the cache, then inserts.
        cache.get_or_build(&[2, 1, 0], 3, &adjacency).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_propagates_build_errors() {
        let line = InterferenceCsr::from_lists(&[vec![1], vec![0, 2], vec![1]]).unwrap();
        let cache = PlanCache::new();
        // Assignment length mismatching the adjacency fails FramePlan::new.
        assert!(matches!(
            cache.get_or_build(&[0, 1], 2, &line),
            Err(EngineError::NodeCountMismatch { .. })
        ));
        assert!(cache.is_empty(), "failed builds are evicted");
    }

    fn line_plan(slots: &[usize], period: usize) -> FramePlan {
        let n = slots.len();
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut l = Vec::new();
                if v > 0 {
                    l.push(v - 1);
                }
                if v + 1 < n {
                    l.push(v + 1);
                }
                l
            })
            .collect();
        let adjacency = InterferenceCsr::from_lists(&lists).unwrap();
        let frames = FrameSchedule::from_assignment(slots, period).unwrap();
        FramePlan::new(&frames, &adjacency).unwrap()
    }

    #[test]
    fn trace_cache_hits_on_equal_coordinates_and_misses_otherwise() {
        let plan = line_plan(&[0, 1, 2], 3);
        let cache = TraceCache::new();
        let ((a, b), counts) = lookups::<TraceKey, _>(|| {
            (
                cache.get_or_build(&plan, 1, 0.2, 64).unwrap(),
                cache.get_or_build(&plan, 1, 0.2, 64).unwrap(),
            )
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(counts, (1, 1));
        // Every coordinate of the key separates entries.
        let ((), counts) = lookups::<TraceKey, _>(|| {
            cache.get_or_build(&plan, 2, 0.2, 64).unwrap();
            cache.get_or_build(&plan, 1, 0.3, 64).unwrap();
            cache.get_or_build(&plan, 1, 0.2, 65).unwrap();
        });
        assert_eq!(cache.len(), 4);
        assert_eq!(counts, (0, 3));
    }

    #[test]
    fn trace_cache_separates_plans_by_content_fingerprint() {
        // Same node count, seed, load and slot count — but different slot
        // assignments, hence different relabellings and different plan
        // fingerprints: the cache must keep two distinct traces, and each must
        // replay its own plan's draw layout.
        let plan_a = line_plan(&[0, 1, 2], 3);
        let plan_b = line_plan(&[2, 1, 0], 3);
        assert_ne!(plan_a.fingerprint(), plan_b.fingerprint());
        let cache = TraceCache::new();
        let ((a, b), counts) = lookups::<TraceKey, _>(|| {
            (
                cache.get_or_build(&plan_a, 1, 0.5, 256).unwrap(),
                cache.get_or_build(&plan_b, 1, 0.5, 256).unwrap(),
            )
        });
        assert_eq!(cache.len(), 2, "distinct fingerprints, distinct entries");
        assert_eq!(counts, (0, 2));
        assert!(!Arc::ptr_eq(&a, &b));
        // The traces cover the same original node set, so totals agree even
        // though the relabelled bit layouts differ.
        assert_eq!(a.total_generated(), b.total_generated());
        assert_ne!(*a, *b, "relabelled bit layouts differ");
        // An equal-content plan built separately hits the first entry.
        let plan_a_again = line_plan(&[0, 1, 2], 3);
        let again = cache.get_or_build(&plan_a_again, 1, 0.5, 256).unwrap();
        assert!(Arc::ptr_eq(&a, &again));
    }

    #[test]
    fn trace_cache_entry_bound_resets_wholesale() {
        let plan = line_plan(&[0, 1, 2], 3);
        let cache = TraceCache::new();
        for seed in 0..TraceKey::MAX_ENTRIES as u64 {
            cache.get_or_build(&plan, seed, 0.1, 32).unwrap();
        }
        assert_eq!(cache.len(), TraceKey::MAX_ENTRIES);
        cache
            .get_or_build(&plan, TraceKey::MAX_ENTRIES as u64, 0.1, 32)
            .unwrap();
        assert_eq!(cache.len(), 1, "new key at capacity resets wholesale");
    }

    #[test]
    fn adjacency_cache_hits_on_equal_content_and_separates_otherwise() {
        let cache = AdjacencyCache::new();
        let window = BoxRegion::square_window(2, 5).unwrap();
        let ((a, b), counts) = lookups::<AdjacencyKey, _>(|| {
            let a = cache.get_or_build(&window, &shapes::moore()).unwrap();
            // An equal-content region built separately still hits.
            let window_again = BoxRegion::square_window(2, 5).unwrap();
            (
                a,
                cache.get_or_build(&window_again, &shapes::moore()).unwrap(),
            )
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(counts, (1, 1));
        // Every key coordinate separates entries: region and shape.
        let ((), counts) = lookups::<AdjacencyKey, _>(|| {
            cache
                .get_or_build(&BoxRegion::square_window(2, 6).unwrap(), &shapes::moore())
                .unwrap();
            cache.get_or_build(&window, &shapes::von_neumann()).unwrap();
        });
        assert_eq!(cache.len(), 3);
        assert_eq!(counts, (0, 2));
        // The cached CSR is the same structure grid_adjacency builds.
        let direct = crate::sweep::grid_adjacency(&window, &shapes::moore()).unwrap();
        assert_eq!(a.fingerprint(), direct.fingerprint());
        assert_eq!(a.num_nodes(), 25);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(AdjacencyCache::default().len(), 0);
        assert!(!format!("{:?}", cache).is_empty());
    }

    #[test]
    fn adjacency_cache_entry_bound_resets_wholesale() {
        // 3×3 windows at distinct offsets are distinct keys.
        let window = |x: i64| BoxRegion::new(Point::new(vec![x, 0]), Point::new(vec![x + 2, 2]));
        let cache = AdjacencyCache::new();
        let shape = shapes::moore();
        for x in 0..AdjacencyKey::MAX_ENTRIES as i64 {
            cache.get_or_build(&window(x).unwrap(), &shape).unwrap();
        }
        assert_eq!(cache.len(), AdjacencyKey::MAX_ENTRIES);
        cache.get_or_build(&window(-1).unwrap(), &shape).unwrap();
        assert_eq!(cache.len(), 1, "new key at capacity resets wholesale");
    }

    #[test]
    fn trace_cache_propagates_build_errors() {
        let plan = line_plan(&[0, 1, 2], 3);
        let cache = TraceCache::new();
        assert!(matches!(
            cache.get_or_build(&plan, 1, 1.5, 32),
            Err(EngineError::InvalidKernelConfig(_))
        ));
        assert!(cache.is_empty(), "failed builds are evicted");
    }
}
