//! The typed tiers of the engine's artifact pipeline.
//!
//! Simulation sweeps and benchmark scenarios evaluate the same handful of
//! neighbourhoods, networks, schedules and traffic draws over and over;
//! compiling an artifact (tiling search + table construction, frame-plan
//! fusion, or `n × slots` counter draws) is many orders of magnitude more
//! expensive than a query, so the tiers make repeated scenarios pay it once.
//! Every tier is one generic [`Tier`]: a single-flight, bounded map behind
//! one lock, whose lookups ([`Tier::lookup`], or [`Tier::lookup_all`] for
//! several keys) count each hit or miss into the recorder of the request
//! that made it ([`crate::telemetry`]); that count is the only one kept, and
//! a tier itself holds only its entries. The five tiers are aliases that add
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
use crate::telemetry::{self, span, CacheTier, Stage};
use latsched_core::theorem1;
use latsched_lattice::{BoxRegion, Point};
use latsched_tiling::{find_tiling, Prototile};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The key type of one cache tier: it names the telemetry tier the tier's
/// lookups count into and the tier's entry bound.
pub trait TierKey: Clone + Eq + Hash {
    /// The tier whose hit and miss counters this key's lookups bump.
    const TIER: CacheTier;
    /// The entry bound: a new key arriving at it resets the tier wholesale
    /// (entries are content-addressed and cheap to rebuild; `usize::MAX`
    /// means unbounded).
    const MAX_ENTRIES: usize;
}

/// A per-key build slot: holds the built value once exactly one builder has
/// produced it; racers block on the slot's mutex for the duration of the
/// build.
type Slot<V> = Mutex<Option<Arc<V>>>;

/// Locks `mutex`, recovering the guard if a thread panicked while holding
/// it, instead of every later lookup panicking with an unrelated poisoning
/// error. Both kinds of mutex a tier holds stay valid through a panic: the
/// map changes only by single `HashMap` calls, and a slot whose build
/// panicked still holds `None`, which lookups treat as "build here".
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One content-addressed cache tier: a thread-safe map from `K` keys to
/// compiled `V` artifacts, behind one lock.
///
/// * **Single-flight builds.** The first lookup to miss a key claims a
///   per-key slot and builds while holding only that slot's lock;
///   concurrent misses on the same key wait for the one build instead of
///   duplicating it, and lookups of other keys are never blocked behind a
///   compilation. A lookup of several keys claims each key the same way and
///   builds the keys it claimed in one batch.
/// * **Failure and poison recovery.** A failed build evicts its keys, so
///   later lookups retry; a build that panicked leaves its slot empty, and
///   the lookup waiting on it builds instead.
/// * **Bounded entries.** A new key arriving at the key type's
///   [`TierKey::MAX_ENTRIES`] resets the tier wholesale, in the same
///   critical section as its insert, rather than tracking recency: entries
///   are content-addressed and rebuildable, and the engine's workloads touch
///   far fewer artifacts than any bound.
/// * **Per-request counts.** A tier keeps no hit or miss counts: each lookup
///   counts in the request that made it (see [`crate::telemetry`]), which is
///   where sweep and search reports (and `engine-cli --stats`) read their
///   cache counters.
pub struct Tier<K, V> {
    /// Key → build slot; every claim, eviction and reset takes this lock.
    entries: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K: TierKey, V> Tier<K, V> {
    /// An empty tier, bounded by the key type's entry bound.
    pub fn new() -> Self {
        Tier {
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The artifact under `key`, building it with `build` on first use, and
    /// whether this lookup hit: [`Tier::lookup_all`] for one key.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; failed builds are evicted, so retries
    /// rebuild.
    fn lookup(&self, key: K, build: impl FnOnce() -> Result<V>) -> Result<(Arc<V>, bool)> {
        let mut build = Some(build);
        let mut looked_up = self.lookup_all(std::slice::from_ref(&key), |_| {
            let build = build.take().expect("one key builds at most once");
            build().map(|value| vec![value])
        })?;
        Ok(looked_up.remove(0))
    }

    /// The artifacts under `keys`, in order, each with whether its lookup
    /// hit. The keys this call claims are built together by one call of
    /// `build`, which receives their positions in `keys` and returns their
    /// values in that order. A key another lookup claimed is waited for, not
    /// rebuilt, and a key listed twice is claimed once, its second lookup
    /// hitting; `build` runs again, for one position, only where a
    /// waited-for claimant failed or panicked. This is where tier lookups
    /// are counted: each key's hit or miss lands once in the recorder of the
    /// request running on this thread.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error (the keys it was building are evicted
    /// first).
    fn lookup_all(
        &self,
        keys: &[K],
        mut build: impl FnMut(&[usize]) -> Result<Vec<V>>,
    ) -> Result<Vec<(Arc<V>, bool)>> {
        // One fresh slot per key, locked before it is offered to the tier:
        // a slot this call claims is held from the moment other lookups can
        // find it, so they wait for its build and never find it unbuilt.
        let fresh: Vec<Arc<Slot<V>>> = keys.iter().map(|_| Arc::default()).collect();
        let mut slots = Vec::with_capacity(keys.len());
        let mut looked_up: Vec<Option<(Arc<V>, bool)>> = vec![None; keys.len()];
        {
            let mut held = Vec::new();
            for (i, (key, fresh)) in keys.iter().zip(&fresh).enumerate() {
                let value = lock(fresh);
                let slot = self.claim(key, fresh);
                if Arc::ptr_eq(&slot, fresh) {
                    held.push((i, value));
                }
                slots.push(slot);
            }
            if !held.is_empty() {
                let positions: Vec<usize> = held.iter().map(|&(i, _)| i).collect();
                match build(&positions) {
                    Ok(values) => {
                        debug_assert_eq!(values.len(), positions.len());
                        for ((i, mut value), built) in held.into_iter().zip(values) {
                            let built = Arc::new(built);
                            *value = Some(Arc::clone(&built));
                            looked_up[i] = Some((built, false));
                        }
                    }
                    Err(err) => {
                        // Evict while the slots are still held, so no waiter
                        // re-inserts a value this eviction would then drop.
                        let mut entries = lock(&self.entries);
                        for &i in &positions {
                            entries.remove(&keys[i]);
                        }
                        return Err(err);
                    }
                }
            }
        }
        // The keys other lookups claimed (and repeats of this call's own):
        // wait for their builds.
        for (i, slot) in slots.iter().enumerate() {
            if looked_up[i].is_some() {
                continue;
            }
            let mut value = lock(slot);
            let built = match value.as_ref() {
                Some(built) => Arc::clone(built),
                None => {
                    // The claimant's build failed (evicting the key) or
                    // panicked while this lookup waited: build here, with
                    // the tier unlocked so other keys proceed, and claim the
                    // key again with this slot so the value is reachable. If
                    // a new claimant raced in first, keep theirs — it builds
                    // once and converges. Outcomes are exact except under
                    // build failures, where one rebuild per waiter is
                    // classified as a hit.
                    let built = Arc::new(build(&[i])?.remove(0));
                    *value = Some(Arc::clone(&built));
                    self.claim(&keys[i], slot);
                    built
                }
            };
            looked_up[i] = Some((built, true));
        }
        Ok(looked_up
            .into_iter()
            .map(|l| {
                let (value, hit) = l.expect("every key looked up");
                telemetry::count(K::TIER.counter(hit), 1);
                (value, hit)
            })
            .collect())
    }

    /// The build slot the tier holds under `key`, or else `slot`, which is
    /// inserted: the caller then claims the key. A new key arriving at
    /// [`TierKey::MAX_ENTRIES`] first resets the tier wholesale, under the
    /// same lock as the insert, so concurrent claims never leave the tier
    /// over its bound.
    fn claim(&self, key: &K, slot: &Arc<Slot<V>>) -> Arc<Slot<V>> {
        let mut entries = lock(&self.entries);
        if let Some(held) = entries.get(key) {
            return Arc::clone(held);
        }
        if entries.len() >= K::MAX_ENTRIES {
            entries.clear();
        }
        entries.insert(key.clone(), Arc::clone(slot));
        Arc::clone(slot)
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact.
    pub fn clear(&self) {
        lock(&self.entries).clear();
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

/// The cache tier from neighbourhood shapes to their compiled Theorem 1
/// schedules, keyed by the shape's point set.
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

/// The cache tier of fused [`FramePlan`]s, keyed by the content of the (slot
/// assignment, interference adjacency) pair they were built from.
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

/// The cache tier of compiled [`TrafficTrace`]s, keyed by `(plan fingerprint,
/// seed, load, slots)`.
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
        let looked_up = self.lookup_all(&keys, |claimed| {
            let claimed: Vec<f64> = claimed.iter().map(|&i| loads[i]).collect();
            TrafficTrace::bernoulli_loads(plan, seed, &claimed, slots)
        })?;
        Ok(looked_up.into_iter().map(|(trace, _)| trace).collect())
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

/// The cache tier of window interference adjacencies, keyed by the content of
/// the (box region, neighbourhood shape) pair.
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

/// The cache tier of ranked [`SearchOutcome`]s, keyed by `(scenario
/// fingerprint, objective fingerprint)`.
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// A test key whose tier holds at most `N` entries, counted as schedule
    /// lookups.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct Bounded<const N: usize>(u32);

    impl<const N: usize> TierKey for Bounded<N> {
        const TIER: CacheTier = CacheTier::Schedules;
        const MAX_ENTRIES: usize = N;
    }

    /// A test key of an unbounded tier.
    type Free = Bounded<{ usize::MAX }>;

    /// Whether the tier holds (or is building) `key`.
    fn holds<K: TierKey, V>(tier: &Tier<K, V>, key: K) -> bool {
        lock(&tier.entries).contains_key(&key)
    }

    #[test]
    fn builds_each_key_exactly_once_under_contention() {
        // Hammer one key from many scoped threads: the single-flight slot must
        // admit exactly one build, and the per-lookup outcomes must account
        // for every lookup.
        let tier: Tier<Free, u32> = Tier::new();
        let builds = AtomicUsize::new(0);
        let threads = 16;
        let hits: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let (v, hit) = tier
                            .lookup(Bounded(7), || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Widen the race window so stragglers arrive
                                // mid-build and must wait instead of
                                // rebuilding.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(42)
                            })
                            .unwrap();
                        assert_eq!(*v, 42);
                        usize::from(hit)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-build semantics");
        assert_eq!(hits, threads - 1, "every lookup but the build hits");
        assert_eq!(tier.len(), 1);
    }

    #[test]
    fn several_keys_build_together_once_each_under_contention() {
        // Overlapping key lists looked up from many threads: every key is
        // built exactly once across all calls, by the call that claimed it
        // and in one batch per call (no waiter finds a claimed key unbuilt
        // and builds it again), a key listed twice in one call is claimed
        // once, and every lookup reports its own outcome.
        let tier: Tier<Free, u32> = Tier::new();
        let builds: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let batches = AtomicUsize::new(0);
        let lists: [&[u32]; 4] = [&[1, 2, 3], &[3, 2, 4, 3], &[5, 1], &[4, 5, 2]];
        let misses: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = lists
                .iter()
                .map(|&list| {
                    let (builds, batches, tier) = (&builds, &batches, &tier);
                    scope.spawn(move || {
                        let keys: Vec<Free> = list.iter().map(|&k| Bounded(k)).collect();
                        let looked_up = tier
                            .lookup_all(&keys, |claimed| {
                                batches.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(claimed
                                    .iter()
                                    .map(|&i| {
                                        builds[list[i] as usize].fetch_add(1, Ordering::SeqCst);
                                        list[i] * 10
                                    })
                                    .collect())
                            })
                            .unwrap();
                        for (&key, (value, _)) in list.iter().zip(&looked_up) {
                            assert_eq!(**value, key * 10);
                        }
                        looked_up.iter().filter(|(_, hit)| !hit).count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        for (key, built) in builds.iter().enumerate().skip(1) {
            assert_eq!(built.load(Ordering::SeqCst), 1, "key {key}");
        }
        assert_eq!(misses, 5, "one miss per distinct key");
        assert!(batches.load(Ordering::SeqCst) <= lists.len());
        // A repeated key in one call: one build, then a hit.
        let mut claimed = Vec::new();
        let looked_up = tier
            .lookup_all(&[Bounded(7), Bounded(1), Bounded(7)], |positions| {
                claimed.extend_from_slice(positions);
                Ok(positions.iter().map(|_| 70).collect())
            })
            .unwrap();
        assert_eq!(claimed, [0]);
        let hits: Vec<bool> = looked_up.iter().map(|&(_, hit)| hit).collect();
        assert_eq!(hits, [false, true, true]);
        assert!(Arc::ptr_eq(&looked_up[0].0, &looked_up[2].0));
        // A failed batch evicts every key it was building, and only those.
        assert!(tier
            .lookup_all(&[Bounded(8), Bounded(1), Bounded(9)], |_| {
                Err(EngineError::InvalidSpec("nope".into()))
            })
            .is_err());
        assert!(!holds(&tier, Bounded(8)) && !holds(&tier, Bounded(9)));
        assert!(holds(&tier, Bounded(1)));
    }

    #[test]
    fn waiter_rebuild_after_failed_claimant_is_reinserted() {
        // The claimant's build fails (after a delay, so the waiter is already
        // blocked on the slot); the waiter then rebuilds successfully and must
        // re-insert the value so later lookups hit instead of rebuilding.
        let tier: Tier<Free, u32> = Tier::new();
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let claimant = scope.spawn(|| {
                tier.lookup(Bounded(5), || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err(EngineError::InvalidSpec("injected failure".into()))
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            let waiter = scope.spawn(|| {
                tier.lookup(Bounded(5), || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    Ok(77)
                })
            });
            assert!(claimant.join().unwrap().is_err());
            assert_eq!(*waiter.join().unwrap().unwrap().0, 77);
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert_eq!(tier.len(), 1, "the waiter's rebuild must be reachable");
        // Later lookups hit the re-inserted value without rebuilding.
        let (v, hit) = tier
            .lookup(Bounded(5), || panic!("must not rebuild a cached key"))
            .unwrap();
        assert_eq!((*v, hit), (77, true));
    }

    #[test]
    fn failed_builds_are_evicted_and_retried() {
        let tier: Tier<Free, u8> = Tier::new();
        for _ in 0..2 {
            assert!(tier
                .lookup(Bounded(1), || Err(EngineError::InvalidSpec("nope".into())))
                .is_err());
        }
        assert!(tier.is_empty());
        assert_eq!(*tier.lookup(Bounded(1), || Ok(9)).unwrap().0, 9);
    }

    #[test]
    fn panicked_builds_poison_nothing_and_are_rebuilt() {
        // A build that panics unwinds through the slot lock; the next lookup of
        // the same key must recover the slot and rebuild instead of propagating
        // the poisoning. (The panicking thread is joined so the panic does not
        // abort the test process.)
        let tier: Tier<Free, u32> = Tier::new();
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    tier.lookup(Bounded(3), || -> Result<u32> {
                        panic!("injected build panic")
                    })
                })
                .join()
        });
        assert!(result.is_err(), "the build panicked");
        let (v, _) = tier.lookup(Bounded(3), || Ok(11)).unwrap();
        assert_eq!(*v, 11, "poisoned slot recovered and rebuilt");
        let (again, hit) = tier
            .lookup(Bounded(3), || panic!("must not rebuild a cached key"))
            .unwrap();
        assert!(hit && Arc::ptr_eq(&v, &again));
    }

    #[test]
    fn entry_bound_resets_wholesale_for_new_keys_only() {
        let tier: Tier<Bounded<2>, u32> = Tier::new();
        tier.lookup(Bounded(1), || Ok(1)).unwrap();
        tier.lookup(Bounded(2), || Ok(2)).unwrap();
        assert_eq!(tier.len(), 2);
        // A known key at capacity still hits without clearing.
        let (_, hit) = tier.lookup(Bounded(1), || panic!("cached")).unwrap();
        assert!(hit);
        assert_eq!(tier.len(), 2);
        // A new key at capacity resets the tier, then inserts.
        tier.lookup(Bounded(3), || Ok(3)).unwrap();
        assert_eq!(tier.len(), 1);
        assert!(holds(&tier, Bounded(3)) && !holds(&tier, Bounded(1)));
    }

    #[test]
    fn entry_bound_holds_under_contention() {
        // Eight threads look up distinct new keys on a tier bounded at four:
        // the bound check, the reset and the insert of each claim are one
        // critical section, so no interleaving leaves the tier over its bound.
        let tier: Tier<Bounded<4>, u32> = Tier::new();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for thread in 0..8u32 {
                let (tier, start) = (&tier, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        tier.lookup(Bounded(thread * 1000 + i), || Ok(i)).unwrap();
                        let len = tier.len();
                        assert!(len <= 4, "{len} entries on a tier bounded at 4");
                    }
                });
            }
        });
        assert!((1..=4).contains(&tier.len()));
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
