//! The generic artifact store: the sharded, single-flight, bounded cache core
//! every compiled-artifact tier of the engine is built on.
//!
//! The engine compiles five kinds of content-addressed artifacts — Theorem 1
//! schedule tables, window adjacencies, fused frame plans, traffic traces and
//! search outcomes — and [`ArtifactStore`] holds the mechanics they share:
//!
//! * **Sharding.** Entries are spread across several mutex-protected maps so
//!   concurrent scenario runners do not serialize on a single lock.
//! * **Single-flight builds.** The first thread to miss a key claims a per-key
//!   slot and builds while holding only that slot's lock; concurrent misses on
//!   the *same* key wait for the one build instead of duplicating it, and
//!   lookups of *other* keys are never blocked behind a compilation. A lookup
//!   of several keys claims each key the same way and builds the keys it
//!   claimed in one batch.
//! * **Failure and poison recovery.** A failed build evicts its key so later
//!   lookups retry; a build that *panicked* leaves its slot value `None`, which
//!   waiters treat as "rebuild here" instead of propagating the poisoning.
//! * **Bounded entries.** An optional entry bound resets the store wholesale
//!   when a new key arrives at capacity — entries are content-addressed and
//!   rebuildable, so wholesale reset beats recency bookkeeping for the
//!   engine's workloads (sweeps touch far fewer artifacts than any bound).
//! * **Per-lookup outcomes.** The store keeps no counters of its own:
//!   [`ArtifactStore::get_or_build_tracked`] reports whether each lookup hit,
//!   and the caller counts it where it belongs.
//!
//! Every tier is a [`Tier`](crate::Tier) over one store (see
//! [`crate::cache`]): its one lookup counts the hit or miss into the
//! recorder of the request that made it, which is where sweep and search
//! reports (and `engine-cli --stats`) read their cache counters.

use crate::error::Result;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// The default shard count; a small power of two comfortably above the number
/// of concurrent scenario runners.
const DEFAULT_SHARDS: usize = 16;

/// A per-key build slot: holds the built value once exactly one builder has
/// produced it; racers block on the slot's mutex for the duration of the build.
type Slot<V> = Mutex<Option<Arc<V>>>;

/// One mutex-protected shard of the key → build-slot map.
type Shard<K, V> = Mutex<HashMap<K, Arc<Slot<V>>>>;

/// Locks a build slot, recovering it if a build panicked while holding it:
/// the value is then still `None`, a consistent state that lookups treat as
/// "build here", instead of every later lookup of the key panicking with an
/// unrelated poisoning error.
fn lock<V>(slot: &Slot<V>) -> std::sync::MutexGuard<'_, Option<Arc<V>>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One request's lookups on a cache tier, beside the tier's entry count (a
/// tier's part of a sweep or search report).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}h/{}m/{}e", self.hits, self.misses, self.entries)
    }
}

/// The generic sharded single-flight cache of compiled artifacts (see the
/// module docs for the guarantees).
///
/// # Examples
///
/// ```
/// use latsched_engine::ArtifactStore;
///
/// let store: ArtifactStore<u32, String> = ArtifactStore::new();
/// let (a, hit) = store.get_or_build_tracked(7, || Ok("seven".to_string()))?;
/// let (b, hit_again) = store.get_or_build_tracked(7, || unreachable!("cached"))?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!((hit, hit_again), (false, true));
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
pub struct ArtifactStore<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// Entry bound; `usize::MAX` means unbounded.
    max_entries: usize,
}

impl<K: Clone + Eq + Hash, V> ArtifactStore<K, V> {
    /// An empty, unbounded store with the default shard count.
    pub fn new() -> Self {
        ArtifactStore::with_shards(DEFAULT_SHARDS)
    }

    /// An empty, unbounded store with an explicit shard count (at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        ArtifactStore {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            max_entries: usize::MAX,
        }
    }

    /// Bounds the store to at most `max_entries` cached values (at least 1);
    /// a *new* key arriving at capacity resets the store wholesale before
    /// inserting, while known keys keep hitting without eviction.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries.max(1);
        self
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// The value under `key`, building it with `build` on the first lookup.
    /// Exactly one caller builds per key (single-flight); a failed build
    /// removes the key so later lookups retry.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the key is evicted first).
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> Result<V>) -> Result<Arc<V>> {
        self.get_or_build_tracked(key, build)
            .map(|(value, _)| value)
    }

    /// [`ArtifactStore::get_or_build`], also reporting whether *this* lookup
    /// was a hit — the per-lookup truth a [`Tier`](crate::Tier) counts into
    /// the requesting request's recorder, which stays exact even when
    /// concurrent requests share the store.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the key is evicted first).
    pub fn get_or_build_tracked(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<(Arc<V>, bool)> {
        let mut build = Some(build);
        let mut looked_up = self.get_or_build_all(std::slice::from_ref(&key), |_| {
            let build = build.take().expect("one key builds at most once");
            build().map(|value| vec![value])
        })?;
        Ok(looked_up.remove(0))
    }

    /// [`ArtifactStore::get_or_build_tracked`] for several keys at once: the
    /// values under `keys`, in order, each with whether its lookup hit. The
    /// keys this call claims are built together by one call of `build`,
    /// which receives their positions in `keys` and returns their values in
    /// that order. Single-flight holds per key: a key another lookup claimed
    /// is waited for, not rebuilt, and a key listed twice is claimed once,
    /// its second lookup hitting. `build` runs again, for one position, only
    /// where a waited-for claimant failed.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the keys it was building are evicted
    /// first).
    pub(crate) fn get_or_build_all(
        &self,
        keys: &[K],
        mut build: impl FnMut(&[usize]) -> Result<Vec<V>>,
    ) -> Result<Vec<(Arc<V>, bool)>> {
        // One fresh slot per key, locked before it is offered to the store:
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
                        for &i in &positions {
                            self.shard(&keys[i]).remove(&keys[i]);
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
                    // The claimant's build failed and evicted the key while
                    // this lookup waited; build here (shard lock not held, so
                    // other keys proceed) and re-insert the slot so the value
                    // is reachable. If a new claimant raced in first, keep
                    // theirs — it will build once and converge. Outcomes are
                    // exact except under build failures, where one rebuild
                    // per waiter is classified as a hit.
                    let built = Arc::new(build(&[i])?.remove(0));
                    *value = Some(Arc::clone(&built));
                    self.shard(&keys[i])
                        .entry(keys[i].clone())
                        .or_insert_with(|| Arc::clone(slot));
                    built
                }
            };
            looked_up[i] = Some((built, true));
        }
        Ok(looked_up
            .into_iter()
            .map(|l| l.expect("every key looked up"))
            .collect())
    }

    /// The build slot the store holds under `key`, or else `fresh`, which
    /// is inserted: this lookup then claims the key and must build it. A
    /// new key arriving at the entry bound resets the store wholesale
    /// first, rather than tracking recency: entries are content-addressed
    /// and rebuildable, and the engine's workloads touch far fewer
    /// artifacts than any bound.
    fn claim(&self, key: &K, fresh: &Arc<Slot<V>>) -> Arc<Slot<V>> {
        if self.max_entries != usize::MAX && self.len() >= self.max_entries && !self.contains(key) {
            self.clear();
        }
        let mut shard = self.shard(key);
        if let Some(slot) = shard.get(key) {
            return Arc::clone(slot);
        }
        shard.insert(key.clone(), Arc::clone(fresh));
        Arc::clone(fresh)
    }

    /// The locked shard holding `key`.
    fn shard(&self, key: &K) -> std::sync::MutexGuard<'_, HashMap<K, Arc<Slot<V>>>> {
        self.shards[self.shard_of(key)]
            .lock()
            .expect("store shard poisoned")
    }

    /// Whether the store holds (or is currently building) the given key.
    pub fn contains(&self, key: &K) -> bool {
        self.shard(key).contains_key(key)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").len())
            .sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("store shard poisoned").clear();
        }
    }
}

impl<K: Clone + Eq + Hash, V> Default for ArtifactStore<K, V> {
    fn default() -> Self {
        ArtifactStore::new()
    }
}

impl<K, V> std::fmt::Debug for ArtifactStore<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("shards", &self.shards.len())
            .field("max_entries", &self.max_entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn builds_each_key_exactly_once_under_contention() {
        // Hammer one key from many scoped threads: the single-flight slot must
        // admit exactly one build, and the per-lookup outcomes must account
        // for every lookup.
        let store: ArtifactStore<u32, u32> = ArtifactStore::with_shards(4);
        let builds = AtomicUsize::new(0);
        let threads = 16;
        let hits: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let (v, hit) = store
                            .get_or_build_tracked(7, || {
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
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn several_keys_build_together_once_each_under_contention() {
        // Overlapping key lists looked up from many threads: every key is
        // built exactly once across all calls, by the call that claimed it
        // and in one batch per call (no waiter finds a claimed key unbuilt
        // and builds it again), a key listed twice in one call is claimed
        // once, and every lookup reports its own outcome.
        let store: ArtifactStore<u32, u32> = ArtifactStore::with_shards(4);
        let builds: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let batches = AtomicUsize::new(0);
        let lists: [&[u32]; 4] = [&[1, 2, 3], &[3, 2, 4, 3], &[5, 1], &[4, 5, 2]];
        let misses: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = lists
                .iter()
                .map(|&keys| {
                    let (builds, batches, store) = (&builds, &batches, &store);
                    scope.spawn(move || {
                        let looked_up = store
                            .get_or_build_all(keys, |claimed| {
                                batches.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(claimed
                                    .iter()
                                    .map(|&i| {
                                        builds[keys[i] as usize].fetch_add(1, Ordering::SeqCst);
                                        keys[i] * 10
                                    })
                                    .collect())
                            })
                            .unwrap();
                        for (&key, (value, _)) in keys.iter().zip(&looked_up) {
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
        let (looked_up, claimed) = {
            let mut claimed = Vec::new();
            let looked_up = store
                .get_or_build_all(&[7, 1, 7], |positions| {
                    claimed.extend_from_slice(positions);
                    Ok(positions.iter().map(|_| 70).collect())
                })
                .unwrap();
            (looked_up, claimed)
        };
        assert_eq!(claimed, [0]);
        let hits: Vec<bool> = looked_up.iter().map(|&(_, hit)| hit).collect();
        assert_eq!(hits, [false, true, true]);
        assert!(Arc::ptr_eq(&looked_up[0].0, &looked_up[2].0));
        // A failed batch evicts every key it was building, and only those.
        assert!(store
            .get_or_build_all(&[8, 1, 9], |_| Err(EngineError::InvalidSpec("nope".into())))
            .is_err());
        assert!(!store.contains(&8) && !store.contains(&9) && store.contains(&1));
    }

    #[test]
    fn waiter_rebuild_after_failed_claimant_is_reinserted() {
        // The claimant's build fails (after a delay, so the waiter is already
        // blocked on the slot); the waiter then rebuilds successfully and must
        // re-insert the value so later lookups hit instead of rebuilding.
        let store: ArtifactStore<u32, u32> = ArtifactStore::with_shards(2);
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let claimant = scope.spawn(|| {
                store.get_or_build(5, || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err(EngineError::InvalidSpec("injected failure".into()))
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            let waiter = scope.spawn(|| {
                store.get_or_build(5, || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    Ok(77)
                })
            });
            assert!(claimant.join().unwrap().is_err());
            assert_eq!(*waiter.join().unwrap().unwrap(), 77);
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
        assert_eq!(store.len(), 1, "the waiter's rebuild must be reachable");
        // Later lookups hit the re-inserted value without rebuilding.
        let v = store
            .get_or_build(5, || panic!("must not rebuild a cached key"))
            .unwrap();
        assert_eq!(*v, 77);
    }

    #[test]
    fn failed_builds_are_evicted_and_retried() {
        let store: ArtifactStore<u8, u8> = ArtifactStore::new();
        for _ in 0..2 {
            assert!(store
                .get_or_build(1, || Err(EngineError::InvalidSpec("nope".into())))
                .is_err());
        }
        assert!(store.is_empty());
        assert_eq!(*store.get_or_build(1, || Ok(9)).unwrap(), 9);
    }

    #[test]
    fn panicked_builds_poison_nothing_and_are_rebuilt() {
        // A build that panics unwinds through the slot lock; the next lookup of
        // the same key must recover the slot and rebuild instead of propagating
        // the poisoning. (The panicking thread is joined so the panic does not
        // abort the test process.)
        let store: ArtifactStore<u32, u32> = ArtifactStore::new();
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    store.get_or_build(3, || -> Result<u32> { panic!("injected build panic") })
                })
                .join()
        });
        assert!(result.is_err(), "the build panicked");
        let v = store.get_or_build(3, || Ok(11)).unwrap();
        assert_eq!(*v, 11, "poisoned slot recovered and rebuilt");
        let again = store
            .get_or_build(3, || panic!("must not rebuild a cached key"))
            .unwrap();
        assert!(Arc::ptr_eq(&v, &again));
    }

    #[test]
    fn entry_bound_resets_wholesale_for_new_keys_only() {
        let store: ArtifactStore<u32, u32> = ArtifactStore::new().with_max_entries(2);
        store.get_or_build(1, || Ok(1)).unwrap();
        store.get_or_build(2, || Ok(2)).unwrap();
        assert_eq!(store.len(), 2);
        // A known key at capacity still hits without clearing.
        let (_, hit) = store.get_or_build_tracked(1, || panic!("cached")).unwrap();
        assert!(hit);
        assert_eq!(store.len(), 2);
        // A new key at capacity resets the store, then inserts.
        store.get_or_build(3, || Ok(3)).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.contains(&3) && !store.contains(&1));
        // The zero bound clamps to one entry.
        let tiny: ArtifactStore<u8, u8> = ArtifactStore::new().with_max_entries(0);
        tiny.get_or_build(1, || Ok(1)).unwrap();
        tiny.get_or_build(2, || Ok(2)).unwrap();
        assert_eq!(tiny.len(), 1);
    }
}
