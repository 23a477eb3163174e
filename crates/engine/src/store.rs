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
//!   lookups of *other* keys are never blocked behind a compilation.
//! * **Failure and poison recovery.** A failed build evicts its key so later
//!   lookups retry; a build that *panicked* leaves its slot value `None`, which
//!   waiters treat as "rebuild here" instead of propagating the poisoning.
//! * **Bounded entries.** An optional entry bound resets the store wholesale
//!   when a new key arrives at capacity — entries are content-addressed and
//!   rebuildable, so wholesale reset beats recency bookkeeping for the
//!   engine's workloads (sweeps touch far fewer artifacts than any bound).
//! * **Observability.** Lifetime hit/miss/entry counters are exposed as a
//!   [`StoreStats`] snapshot (`engine-cli --stats` prints them per tier).
//!
//! Every tier is a [`Tier`](crate::Tier) over one store (see
//! [`crate::cache`]): its one lookup also counts the hit or miss into the
//! recorder of the request that made it, which is where sweep and search
//! reports read their per-request cache counters.

use crate::error::Result;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The default shard count; a small power of two comfortably above the number
/// of concurrent scenario runners.
const DEFAULT_SHARDS: usize = 16;

/// A per-key build slot: holds the built value once exactly one builder has
/// produced it; racers block on the slot's mutex for the duration of the build.
type Slot<V> = Mutex<Option<Arc<V>>>;

/// One mutex-protected shard of the key → build-slot map.
type Shard<K, V> = Mutex<HashMap<K, Arc<Slot<V>>>>;

/// A point-in-time snapshot of one store's counters (or, in a sweep or
/// search report, one request's lookups on a tier beside its entry count).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

impl StoreStats {
    /// The counter movement since an earlier snapshot of the same store
    /// (`entries` stays absolute — it is a level, not a flow).
    #[must_use]
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
        }
    }
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
/// let a = store.get_or_build(7, || Ok("seven".to_string()))?;
/// let b = store.get_or_build(7, || unreachable!("cached"))?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!((store.hits(), store.misses()), (1, 1));
/// # Ok::<(), latsched_engine::EngineError>(())
/// ```
pub struct ArtifactStore<K, V> {
    shards: Box<[Shard<K, V>]>,
    hits: AtomicU64,
    misses: AtomicU64,
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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
    /// concurrent requests share the store (lifetime counter deltas would
    /// attribute the other request's traffic to both).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (the key is evicted first).
    pub fn get_or_build_tracked(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V>,
    ) -> Result<(Arc<V>, bool)> {
        // Enforce the entry bound: a new key at capacity resets the store
        // wholesale rather than tracking recency — entries are
        // content-addressed and rebuildable, and the engine's workloads touch
        // far fewer artifacts than any bound.
        if self.max_entries != usize::MAX && self.len() >= self.max_entries && !self.contains(&key)
        {
            self.clear();
        }
        let shard = &self.shards[self.shard_of(&key)];
        let (slot, claimed) = {
            let mut guard = shard.lock().expect("store shard poisoned");
            match guard.get(&key) {
                Some(slot) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    (Arc::clone(slot), false)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let slot = Arc::new(Mutex::new(None));
                    guard.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        // Recover a poisoned slot rather than propagating: a build that
        // panicked left the slot value `None`, which is a consistent state —
        // this lookup simply rebuilds, instead of every future lookup of the
        // key panicking with an unrelated poisoning error.
        let mut value = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(built) = value.as_ref() {
            return Ok((Arc::clone(built), !claimed));
        }
        // Either we claimed the slot, or the claimant's build failed and was
        // evicted while we waited; build here (shard lock not held, so other
        // keys proceed). Note that a waiter rebuilding after a failed claimant
        // was counted as a hit; the counters are exact except under build
        // failures, where they may classify one rebuild per waiter as a hit.
        match build() {
            Ok(built) => {
                let built = Arc::new(built);
                *value = Some(Arc::clone(&built));
                if !claimed {
                    // The failed claimant evicted the key; re-insert our slot
                    // so the rebuilt value is reachable by later lookups. If a
                    // fresh claimant raced in first, keep theirs — it will
                    // build once and converge.
                    shard
                        .lock()
                        .expect("store shard poisoned")
                        .entry(key)
                        .or_insert_with(|| Arc::clone(&slot));
                }
                Ok((built, !claimed))
            }
            Err(err) => {
                if claimed {
                    shard.lock().expect("store shard poisoned").remove(&key);
                }
                Err(err)
            }
        }
    }

    /// Whether the store holds (or is currently building) the given key.
    pub fn contains(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)]
            .lock()
            .expect("store shard poisoned")
            .contains_key(key)
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

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().expect("store shard poisoned").clear();
        }
    }

    /// Number of lookups answered from the store.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the hit/miss/entry counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
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
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn builds_each_key_exactly_once_under_contention() {
        // Hammer one key from many scoped threads: the single-flight slot must
        // admit exactly one build, and hit/miss counters must account for every
        // lookup.
        let store: ArtifactStore<u32, u32> = ArtifactStore::with_shards(4);
        let builds = AtomicUsize::new(0);
        let threads = 16;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let v = store
                        .get_or_build(7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so stragglers arrive
                            // mid-build and must wait instead of rebuilding.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(42)
                        })
                        .unwrap();
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-build semantics");
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), threads - 1);
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: threads - 1,
                misses: 1,
                entries: 1
            }
        );
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
        store.get_or_build(1, || panic!("cached")).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.hits(), 1);
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

    #[test]
    fn stats_deltas_track_a_window_of_activity() {
        let store: ArtifactStore<u32, u32> = ArtifactStore::new();
        store.get_or_build(1, || Ok(1)).unwrap();
        let before = store.stats();
        store.get_or_build(1, || Ok(1)).unwrap();
        store.get_or_build(2, || Ok(2)).unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(
            delta,
            StoreStats {
                hits: 1,
                misses: 1,
                entries: 2
            }
        );
        assert_eq!(delta.to_string(), "1h/1m/2e");
    }
}
