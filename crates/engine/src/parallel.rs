//! A small scoped-thread work-stealing executor, the engine's one way to
//! spawn threads.
//!
//! The build environment is offline, so instead of `rayon` the engine
//! parallelizes with `std::thread::scope`: [`steal_chunks`] fills an output
//! slice through worker threads that claim chunks from one atomic counter,
//! so a worker that drew cheap chunks pulls more work instead of idling
//! behind the slowest one. Two fan-outs use it: the sweep engine's band
//! executor behind both [`crate::run_sweep`] and [`crate::run_search`],
//! whose bands mix analytic-path, loop-path and lane-batch runs, and the
//! 64-slot bands of a large [`crate::TrafficTrace`] build.
//!
//! Fan-outs never nest: a [`steal_chunks`] call made on one of its own
//! workers (a band's uncached trace build) fills on that worker, so a
//! process never runs more than [`worker_threads`] workers at once.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on a [`steal_chunks`] worker for its whole life.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads used for batch evaluation.
///
/// The `LATSCHED_THREADS` environment variable (a positive integer) overrides
/// the detected parallelism — benches and CI determinism checks use it to pin
/// thread counts reproducibly (`engine-cli --threads N` sets it before the
/// first query). Cached after the first query: `available_parallelism` is a
/// syscall (and on Linux a cgroup walk), and every fan-out and band plan
/// consults this.
pub fn worker_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Some(threads) = std::env::var("LATSCHED_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
        {
            return threads;
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A raw base pointer into the output slice, shared across workers. Safety
/// rests on the atomic claim counter: `fetch_add` hands every worker a
/// distinct index range, so the per-claim sub-slices are disjoint.
struct SlicePtr<T>(*mut T);

// SAFETY: the pointer is only dereferenced on disjoint index ranges (one
// atomic claim each), and `T: Send` lets those writes move across threads.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

/// Fills `out` by calling `fill(offset, chunk)` for disjoint contiguous
/// chunks of (up to) `chunk_len` elements, claimed by worker threads from a
/// single atomic counter. `offset` is the index of the chunk's first element
/// within `out`; each call must fully initialize its chunk.
///
/// A worker that finishes a claim immediately claims the next `chunk_len`
/// range, so heterogeneous element costs (sweep bands mixing closed-form
/// analytic runs with slot-loop runs) load-balance instead of letting the
/// slowest chunk dominate wall-clock. Claim order is nondeterministic, but
/// chunk *contents* are not: element `i` is always filled as element `i`,
/// so any output-indexed merge (band-order concatenation or monoid folds)
/// is bit-exact regardless of interleave.
///
/// The calling thread fills the whole slice itself, as one chunk at offset
/// 0, when the slice is shorter than `min_parallel`, when the process has
/// one worker, or when the caller is itself a worker of an enclosing
/// `steal_chunks` call.
///
/// Returns the number of chunk claims workers took: `⌈len / chunk_len⌉` when
/// workers ran (every chunk is claimed exactly once), 0 when the calling
/// thread filled the slice itself. The band executor records it as
/// [`Counter::StealClaims`](crate::telemetry::Counter::StealClaims).
pub fn steal_chunks<T, F>(out: &mut [T], min_parallel: usize, chunk_len: usize, fill: F) -> usize
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    let threads = worker_threads();
    if len < min_parallel.max(2) || threads < 2 || ON_WORKER.get() {
        fill(0, out);
        return 0;
    }
    let chunk_len = chunk_len.max(1);
    let claims = len.div_ceil(chunk_len);
    let workers = threads.min(claims);
    let next = AtomicUsize::new(0);
    let base = SlicePtr(out.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let fill = &fill;
            let base = &base;
            scope.spawn(move || {
                ON_WORKER.set(true);
                loop {
                    let start = next.fetch_add(chunk_len, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let take = chunk_len.min(len - start);
                    // SAFETY: `start` came from a unique `fetch_add` claim,
                    // so `[start, start + take)` ranges never overlap across
                    // workers and stay within `len`.
                    let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), take) };
                    fill(start, chunk);
                }
            });
        }
    });
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn stolen_chunks_fill_every_element_exactly_once() {
        for &(len, chunk) in &[(1usize, 1usize), (24, 1), (100, 7), (257, 64), (64, 64)] {
            let mut out = vec![usize::MAX; len];
            let claims = steal_chunks(&mut out, 2, chunk, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    assert_eq!(*v, usize::MAX, "element claimed twice");
                    *v = (offset + i) * 3;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
            let parallel = len >= 2 && worker_threads() >= 2;
            assert_eq!(claims, if parallel { len.div_ceil(chunk) } else { 0 });
        }
    }

    #[test]
    fn stolen_chunks_match_static_chunks_bit_for_bit() {
        // The static side is one chunk: a plain sequential fill.
        let fill = |offset: usize, chunk: &mut [u64]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                let x = (offset + i) as u64;
                *v = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x;
            }
        };
        let mut stolen = vec![0u64; 513];
        steal_chunks(&mut stolen, 2, 8, fill);
        let mut sequential = vec![0u64; 513];
        fill(0, &mut sequential);
        assert_eq!(stolen, sequential);
    }

    #[test]
    fn fan_outs_inside_a_worker_run_on_that_worker() {
        // Each outer element records its own worker's id, then the ids of
        // the threads that filled an inner fan-out it made: with two or more
        // workers the outer call fans out, and every inner fill must run on
        // the outer worker that asked for it.
        let mut outer: Vec<(Option<ThreadId>, Vec<ThreadId>)> = vec![(None, Vec::new()); 8];
        steal_chunks(&mut outer, 2, 1, |_, chunk| {
            for (worker, inner_ids) in chunk.iter_mut() {
                *worker = Some(std::thread::current().id());
                let mut inner = vec![None; 64];
                let claims = steal_chunks(&mut inner, 2, 1, |_, chunk| {
                    chunk.fill(Some(std::thread::current().id()));
                });
                assert_eq!(claims, 0, "a nested call claims nothing");
                *inner_ids = inner.into_iter().map(Option::unwrap).collect();
            }
        });
        for (worker, inner_ids) in &outer {
            let worker = worker.expect("every outer element filled");
            if worker_threads() >= 2 {
                assert_ne!(worker, std::thread::current().id());
            }
            assert!(inner_ids.iter().all(|&id| id == worker));
        }
    }
}
