//! A small scoped-thread fork-join executor.
//!
//! The build environment is offline, so instead of `rayon` the engine parallelizes
//! with `std::thread::scope`: an output slice is split into chunks and each
//! chunk is filled on a worker thread. For the engine's embarrassingly
//! parallel workloads (independent table lookups, independent simulation
//! runs) this captures all the available speedup without a runtime.
//!
//! Fine-grained element fills use a static split ([`fill_chunks`] /
//! [`fill_chunks_min`]): per-element costs are uniform, so one equal chunk
//! per worker balances and the zero-coordination split is fastest.
//! [`steal_chunks`] serves the one coarse-grained fan-out with
//! *heterogeneous* costs — the sweep engine's band executor behind both
//! [`crate::run_sweep`] and [`crate::run_search`], whose bands mix
//! analytic-path, loop-path and lane-batch runs: workers claim elements from
//! one atomic counter, so a worker that drew cheap bands pulls more work
//! instead of idling behind the slowest static chunk.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Batches smaller than this are filled on the calling thread by default; below
/// this size the cost of spawning threads exceeds per-element lookup work.
/// Coarse-grained batches (e.g. whole simulation runs) should use
/// [`fill_chunks_min`] with a much smaller threshold.
pub const PARALLEL_THRESHOLD: usize = 1 << 13;

/// The number of worker threads used for batch evaluation.
///
/// The `LATSCHED_THREADS` environment variable (a positive integer) overrides
/// the detected parallelism — benches and CI determinism checks use it to pin
/// thread counts reproducibly (`engine-cli --threads N` sets it before the
/// first query). Cached after the first query: `available_parallelism` is a
/// syscall (and on Linux a cgroup walk), and the simulation kernel consults
/// this once per slot on its hot paths.
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

/// Fills `out` by calling `fill(offset, chunk)` for disjoint contiguous chunks, in
/// parallel when the slice is large enough. `offset` is the index of the chunk's
/// first element within `out`; each call must fully initialize its chunk.
pub fn fill_chunks<T, F>(out: &mut [T], fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    fill_chunks_min(out, PARALLEL_THRESHOLD, fill);
}

/// [`fill_chunks`] with an explicit parallelism threshold: slices shorter than
/// `min_parallel` are filled on the calling thread. Use a small threshold for
/// coarse-grained elements (e.g. one whole simulation run per element, as in
/// the sweep engine) where even a handful of elements amortize a thread spawn.
pub fn fill_chunks_min<T, F>(out: &mut [T], min_parallel: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    if len < min_parallel.max(2) {
        fill(0, out);
        return;
    }
    let threads = worker_threads();
    if threads < 2 {
        fill(0, out);
        return;
    }
    let chunk_len = len.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut offset = 0usize;
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let fill = &fill;
            scope.spawn(move || fill(offset, chunk));
            offset += take;
            rest = tail;
        }
    });
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
/// single atomic counter — the work-stealing counterpart of
/// [`fill_chunks_min`].
///
/// Where the static split hands each worker one `len / threads` chunk up
/// front, here a worker that finishes a claim immediately claims the next
/// `chunk_len` range, so heterogeneous element costs (sweep bands mixing
/// closed-form analytic runs with slot-loop runs) load-balance instead of
/// letting the slowest static chunk dominate wall-clock. Claim order is
/// nondeterministic, but chunk *contents* are not: element `i` is always
/// filled as element `i`, so any output-indexed merge (band-order
/// concatenation or monoid folds) is bit-exact regardless of interleave.
///
/// Slices shorter than `min_parallel` (or single-threaded processes) fill on
/// the calling thread, exactly like [`fill_chunks_min`].
pub fn steal_chunks<T, F>(out: &mut [T], min_parallel: usize, chunk_len: usize, fill: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    let threads = worker_threads();
    if len < min_parallel.max(2) || threads < 2 {
        fill(0, out);
        return;
    }
    let chunk_len = chunk_len.max(1);
    let workers = threads.min(len.div_ceil(chunk_len));
    let next = AtomicUsize::new(0);
    let base = SlicePtr(out.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let fill = &fill;
            let base = &base;
            scope.spawn(move || loop {
                let start = next.fetch_add(chunk_len, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                // One claim that yielded work; telemetry-gated, so the claim
                // loop stays a bare fetch_add when profiling is off.
                crate::telemetry::telemetry().count(crate::telemetry::Counter::StealClaims, 1);
                let take = chunk_len.min(len - start);
                // SAFETY: `start` came from a unique `fetch_add` claim, so
                // `[start, start + take)` ranges never overlap across workers
                // and stay within `len`.
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), take) };
                fill(start, chunk);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_every_element_sequentially_and_in_parallel() {
        // Small: sequential path.
        let mut small = vec![0usize; 100];
        fill_chunks(&mut small, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert!(small.iter().enumerate().all(|(i, &v)| v == i));

        // Large: parallel path.
        let mut large = vec![0usize; PARALLEL_THRESHOLD * 3 + 17];
        fill_chunks(&mut large, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = offset + i;
            }
        });
        assert!(large.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn explicit_threshold_parallelizes_small_batches() {
        let mut batch = vec![0usize; 24];
        fill_chunks_min(&mut batch, 2, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (offset + i) * 3;
            }
        });
        assert!(batch.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn stolen_chunks_fill_every_element_exactly_once() {
        for &(len, chunk) in &[(1usize, 1usize), (24, 1), (100, 7), (257, 64), (64, 64)] {
            let mut out = vec![usize::MAX; len];
            steal_chunks(&mut out, 2, chunk, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    assert_eq!(*v, usize::MAX, "element claimed twice");
                    *v = (offset + i) * 3;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
        }
    }

    #[test]
    fn stolen_chunks_match_static_chunks_bit_for_bit() {
        let mut stolen = vec![0u64; 513];
        let mut static_split = vec![0u64; 513];
        let fill = |offset: usize, chunk: &mut [u64]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                let x = (offset + i) as u64;
                *v = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x;
            }
        };
        steal_chunks(&mut stolen, 2, 8, fill);
        fill_chunks_min(&mut static_split, 2, fill);
        assert_eq!(stolen, static_split);
    }
}
