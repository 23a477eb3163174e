//! A counting global allocator for peak-memory assertions.
//!
//! The `aggregate` baseline entry claims that a streaming sweep's report
//! memory is O(groups) instead of O(runs); a wall-clock benchmark cannot
//! verify that, so this module wraps the system allocator with two relaxed
//! atomic counters — live bytes and the high-water mark — and the baseline
//! measures the *peak allocation delta* across a sweep. The counters cost two
//! atomic adds per allocation, which is noise next to the allocator itself,
//! and they are exact for peak-tracking purposes up to the relaxed-ordering
//! race between the add and the max (a few bytes under heavy contention —
//! the assertions compare against megabyte-scale budgets).
//!
//! The allocator is installed by this crate (`latsched-bench`), so every
//! binary linking it — the harness, the criterion benches, the crate's own
//! tests — gets peak tracking without further setup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counting wrapper around the system allocator.
pub struct CountingAlloc;

#[inline]
fn charge(size: usize) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

#[inline]
fn release(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System` unchanged; the counters are
// side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        release(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            release(layout.size());
            charge(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes currently allocated.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size and returns that
/// baseline; `peak_bytes() - baseline` after a workload is the workload's
/// peak allocation delta.
pub fn reset_peak() -> usize {
    let now = current_bytes();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Runs a workload and returns `(result, peak allocation delta in bytes)` —
/// the extra memory the workload needed at its hungriest moment on top of
/// what was live when it started.
pub fn measure_peak<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let baseline = reset_peak();
    let result = work();
    (result, peak_bytes().saturating_sub(baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_transient_allocations() {
        let (len, peak) = measure_peak(|| {
            let big = vec![7u8; 4 << 20];
            // The vector is freed before the workload returns, so only the
            // peak — not the final live size — can see it.
            big.len()
        });
        assert_eq!(len, 4 << 20);
        assert!(peak >= 4 << 20, "peak {peak} missed a 4 MiB allocation");
        // After the workload, a fresh reset sees a far smaller high-water
        // mark than the transient peak.
        let baseline = reset_peak();
        assert!(peak_bytes() >= baseline);
        assert!(current_bytes() > 0, "the test harness itself allocates");
    }
}
