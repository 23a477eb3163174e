//! Thread-count invariance of the telemetry counters: a sweep profiled under
//! a forced single-worker pool must report exactly the dispatch mix, trace
//! compilations and cache counters that `tests/sweep_parity.rs` pins for the
//! same grid under the default pool. Steal-chunk claims are the one counter
//! that legitimately depends on the worker count (claims only happen when 2+
//! workers run), which is why they are not part of the pinned profile here —
//! the CI smoke step makes the same exclusion when it diffs `--threads 1`
//! against `--threads 3` metrics.
//!
//! This lives in its own integration-test binary because `LATSCHED_THREADS`
//! is read once per process, before any sweep queries the worker pool.

use latsched_engine::telemetry::{profile, Counter};
use latsched_engine::{run_sweep, SweepCaches, SweepMac, SweepSpec, SweepTraffic};

#[test]
fn forced_single_thread_sweeps_report_the_pinned_counters() {
    // Must happen before the engine's first worker-pool query: the engine
    // caches the thread count for the life of the process.
    std::env::set_var("LATSCHED_THREADS", "1");
    assert_eq!(latsched_engine::parallel::worker_threads(), 1);

    // The same 16-run grid as `pinned_mix_spec()` in tests/sweep_parity.rs.
    let spec = SweepSpec {
        windows: vec![6, 9],
        slots: 160,
        seeds: vec![2, 9].into(),
        retries: vec![0, 2],
        traffic: SweepTraffic::Bernoulli(vec![0.1, 0.3]),
        mac: SweepMac::Tiling,
        ..latsched_engine::builtin_sweep()
    };
    let (report, _) = profile(|| run_sweep(&spec, &SweepCaches::new()).unwrap());
    let snapshot = report.telemetry.expect("profiled sweeps attach a snapshot");

    // Identical to the default-pool profile pinned in sweep_parity.rs: the
    // retry axis collapses, so half the runs are copies.
    assert_eq!(snapshot.counter(Counter::DispatchAnalytic), 8);
    assert_eq!(snapshot.counter(Counter::DispatchCopy), 8);
    for counter in [
        Counter::DispatchLaneScalar,
        Counter::DispatchLaneBernoulli,
        Counter::DispatchGeneralLoop,
        Counter::LaneBatches,
        Counter::LaneRuns,
    ] {
        assert_eq!(snapshot.counter(counter), 0, "{}", counter.name());
    }
    assert_eq!(snapshot.dispatch_total(), spec.num_runs() as u64);
    assert_eq!(snapshot.counter(Counter::TraceCompilations), 8);
    // One worker means no chunk is ever stolen.
    assert_eq!(snapshot.counter(Counter::StealClaims), 0);

    // Cold-cache lookups are thread-invariant too: one schedule, one
    // adjacency and one plan per window, one trace per (window, load, seed).
    assert_eq!(snapshot.counter(Counter::ScheduleMisses), 1);
    assert_eq!(snapshot.counter(Counter::AdjacencyMisses), 2);
    assert_eq!(snapshot.counter(Counter::PlanMisses), 2);
    assert_eq!(snapshot.counter(Counter::TraceMisses), 8);
    assert_eq!(report.caches.schedules.misses, 1);
    assert_eq!(report.caches.traces.misses, 8);
}
