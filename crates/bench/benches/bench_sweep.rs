//! Micro-benchmarks of the batched sweep engine against sequential
//! reference-simulator runs on the shared 64-run stochastic workload, plus
//! explicit asserted checks: the ≥5× cold-sweep speedup over sequential
//! reference runs, the ≥1.5× warm-over-cold speedup of the tiered artifact
//! pipeline (schedule/plan/trace caches all hitting; ~1.9× measured on one
//! core, more with cores), and the work-stealing dispatch beating the static
//! chunk split on a slow-clustered mixed grid whenever 2+ workers run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use latsched_bench::sweep::{measure_sweep, sweep_spec};
use latsched_bench::tracecache::measure_tracecache;
use latsched_engine::{run_sweep, SweepCaches};

fn bench_sweep_16(c: &mut Criterion) {
    // 16×16 for the sampled benchmark (keeps iterations affordable); the
    // asserted speedup check below uses the full 64×64 acceptance grid.
    let spec = sweep_spec(16, 128);
    let mut group = c.benchmark_group("sweep_16x16_64runs");
    group.bench_function("run_sweep_cold_caches", |b| {
        b.iter(|| {
            let caches = SweepCaches::new();
            run_sweep(black_box(&spec), &caches).unwrap()
        })
    });
    let warm = SweepCaches::new();
    run_sweep(&spec, &warm).unwrap();
    group.bench_function("run_sweep_warm_caches", |b| {
        b.iter(|| run_sweep(black_box(&spec), &warm).unwrap())
    });
    group.finish();
}

/// The acceptance check of this PR: on the 64-run stochastic sweep (Moore
/// 64×64, Bernoulli loads × retry budgets × seeds), the batched sweep engine
/// must beat 64 sequential reference runs by ≥ 5×, with bit-identical per-run
/// metrics. Measured through the same `measure_sweep` the `sweep` entry of
/// `harness --bench` uses and asserted, so a regression fails
/// `cargo bench` loudly. Skipped in `--test` mode, where nothing is measured.
fn bench_sweep_speedup_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let baseline = measure_sweep(64, 512, 3).unwrap();
    println!("sweep_speedup_check: {baseline}");
    let (speedup, steal_speedup) = (baseline.num("speedup"), baseline.num("steal_speedup"));
    let threads = baseline.num("threads");
    assert!(
        baseline.parity(),
        "sweep and reference disagree on the acceptance workload"
    );
    assert!(
        speedup >= 5.0,
        "batched sweep must be ≥5x faster than sequential reference runs (got {speedup:.1}x)"
    );
    if threads >= 2.0 {
        // With 2+ workers the slow-clustered grid must load-balance: stealing
        // has to beat the static split outright.
        assert!(
            steal_speedup > 1.0,
            "work stealing must beat the static split on the mixed grid \
             with {threads} threads (got {steal_speedup:.2}x)"
        );
    } else {
        // One worker: both dispatches degenerate to the same sequential fill;
        // sanity-bound the ratio so a pathological steal path still fails.
        assert!(
            steal_speedup > 0.7,
            "single-threaded stealing must match the sequential fill \
             (got {steal_speedup:.2}x)"
        );
    }
    // Keep the group non-empty so the harness reports something even here.
    c.bench_function("sweep_speedup_check/done", |b| b.iter(|| speedup));
}

/// The acceptance check of the artifact pipeline: on the 64-run acceptance
/// grid, a warm sweep (shared `SweepCaches`, every tier hitting) must run
/// ≥ 1.5× faster than a cold one, with bit-identical per-run counters and
/// zero cache misses on the warm side. (On a single core the measured ratio
/// is ~1.9× — the run phase is irreducible; multi-core machines measure
/// higher because the cold setup parallelizes worse than the grid.) Measured
/// through the same `measure_tracecache` the `tracecache` entry of
/// `harness --bench` uses. Skipped in `--test` mode, where nothing is
/// measured.
fn bench_tracecache_speedup_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let baseline = measure_tracecache(64, 512, 3).unwrap();
    println!("tracecache_speedup_check: {baseline}");
    let speedup = baseline.num("speedup");
    assert!(
        baseline.parity(),
        "warm sweeps must replay cold runs exactly with zero tier misses"
    );
    assert!(
        speedup >= 1.5,
        "warm sweeps must be ≥1.5x faster than cold sweeps (got {speedup:.2}x)"
    );
    c.bench_function("tracecache_speedup_check/done", |b| b.iter(|| speedup));
}

criterion_group!(
    benches,
    bench_sweep_16,
    bench_sweep_speedup_check,
    bench_tracecache_speedup_check
);
criterion_main!(benches);
