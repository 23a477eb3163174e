//! Micro-benchmarks of the streaming sweep-statistics subsystem against
//! full-mode reporting on the shared aggregation workload, plus an asserted
//! acceptance check: streaming group folds must be bit-identical to folding
//! full-mode per-run reports by the same axes, the streaming report must
//! never materialize `per_run`, and its peak allocation must undercut the
//! full-mode sweep's by the committed reduction factor.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use latsched_bench::aggregate::{
    aggregate_group_spec, aggregate_spec, measure_aggregate, MIN_MEM_REDUCTION,
    STREAM_PEAK_CAP_BYTES,
};
use latsched_engine::{run_sweep, SweepCaches, SweepMode};

fn bench_streaming_vs_full(c: &mut Criterion) {
    // A 1 000-run slice of the aggregation grid keeps criterion iterations
    // affordable; the asserted check below uses the larger grid.
    let stream_spec = aggregate_spec(50, SweepMode::Streaming(aggregate_group_spec()));
    let full_spec = aggregate_spec(50, SweepMode::Full);
    let caches = SweepCaches::new();
    run_sweep(&stream_spec, &caches).unwrap(); // warm the artifact tiers
    let mut group = c.benchmark_group("aggregate_1000runs");
    group.sample_size(10);
    group.bench_function("run_sweep_streaming", |b| {
        b.iter(|| run_sweep(black_box(&stream_spec), &caches).unwrap())
    });
    group.bench_function("run_sweep_full", |b| {
        b.iter(|| run_sweep(black_box(&full_spec), &caches).unwrap())
    });
    group.finish();
}

/// The acceptance check of this PR: on a 25 000-run grid, streaming folds
/// must match full-mode folds exactly (and the reference-simulator fold on a
/// sub-grid), stay under the peak-allocation cap, and beat the full-mode
/// report's peak by ≥ the committed reduction factor. Skipped in `--test`
/// mode, where nothing is measured.
fn bench_aggregate_memory_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let baseline = measure_aggregate(1_250, 160, 2).unwrap();
    println!("aggregate_memory_check: {baseline}");
    let reduction = baseline.num("speedup");
    assert!(
        baseline.parity(),
        "streaming folds must match full-mode and reference folds exactly, \
         with peak allocation <= {} MiB and >= {MIN_MEM_REDUCTION}x below full mode \
         (got {:.2} MiB, {reduction:.1}x)",
        STREAM_PEAK_CAP_BYTES >> 20,
        baseline.num("peak_stream_bytes") / (1 << 20) as f64,
    );
    c.bench_function("aggregate_memory_check/done", |b| b.iter(|| reduction));
}

criterion_group!(
    benches,
    bench_streaming_vs_full,
    bench_aggregate_memory_check
);
criterion_main!(benches);
