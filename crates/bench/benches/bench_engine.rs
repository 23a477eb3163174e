//! Micro-benchmarks of the compiled schedule-query engine against the reference
//! `PeriodicSchedule::slot_of`: single-query latency, batched window throughput
//! (one call on the calling thread), cache hit cost, and an explicit ≥10×
//! speedup check on the 512×512 window workload of the engine's acceptance
//! criterion.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use latsched_core::{theorem1, PeriodicSchedule};
use latsched_engine::{CompiledSchedule, ScheduleCache};
use latsched_lattice::{BoxRegion, Point};
use latsched_tiling::{find_tiling, shapes, Prototile};
use std::time::Instant;

fn prototiles() -> Vec<(&'static str, Prototile)> {
    vec![
        ("plus5", shapes::euclidean_ball(2, 1).unwrap()),
        ("antenna8", shapes::directional_antenna()),
        ("moore9", shapes::chebyshev_ball(2, 1).unwrap()),
        ("moore25", shapes::chebyshev_ball(2, 2).unwrap()),
    ]
}

fn schedule_for(shape: &Prototile) -> PeriodicSchedule {
    let tiling = find_tiling(shape).unwrap().unwrap();
    theorem1::schedule_from_tiling(&tiling)
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_compile");
    for (name, shape) in prototiles() {
        let schedule = schedule_for(&shape);
        group.bench_with_input(BenchmarkId::from_parameter(name), &schedule, |b, s| {
            b.iter(|| CompiledSchedule::compile(black_box(s)).unwrap())
        });
    }
    group.finish();
}

fn bench_single_query(c: &mut Criterion) {
    let schedule = schedule_for(&shapes::moore());
    let compiled = CompiledSchedule::compile(&schedule).unwrap();
    let p = Point::xy(1_000_003, -999_999);
    c.bench_function("single_query/reference_slot_of", |b| {
        b.iter(|| schedule.slot_of(black_box(&p)).unwrap())
    });
    c.bench_function("single_query/compiled_slot_of", |b| {
        b.iter(|| compiled.slot_of(black_box(&p)).unwrap())
    });
    let coords = [1_000_003i64, -999_999];
    c.bench_function("single_query/compiled_slot_of_coords", |b| {
        b.iter(|| compiled.slot_of_coords(black_box(&coords)).unwrap())
    });
}

fn bench_window_512(c: &mut Criterion) {
    let schedule = schedule_for(&shapes::moore());
    let compiled = CompiledSchedule::compile(&schedule).unwrap();
    let window = BoxRegion::square_window(2, 512).unwrap();
    let mut group = c.benchmark_group("window_512x512");
    group.bench_function("reference_per_point", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for p in black_box(&window).iter() {
                acc += schedule.slot_of(&p).unwrap();
            }
            acc
        })
    });
    group.bench_function("compiled", |b| {
        b.iter(|| compiled.slots_of_region(black_box(&window)).unwrap())
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let cache = ScheduleCache::new();
    let moore = shapes::moore();
    cache.get_or_compile(&moore).unwrap();
    c.bench_function("cache/hit", |b| {
        b.iter(|| cache.get_or_compile(black_box(&moore)).unwrap())
    });
}

/// The acceptance check of the engine issue: on a 512×512 window, batched
/// compiled queries must beat per-point `PeriodicSchedule::slot_of` by ≥ 10×.
/// Measured directly (outside the sampling harness) and asserted, so a
/// regression fails `cargo bench` loudly. Skipped in `--test` mode, where
/// nothing is measured.
fn bench_speedup_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let schedule = schedule_for(&shapes::moore());
    let compiled = CompiledSchedule::compile(&schedule).unwrap();
    let window = BoxRegion::square_window(2, 512).unwrap();

    let time = |f: &mut dyn FnMut() -> u64| {
        // Median of 5 timed passes.
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[2]
    };

    let reference = time(&mut || {
        window
            .iter()
            .map(|p| schedule.slot_of(&p).unwrap() as u64)
            .sum()
    });
    let batched = time(&mut || {
        compiled
            .slots_of_region(&window)
            .unwrap()
            .iter()
            .map(|&s| s as u64)
            .sum()
    });
    let speedup = reference / batched.max(1e-12);
    println!(
        "speedup_check: 512x512 window — reference {:.3} ms, batched {:.3} ms, speedup {speedup:.1}x",
        reference * 1e3,
        batched * 1e3
    );
    assert!(
        speedup >= 10.0,
        "batched compiled queries must be ≥10x faster than per-point slot_of (got {speedup:.1}x)"
    );
    // Keep the group non-empty so the harness reports something even here.
    c.bench_function("speedup_check/done", |b| b.iter(|| speedup));
}

criterion_group!(
    benches,
    bench_compile,
    bench_single_query,
    bench_window_512,
    bench_cache,
    bench_speedup_check
);
criterion_main!(benches);
