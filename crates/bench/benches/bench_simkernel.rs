//! Micro-benchmarks of the frame-compiled simulation kernel against the
//! reference slot-by-slot simulator on the shared 256×256-window workload
//! (65 536 Moore-neighbourhood sensors, tiling-schedule MAC, periodic
//! traffic), plus the frame/adjacency compilation cost and an explicit ≥10×
//! speedup check mirroring this PR's acceptance criterion.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use latsched_bench::simbench::{measure_simkernel, simkernel_config, simkernel_network};
use latsched_engine::{FramePlan, FrameSchedule, InterferenceCsr};
use latsched_sensornet::{
    run_simulation_with, CompiledMac, FrameKernel, Network, ReferenceKernel, SimConfig,
};

/// 64×64 for the sampled benchmarks (keeps the reference runs affordable);
/// the asserted speedup check below uses the full 256×256 acceptance window.
fn small_workload() -> (Network, SimConfig) {
    (
        simkernel_network(64).unwrap(),
        simkernel_config(256).unwrap(),
    )
}

fn bench_kernels_64(c: &mut Criterion) {
    let (network, config) = small_workload();
    let mut group = c.benchmark_group("simulation_64x64_256slots");
    group.bench_function("reference_kernel", |b| {
        b.iter(|| run_simulation_with(&ReferenceKernel, black_box(&network), &config).unwrap())
    });
    group.bench_function("frame_kernel", |b| {
        b.iter(|| {
            run_simulation_with(&FrameKernel::default(), black_box(&network), &config).unwrap()
        })
    });
    group.finish();
}

fn bench_frame_compilation(c: &mut Criterion) {
    let (network, config) = small_workload();
    let mac = config.mac.compile(network.positions()).unwrap();
    let CompiledMac::Deterministic { slots, period } = mac else {
        unreachable!("the workload MAC is deterministic");
    };
    let mut group = c.benchmark_group("frame_compilation_64x64");
    group.bench_function("frame_schedule", |b| {
        b.iter(|| FrameSchedule::from_assignment(black_box(&slots), period).unwrap())
    });
    group.bench_function("interference_csr", |b| {
        b.iter(|| InterferenceCsr::from_lists(black_box(network.neighbour_lists())).unwrap())
    });
    let frames = FrameSchedule::from_assignment(&slots, period).unwrap();
    let adjacency = InterferenceCsr::from_lists(network.neighbour_lists()).unwrap();
    group.bench_function("frame_plan", |b| {
        b.iter(|| FramePlan::new(black_box(&frames), black_box(&adjacency)).unwrap())
    });
    group.finish();
}

/// The acceptance check of this PR: on the 256×256 window, the frame-compiled
/// kernel must beat the reference simulator by ≥ 10×, with identical metrics.
/// Measured through the same `measure_simkernel` the `simkernel` entry of
/// `harness --bench` uses (median of 5 runs per kernel) and
/// asserted, so a regression fails `cargo bench` loudly. Skipped in `--test`
/// mode, where nothing is measured.
fn bench_speedup_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let baseline = measure_simkernel(256, 256, 5).unwrap();
    let speedup = baseline.num("speedup");
    println!("speedup_check: {baseline}");
    assert!(
        baseline.parity(),
        "kernels disagree on the acceptance workload"
    );
    assert!(
        speedup >= 10.0,
        "frame kernel must be ≥10x faster than the reference simulator (got {speedup:.1}x)"
    );
    // Keep the group non-empty so the harness reports something even here.
    c.bench_function("speedup_check/done", |b| b.iter(|| speedup));
}

criterion_group!(
    benches,
    bench_kernels_64,
    bench_frame_compilation,
    bench_speedup_check
);
criterion_main!(benches);
