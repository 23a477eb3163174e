//! Micro-benchmarks of the frame kernel's replay fast paths — the closed-form
//! analytic replay (clean and partial-conflict hybrid) against the explicit
//! slot loop, and the bit-sliced 64-seed lane kernel (deterministic and
//! Bernoulli traffic) against scalar per-seed runs — plus an asserted
//! acceptance check on the workload of `harness --bench`'s `replay` entry:
//! every fast path must be bit-identical to its slow path and beat it by the
//! committed factor.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use latsched_bench::measure_replay;
use latsched_engine::{
    compile_shape, grid_adjacency, run_frames, run_frames_lanes, run_frames_loop, FramePlan,
    FrameSchedule, KernelConfig, KernelMac, KernelTraffic,
};
use latsched_lattice::BoxRegion;
use latsched_tiling::shapes;

/// The criterion slice of the workload: a 32×32 window keeps iterations
/// affordable; the asserted check below uses the full 64×64 baseline grid.
fn small_plans() -> (FramePlan, FramePlan) {
    let shape = shapes::moore();
    let region = BoxRegion::square_window(2, 32).unwrap();
    let adjacency = grid_adjacency(&region, &shape).unwrap();
    let compiled = compile_shape(&shape).unwrap();
    let assignment: Vec<usize> = compiled
        .slots_of_region(&region)
        .unwrap()
        .into_iter()
        .map(usize::from)
        .collect();
    let frames = FrameSchedule::from_assignment(&assignment, compiled.num_slots()).unwrap();
    let clean = FramePlan::new(&frames, &adjacency).unwrap();
    let aloha_frames =
        FrameSchedule::from_assignment(&vec![0usize; adjacency.num_nodes()], 1).unwrap();
    let aloha = FramePlan::new(&aloha_frames, &adjacency).unwrap();
    (clean, aloha)
}

fn bench_analytic_vs_loop(c: &mut Criterion) {
    let (clean, _) = small_plans();
    let config = KernelConfig {
        slots: 512,
        traffic: KernelTraffic::Periodic { period: 64 },
        mac: KernelMac::Scheduled,
        max_retries: 2,
        seed: 7,
    };
    let mut group = c.benchmark_group("replay_clean_32x32");
    group.sample_size(10);
    group.bench_function("run_frames_analytic", |b| {
        b.iter(|| run_frames(black_box(&clean), &config).unwrap())
    });
    group.bench_function("run_frames_loop", |b| {
        b.iter(|| run_frames_loop(black_box(&clean), &config).unwrap())
    });
    group.finish();
}

fn bench_lanes_vs_scalar(c: &mut Criterion) {
    let (_, aloha) = small_plans();
    let seeds: Vec<u64> = (1..=64).collect();
    let config = KernelConfig {
        slots: 512,
        traffic: KernelTraffic::Staggered { period: 4 },
        mac: KernelMac::Aloha { p: 0.25 },
        max_retries: 2,
        seed: 1,
    };
    let mut group = c.benchmark_group("replay_aloha_32x32");
    group.sample_size(10);
    group.bench_function("run_frames_lanes_64", |b| {
        b.iter(|| run_frames_lanes(black_box(&aloha), &config, &seeds).unwrap())
    });
    group.bench_function("run_frames_scalar_64", |b| {
        b.iter(|| {
            for &seed in &seeds {
                run_frames(
                    black_box(&aloha),
                    &KernelConfig {
                        seed,
                        ..config.clone()
                    },
                )
                .unwrap();
            }
        })
    });
    group.finish();
}

/// The acceptance check of this PR: on the committed baseline workload, the
/// analytic replay must be ≥5× the slot loop, the 64-seed lane batch ≥4× the
/// scalar runs, the Bernoulli-traffic lane batch ≥3× its scalar runs, and the
/// partial-conflict hybrid replay ≥2× the full slot loop — with bit-exact
/// counter parity asserted inside every timed sample. Skipped in `--test`
/// mode, where nothing is measured.
fn bench_replay_check(c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let baseline = measure_replay(64, 1024, 3).unwrap();
    println!("replay_check: {baseline}");
    assert!(
        baseline.parity(),
        "fast paths must be bit-identical to their slow paths"
    );
    for (ratio, floor, what) in [
        ("analytic_speedup", 5.0, "analytic replay vs the slot loop"),
        ("lane_speedup", 4.0, "64-seed lanes vs scalar runs"),
        (
            "bernoulli_lane_speedup",
            3.0,
            "64-seed bernoulli lanes vs scalar runs",
        ),
        (
            "partial_analytic_speedup",
            2.0,
            "partial-conflict hybrid vs the slot loop",
        ),
    ] {
        let got = baseline.num(ratio);
        assert!(got >= floor, "{what} must be >= {floor}x, got {got:.1}x");
    }
    let lane_speedup = baseline.num("lane_speedup");
    c.bench_function("replay_check/done", |b| b.iter(|| lane_speedup));
}

criterion_group!(
    benches,
    bench_analytic_vs_loop,
    bench_lanes_vs_scalar,
    bench_replay_check
);
criterion_main!(benches);
