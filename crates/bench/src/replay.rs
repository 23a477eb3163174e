//! The replay-kernel benchmark workload, shared by the criterion bench
//! (`benches/bench_replay.rs`) and the `replay` entry of `harness --bench` so
//! both always measure exactly the same thing. Three fast paths of
//! the engine's frame kernel are timed against their general counterparts:
//!
//! * **Analytic replay.** A clean 9-slot Moore tiling schedule under periodic
//!   traffic and scheduled access is replayed closed-form
//!   ([`latsched_engine::run_frames`], O(nodes) per run) against the explicit
//!   slot loop ([`latsched_engine::run_frames_loop`], O(nodes × slots)).
//! * **Seed lanes.** One slotted-ALOHA grid point is run for 64 seeds through
//!   the bit-sliced lane kernel ([`latsched_engine::run_frames_lanes`], one
//!   pass over the slot structure, lane `l` of every `u64` word tracking seed
//!   `l`, MAC draws made by the trace build's lane-word loop) against 64
//!   scalar per-seed [`latsched_engine::run_frames`] calls.
//! * **Bernoulli seed lanes.** A saturated ALOHA grid point under Bernoulli
//!   traffic — the lane kernel's per-`(node, lane)` arrival bitmaps and head
//!   slots and one drawn row of generation lane words per slot — against 64
//!   scalar per-seed runs, each of which compiles its own
//!   traffic trace with the same lane-word loop. This comparison runs on a
//!   quarter-side window (16×16 for the committed 64×64 baseline): sweep
//!   grid points live at exactly this scale, and it keeps the per-`(node,
//!   lane)` state cache-resident, where the lane words amortize the per-slot
//!   MAC and collision machinery.
//!
//! Every comparison asserts *bit-exact* [`KernelCounts`] parity inside the
//! measurement loop — every timed analytic run is compared against the loop
//! result and every timed lane batch against the per-seed scalar results —
//! so the reported speedups can never come from a divergent fast path.

use crate::baseline::{median_ms, Measurement};
use latsched_engine::{
    compile_shape, grid_adjacency, run_frames, run_frames_lanes, run_frames_loop, FramePlan,
    FrameSchedule, KernelConfig, KernelCounts, KernelMac, KernelTraffic, Result,
};
use latsched_lattice::BoxRegion;
use latsched_tiling::shapes;

/// Seeds per lane batch: the full width of one `u64` lane word.
pub const LANE_SEEDS: usize = 64;

/// The clean workload: the optimal 9-slot Moore tiling schedule of a
/// `side × side` window, fused with the window's interference adjacency —
/// conflict-free, so scheduled runs qualify for the analytic path.
pub(crate) fn clean_plan(side: i64) -> Result<(FramePlan, usize)> {
    let shape = shapes::moore();
    let region = BoxRegion::square_window(2, side)?;
    let adjacency = grid_adjacency(&region, &shape)?;
    let compiled = compile_shape(&shape)?;
    let assignment: Vec<usize> = compiled
        .slots_of_region(&region)?
        .into_iter()
        .map(usize::from)
        .collect();
    let frames = FrameSchedule::from_assignment(&assignment, compiled.num_slots())?;
    let nodes = adjacency.num_nodes();
    Ok((FramePlan::new(&frames, &adjacency)?, nodes))
}

/// The stochastic workload: every node a candidate of a 1-slot frame (classic
/// slotted ALOHA) on the same window's interference adjacency.
fn aloha_plan(side: i64) -> Result<FramePlan> {
    let shape = shapes::moore();
    let region = BoxRegion::square_window(2, side)?;
    let adjacency = grid_adjacency(&region, &shape)?;
    let frames = FrameSchedule::from_assignment(&vec![0usize; adjacency.num_nodes()], 1)?;
    FramePlan::new(&frames, &adjacency)
}

/// Times the analytic replay against the slot loop and the lane kernel
/// against scalar per-seed runs, asserting bit-exact counter parity inside
/// every timed sample. Each `*_speedup` is the slow side's median over the
/// fast side's (`loop_ms / analytic_ms`, `scalar_ms / lane_ms`, …); `parity`
/// is whether every in-measure parity check passed.
///
/// # Errors
///
/// Propagates schedule compilation, plan fusion and kernel errors.
pub fn measure_replay(side: i64, slots: u64, samples: usize) -> Result<Measurement> {
    // The analytic side runs in microseconds, so its ratio is dominated by
    // timer and scheduler jitter at the configured sample count;
    // oversampling both of its sides is nearly free and keeps the medians
    // stable enough for the 25% CI regression gate.
    let micro_samples = samples.max(1) * 10 + 1;
    // Analytic side: clean tiling schedule, scheduled MAC, periodic traffic.
    let (clean, nodes) = clean_plan(side)?;
    let clean_config = KernelConfig {
        slots,
        traffic: KernelTraffic::Periodic { period: 64 },
        mac: KernelMac::Scheduled,
        max_retries: 2,
        seed: 7,
    };
    let loop_counts = run_frames_loop(&clean, &clean_config)?;
    let mut analytic_parity = true;
    let analytic_ms = median_ms(micro_samples, || {
        let counts = run_frames(&clean, &clean_config).expect("analytic replay");
        analytic_parity &= counts == loop_counts;
    });
    let loop_ms = median_ms(micro_samples, || {
        run_frames_loop(&clean, &clean_config).expect("slot loop");
    });

    // Lane side: one slotted-ALOHA grid point, 64 seeds per batch. Staggered
    // traffic keeps generation deterministic (a lane requirement) while the
    // MAC draws stay per-seed stochastic — the axis the lanes bit-slice.
    let aloha = aloha_plan(side)?;
    let seeds: Vec<u64> = (1..=LANE_SEEDS as u64).collect();
    let lane_config = KernelConfig {
        slots,
        traffic: KernelTraffic::Staggered { period: 4 },
        mac: KernelMac::Aloha { p: 0.25 },
        max_retries: 2,
        seed: seeds[0],
    };
    let scalar_counts: Vec<KernelCounts> = seeds
        .iter()
        .map(|&seed| {
            run_frames(
                &aloha,
                &KernelConfig {
                    seed,
                    ..lane_config.clone()
                },
            )
        })
        .collect::<Result<_>>()?;
    let mut lane_parity = true;
    let lane_ms = median_ms(samples, || {
        let counts = run_frames_lanes(&aloha, &lane_config, &seeds).expect("lane batch");
        lane_parity &= counts == scalar_counts;
    });
    let scalar_ms = median_ms(samples, || {
        for &seed in &seeds {
            run_frames(
                &aloha,
                &KernelConfig {
                    seed,
                    ..lane_config.clone()
                },
            )
            .expect("scalar run");
        }
    });

    // Bernoulli lane side: a saturated ALOHA grid point under stochastic
    // generation — the lane kernel's per-lane arrival bitmaps against 64
    // scalar per-seed runs. A quarter-side window at sweep-grid-point scale
    // (see the module docs): arrival draws cost the same per seed on both
    // sides, so the measurement targets the backlogged regime where the
    // scalar side's per-seed MAC draws and collision scans dominate and the
    // lane kernel amortizes them 64 ways.
    let bernoulli_side = (side / 4).max(4);
    let bernoulli_aloha = aloha_plan(bernoulli_side)?;
    let bernoulli_config = KernelConfig {
        slots,
        traffic: KernelTraffic::Bernoulli { p: 0.25 },
        mac: KernelMac::Aloha { p: 0.5 },
        max_retries: 1,
        seed: seeds[0],
    };
    let bernoulli_scalar: Vec<KernelCounts> = seeds
        .iter()
        .map(|&seed| {
            run_frames(
                &bernoulli_aloha,
                &KernelConfig {
                    seed,
                    ..bernoulli_config.clone()
                },
            )
        })
        .collect::<Result<_>>()?;
    let mut bernoulli_parity = true;
    let bernoulli_lane_ms = median_ms(samples, || {
        let counts = run_frames_lanes(&bernoulli_aloha, &bernoulli_config, &seeds)
            .expect("bernoulli lane batch");
        bernoulli_parity &= counts == bernoulli_scalar;
    });
    let bernoulli_scalar_ms = median_ms(samples, || {
        for &seed in &seeds {
            run_frames(
                &bernoulli_aloha,
                &KernelConfig {
                    seed,
                    ..bernoulli_config.clone()
                },
            )
            .expect("scalar bernoulli run");
        }
    });

    Ok(Measurement::new(format!(
        "moore 3x3 neighbourhood, {side}x{side} window, {slots} slots/run: \
         analytic replay of the 9-slot tiling schedule (periodic 1/64) vs the slot \
         loop, one {LANE_SEEDS}-seed aloha(p=0.25) lane batch (staggered 1/4) vs \
         scalar per-seed runs, and a saturated {bernoulli_side}x{bernoulli_side} \
         aloha(p=0.5) batch under bernoulli(p=0.25) traffic"
    ))
    .with("nodes", nodes)
    .with("slots", slots)
    .with("lane_seeds", LANE_SEEDS)
    .with("samples", samples.max(1))
    .with("analytic_ms", analytic_ms)
    .with("loop_ms", loop_ms)
    .with("analytic_speedup", loop_ms / analytic_ms.max(1e-9))
    .with("lane_ms", lane_ms)
    .with("scalar_ms", scalar_ms)
    .with("lane_speedup", scalar_ms / lane_ms.max(1e-9))
    .with("bernoulli_lane_ms", bernoulli_lane_ms)
    .with("bernoulli_scalar_ms", bernoulli_scalar_ms)
    .with(
        "bernoulli_lane_speedup",
        bernoulli_scalar_ms / bernoulli_lane_ms.max(1e-9),
    )
    .with("parity", analytic_parity && lane_parity && bernoulli_parity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // Tiny workload: this test checks plumbing and parity, not
        // performance (the ≥5×/≥4× thresholds only bind on the real
        // workload, gated in CI by `perf_gate`).
        let baseline = measure_replay(9, 256, 1).unwrap();
        assert_eq!(baseline.num("lane_seeds"), 64.0);
        assert!(baseline.parity(), "fast paths must match their slow paths");
        let json = baseline.to_json_value();
        assert_eq!(json.get("nodes").unwrap().as_u64(), Some(81));
        assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
        for ratio in ["analytic_speedup", "lane_speedup", "bernoulli_lane_speedup"] {
            assert!(baseline.num(ratio) > 0.0, "{ratio}");
        }
    }
}
