//! The streaming-aggregation benchmark workload: a ~100k-run sweep grid that
//! is infeasible to report as per-run detail, folded online into per-axis
//! group statistics, shared by the criterion bench (`benches/
//! bench_aggregate.rs`) and the `aggregate` entry of `harness --bench` so
//! both always measure exactly the same thing.
//!
//! Three properties are measured and asserted:
//!
//! * **Parity.** On an overlapping sub-grid, the streaming group folds must be
//!   bit-identical to folding a full-mode sweep's `per_run` reports by the
//!   same axes ([`latsched_engine::fold_full_report`]), and a global
//!   streaming fold must agree field-for-field and bucket-for-bucket with a
//!   [`MetricsFold`] over reference-simulator runs of the same grid — pinning
//!   the whole streaming path against both the full mode and the reference
//!   kernel.
//! * **Memory.** Peak allocation across the streaming sweep (measured by the
//!   crate's counting allocator, [`crate::alloc`]) must stay under a fixed
//!   cap that is far below what the full-mode report needs, and the
//!   full-over-streaming peak ratio is the baseline's headline metric — a
//!   same-machine ratio, so it transfers across CI runner sizes. The
//!   full-mode side is *measured* on a proportional sub-grid (1/16 of the
//!   seeds) and *extrapolated* by an analytic per-run-report size model —
//!   full-mode memory is O(runs) by construction, so paying a tens-of-MiB
//!   whole-grid measurement just to confirm a linear model would make the
//!   baseline itself the memory hog it benchmarks against. A second streaming
//!   grid, tiling × Bernoulli with more seeds than the trace tier holds
//!   ([`trace_stream_spec`]), must stay under the same cap: one compiled
//!   trace per seed, all resident at once, would not.
//! * **Liveness.** The streaming report's `per_run` is empty: the grid ran
//!   without ever materializing per-run detail.

use crate::alloc::measure_peak;
use crate::baseline::{median_ms, Measurement};
use latsched_engine::{
    fold_full_report, run_sweep, GroupSpec, KernelCounts, ShapeSpec, SweepCaches, SweepMac,
    SweepMode, SweepReport, SweepRunReport, SweepSpec, SweepTraffic,
};
use latsched_sensornet::{
    run_simulation_with, MacPolicy, MetricsFold, Network, ReferenceKernel, SimConfig, SimError,
    TrafficModel,
};

/// Peak-allocation cap of the streaming sweep: the O(groups) report plus
/// worker-local folds and kernel scratch must fit here with a wide margin,
/// while the full-mode report of the same grid cannot (its `per_run` alone is
/// an order of magnitude larger).
pub const STREAM_PEAK_CAP_BYTES: u64 = 16 << 20;

/// The streaming grid must beat the full-mode grid's peak allocation by at
/// least this factor.
pub const MIN_MEM_REDUCTION: f64 = 2.0;

/// The aggregation workload: slotted ALOHA (so every seed matters) under
/// staggered periodic traffic (so no per-(seed, load) traces are compiled and
/// the grid scales to thousands of seeds) on a 12×12 Moore window —
/// `4 traffic periods × 5 retry budgets × seeds`, 20 groups when folded by
/// traffic × retries.
pub fn aggregate_spec(seeds: u64, mode: SweepMode) -> SweepSpec {
    SweepSpec {
        name: format!("moore-aloha-staggered-{}runs", 4 * 5 * seeds),
        shape: ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: latsched_lattice::Metric::Chebyshev,
        },
        windows: vec![12],
        slots: 96,
        mac: SweepMac::Aloha { p: 0.25 },
        traffic: SweepTraffic::Staggered(vec![4, 8, 16, 32]),
        seeds: (1..=seeds).collect(),
        retries: vec![0, 1, 2, 4, 8],
        mode,
    }
}

/// The trace-streaming workload: a streaming (`"group_by": []`) grid of the
/// Moore tiling under Bernoulli traffic on a 64×64 window, 256 slots, one
/// load, one retry budget and `seeds` seeds. Each seed has its own traffic
/// trace (4096 nodes × 256 slots, 128 KiB) that exactly one run replays, so
/// past 64 seeds the grid needs more traces than the trace tier holds, and
/// at 160 seeds holding them all would take 20 MiB.
pub fn trace_stream_spec(seeds: u64) -> SweepSpec {
    SweepSpec {
        name: format!("moore-tiling-bernoulli-{seeds}seeds"),
        shape: ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: latsched_lattice::Metric::Chebyshev,
        },
        windows: vec![64],
        slots: 256,
        mac: SweepMac::Tiling,
        traffic: SweepTraffic::Bernoulli(vec![0.05]),
        seeds: (1..=seeds).collect(),
        retries: vec![0],
        mode: SweepMode::Streaming(GroupSpec::default()),
    }
}

/// The fold axes of the headline grouping.
pub fn aggregate_group_spec() -> GroupSpec {
    GroupSpec::parse("traffic,retries").expect("static axis list")
}

/// Checks streaming-vs-full group parity on an overlapping sub-grid (the
/// first `sub_seeds` seeds of the workload) and returns whether the folds are
/// bit-identical.
fn subgrid_parity(sub_seeds: u64, caches: &SweepCaches) -> latsched_engine::Result<bool> {
    let group_spec = aggregate_group_spec();
    let full_spec = aggregate_spec(sub_seeds, SweepMode::Full);
    let stream_spec = aggregate_spec(sub_seeds, SweepMode::Streaming(group_spec.clone()));
    let full = run_sweep(&full_spec, caches)?;
    let stream = run_sweep(&stream_spec, caches)?;
    let folded = fold_full_report(&full_spec, &group_spec, &full.per_run)?;
    Ok(stream.groups == folded && stream.per_run.is_empty() && stream.aggregate == full.aggregate)
}

/// Folds reference-simulator runs of the sub-grid through the sensornet
/// [`MetricsFold`] and checks the shared integer fields and histograms
/// against a global streaming fold of the same grid.
fn reference_fold_parity(sub_seeds: u64, caches: &SweepCaches) -> latsched_sensornet::Result<bool> {
    let spec = aggregate_spec(sub_seeds, SweepMode::Streaming(GroupSpec::default()));
    let stream = run_sweep(&spec, caches).map_err(SimError::Engine)?;
    let global = &stream.groups[0].fold;

    let shape = spec.shape.prototile().map_err(SimError::Engine)?;
    let network = Network::from_window(
        &latsched_lattice::BoxRegion::square_window(2, spec.windows[0])
            .map_err(latsched_core::ScheduleError::Lattice)?,
        latsched_core::Deployment::Homogeneous(shape),
    )?;
    let mut fold = MetricsFold::new();
    // The sweep's documented expansion order: traffic × retries × seeds.
    if let SweepTraffic::Staggered(periods) = &spec.traffic {
        for &period in periods {
            for &retries in &spec.retries {
                for seed in spec.seeds.iter() {
                    let config = SimConfig {
                        mac: MacPolicy::SlottedAloha { p: 0.25 },
                        traffic: TrafficModel::Staggered { period },
                        slots: spec.slots,
                        max_retries: retries,
                        seed,
                        ..SimConfig::default()
                    };
                    fold.observe(&run_simulation_with(&ReferenceKernel, &network, &config)?);
                }
            }
        }
    }
    // The engine fold's first 8 fields are exactly the sensornet fold's.
    let fields_match = fold.fields.iter().zip(&global.fields).all(|(a, b)| a == b);
    Ok(fields_match
        && fold.runs == global.runs
        && fold.latency == global.latency
        && fold.delivery == global.delivery)
}

/// Times the streaming sweep of the aggregation grid against a full-mode
/// sweep of a proportional sub-grid (1/16 of the seeds, at least one),
/// measures both sides' peak allocation — extrapolating the full side to the
/// whole grid through the analytic per-run size model — and runs the parity
/// checks on sub-grids.
///
/// `full_ms` is scaled from the sub-grid by the run-count ratio;
/// `bytes_per_run_model` is the fan-out's result slot plus a
/// `SweepRunReport` plus the sub-grid's mean traffic-label bytes;
/// `peak_stream_bytes` is the streaming peak allocation delta (max across
/// samples), `peak_full_bytes` the sub-grid's peak plus the model for every
/// omitted run; `speedup` is their ratio. `peak_trace_stream_bytes` is the
/// peak allocation delta of the [`trace_stream_spec`] grid at `trace_seeds`
/// seeds, over warm schedule, adjacency and plan tiers. `parity` is whether
/// every parity and memory-bound check passed (see the module docs).
///
/// # Errors
///
/// Propagates sweep compilation, kernel and reference-simulation errors.
pub fn measure_aggregate(
    seeds: u64,
    trace_seeds: u64,
    samples: usize,
) -> latsched_sensornet::Result<Measurement> {
    let caches = SweepCaches::new();
    let group_spec = aggregate_group_spec();
    let stream_spec = aggregate_spec(seeds, SweepMode::Streaming(group_spec.clone()));
    let sub_seeds = (seeds / 16).clamp(1, seeds);
    let full_spec = aggregate_spec(sub_seeds, SweepMode::Full);

    // Warm the shared artifact tiers (adjacency, schedule, plan) with a
    // one-seed slice of the grid before anything is timed, so the streaming
    // side — which samples first — is not charged the one-time compiles the
    // full side would then skip: both sides measure pure grid execution, and
    // the peak-allocation comparison is compile-free on both.
    run_sweep(&aggregate_spec(1, SweepMode::Full), &caches).map_err(SimError::Engine)?;

    // Streaming side: wall clock and peak allocation per sample.
    let mut stream_report: Option<SweepReport> = None;
    let mut stream_err: Option<latsched_engine::EngineError> = None;
    let mut peak_stream = 0u64;
    let stream_ms = median_ms(samples, || {
        let (result, peak) = measure_peak(|| run_sweep(&stream_spec, &caches));
        peak_stream = peak_stream.max(peak as u64);
        match result {
            Ok(report) => stream_report = Some(report),
            Err(err) => stream_err = Some(err),
        }
    });
    if let Some(err) = stream_err {
        return Err(SimError::Engine(err));
    }
    let stream_report = stream_report.expect("at least one streaming sample ran");

    // Full side: the sub-grid materialized per run, then scaled to the whole
    // grid. Wall clock scales by the run-count ratio (every run simulates the
    // same window for the same slots), and peak bytes grow by exactly one
    // per-run report for each omitted run: the fan-out's result slot, the
    // `SweepRunReport` it becomes, and the traffic label's heap string.
    let mut full_report: Option<SweepReport> = None;
    let mut full_err: Option<latsched_engine::EngineError> = None;
    let mut peak_full_sub = 0u64;
    let full_ms_sub = median_ms(samples, || {
        let (result, peak) = measure_peak(|| run_sweep(&full_spec, &caches));
        peak_full_sub = peak_full_sub.max(peak as u64);
        match result {
            Ok(report) => full_report = Some(report),
            Err(err) => full_err = Some(err),
        }
    });
    if let Some(err) = full_err {
        return Err(SimError::Engine(err));
    }
    let full_report = full_report.expect("at least one full sample ran");

    let runs_full = stream_report.runs;
    let runs_sub = full_report.runs.max(1);
    let full_ms = full_ms_sub * runs_full as f64 / runs_sub as f64;
    let mean_label_bytes = full_report
        .per_run
        .iter()
        .map(|run| run.traffic.len())
        .sum::<usize>()
        / runs_sub;
    let bytes_per_run = (std::mem::size_of::<Option<latsched_engine::Result<KernelCounts>>>()
        + std::mem::size_of::<SweepRunReport>()
        + mean_label_bytes) as u64;
    let peak_full = peak_full_sub + bytes_per_run * runs_full.saturating_sub(runs_sub) as u64;

    // Trace streaming: a one-seed slice warms every tier but the traces, so
    // the measured peak is the grid's own.
    let trace_spec = trace_stream_spec(trace_seeds);
    run_sweep(&trace_stream_spec(1), &caches).map_err(SimError::Engine)?;
    let (trace_report, peak_trace_stream) = measure_peak(|| run_sweep(&trace_spec, &caches));
    let trace_report = trace_report.map_err(SimError::Engine)?;
    let peak_trace_stream = peak_trace_stream as u64;

    // Parity: group folds on an overlapping sub-grid (which also pins the
    // streaming aggregate against the full mode's) and reference-simulator
    // folds on a smaller one.
    let group_parity = subgrid_parity(8, &caches).map_err(SimError::Engine)?;
    let ref_parity = reference_fold_parity(2, &caches)?;
    let mem_reduction = peak_full as f64 / (peak_stream as f64).max(1.0);
    let parity = group_parity
        && ref_parity
        && stream_report.per_run.is_empty()
        && stream_report.groups.len() == 4 * 5
        && peak_stream <= STREAM_PEAK_CAP_BYTES
        && mem_reduction >= MIN_MEM_REDUCTION
        && trace_report.per_run.is_empty()
        && trace_report.runs as u64 == trace_seeds
        && peak_trace_stream <= STREAM_PEAK_CAP_BYTES;

    Ok(Measurement::new(format!(
        "{}-run streaming sweep: moore 3x3, {side}x{side} window, aloha(p=0.25), \
         staggered periods x retry budgets x {seeds} seeds, {} slots/run, \
         grouped by traffic x retries",
        stream_report.runs,
        stream_spec.slots,
        side = stream_spec.windows[0],
    ))
    .with("runs", stream_report.runs)
    .with("groups", stream_report.groups.len())
    .with("nodes", stream_spec.windows[0] * stream_spec.windows[0])
    .with("slots", stream_spec.slots)
    .with("samples", samples.max(1))
    .with("stream_ms", stream_ms)
    .with("full_ms", full_ms)
    .with(
        "runs_per_second",
        stream_report.runs as f64 / (stream_ms / 1e3).max(1e-9),
    )
    .with("full_side_runs", runs_sub)
    .with("bytes_per_run_model", bytes_per_run)
    .with("peak_stream_bytes", peak_stream)
    .with("peak_full_bytes", peak_full)
    .with("peak_cap_bytes", STREAM_PEAK_CAP_BYTES)
    .with("trace_stream_seeds", trace_seeds)
    .with("peak_trace_stream_bytes", peak_trace_stream)
    .with("speedup", mem_reduction)
    .with("parity", parity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // Tiny grid: this test checks plumbing and parity, not scale (the
        // memory-reduction and cap thresholds only bind on the real
        // workload, so parity here is the sub-grid + reference checks).
        let baseline = measure_aggregate(6, 1, 1).unwrap();
        assert_eq!(baseline.num("runs"), (4 * 5 * 6) as f64);
        assert!(baseline.num("bytes_per_run_model") > 0.0);
        let json = baseline.to_json_value();
        assert_eq!(json.get("groups").unwrap().as_u64(), Some(20));
        // 6 seeds / 16 clamps to a single-seed full-mode sub-grid.
        assert_eq!(json.get("full_side_runs").unwrap().as_u64(), Some(4 * 5));
        assert!(json.get("peak_stream_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(json.get("peak_full_bytes").unwrap().as_u64().unwrap() > 0);
        assert_eq!(json.get("trace_stream_seeds").unwrap().as_u64(), Some(1));
        assert_eq!(
            json.get("peak_cap_bytes").unwrap().as_u64(),
            Some(STREAM_PEAK_CAP_BYTES)
        );
        assert!(json.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn subgrid_and_reference_parity_hold() {
        let caches = SweepCaches::new();
        assert!(subgrid_parity(3, &caches).unwrap());
        assert!(reference_fold_parity(2, &caches).unwrap());
    }
}
