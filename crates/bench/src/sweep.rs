//! The sweep-engine benchmark workload, shared by the criterion bench
//! (`benches/bench_sweep.rs`) and the `sweep` entry of `harness --bench` so
//! both always measure exactly the same thing: a 64-run stochastic
//! parameter grid (Bernoulli traffic under the Moore tiling schedule, 2 loads ×
//! 4 retry budgets × 8 seeds on a 64×64 window) run once through the batched
//! sweep engine (`latsched_engine::run_sweep` — cached plans, compiled traffic
//! traces, multi-core fan-out) and once as sequential reference-simulator runs,
//! with bit-exact parity checked between the two.
//!
//! It also measures the sweep executor's **work-stealing dispatch** against
//! a static chunk split on an adversarial mixed-cost grid: the slow
//! (explicit slot-loop) runs are clustered at the front, so a static split
//! (`steal_chunks` with one contiguous chunk per worker) hands one worker
//! all of them while the analytic-path workers idle; stealing claims items
//! one at a time from an atomic counter and load-balances. Both dispatches
//! must produce bit-identical result vectors (element `i` is always filled
//! as element `i`), which is the `parity` the committed baseline asserts.
//! On a single-core host both fall back to the sequential fill, so
//! `steal_speedup` honestly measures ~1.0 there; the gain shows on
//! multi-core runners (the CI gate tracks regressions against the committed
//! baseline either way).

use crate::baseline::{median_ms, Measurement};
use latsched_engine::parallel::{steal_chunks, worker_threads};
use latsched_engine::{
    run_frames, run_frames_loop, run_sweep, KernelConfig, KernelCounts, KernelMac, KernelTraffic,
    SweepCaches, SweepMac, SweepReport, SweepSpec, SweepTraffic,
};
use latsched_sensornet::{
    run_simulation_with, tiling_mac, EnergyAccount, MacPolicy, Network, ReferenceKernel, SimConfig,
    SimError, SimMetrics, TrafficModel,
};

/// The acceptance sweep: a 64-run stochastic grid on the Moore 64×64 network.
pub fn sweep_spec(window: i64, slots: u64) -> SweepSpec {
    SweepSpec {
        name: format!("moore-bernoulli-{window}"),
        windows: vec![window],
        slots,
        mac: SweepMac::Tiling,
        traffic: SweepTraffic::Bernoulli(vec![0.02, 0.05]),
        seeds: (1..=8).collect(),
        retries: vec![0, 1, 2, 4],
        ..latsched_engine::builtin_sweep()
    }
}

/// The simulator MAC policy equivalent to a spec's MAC family.
fn sequential_mac(spec: &SweepSpec) -> latsched_sensornet::Result<MacPolicy> {
    Ok(match spec.mac {
        SweepMac::Tiling => tiling_mac(&spec.shape.prototile().map_err(SimError::Engine)?)?,
        SweepMac::Aloha { p } => MacPolicy::SlottedAloha { p },
    })
}

/// Expands the spec grid into the equivalent sequential `SimConfig`s, in the
/// sweep's documented expansion order.
fn sequential_configs(spec: &SweepSpec) -> latsched_sensornet::Result<Vec<SimConfig>> {
    let mac = sequential_mac(spec)?;
    let mut configs = Vec::with_capacity(spec.num_runs());
    for _ in &spec.windows {
        for ti in 0..spec.traffic.len() {
            let traffic = match &spec.traffic {
                SweepTraffic::Bernoulli(loads) => TrafficModel::Bernoulli { p: loads[ti] },
                SweepTraffic::Periodic(periods) => TrafficModel::Periodic {
                    period: periods[ti],
                },
                SweepTraffic::Staggered(periods) => TrafficModel::Staggered {
                    period: periods[ti],
                },
            };
            for &retries in &spec.retries {
                for seed in spec.seeds.iter() {
                    configs.push(SimConfig {
                        mac: mac.clone(),
                        traffic,
                        slots: spec.slots,
                        max_retries: retries,
                        seed,
                        ..SimConfig::default()
                    });
                }
            }
        }
    }
    Ok(configs)
}

/// Checks bit-exact parity between a sweep report and the reference metrics.
fn sweep_matches(
    report: &SweepReport,
    references: &[SimMetrics],
    config_energy: &SimConfig,
) -> bool {
    if report.per_run.len() != references.len() {
        return false;
    }
    report
        .per_run
        .iter()
        .zip(references)
        .all(|(run, reference)| {
            let c: &KernelCounts = &run.counts;
            let metrics = SimMetrics {
                slots_simulated: report.slots,
                nodes: run.nodes,
                packets_generated: c.packets_generated,
                packets_delivered: c.packets_delivered,
                packets_dropped: c.packets_dropped,
                packets_pending: c.packets_pending,
                transmissions: c.transmissions,
                receptions: c.receptions,
                collisions: c.collisions,
                total_latency: c.total_latency,
                energy: EnergyAccount::from_slot_counts(
                    &config_energy.energy,
                    c.tx_slots,
                    c.rx_slots,
                    c.idle_slots,
                ),
            };
            metrics == *reference
        })
}

/// Times the batched sweep engine against sequential reference runs on the
/// shared workload and checks per-run metric parity: `speedup` is
/// `reference_ms / sweep_ms` (one whole cold sweep), `steal_speedup` is
/// `static_ms / steal_ms` on the mixed grid, `caches` the last sweep's
/// per-tier counters, and `parity` whether every sweep run matched its
/// reference run and the stolen grid matched the static one bit for bit.
///
/// # Errors
///
/// Propagates network/MAC construction, sweep and simulation errors.
pub fn measure_sweep(
    window: i64,
    slots: u64,
    samples: usize,
) -> latsched_sensornet::Result<Measurement> {
    let spec = sweep_spec(window, slots);
    let configs = sequential_configs(&spec)?;
    let shape = spec.shape.prototile().map_err(SimError::Engine)?;
    let network = Network::from_window(
        &latsched_lattice::BoxRegion::square_window(2, window)
            .map_err(latsched_core::ScheduleError::Lattice)?,
        latsched_core::Deployment::Homogeneous(shape),
    )?;

    // Sequential reference passes: the median of `samples` timings (matching
    // the sweep side, so one noisy pass cannot skew the committed speedup the
    // CI gate compares against), and the metrics double as the parity oracle
    // for every sweep run.
    let mut references: Vec<SimMetrics> = Vec::new();
    let reference_ms = median_ms(samples, || {
        references = configs
            .iter()
            .map(|config| {
                run_simulation_with(&ReferenceKernel, &network, config).expect("reference runs")
            })
            .collect();
    });

    // The sweep engine, end to end (fresh caches each sample, so the measured
    // time includes plan builds and trace compilation — everything a cold
    // sweep pays).
    let mut last_report = None;
    let sweep_ms = median_ms(samples, || {
        let caches = SweepCaches::new();
        last_report = Some(run_sweep(&spec, &caches).expect("sweep runs"));
    });
    let report = last_report.expect("at least one sample ran");
    let parity = sweep_matches(&report, &references, &configs[0]);

    // Work-stealing dispatch vs the static chunk split, on a mixed-cost grid
    // built to be adversarial for the static split: the first half of the
    // items replay the clean plan through the explicit slot loop (slow), the
    // second half closed-form (fast), so one static chunk carries all the
    // slow runs while stealing claims items one at a time and balances.
    let (clean, _) = crate::replay::clean_plan(window).map_err(SimError::Engine)?;
    let steal_config = KernelConfig {
        slots,
        traffic: KernelTraffic::Periodic { period: 64 },
        mac: KernelMac::Scheduled,
        max_retries: 2,
        seed: 7,
    };
    let steal_items = 96usize;
    let fill = |offset: usize, chunk: &mut [Option<KernelCounts>]| {
        for (i, out) in chunk.iter_mut().enumerate() {
            let run = if offset + i < steal_items / 2 {
                run_frames_loop(&clean, &steal_config)
            } else {
                run_frames(&clean, &steal_config)
            };
            *out = Some(run.expect("mixed-grid run"));
        }
    };
    // The static split: one contiguous chunk per worker.
    let per_worker = steal_items.div_ceil(worker_threads());
    let mut static_out: Vec<Option<KernelCounts>> = vec![None; steal_items];
    let static_ms = median_ms(samples, || {
        static_out.iter_mut().for_each(|v| *v = None);
        steal_chunks(&mut static_out, 2, per_worker, fill);
    });
    let mut steal_out: Vec<Option<KernelCounts>> = vec![None; steal_items];
    let steal_ms = median_ms(samples, || {
        steal_out.iter_mut().for_each(|v| *v = None);
        steal_chunks(&mut steal_out, 2, 1, fill);
    });
    let steal_parity = static_out == steal_out && static_out.iter().all(Option::is_some);

    Ok(Measurement::new(format!(
        "64-run stochastic sweep: moore 3x3, {window}x{window} window, tiling MAC, \
         bernoulli loads x retry budgets x seeds, {slots} slots/run; plus a \
         {steal_items}-item mixed loop/analytic grid dispatched static vs stealing"
    ))
    .with("runs", report.runs)
    .with("nodes", network.len())
    .with("slots", slots)
    .with("samples", samples.max(1))
    .with("reference_ms", reference_ms)
    .with("sweep_ms", sweep_ms)
    .with("speedup", reference_ms / sweep_ms.max(1e-9))
    .with("steal_items", steal_items)
    .with("threads", worker_threads())
    .with("static_ms", static_ms)
    .with("steal_ms", steal_ms)
    .with("steal_speedup", static_ms / steal_ms.max(1e-9))
    .with("parity", parity && steal_parity)
    .with("caches", report.caches.to_json_value()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // Tiny workload: this test checks plumbing and parity, not performance.
        let baseline = measure_sweep(8, 64, 1).unwrap();
        assert_eq!(baseline.num("nodes"), 64.0);
        assert!(baseline.parity(), "sweep must match the reference exactly");
        assert!(baseline.num("reference_ms") >= 0.0 && baseline.num("sweep_ms") >= 0.0);
        let json = baseline.to_json_value();
        assert_eq!(json.get("runs").unwrap().as_u64(), Some(64));
        assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
        assert!(json.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        assert!(json.get("steal_speedup").unwrap().as_f64().unwrap() > 0.0);
        assert!(json.get("threads").unwrap().as_u64().unwrap() >= 1);
    }
}
