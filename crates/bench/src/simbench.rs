//! The frame-kernel benchmark workload, shared by the criterion bench
//! (`benches/bench_simkernel.rs`) and the `simkernel` entry of
//! `harness --bench` so both always measure exactly the same thing: a full
//! deterministic simulation (tiling-schedule MAC, periodic traffic) on the
//! Moore-neighbourhood network of a 256×256 window, run once through the
//! reference slot-by-slot kernel and once through the frame-compiled kernel.

use crate::baseline::{median_ms, Measurement};
use latsched_sensornet::{
    run_simulation_with, tiling_mac, FrameKernel, Network, ReferenceKernel, Result, SimConfig,
    TrafficModel,
};
use latsched_tiling::shapes;

/// The benchmark network: all sensors of a `side × side` window under the
/// Moore (3×3 Chebyshev) interference neighbourhood.
///
/// # Errors
///
/// Propagates network construction errors.
pub fn simkernel_network(side: i64) -> Result<Network> {
    latsched_sensornet::grid_network(side, &shapes::moore())
}

/// The benchmark configuration: the optimal 9-slot tiling schedule under
/// periodic traffic, a deterministic workload both kernels support.
///
/// # Errors
///
/// Propagates MAC construction errors.
pub fn simkernel_config(slots: u64) -> Result<SimConfig> {
    Ok(SimConfig {
        mac: tiling_mac(&shapes::moore())?,
        traffic: TrafficModel::Periodic { period: 64 },
        slots,
        ..SimConfig::default()
    })
}

/// Times both kernels on the shared workload and checks metric parity:
/// `speedup` is `reference_ms / frame_kernel_ms` (medians of `samples` runs),
/// `parity` whether both kernels produced identical metrics.
///
/// # Errors
///
/// Propagates network/MAC construction and simulation errors.
pub fn measure_simkernel(side: i64, slots: u64, samples: usize) -> Result<Measurement> {
    let network = simkernel_network(side)?;
    let config = simkernel_config(slots)?;

    let frame = run_simulation_with(&FrameKernel::default(), &network, &config)?;
    let reference = run_simulation_with(&ReferenceKernel, &network, &config)?;
    let parity = frame == reference;

    let reference_ms = median_ms(samples, || {
        run_simulation_with(&ReferenceKernel, &network, &config).unwrap();
    });
    let frame_ms = median_ms(samples, || {
        run_simulation_with(&FrameKernel::default(), &network, &config).unwrap();
    });

    Ok(Measurement::new(format!(
        "moore 3x3 neighbourhood, {side}x{side} window, tiling MAC, periodic traffic 1/64"
    ))
    .with("nodes", network.len())
    .with("slots", slots)
    .with("samples", samples.max(1))
    .with("reference_ms", reference_ms)
    .with("frame_kernel_ms", frame_ms)
    .with("speedup", reference_ms / frame_ms.max(1e-9))
    .with("parity", parity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // Tiny workload: this test checks plumbing, not performance.
        let baseline = measure_simkernel(8, 64, 1).unwrap();
        assert_eq!(baseline.num("nodes"), 64.0);
        assert!(baseline.parity(), "kernels must agree on the metrics");
        assert!(baseline.num("reference_ms") >= 0.0 && baseline.num("frame_kernel_ms") >= 0.0);
        let json = baseline.to_json_value();
        assert_eq!(json.get("nodes").unwrap().as_u64(), Some(64));
        assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
        assert!(json.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}
