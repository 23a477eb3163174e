//! The trace-cache benchmark workload: the acceptance-grid sweep measured
//! cold (fresh caches, every artifact compiled) against warm (shared
//! [`SweepCaches`], every tier hitting), shared by the criterion bench
//! (`benches/bench_sweep.rs`) and the `tracecache` entry of `harness --bench`
//! so both always measure exactly the same thing.
//!
//! The measured ratio is the payoff of the tiered artifact pipeline: a warm
//! sweep skips schedule compilation, plan fusion and — dominating the setup
//! phase — the `n × slots` counter draws of every `(seed, load)` traffic
//! trace, so its setup degenerates to adjacency construction plus cache
//! lookups. Parity is checked per run between the cold and warm reports, and
//! the warm pass must record zero misses in every tier.

use crate::baseline::{median_ms, Measurement};
use crate::sweep::sweep_spec;
use latsched_engine::{run_sweep, SweepCaches, SweepReport};

/// Times the acceptance sweep cold (fresh [`SweepCaches`] every sample)
/// against warm (one shared cache set, pre-warmed), checking per-run parity
/// between the two and that the warm side never rebuilds an artifact:
/// `speedup` is `cold_ms / warm_ms`, `warm_caches` the warm sweep's per-tier
/// counters, and `parity` whether every warm run matched its cold run and
/// the warm sweep missed no tier.
///
/// # Errors
///
/// Propagates sweep compilation and kernel errors.
pub fn measure_tracecache(
    window: i64,
    slots: u64,
    samples: usize,
) -> latsched_engine::Result<Measurement> {
    let spec = sweep_spec(window, slots);

    // Cold side: every sample pays the full pipeline — schedule compilation,
    // plan fusion, trace generation.
    let mut cold_report: Option<SweepReport> = None;
    let mut cold_err = None;
    let cold_ms = median_ms(samples, || {
        let caches = SweepCaches::new();
        match run_sweep(&spec, &caches) {
            Ok(report) => cold_report = Some(report),
            Err(err) => cold_err = Some(err),
        }
    });
    if let Some(err) = cold_err {
        return Err(err);
    }
    let cold_report = cold_report.expect("at least one cold sample ran");

    // Warm side: one shared cache set, pre-warmed by an untimed sweep; the
    // timed repeats should hit every tier.
    let caches = SweepCaches::new();
    run_sweep(&spec, &caches)?;
    let mut warm_report: Option<SweepReport> = None;
    let mut warm_err = None;
    let warm_ms = median_ms(samples, || match run_sweep(&spec, &caches) {
        Ok(report) => warm_report = Some(report),
        Err(err) => warm_err = Some(err),
    });
    if let Some(err) = warm_err {
        return Err(err);
    }
    let warm_report = warm_report.expect("at least one warm sample ran");

    let warm_caches = warm_report.caches;
    let all_tiers_hit = warm_caches.schedules.misses == 0
        && warm_caches.plans.misses == 0
        && warm_caches.traces.misses == 0;
    let parity = warm_report.per_run == cold_report.per_run && all_tiers_hit;

    Ok(Measurement::new(format!(
        "cold vs warm artifact pipeline: 64-run stochastic sweep, moore 3x3, \
         {window}x{window} window, tiling MAC, bernoulli loads x retry budgets x seeds, \
         {slots} slots/run"
    ))
    .with("runs", warm_report.runs)
    .with("nodes", cold_report.per_run.first().map_or(0, |r| r.nodes))
    .with("slots", slots)
    .with("samples", samples.max(1))
    .with("cold_ms", cold_ms)
    .with("warm_ms", warm_ms)
    .with("cold_setup_ms", cold_report.setup_seconds * 1e3)
    .with("warm_setup_ms", warm_report.setup_seconds * 1e3)
    .with("speedup", cold_ms / warm_ms.max(1e-9))
    .with("warm_caches", warm_caches.to_json_value())
    .with("parity", parity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // Tiny workload: this test checks plumbing and parity, not performance.
        let baseline = measure_tracecache(8, 64, 1).unwrap();
        assert_eq!(baseline.num("runs"), 64.0);
        assert_eq!(baseline.num("nodes"), 64.0);
        assert!(
            baseline.parity(),
            "warm sweeps must replay cold runs exactly"
        );
        assert!(baseline.num("cold_ms") >= 0.0 && baseline.num("warm_ms") >= 0.0);
        let json = baseline.to_json_value();
        assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
        assert!(json.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        let traces = json.get("warm_caches").unwrap().get("traces").unwrap();
        assert_eq!(traces.get("misses").unwrap().as_u64(), Some(0));
        assert!(traces.get("hits").unwrap().as_u64().unwrap() > 0);
    }
}
