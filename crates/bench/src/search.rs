//! The search-cache benchmark workload: the builtin Figure-2 schedule search
//! measured cold (fresh caches, every candidate enumerated, compiled and
//! simulated) against warm (shared [`SweepCaches`], the ranked outcome served
//! whole from the tier-5 search cache): the `search` entry of
//! `harness --bench`.
//!
//! The measured ratio is the payoff of content-addressing the *outcome* of a
//! search rather than its parts: a warm search does not touch tiers 1–4 at
//! all — no schedule compile, no adjacency, no plan fusion, no trace draw, no
//! kernel run — its only cache movement is one hit in the search tier
//! (asserted as part of parity, together with bit-identical ranked outcomes
//! and a provably optimal lattice winner).
//!
//! The entry also times how cold search cost grows with the window: the same
//! small search at a small and a large window, as `scaling_efficiency` (1.0
//! is linear in nodes).

use crate::baseline::{median_ms, Measurement};
use latsched_engine::{builtin_search, run_search, SearchReport, SearchSpec, SweepCaches};
use serde_json::Value;

/// The committed `tests/specs/search_moore_64.json` (the builtin Moore
/// search cut to 2 seeds, one load, no retries and 128 slots) at the given
/// window.
fn scaling_spec(window: i64) -> latsched_engine::Result<SearchSpec> {
    let text = include_str!("../../../tests/specs/search_moore_64.json");
    let mut spec = SearchSpec::parse_spec(text)?.remove(0);
    spec.window = window;
    Ok(spec)
}

/// Median cold wall clock of [`scaling_spec`] at `window` over `samples`
/// searches on fresh caches, and the window's node count.
fn cold_scaling_ms(samples: usize, window: i64) -> latsched_engine::Result<(f64, usize)> {
    let spec = scaling_spec(window)?;
    let mut nodes = Ok(0);
    let ms = median_ms(samples, || {
        nodes = run_search(&spec, &SweepCaches::new()).map(|report| report.outcome.nodes);
    });
    Ok((ms, nodes?))
}

/// Times the builtin Figure-2 search cold (fresh [`SweepCaches`] every
/// sample) against warm (one shared cache set, pre-warmed; one tier-5 hit
/// takes microseconds, so each warm sample times 100 searches and divides
/// by 100), checking that the warm outcome is bit-identical, that the warm
/// side's only cache movement is search-tier hits (zero misses everywhere,
/// zero lookups below tier 5), and that the winner is a provably optimal
/// lattice tiling: `speedup` is
/// `cold_ms / warm_ms`, `warm_caches` the warm search's per-tier counters,
/// and `parity` whether all three checks held.
///
/// Then times cold searches of `tests/specs/search_moore_64.json` at
/// `small_window` and `large_window`, each the median of `samples`:
/// `scaling_efficiency` is
/// `(large nodes / small nodes) × small ms / large ms`.
///
/// # Errors
///
/// Propagates search enumeration, compilation and kernel errors.
pub fn measure_search(
    samples: usize,
    small_window: i64,
    large_window: i64,
) -> latsched_engine::Result<Measurement> {
    let spec = builtin_search();

    // Cold side: every sample pays candidate enumeration, compilation through
    // tiers 1–4 and the full evaluation grid.
    let mut cold_report: Option<SearchReport> = None;
    let mut cold_err = None;
    let cold_ms = median_ms(samples, || {
        let caches = SweepCaches::new();
        match run_search(&spec, &caches) {
            Ok(report) => cold_report = Some(report),
            Err(err) => cold_err = Some(err),
        }
    });
    if let Some(err) = cold_err {
        return Err(err);
    }
    let cold_report = cold_report.expect("at least one cold sample ran");

    // Warm side: one shared cache set, pre-warmed by an untimed search; the
    // timed repeats should resolve whole from the search tier.
    let caches = SweepCaches::new();
    run_search(&spec, &caches)?;
    let mut warm_report: Option<SearchReport> = None;
    let mut warm_err = None;
    let warm_repeats = 100;
    let warm_ms = median_ms(samples, || {
        for _ in 0..warm_repeats {
            match run_search(&spec, &caches) {
                Ok(report) => warm_report = Some(report),
                Err(err) => warm_err = Some(err),
            }
        }
    }) / f64::from(warm_repeats);
    if let Some(err) = warm_err {
        return Err(err);
    }
    let warm_report = warm_report.expect("at least one warm sample ran");

    let warm_caches = warm_report.caches;
    // A warm search's only cache movement is search-tier hits: zero misses in
    // every tier, and zero lookups of any kind below tier 5.
    let zero_miss = warm_report.from_cache
        && warm_caches.searches.misses == 0
        && warm_caches.searches.hits > 0
        && [
            &warm_caches.schedules,
            &warm_caches.adjacencies,
            &warm_caches.plans,
            &warm_caches.traces,
        ]
        .iter()
        .all(|tier| tier.hits == 0 && tier.misses == 0);
    let optimal_winner = warm_report.winner().is_some_and(|w| {
        w.family == latsched_engine::SearchFamily::Lattice
            && w.optimal
            && w.period == warm_report.outcome.lower_bound
    });
    let parity = *warm_report.outcome == *cold_report.outcome && zero_miss && optimal_winner;

    let (small_ms, small_nodes) = cold_scaling_ms(samples, small_window)?;
    let (large_ms, large_nodes) = cold_scaling_ms(samples, large_window)?;
    let scaling_efficiency =
        large_nodes as f64 / small_nodes as f64 * small_ms / large_ms.max(1e-9);

    Ok(Measurement::new(format!(
        "cold vs warm schedule search: builtin Figure-2 Moore search, \
         {} candidates x {} runs, 16x16 window, objective {}",
        cold_report.outcome.candidates(),
        cold_report.outcome.runs_per_candidate,
        cold_report.objective,
    ))
    .with("candidates", cold_report.outcome.candidates())
    .with("runs_per_candidate", cold_report.outcome.runs_per_candidate)
    .with("nodes", cold_report.outcome.nodes)
    .with("samples", samples.max(1))
    .with("cold_ms", cold_ms)
    .with("warm_ms", warm_ms)
    .with("speedup", cold_ms / warm_ms.max(1e-9))
    .with("warm_caches", warm_caches.to_json_value())
    .with(
        "scaling_windows",
        vec![Value::from(small_window), Value::from(large_window)],
    )
    .with("scaling_small_ms", small_ms)
    .with("scaling_large_ms", large_ms)
    .with("scaling_efficiency", scaling_efficiency)
    .with("parity", parity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_measures_and_serializes() {
        // One sample and small windows: this test checks plumbing and
        // parity, not performance.
        let baseline = measure_search(1, 4, 8).unwrap();
        assert!(baseline.num("candidates") > 0.0);
        assert_eq!(baseline.num("nodes"), 256.0);
        assert!(
            baseline.parity(),
            "warm searches must replay cold outcomes exactly without touching tiers 1-4"
        );
        assert!(baseline.num("cold_ms") >= 0.0 && baseline.num("warm_ms") >= 0.0);
        let json = baseline.to_json_value();
        assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
        assert!(json.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        assert!(baseline.num("scaling_efficiency") > 0.0);
        let tier = |name: &str, count: &str| {
            let caches = json.get("warm_caches").unwrap();
            caches
                .get(name)
                .unwrap()
                .get(count)
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(tier("searches", "misses"), 0);
        assert!(tier("searches", "hits") > 0);
        assert_eq!(tier("traces", "hits"), 0);
    }
}
