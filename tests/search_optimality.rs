//! End-to-end guarantees of the schedule-search stage: the ranked winner of
//! `latsched_engine::run_search` must agree with the paper's exact machinery —
//! its period matches the `exact` branch-and-bound chromatic number and the
//! clique lower bound of `optimality::slot_lower_bound`, lattice candidates
//! never lose to the coloring baselines on period, and warm search-cache hits
//! replay cold outcomes bit-for-bit without touching any lower artifact tier.

use latsched::prelude::*;
use latsched_engine::{
    run_search, Objective, SearchFamily, SearchSpec, SeedAxis, ShapeSpec, SweepCaches, SweepTraffic,
};
use proptest::prelude::*;

/// A small Figure-2-style search spec on the given shape and window.
fn search_spec(shape: ShapeSpec, window: i64, objective: Objective) -> SearchSpec {
    SearchSpec {
        name: "search-optimality-test".into(),
        shape,
        window,
        slots: 64,
        traffic: SweepTraffic::Bernoulli(vec![0.1]),
        seeds: vec![1, 2].into(),
        retries: vec![0],
        objective,
        families: vec![SearchFamily::Lattice, SearchFamily::Coloring],
        budget: 6,
        top: 16,
    }
}

fn moore_spec(window: i64, objective: Objective) -> SearchSpec {
    search_spec(
        ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: Metric::Chebyshev,
        },
        window,
        objective,
    )
}

fn von_neumann_spec(window: i64, objective: Objective) -> SearchSpec {
    search_spec(
        ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: Metric::Manhattan,
        },
        window,
        objective,
    )
}

/// The exact chromatic number of the window's distance-2 conflict graph.
fn exact_period(spec: &SearchSpec) -> usize {
    let window = BoxRegion::square_window(2, spec.window).unwrap();
    let shape = spec.shape.prototile().unwrap();
    let graph = InterferenceGraph::from_window(&window, Deployment::Homogeneous(shape))
        .unwrap()
        .conflict_graph();
    let cap = graph.len();
    exact_coloring(&graph, cap).unwrap().colors_used
}

#[test]
fn small_window_winner_matches_exact_branch_and_bound() {
    // On the 5×5 Moore window the search's period-optimal winner, the exact
    // branch-and-bound chromatic number and the paper's clique lower bound
    // must all agree at |N| = 9.
    let spec = moore_spec(5, Objective::Period);
    let caches = SweepCaches::new();
    let report = run_search(&spec, &caches).unwrap();
    let winner = report.winner().unwrap();

    let shape = spec.shape.prototile().unwrap();
    let deployment = Deployment::Homogeneous(shape);
    let lower_bound = optimality::slot_lower_bound(&deployment);
    assert_eq!(lower_bound, 9);
    assert_eq!(report.outcome.lower_bound, lower_bound);
    assert_eq!(exact_period(&spec), lower_bound);

    assert_eq!(winner.family, SearchFamily::Lattice);
    assert_eq!(winner.period, lower_bound);
    assert!(winner.optimal, "the lattice winner is confirmed optimal");
    // The search also surfaced the exact coloring itself, at the same period.
    let exact = report
        .outcome
        .ranked
        .iter()
        .find(|c| c.generator == "exact")
        .expect("exact runs on a 25-vertex window");
    assert_eq!(exact.period, lower_bound);
    assert!(exact.optimal);
}

#[test]
fn lattice_candidates_never_lose_on_period() {
    // Theorem 1 periods equal |N|, the clique bound, so on windows at least
    // as large as the shape's diameter no coloring baseline can beat the best
    // lattice candidate's period — DSATUR and TDMA included.
    for (name, spec) in [
        ("moore", moore_spec(6, Objective::Period)),
        ("von-neumann", von_neumann_spec(6, Objective::Period)),
    ] {
        let caches = SweepCaches::new();
        let report = run_search(&spec, &caches).unwrap();
        let ranked = &report.outcome.ranked;
        let best_lattice = ranked
            .iter()
            .filter(|c| c.family == SearchFamily::Lattice)
            .map(|c| c.period)
            .min()
            .expect("lattice candidates enumerated");
        assert_eq!(
            best_lattice, report.outcome.lower_bound,
            "{name}: every Theorem 1 period is |N|"
        );
        let dsatur = ranked.iter().find(|c| c.generator == "dsatur").unwrap();
        let tdma = ranked.iter().find(|c| c.generator == "tdma").unwrap();
        assert!(
            best_lattice <= dsatur.period,
            "{name}: lattice ({best_lattice}) must beat-or-equal dsatur ({})",
            dsatur.period
        );
        assert!(
            best_lattice <= tdma.period,
            "{name}: lattice ({best_lattice}) must beat-or-equal tdma ({})",
            tdma.period
        );
        // The period-objective winner is a lattice candidate (ties break
        // toward the lower candidate id, and lattice candidates come first).
        let winner = report.winner().unwrap();
        assert_eq!(winner.family, SearchFamily::Lattice, "{name}");
        assert!(winner.optimal, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm search-cache hits are bit-identical to the cold search and skip
    /// candidate evaluation entirely: the warm run's only cache movement is
    /// one hit in the search tier.
    #[test]
    fn warm_search_hits_replay_cold_outcomes_exactly(
        window in 5i64..9,
        load_pick in 0usize..3,
        seed in 1u64..1000,
        objective_pick in 0usize..3,
    ) {
        let objective = [
            Objective::Period,
            Objective::DeliveryRatio,
            Objective::LatencyPercentile { q: 0.9 },
        ][objective_pick];
        let spec = SearchSpec {
            traffic: SweepTraffic::Bernoulli(vec![[0.05, 0.1, 0.2][load_pick]]),
            seeds: SeedAxis::Range { start: seed, end: seed + 1 },
            ..moore_spec(window, objective)
        };
        let caches = SweepCaches::new();
        let cold = run_search(&spec, &caches).unwrap();
        prop_assert!(!cold.from_cache);

        let warm = run_search(&spec, &caches).unwrap();
        prop_assert!(warm.from_cache);
        prop_assert_eq!(&*cold.outcome, &*warm.outcome);

        // The warm search's own lookups, from its recording.
        let delta = warm.caches;
        prop_assert_eq!((delta.searches.hits, delta.searches.misses), (1, 0));
        for tier in [delta.schedules, delta.adjacencies, delta.plans, delta.traces] {
            prop_assert_eq!((tier.hits, tier.misses), (0, 0));
        }
    }
}
