//! End-to-end parity of the compiled query engine against the reference
//! `PeriodicSchedule`, over the paper's Figure 2 scenarios and randomized
//! sublattices.

use latsched::engine::telemetry::{request, Counter};
use latsched::prelude::*;
use proptest::prelude::*;

/// The Figure 2 / Figure 3 neighbourhood suite plus the hexagonal one-hop
/// cluster, each with its expected optimal slot count.
fn figure_scenarios() -> Vec<(&'static str, Prototile, usize)> {
    vec![
        ("moore9", shapes::chebyshev_ball(2, 1).unwrap(), 9),
        ("plus5", shapes::euclidean_ball(2, 1).unwrap(), 5),
        ("antenna8", shapes::directional_antenna(), 8),
        ("hex7", shapes::hex7(), 7),
    ]
}

#[test]
fn compiled_matches_reference_on_figure2_and_hexagonal_scenarios() {
    let cache = ScheduleCache::new();
    let mut compilations = 0;
    for (name, shape, expected_slots) in figure_scenarios() {
        let tiling = find_tiling(&shape).unwrap().unwrap();
        let schedule = theorem1::schedule_from_tiling(&tiling);
        let (compiled, lookups, _) = request(|| cache.get_or_compile(&shape).unwrap());
        compilations += lookups.counter(Counter::ScheduleMisses);
        assert_eq!(compiled.num_slots(), expected_slots, "{name}");
        assert_eq!(schedule.num_slots(), expected_slots, "{name}");

        // Pointwise parity over a window spanning negative and positive coords.
        let window = BoxRegion::new(Point::xy(-17, -13), Point::xy(20, 24)).unwrap();
        let batch = compiled.slots_of_region(&window).unwrap();
        for (p, &slot) in window.points().iter().zip(&batch) {
            assert_eq!(
                slot as usize,
                schedule.slot_of(p).unwrap(),
                "{name} disagrees at {p}"
            );
        }

        // The compiled backend passes the paper's exact whole-lattice proof.
        let deployment = theorem1::deployment_for(&tiling);
        let report = compiled.verify(&deployment).unwrap();
        assert!(report.collision_free(), "{name}");
        assert_eq!(
            report,
            verify::verify_schedule(&schedule, &deployment).unwrap(),
            "{name}: compiled and reference checkers must do identical work"
        );
    }
    // Every shape was compiled exactly once.
    assert_eq!(compilations, 4);
    assert_eq!(cache.len(), 4);
}

#[test]
fn compiled_histogram_is_balanced_over_aligned_windows() {
    let cache = ScheduleCache::new();
    for (name, shape, slots) in figure_scenarios() {
        let compiled = cache.get_or_compile(&shape).unwrap();
        // A window aligned with the period (side = lcm of table side lengths ≤
        // slots) uses every slot equally often: pick side = slots · k.
        let side = (slots * 4) as i64;
        let histogram = compiled
            .slot_histogram(&BoxRegion::square_window(2, side).unwrap())
            .unwrap();
        assert_eq!(histogram.len(), slots, "{name}");
        assert_eq!(
            histogram.iter().sum::<usize>(),
            (side * side) as usize,
            "{name}"
        );
    }
}

#[test]
fn cache_is_shared_across_threads() {
    let cache = ScheduleCache::new();
    let shapes: Vec<Prototile> = figure_scenarios().into_iter().map(|(_, s, _)| s).collect();
    // Each thread's lookups count in its own request.
    let lookups: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let ((), recording, _) = request(|| {
                        for shape in &shapes {
                            let compiled = cache.get_or_compile(shape).unwrap();
                            assert_eq!(compiled.num_slots(), shape.len());
                        }
                    });
                    (
                        recording.counter(Counter::ScheduleHits),
                        recording.counter(Counter::ScheduleMisses),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(cache.len(), 4);
    let (hits, misses) = lookups
        .iter()
        .fold((0, 0), |(h, m), (hit, miss)| (h + hit, m + miss));
    assert_eq!(hits + misses, 16);
    // Single-flight: each shape compiled once, whichever thread got there.
    assert_eq!(misses, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random full-rank sublattices of Z² whose canonical transversal induces a
    /// Theorem 1 schedule: the compiled engine must agree with the reference on
    /// every query, single or batched.
    #[test]
    fn compiled_agrees_with_reference_on_random_sublattices(
        basis in ((1i64..5), (0i64..5), (-4i64..5), (1i64..5)),
        probe in (-40i64..40, -40i64..40),
    ) {
        let (a, b, c, d) = basis;
        if a * d - b * c == 0 {
            return Ok(());
        }
        let lambda = match Sublattice::from_vectors(&[Point::xy(a, b), Point::xy(c, d)]) {
            Ok(lambda) => lambda,
            Err(_) => return Ok(()),
        };
        let prototile = Prototile::new(lambda.coset_representatives()).unwrap();
        let tiling = Tiling::from_sublattice(prototile, lambda).unwrap();
        let schedule = theorem1::schedule_from_tiling(&tiling);
        let compiled = CompiledSchedule::compile(&schedule).unwrap();
        prop_assert_eq!(compiled.num_slots(), schedule.num_slots());

        // Single-point parity at the random probe.
        let p = Point::xy(probe.0, probe.1);
        prop_assert_eq!(compiled.slot_of(&p).unwrap() as usize, schedule.slot_of(&p).unwrap());

        // Batched parity over a window around the probe.
        let window = BoxRegion::new(
            Point::xy(probe.0 - 6, probe.1 - 6),
            Point::xy(probe.0 + 6, probe.1 + 6),
        ).unwrap();
        let batch = compiled.slots_of_region(&window).unwrap();
        let points = window.points();
        let by_points = compiled.slots_of_points(&points).unwrap();
        prop_assert_eq!(&batch, &by_points);
        for (point, &slot) in points.iter().zip(&batch) {
            prop_assert_eq!(slot as usize, schedule.slot_of(point).unwrap(), "at {}", point);
        }
    }
}
