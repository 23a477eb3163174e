//! Cross-stack parity of the batched sweep engine: every run of
//! `latsched_engine::run_sweep` — which builds its own window adjacency,
//! compiles plans through the caches and replays compiled traffic traces (or
//! lane-dispatches multi-seed ALOHA grids through the bit-sliced kernel) —
//! must report exactly the counters of a reference-simulator run of the same
//! configuration on a `latsched_sensornet::Network`. This pins down the whole
//! pipeline at once: node ordering, adjacency construction, counter-RNG
//! streams, trace compilation and kernel semantics.

use latsched::prelude::*;
use latsched::sensornet::{EnergyAccount, SimMetrics};
use latsched_engine::telemetry::{profile, Counter, Stage, COUNTERS, DISPATCH_COUNTERS, STAGES};
use latsched_engine::{
    fold_full_report, run_search, run_sweep, GroupAxis, GroupSpec, KernelCounts, SearchSpec,
    SweepCacheStats, SweepCaches, SweepMac, SweepMode, SweepSpec, SweepTraffic, TelemetrySnapshot,
};
use proptest::prelude::*;
use std::sync::Barrier;

/// Converts one sweep run's kernel counters into the `SimMetrics` the
/// reference simulator reports, applying the same energy model.
fn metrics_of(counts: &KernelCounts, nodes: usize, slots: u64, config: &SimConfig) -> SimMetrics {
    SimMetrics {
        slots_simulated: slots,
        nodes,
        packets_generated: counts.packets_generated,
        packets_delivered: counts.packets_delivered,
        packets_dropped: counts.packets_dropped,
        packets_pending: counts.packets_pending,
        transmissions: counts.transmissions,
        receptions: counts.receptions,
        collisions: counts.collisions,
        total_latency: counts.total_latency,
        energy: EnergyAccount::from_slot_counts(
            &config.energy,
            counts.tx_slots,
            counts.rx_slots,
            counts.idle_slots,
        ),
    }
}

fn check_sweep_against_reference(spec: &SweepSpec, mac: &MacPolicy) {
    let report = run_sweep(spec, &SweepCaches::new()).unwrap();
    assert_eq!(report.runs, spec.num_runs());

    // The specs below all use the Moore ball shape.
    let shape = shapes::moore();
    // Reconstruct the grid in the sweep's documented expansion order:
    // windows × traffic × retries × seeds.
    let mut idx = 0;
    for &window in &spec.windows {
        let network = grid_network(window, &shape).unwrap();
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
                    let run = &report.per_run[idx];
                    idx += 1;
                    assert_eq!(run.window, window);
                    assert_eq!(run.seed, seed);
                    assert_eq!(run.retries, retries);
                    assert_eq!(run.traffic, traffic.to_string());
                    let config = SimConfig {
                        mac: mac.clone(),
                        traffic,
                        slots: spec.slots,
                        max_retries: retries,
                        seed,
                        ..SimConfig::default()
                    };
                    let reference =
                        run_simulation_with(&ReferenceKernel, &network, &config).unwrap();
                    let sweep_metrics = metrics_of(&run.counts, run.nodes, spec.slots, &config);
                    assert_eq!(
                        sweep_metrics, reference,
                        "window {window} seed {seed} retries {retries} traffic {}",
                        run.traffic
                    );
                }
            }
        }
    }
    assert_eq!(idx, report.per_run.len());
}

#[test]
fn sweep_runs_match_reference_simulator_on_bernoulli_tiling_grids() {
    let spec = SweepSpec {
        windows: vec![6, 9],
        slots: 200,
        seeds: vec![1, 42].into(),
        retries: vec![0, 3],
        traffic: SweepTraffic::Bernoulli(vec![0.05, 0.2]),
        mac: SweepMac::Tiling,
        ..latsched_engine::builtin_sweep()
    };
    check_sweep_against_reference(&spec, &tiling_mac(&shapes::moore()).unwrap());
}

#[test]
fn sweep_runs_match_reference_simulator_on_aloha_grids() {
    // Two seeds run as one lane batch; one seed runs scalar, replaying a
    // traffic trace and a MAC decision trace through the general loop.
    for seeds in [vec![3, 5], vec![5]] {
        let spec = SweepSpec {
            windows: vec![7],
            slots: 150,
            seeds: seeds.into(),
            retries: vec![1],
            traffic: SweepTraffic::Bernoulli(vec![0.15]),
            mac: SweepMac::Aloha { p: 0.35 },
            ..latsched_engine::builtin_sweep()
        };
        check_sweep_against_reference(&spec, &MacPolicy::SlottedAloha { p: 0.35 });
    }
}

#[test]
fn sweep_runs_match_reference_simulator_on_staggered_grids() {
    let spec = SweepSpec {
        windows: vec![8],
        slots: 180,
        seeds: vec![11].into(),
        retries: vec![0, 2],
        traffic: SweepTraffic::Staggered(vec![4, 24]),
        mac: SweepMac::Tiling,
        ..latsched_engine::builtin_sweep()
    };
    check_sweep_against_reference(&spec, &tiling_mac(&shapes::moore()).unwrap());
}

/// The grid `tests/specs/staggered_seeds.json`, on which all three collapses
/// act: window 6 repeats a plan, and a tiling schedule under staggered
/// traffic reads neither the retry budget nor the seed, so its 36 runs are 4
/// simulated runs and 32 copies.
fn staggered_seeds_spec() -> SweepSpec {
    SweepSpec::parse_spec(include_str!("specs/staggered_seeds.json")).unwrap()[0].clone()
}

#[test]
fn sweep_runs_match_reference_simulator_on_collapsed_staggered_grids() {
    let spec = staggered_seeds_spec();
    assert_eq!(spec.num_runs(), 36);
    check_sweep_against_reference(&spec, &tiling_mac(&shapes::moore()).unwrap());
}

#[test]
fn profiled_grids_copy_exactly_their_redundant_runs() {
    // (analytic runs, copies, all dispatches) of one profiled request.
    let mix = |snapshot: Option<TelemetrySnapshot>| {
        let snapshot = snapshot.expect("profiled requests attach a snapshot");
        (
            snapshot.counter(Counter::DispatchAnalytic),
            snapshot.counter(Counter::DispatchCopy),
            snapshot.dispatch_total(),
        )
    };
    let sweep = |spec: &SweepSpec| {
        let (report, _) = profile(|| run_sweep(spec, &SweepCaches::new()).unwrap());
        mix(report.telemetry)
    };
    // The builtin sweep: retries collapse on its conflict-free tiling, so
    // its 2 loads x 8 seeds are simulated and the other 3 budgets copied.
    assert_eq!(sweep(&latsched_engine::builtin_sweep()), (16, 48, 64));
    // The builtin search: 10 candidates share 7 distinct plans, and retries
    // collapse: 7 plans x 2 loads x 4 seeds simulated, 104 of 160 copied.
    let (search, _) =
        profile(|| run_search(&latsched_engine::builtin_search(), &SweepCaches::new()).unwrap());
    assert_eq!(
        search.caches.traces.hits, 0,
        "repeated plans fetch no trace"
    );
    assert_eq!(mix(search.telemetry), (56, 104, 160));
    // All three collapses at once.
    assert_eq!(sweep(&staggered_seeds_spec()), (4, 32, 36));
    // The committed tiling and search specs replay or copy every run too:
    // each schedule is a tiling or a proper colouring, so no scheduled
    // request builds a conflicted plan or reaches the slot loop.
    let tiling = include_str!("specs/tiling_stream_80_seeds.json");
    assert_eq!(
        sweep(&SweepSpec::parse_spec(tiling).unwrap()[0]),
        (80, 80, 160)
    );
    // The load axis: 2 windows x 5 loads x 3 seeds simulated (the repeated
    // load runs again; only its trace is shared), the other budget copied.
    let loads = include_str!("specs/tiling_bernoulli_loads.json");
    assert_eq!(
        sweep(&SweepSpec::parse_spec(loads).unwrap()[0]),
        (30, 30, 60)
    );
    let moore = SearchSpec::parse_spec(include_str!("specs/search_moore_64.json")).unwrap();
    let (search, _) = profile(|| run_search(&moore[0], &SweepCaches::new()).unwrap());
    assert_eq!(mix(search.telemetry), (14, 6, 20));
    // ALOHA draws every seed and collides, so a lane grid copies nothing.
    let aloha = &SweepSpec::parse_spec(include_str!("specs/aloha_20_batches.json")).unwrap()[0];
    assert_eq!(sweep(aloha), (0, 0, 800));
    // One seed runs scalar: 2 loads x 2 budgets on the general loop, over
    // 2 traffic traces built in one draw pass and 1 MAC decision trace.
    let one_seed = &SweepSpec::parse_spec(include_str!("specs/aloha_one_seed.json")).unwrap()[0];
    let (report, _) = profile(|| run_sweep(one_seed, &SweepCaches::new()).unwrap());
    let snapshot = report
        .telemetry
        .expect("profiled requests attach a snapshot");
    assert_eq!(snapshot.counter(Counter::DispatchGeneralLoop), 4);
    assert_eq!(snapshot.dispatch_total(), 4);
    assert_eq!(report.caches.traces.misses, 3);
    assert_eq!(snapshot.counter(Counter::TraceCompilations), 3);
    // Periodic and staggered traffic under ALOHA run on deterministic lanes:
    // 70 seeds are one full and one 6-lane batch per grid point (2 periods x
    // 2 budgets, then 2 periods x 1 budget), and no trace is looked up.
    let deterministic =
        SweepSpec::parse_spec(include_str!("specs/aloha_deterministic_lanes.json")).unwrap();
    for (spec, (runs, batches)) in deterministic.iter().zip([(280, 8), (140, 4)]) {
        let (report, _) = profile(|| run_sweep(spec, &SweepCaches::new()).unwrap());
        let snapshot = report
            .telemetry
            .expect("profiled requests attach a snapshot");
        assert_eq!(snapshot.counter(Counter::DispatchLaneScalar), runs);
        assert_eq!(snapshot.dispatch_total(), runs);
        assert_eq!(snapshot.counter(Counter::LaneBatches), batches);
        let traces = report.caches.traces;
        assert_eq!(traces.hits + traces.misses, 0, "{}", spec.name);
    }
}

/// Runs one spec in both modes and asserts the streaming group folds are
/// exactly the folds of the full report's per-run list by the same axes.
fn assert_streaming_matches_full(spec: &SweepSpec, group_spec: &GroupSpec) {
    let caches = SweepCaches::new();
    let full_spec = SweepSpec {
        mode: SweepMode::Full,
        ..spec.clone()
    };
    let stream_spec = SweepSpec {
        mode: SweepMode::Streaming(group_spec.clone()),
        ..spec.clone()
    };
    let full = run_sweep(&full_spec, &caches).unwrap();
    let stream = run_sweep(&stream_spec, &caches).unwrap();
    assert!(stream.per_run.is_empty());
    assert_eq!(stream.aggregate, full.aggregate);
    let folded = fold_full_report(&full_spec, group_spec, &full.per_run).unwrap();
    // Bit-exact equality of every group: run counts, per-field sums / sums of
    // squares / min / max, and both histograms bucket for bucket.
    assert_eq!(stream.groups, folded, "group_by {group_spec}");
    let total: u64 = stream.groups.iter().map(|g| g.fold.runs).sum();
    assert_eq!(total, full.runs as u64, "groups partition the grid");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized grids across traffic families, MACs and every axis-subset
    /// grouping: streaming folds must equal folding the full mode's per-run
    /// reports by the same axes, bit for bit.
    #[test]
    fn streaming_folds_match_full_mode_on_random_grids(
        windows_pick in 0usize..3,
        slots in 1u64..120,
        traffic_pick in 0usize..4,
        mac_pick in 0usize..2,
        seed_count in 1usize..3,
        retry_count in 1usize..3,
        axes_mask in 0usize..16,
    ) {
        let spec = SweepSpec {
            windows: [vec![5], vec![6], vec![5, 7]][windows_pick].clone(),
            slots,
            traffic: match traffic_pick {
                0 => SweepTraffic::Bernoulli(vec![0.1, 0.3]),
                1 => SweepTraffic::Bernoulli(vec![0.25]),
                2 => SweepTraffic::Periodic(vec![3, 9]),
                _ => SweepTraffic::Staggered(vec![2, 5]),
            },
            mac: if mac_pick == 0 {
                SweepMac::Tiling
            } else {
                SweepMac::Aloha { p: 0.4 }
            },
            seeds: (1..=seed_count as u64).collect(),
            retries: (0..retry_count as u32).collect(),
            ..latsched_engine::builtin_sweep()
        };
        let all = [GroupAxis::Window, GroupAxis::Traffic, GroupAxis::Retries, GroupAxis::Seed];
        let axes = all
            .iter()
            .enumerate()
            .filter(|(i, _)| axes_mask >> i & 1 == 1)
            .map(|(_, &a)| a);
        assert_streaming_matches_full(&spec, &GroupSpec::new(axes));
    }

    /// Randomized lane-dispatched grids (ALOHA over deterministic traffic
    /// with a multi-seed axis): every per-run report must be bit-identical to
    /// a scalar single-seed sweep of the same grid point — single-seed axes
    /// are not lane-eligible, so the comparison really crosses the two
    /// kernels. The seed axis length stays under 64, so every batch is a
    /// partial one.
    #[test]
    fn lane_dispatched_sweeps_match_scalar_per_seed_sweeps_on_random_grids(
        window in 4i64..8,
        slots in 1u64..150,
        staggered in 0u8..2,
        traffic_period in 1u64..12,
        p_aloha in 0.0f64..1.0,
        seed0 in 0u64..1000,
        seed_count in 2usize..6,
        retries in 0u32..4,
    ) {
        let spec = SweepSpec {
            windows: vec![window],
            slots,
            traffic: if staggered == 1 {
                SweepTraffic::Staggered(vec![traffic_period])
            } else {
                SweepTraffic::Periodic(vec![traffic_period])
            },
            mac: SweepMac::Aloha { p: p_aloha },
            seeds: (seed0..seed0 + seed_count as u64).collect(),
            retries: vec![retries],
            ..latsched_engine::builtin_sweep()
        };
            let caches = SweepCaches::new();
        let lanes = run_sweep(&spec, &caches).unwrap();
        prop_assert_eq!(lanes.per_run.len(), seed_count);
        for (i, seed) in spec.seeds.iter().enumerate() {
            let scalar = run_sweep(
                &SweepSpec { seeds: vec![seed].into(), ..spec.clone() },
                &caches,
            ).unwrap();
            prop_assert_eq!(&lanes.per_run[i], &scalar.per_run[0], "seed {}", seed);
        }
    }

    /// The widened lane eligibility: ALOHA grids over *Bernoulli* traffic with
    /// a multi-seed axis now lane-dispatch too, drawing arrivals and MAC
    /// decisions inline per lane instead of prefetching compiled traces. Every
    /// per-run report must still be bit-identical to a scalar single-seed
    /// sweep of the same point — which compiles and replays traces — so the
    /// comparison crosses the trace pipeline against the batched draws.
    #[test]
    fn bernoulli_lane_sweeps_match_scalar_trace_sweeps_on_random_grids(
        window in 4i64..8,
        slots in 1u64..150,
        p_traffic in 0.02f64..0.6,
        p_aloha in 0.0f64..1.0,
        seed0 in 0u64..1000,
        seed_count in 2usize..6,
        retries in 0u32..4,
    ) {
        let spec = SweepSpec {
            windows: vec![window],
            slots,
            traffic: SweepTraffic::Bernoulli(vec![p_traffic]),
            mac: SweepMac::Aloha { p: p_aloha },
            seeds: (seed0..seed0 + seed_count as u64).collect(),
            retries: vec![retries],
            ..latsched_engine::builtin_sweep()
        };
            let caches = SweepCaches::new();
        let lanes = run_sweep(&spec, &caches).unwrap();
        prop_assert_eq!(lanes.per_run.len(), seed_count);
        // Lane dispatch skips the traffic/MAC trace prefetch entirely.
        prop_assert_eq!(lanes.caches.traces.misses + lanes.caches.traces.hits, 0);
        for (i, seed) in spec.seeds.iter().enumerate() {
            let scalar = run_sweep(
                &SweepSpec { seeds: vec![seed].into(), ..spec.clone() },
                &caches,
            ).unwrap();
            prop_assert_eq!(&lanes.per_run[i], &scalar.per_run[0], "seed {}", seed);
        }
    }
}

#[test]
fn streaming_parity_holds_on_the_twenty_lane_batch_aloha_grid() {
    // 20 grid points × 40 seeds = 20 lane batches, folded by traffic: a band
    // plan of `min(4·workers, batches)` bands starts trailing bands past the
    // end of the batch list (and panics) whenever 2 or more workers run.
    let spec = &SweepSpec::parse_spec(include_str!("specs/aloha_20_batches.json")).unwrap()[0];
    let SweepMode::Streaming(group_spec) = &spec.mode else {
        panic!("the spec groups by traffic, so it streams");
    };
    assert_streaming_matches_full(spec, group_spec);
}

#[test]
fn streaming_parity_holds_on_the_degenerate_one_run_per_group_grid() {
    // Grouping by every axis puts exactly one run in every group, so the
    // streaming report carries full per-run information in fold form — the
    // boundary case where O(groups) = O(runs).
    let spec = SweepSpec {
        windows: vec![5, 6],
        slots: 80,
        seeds: vec![3, 4].into(),
        retries: vec![0, 1],
        traffic: SweepTraffic::Bernoulli(vec![0.15, 0.35]),
        mac: SweepMac::Tiling,
        ..latsched_engine::builtin_sweep()
    };
    let group_spec = GroupSpec::new([
        GroupAxis::Window,
        GroupAxis::Traffic,
        GroupAxis::Retries,
        GroupAxis::Seed,
    ]);
    assert_streaming_matches_full(&spec, &group_spec);
    // Each group's fold is one run: min = max = sum per field.
    let caches = SweepCaches::new();
    let report = run_sweep(
        &SweepSpec {
            mode: SweepMode::Streaming(group_spec),
            ..spec.clone()
        },
        &caches,
    )
    .unwrap();
    assert_eq!(report.groups.len(), spec.num_runs());
    for group in &report.groups {
        assert_eq!(group.fold.runs, 1);
        assert!(group.key.window.is_some() && group.key.seed.is_some());
        for field in &group.fold.fields {
            assert_eq!(field.min, field.max);
            assert_eq!(field.sum, field.min);
        }
    }
}

#[test]
fn warm_sweeps_replay_cold_sweeps_through_every_tier() {
    // Repeating a sweep over shared caches must hit every tier of the
    // artifact pipeline — no schedule, plan or trace rebuilds — and reproduce
    // the per-run counters exactly (the property the `tracecache` baseline
    // entry and its CI gate quantify).
    let spec = SweepSpec {
        windows: vec![6, 9],
        slots: 160,
        seeds: vec![2, 9].into(),
        retries: vec![0, 2],
        traffic: SweepTraffic::Bernoulli(vec![0.1, 0.3]),
        mac: SweepMac::Tiling,
        ..latsched_engine::builtin_sweep()
    };
    let caches = SweepCaches::new();
    let cold = run_sweep(&spec, &caches).unwrap();
    // One schedule for the shape, one plan per window, one trace per
    // (window, seed, load).
    assert_eq!(cold.caches.schedules.misses, 1);
    assert_eq!(cold.caches.plans.misses, 2);
    assert_eq!(cold.caches.traces.misses, 2 * 2 * 2);
    let warm = run_sweep(&spec, &caches).unwrap();
    assert_eq!(warm.per_run, cold.per_run, "warm sweeps replay cold runs");
    assert_eq!(warm.caches.schedules.misses, 0);
    assert_eq!(warm.caches.plans.misses, 0);
    assert_eq!(warm.caches.traces.misses, 0, "no trace is ever rebuilt");
    assert_eq!(warm.caches.traces.hits, 2 * 2 * 2);
    assert_eq!(warm.caches.traces.entries, 8);
}

/// The 16-run tiling/Bernoulli grid whose telemetry profile is pinned below
/// and re-asserted (thread-invariantly) by `tests/telemetry_threads.rs` under
/// a forced single-thread pool.
fn pinned_mix_spec() -> SweepSpec {
    SweepSpec {
        windows: vec![6, 9],
        slots: 160,
        seeds: vec![2, 9].into(),
        retries: vec![0, 2],
        traffic: SweepTraffic::Bernoulli(vec![0.1, 0.3]),
        mac: SweepMac::Tiling,
        ..latsched_engine::builtin_sweep()
    }
}

#[test]
fn profiled_sweep_reports_the_pinned_dispatch_mix() {
    let spec = pinned_mix_spec();
    let (report, _) = profile(|| run_sweep(&spec, &SweepCaches::new()).unwrap());
    let snapshot = report.telemetry.expect("profiled sweeps attach a snapshot");
    // Tiling grids over compiled Bernoulli traces replay analytically, and
    // on a conflict-free plan the retry budget cannot change a run: the 8
    // runs at retries 0 land on the analytic path, the 8 at retries 2 copy
    // them, and nothing lands anywhere else.
    assert_eq!(snapshot.counter(Counter::DispatchAnalytic), 8);
    assert_eq!(snapshot.counter(Counter::DispatchCopy), 8);
    for counter in [
        Counter::DispatchLaneScalar,
        Counter::DispatchLaneBernoulli,
        Counter::DispatchGeneralLoop,
        Counter::LaneBatches,
        Counter::LaneRuns,
    ] {
        assert_eq!(snapshot.counter(counter), 0, "{}", counter.name());
    }
    assert_eq!(snapshot.dispatch_total(), spec.num_runs() as u64);
    // One compilation per trace miss: windows × loads × seeds.
    assert_eq!(snapshot.counter(Counter::TraceCompilations), 8);
    // The report's cache counters are the snapshot's tier counters.
    assert_eq!(
        snapshot.counter(Counter::ScheduleHits),
        report.caches.schedules.hits
    );
    assert_eq!(
        snapshot.counter(Counter::ScheduleMisses),
        report.caches.schedules.misses
    );
    assert_eq!(
        snapshot.counter(Counter::AdjacencyHits),
        report.caches.adjacencies.hits
    );
    assert_eq!(
        snapshot.counter(Counter::AdjacencyMisses),
        report.caches.adjacencies.misses
    );
    assert_eq!(
        snapshot.counter(Counter::PlanHits),
        report.caches.plans.hits
    );
    assert_eq!(
        snapshot.counter(Counter::PlanMisses),
        report.caches.plans.misses
    );
    assert_eq!(
        snapshot.counter(Counter::TraceHits),
        report.caches.traces.hits
    );
    assert_eq!(
        snapshot.counter(Counter::TraceMisses),
        report.caches.traces.misses
    );
    assert_eq!(report.caches.traces.misses, 8);
}

#[test]
fn concurrent_sweeps_attribute_cache_stats_exactly() {
    // Regression test: per-sweep cache stats used to be computed as a delta
    // of the shared caches' global counters, so sweeps running concurrently
    // over the same `SweepCaches` tallied each other's lookups (a warm sweep
    // could report its neighbour's hits on top of its own). Each sweep's own
    // telemetry recorder counts every hit and miss it issued.
    let spec = pinned_mix_spec();
    let caches = SweepCaches::new();
    let cold = run_sweep(&spec, &caches).unwrap();
    assert_eq!(cold.caches.traces.misses, 8);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| run_sweep(&spec, &caches).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for warm in &reports {
        assert_eq!(warm.per_run, cold.per_run);
        // A warm sweep issues exactly the cold sweep's lookups, all hits —
        // regardless of how many sweeps share the caches at the time.
        for (warm_tier, cold_tier) in [
            (&warm.caches.schedules, &cold.caches.schedules),
            (&warm.caches.adjacencies, &cold.caches.adjacencies),
            (&warm.caches.plans, &cold.caches.plans),
            (&warm.caches.traces, &cold.caches.traces),
        ] {
            assert_eq!(warm_tier.misses, 0);
            assert_eq!(warm_tier.hits, cold_tier.hits + cold_tier.misses);
        }
    }
}

/// A 40-seed ALOHA × staggered grid: one 40-lane batch, so its whole
/// dispatch mix is 40 `dispatch_lane_scalar` runs.
fn aloha_lane_spec() -> SweepSpec {
    SweepSpec {
        windows: vec![6],
        slots: 160,
        mac: SweepMac::Aloha { p: 0.3 },
        traffic: SweepTraffic::Staggered(vec![4]),
        seeds: (1..=40).collect(),
        retries: vec![1],
        ..latsched_engine::builtin_sweep()
    }
}

/// A small Figure-2 search: three lattice and three coloring candidates on
/// a 6×6 window.
fn small_search_spec() -> SearchSpec {
    SearchSpec {
        window: 6,
        slots: 64,
        traffic: SweepTraffic::Bernoulli(vec![0.1]),
        seeds: vec![1, 2].into(),
        retries: vec![0, 1],
        budget: 3,
        ..latsched_engine::builtin_search()
    }
}

/// A profiled request's counters (by name) and per-tier cache stats.
type Profile = (Vec<(&'static str, u64)>, SweepCacheStats);

fn profile_of(snapshot: Option<TelemetrySnapshot>, caches: SweepCacheStats) -> Profile {
    let snapshot = snapshot.expect("profiled requests attach a snapshot");
    let counters = COUNTERS.iter().map(|&c| (c.name(), snapshot.counter(c)));
    (counters.collect(), caches)
}

fn sweep_profile(spec: &SweepSpec) -> Profile {
    let (report, _) = profile(|| run_sweep(spec, &SweepCaches::new()).unwrap());
    profile_of(report.telemetry, report.caches)
}

fn search_profile(spec: &SearchSpec) -> Profile {
    let (report, _) = profile(|| run_search(spec, &SweepCaches::new()).unwrap());
    profile_of(report.telemetry, report.caches)
}

/// Profiles two requests from two threads released together by a barrier,
/// for four rounds on fresh caches: every counter (steal claims included)
/// and every cache stat of each must equal its solo run.
fn assert_concurrent_profiles_match_solo(
    first: impl Fn() -> Profile + Sync,
    second: impl Fn() -> Profile + Sync,
) {
    let (solo_first, solo_second) = (first(), second());
    let barrier = Barrier::new(2);
    for round in 0..4 {
        let (got_first, got_second) = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                barrier.wait();
                first()
            });
            let b = scope.spawn(|| {
                barrier.wait();
                second()
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(got_first, solo_first, "round {round}: first request");
        assert_eq!(got_second, solo_second, "round {round}: second request");
    }
}

#[test]
fn concurrent_profiled_sweeps_each_report_only_their_own_work() {
    // Regression test: profiled reports used to window a process-global
    // registry, so a sweep running next to another embedded the other's
    // dispatches (the tiling grid reported the ALOHA grid's 40
    // `dispatch_lane_scalar` runs as its own).
    let (tiling, aloha) = (pinned_mix_spec(), aloha_lane_spec());
    assert_concurrent_profiles_match_solo(|| sweep_profile(&tiling), || sweep_profile(&aloha));
    let (counters, _) = sweep_profile(&aloha);
    assert!(counters.contains(&("dispatch_lane_scalar", 40)));
    let (counters, _) = sweep_profile(&tiling);
    assert!(counters.contains(&("dispatch_lane_scalar", 0)));
}

#[test]
fn concurrent_profiled_search_and_sweep_each_report_only_their_own_work() {
    let (search, aloha) = (small_search_spec(), aloha_lane_spec());
    assert_concurrent_profiles_match_solo(|| search_profile(&search), || sweep_profile(&aloha));
}

#[test]
fn a_profiled_search_places_its_enumeration_time() {
    // Both families enumerate under `candidate_enumerate`; the colouring
    // family builds one conflict graph and runs one generator per budget
    // slot (tdma, greedy-natural, greedy-degree).
    let (report, _) = profile(|| run_search(&small_search_spec(), &SweepCaches::new()).unwrap());
    let recording = report
        .telemetry
        .expect("profiled requests attach a snapshot");
    let enumerate =
        &recording.tree.children[&Stage::SearchCompile].children[&Stage::CandidateEnumerate];
    assert_eq!(enumerate.count, 1);
    assert_eq!(enumerate.children[&Stage::ConflictGraph].count, 1);
    assert_eq!(enumerate.children[&Stage::ColoringGenerator].count, 3);
}

#[test]
fn a_profile_records_each_of_its_requests_exactly_once() {
    // Three requests over shared caches, the last one warm: the profile's
    // recording is the sum of the three reports' own recordings, counter by
    // counter and stage by stage.
    let (sweep, search) = (pinned_mix_spec(), small_search_spec());
    let caches = SweepCaches::new();
    let (recordings, profiled) = profile(|| {
        [
            run_sweep(&sweep, &caches).unwrap().telemetry,
            run_search(&search, &caches).unwrap().telemetry,
            run_sweep(&sweep, &caches).unwrap().telemetry,
        ]
    });
    let recordings: Vec<TelemetrySnapshot> = recordings
        .into_iter()
        .map(|r| r.expect("requests inside a profile are profiled"))
        .collect();
    for c in COUNTERS {
        let sum: u64 = recordings.iter().map(|r| r.counter(c)).sum();
        assert_eq!(profiled.counter(c), sum, "{}", c.name());
    }
    for s in STAGES {
        let sum: u64 = recordings.iter().map(|r| r.stage(s).count).sum();
        assert_eq!(profiled.stage(s).count, sum, "{}", s.name());
    }
    // The last sweep ran warm: it built no trace.
    assert_eq!(recordings[2].counter(Counter::TraceMisses), 0);
}

#[test]
fn requests_outside_a_profile_stay_unprofiled_while_another_thread_profiles() {
    // One thread profiles, and a sweep on another thread, outside any
    // profile, runs meanwhile: profiling belongs to the thread's recorder.
    let spec = pinned_mix_spec();
    let barrier = Barrier::new(2);
    let (profiled, bystander) = std::thread::scope(|scope| {
        let profiler = scope.spawn(|| {
            profile(|| {
                barrier.wait();
                let report = run_sweep(&spec, &SweepCaches::new()).unwrap();
                barrier.wait();
                report
            })
            .0
        });
        let bystander = scope.spawn(|| {
            barrier.wait();
            let report = run_sweep(&spec, &SweepCaches::new()).unwrap();
            barrier.wait();
            report
        });
        (profiler.join().unwrap(), bystander.join().unwrap())
    });
    assert!(profiled.telemetry.is_some());
    assert!(bystander.telemetry.is_none(), "no profile, no telemetry");
    // Both still count their own lookups.
    assert_eq!(bystander.caches, profiled.caches);
    assert_eq!(bystander.per_run, profiled.per_run);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized grids across traffic families, MACs and axis sizes: the
    /// seven dispatch counters of a profiled sweep must sum to exactly the
    /// grid size (every simulated run bumps exactly one kernel path, every
    /// copied run the copy counter), and the lane accounting must cover
    /// exactly the lane-dispatched share.
    #[test]
    fn dispatch_counters_sum_to_grid_size_on_random_specs(
        windows_pick in 0usize..3,
        slots in 1u64..120,
        traffic_pick in 0usize..4,
        mac_pick in 0usize..2,
        seed_count in 1usize..5,
        retry_count in 1usize..3,
    ) {
        let spec = SweepSpec {
            windows: [vec![5], vec![6], vec![5, 7]][windows_pick].clone(),
            slots,
            traffic: match traffic_pick {
                0 => SweepTraffic::Bernoulli(vec![0.1, 0.3]),
                1 => SweepTraffic::Bernoulli(vec![0.25]),
                2 => SweepTraffic::Periodic(vec![3, 9]),
                _ => SweepTraffic::Staggered(vec![2, 5]),
            },
            mac: if mac_pick == 0 {
                SweepMac::Tiling
            } else {
                SweepMac::Aloha { p: 0.4 }
            },
            seeds: (1..=seed_count as u64).collect(),
            retries: (0..retry_count as u32).collect(),
            ..latsched_engine::builtin_sweep()
        };
        let (report, _) = profile(|| run_sweep(&spec, &SweepCaches::new()).unwrap());
        let snapshot = report.telemetry.expect("profiled sweeps attach a snapshot");
        let total: u64 = DISPATCH_COUNTERS
            .iter()
            .map(|&c| snapshot.counter(c))
            .sum();
        prop_assert_eq!(total, spec.num_runs() as u64);
        prop_assert_eq!(snapshot.dispatch_total(), spec.num_runs() as u64);
        prop_assert_eq!(
            snapshot.counter(Counter::LaneRuns),
            snapshot.counter(Counter::DispatchLaneScalar)
                + snapshot.counter(Counter::DispatchLaneBernoulli)
        );
    }
}
