//! Exact parity of the frame-compiled simulation kernel against the reference
//! slot-by-slot simulator: on every configuration — deterministic *and*
//! stochastic — both backends must report **identical** [`SimMetrics`] — every
//! counter and every energy figure, bit for bit. Stochastic parity is what the
//! counter-based RNG buys: Bernoulli traffic and slotted-ALOHA decisions are
//! pure functions of `(seed, node, slot)`, so the frame kernel replays them
//! without reproducing the reference kernel's draw order. The suite sweeps
//! randomized sublattice schedules, window geometries, neighbourhood shapes,
//! traffic models (periodic, staggered, Bernoulli), MAC families (tiling,
//! TDMA, colouring, slotted ALOHA), seeds, retry budgets and partially
//! conflicting explicit assignments (mixed clean/conflicted frame slots,
//! which the kernel's general loop resolves with bitset passes), pins the
//! closed-form analytic replay and the bit-sliced 64-seed lane kernel against
//! the explicit slot loop on randomized plans, and
//! additionally cross-checks the dimension-specialized coset reduction —
//! const-generic (`reduce_into_fixed` / `coset_rank_fixed`) and
//! runtime-dimension (`reduce_into_dyn` / `coset_rank_dyn`) — against the
//! generic lattice path.

use latsched::prelude::*;
use latsched::sensornet::SimMetrics;
use proptest::prelude::*;

fn run_both(network: &Network, config: &SimConfig) -> (SimMetrics, SimMetrics) {
    let frame = run_simulation_with(&FrameKernel::default(), network, config).unwrap();
    let reference = run_simulation_with(&ReferenceKernel, network, config).unwrap();
    (frame, reference)
}

/// The named neighbourhood suite: Figure 2 shapes plus the hexagonal cluster.
fn shape_pool() -> Vec<Prototile> {
    vec![
        shapes::moore(),
        shapes::euclidean_ball(2, 1).unwrap(),
        shapes::directional_antenna(),
        shapes::hex7(),
    ]
}

#[test]
fn frame_kernel_matches_reference_on_named_shapes_and_macs() {
    for shape in shape_pool() {
        let network = grid_network(6, &shape).unwrap();
        let macs = vec![
            tiling_mac(&shape).unwrap(),
            MacPolicy::Tdma,
            coloring_mac(&network).unwrap(),
        ];
        for mac in macs {
            let config = SimConfig {
                mac,
                traffic: TrafficModel::Periodic { period: 20 },
                slots: 333,
                max_retries: 3,
                ..SimConfig::default()
            };
            let (frame, reference) = run_both(&network, &config);
            assert_eq!(frame, reference, "shape {shape} mac {}", config.mac);
        }
    }
}

#[test]
fn frame_kernel_matches_reference_on_bernoulli_traffic() {
    // The headline of the counter-based RNG: stochastic traffic replays
    // bit-identically on the frame kernel for every MAC family.
    for shape in shape_pool() {
        let network = grid_network(6, &shape).unwrap();
        let macs = vec![
            tiling_mac(&shape).unwrap(),
            MacPolicy::Tdma,
            coloring_mac(&network).unwrap(),
            MacPolicy::SlottedAloha { p: 0.3 },
        ];
        for mac in macs {
            let config = SimConfig {
                mac,
                traffic: TrafficModel::Bernoulli { p: 0.12 },
                slots: 400,
                max_retries: 2,
                seed: 99,
                ..SimConfig::default()
            };
            let (frame, reference) = run_both(&network, &config);
            assert_eq!(frame, reference, "shape {shape} mac {}", config.mac);
            assert!(frame.packets_generated > 0);
        }
    }
}

#[test]
fn frame_kernel_matches_reference_on_slotted_aloha() {
    // Saturated ALOHA exercises the state-dependent draw pattern that made
    // sequential RNGs impossible to replay: only backlogged nodes draw.
    // Staggered periods above the 49 nodes leave most slots without a
    // generator.
    let network = grid_network(7, &shapes::moore()).unwrap();
    for (p_mac, traffic) in [
        (0.5, TrafficModel::Bernoulli { p: 0.25 }),
        (0.15, TrafficModel::Periodic { period: 4 }),
        (1.0, TrafficModel::Bernoulli { p: 0.05 }),
        (0.0, TrafficModel::Bernoulli { p: 0.5 }),
        (0.3, TrafficModel::Staggered { period: 100 }),
        (0.3, TrafficModel::Staggered { period: 1 << 23 }),
    ] {
        let config = SimConfig {
            mac: MacPolicy::SlottedAloha { p: p_mac },
            traffic,
            slots: 300,
            max_retries: 3,
            seed: 7,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        assert_eq!(frame, reference, "aloha p={p_mac} traffic {traffic}");
    }
}

#[test]
fn frame_kernel_matches_reference_on_staggered_traffic() {
    for shape in shape_pool() {
        let network = grid_network(5, &shape).unwrap();
        for period in [1, 3, 16, 100] {
            let config = SimConfig {
                mac: tiling_mac(&shape).unwrap(),
                traffic: TrafficModel::Staggered { period },
                slots: 333,
                max_retries: 2,
                ..SimConfig::default()
            };
            let (frame, reference) = run_both(&network, &config);
            assert_eq!(frame, reference, "shape {shape} staggered period {period}");
        }
    }
}

#[test]
fn frame_kernel_matches_reference_without_traffic_and_without_slots() {
    let network = grid_network(5, &shapes::moore()).unwrap();
    for config in [
        SimConfig {
            traffic: TrafficModel::None,
            slots: 77,
            ..SimConfig::default()
        },
        SimConfig {
            slots: 0,
            ..SimConfig::default()
        },
    ] {
        let (frame, reference) = run_both(&network, &config);
        assert_eq!(frame, reference);
    }
}

#[test]
fn frame_kernel_matches_reference_with_out_of_period_slot_assignments() {
    // Nodes whose assigned slot can never satisfy t ≡ slot (mod period) simply
    // never transmit; both backends must agree on that semantics.
    let network = grid_network(4, &shapes::moore()).unwrap();
    let n = network.len();
    let slots: Vec<usize> = (0..n)
        .map(|i| if i % 3 == 0 { 100 + i } else { i % 5 })
        .collect();
    let config = SimConfig {
        mac: MacPolicy::SlotAssignment { slots, period: 5 },
        traffic: TrafficModel::Periodic { period: 9 },
        slots: 200,
        max_retries: 1,
        ..SimConfig::default()
    };
    let (frame, reference) = run_both(&network, &config);
    assert_eq!(frame, reference);
    assert!(
        frame.packets_pending > 0,
        "silenced nodes accumulate backlog"
    );
}

#[test]
fn partially_conflicting_assignments_match_the_reference_simulator() {
    // A "restricted-window" style deployment: two dense slots whose candidates
    // interfere, plus one singleton slot that stays clean. The compiled plan
    // is conflicted, and the kernel must match the reference simulator bit
    // for bit on deterministic and stochastic workloads.
    use latsched::engine::{grid_adjacency, FramePlan, FrameSchedule};
    let shape = shapes::moore();
    let side = 6i64;
    let network = grid_network(side, &shape).unwrap();
    let n = network.len();
    let assignment: Vec<usize> = (0..n).map(|i| if i == n - 1 { 2 } else { i % 2 }).collect();

    // Engine view: the fused plan really is conflicted.
    let region = BoxRegion::square_window(2, side).unwrap();
    let adjacency = grid_adjacency(&region, &shape).unwrap();
    let frames = FrameSchedule::from_assignment(&assignment, 3).unwrap();
    let plan = FramePlan::new(&frames, &adjacency).unwrap();
    assert!(!plan.conflict_free());

    // Simulator view: exact parity across both backends.
    for traffic in [
        TrafficModel::Periodic { period: 5 },
        TrafficModel::Bernoulli { p: 0.2 },
    ] {
        let config = SimConfig {
            mac: MacPolicy::SlotAssignment {
                slots: assignment.clone(),
                period: 3,
            },
            traffic,
            slots: 240,
            max_retries: 2,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        assert_eq!(frame, reference, "traffic {traffic}");
        assert!(frame.collisions > 0, "conflicted slots really collide");
        assert!(frame.packets_delivered > 0, "clean slot really delivers");
    }
}

#[test]
fn frame_kernel_matches_reference_on_bursts_past_the_parallel_threshold() {
    // 96×96 = 9216 nodes, all in one slot: the first full burst resolves
    // ≥ PARALLEL_THRESHOLD transmitters at once, so the general loop's
    // interference outcome pass fans out across workers (at
    // LATSCHED_THREADS ≥ 2), under a one-slot assignment and under ALOHA
    // with p = 1.
    let network = grid_network(96, &shapes::moore()).unwrap();
    let n = network.len();
    assert!(n >= latsched::engine::parallel::PARALLEL_THRESHOLD);
    for mac in [
        MacPolicy::SlotAssignment {
            slots: vec![0; n],
            period: 1,
        },
        MacPolicy::SlottedAloha { p: 1.0 },
    ] {
        let config = SimConfig {
            mac,
            traffic: TrafficModel::Periodic { period: 3 },
            slots: 8,
            max_retries: 1,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        assert_eq!(frame, reference, "mac {}", config.mac);
        assert_eq!(frame.transmissions, 6 * n as u64, "every burst is full");
        assert!(frame.collisions > 0 && frame.packets_dropped > 0);
    }
}

#[test]
fn frame_kernel_matches_reference_with_zero_retries_under_heavy_load() {
    // Period-1 traffic saturates every queue; colliding schedules then exercise
    // the drop path in every slot.
    let network = grid_network(5, &shapes::moore()).unwrap();
    let n = network.len();
    let config = SimConfig {
        // Everyone in slot 0 of a 2-slot period: maximal collisions.
        mac: MacPolicy::SlotAssignment {
            slots: vec![0; n],
            period: 2,
        },
        traffic: TrafficModel::Periodic { period: 1 },
        slots: 64,
        max_retries: 0,
        ..SimConfig::default()
    };
    let (frame, reference) = run_both(&network, &config);
    assert_eq!(frame, reference);
    assert!(frame.collisions > 0);
    assert!(frame.packets_dropped > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sublattice schedules on randomized windows: the frame kernel
    /// must reproduce the reference metrics exactly.
    #[test]
    fn frame_kernel_matches_reference_on_random_sublattice_schedules(
        basis in ((1i64..4), (0i64..4), (-3i64..4), (1i64..4)),
        window in (-20i64..20, -20i64..20, 3i64..8, 3i64..8),
        traffic_period in 1u64..40,
        slots in 1u64..300,
        max_retries in 0u32..4,
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
        let tiling = Tiling::from_sublattice(prototile.clone(), lambda).unwrap();
        let schedule = theorem1::schedule_from_tiling(&tiling);

        let (x0, y0, w, h) = window;
        let region = BoxRegion::new(
            Point::xy(x0, y0),
            Point::xy(x0 + w - 1, y0 + h - 1),
        ).unwrap();
        let network = Network::from_window(
            &region,
            latsched::core::Deployment::Homogeneous(prototile),
        ).unwrap();

        let config = SimConfig {
            mac: MacPolicy::TilingSchedule(schedule),
            traffic: TrafficModel::Periodic { period: traffic_period },
            slots,
            max_retries,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(frame, reference);
    }

    /// Randomized named-shape workloads across MAC families and retry budgets.
    #[test]
    fn frame_kernel_matches_reference_on_random_named_workloads(
        shape_idx in 0usize..4,
        side in 3i64..8,
        traffic_period in 1u64..48,
        slots in 1u64..400,
        max_retries in 0u32..6,
        mac_idx in 0usize..3,
    ) {
        let shape = shape_pool()[shape_idx].clone();
        let network = grid_network(side, &shape).unwrap();
        let mac = match mac_idx {
            0 => tiling_mac(&shape).unwrap(),
            1 => MacPolicy::Tdma,
            _ => coloring_mac(&network).unwrap(),
        };
        let config = SimConfig {
            mac,
            traffic: TrafficModel::Periodic { period: traffic_period },
            slots,
            max_retries,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(frame, reference);
    }

    /// Randomized stochastic workloads: Bernoulli traffic under deterministic
    /// and random-access MACs, across seeds and retry budgets, must replay
    /// bit-identically on the frame kernel thanks to the counter-based RNG.
    #[test]
    fn frame_kernel_matches_reference_on_random_stochastic_workloads(
        shape_idx in 0usize..4,
        side in 3i64..7,
        p_traffic in 0.01f64..0.5,
        p_aloha in 0.0f64..1.0,
        mac_choice in 0usize..2,
        slots in 1u64..300,
        max_retries in 0u32..5,
        seed in 0u64..1000,
    ) {
        let shape = shape_pool()[shape_idx].clone();
        let network = grid_network(side, &shape).unwrap();
        let mac = if mac_choice == 0 {
            MacPolicy::SlottedAloha { p: p_aloha }
        } else {
            tiling_mac(&shape).unwrap()
        };
        let config = SimConfig {
            mac,
            traffic: TrafficModel::Bernoulli { p: p_traffic },
            slots,
            max_retries,
            seed,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(frame, reference);
    }

    /// Randomized staggered-periodic workloads agree across both backends.
    #[test]
    fn frame_kernel_matches_reference_on_random_staggered_workloads(
        shape_idx in 0usize..4,
        side in 3i64..7,
        traffic_period in 1u64..48,
        slots in 1u64..300,
        max_retries in 0u32..4,
        mac_idx in 0usize..3,
    ) {
        let shape = shape_pool()[shape_idx].clone();
        let network = grid_network(side, &shape).unwrap();
        let mac = match mac_idx {
            0 => tiling_mac(&shape).unwrap(),
            1 => MacPolicy::Tdma,
            _ => coloring_mac(&network).unwrap(),
        };
        let config = SimConfig {
            mac,
            traffic: TrafficModel::Staggered { period: traffic_period },
            slots,
            max_retries,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(frame, reference);
    }

    /// The dispatching entry point agrees with both explicit backends on
    /// deterministic configurations (i.e. the fast path is the default path).
    #[test]
    fn run_simulation_dispatches_to_an_equivalent_backend(
        side in 3i64..6,
        traffic_period in 1u64..32,
        slots in 1u64..200,
    ) {
        let shape = shapes::moore();
        let network = grid_network(side, &shape).unwrap();
        let config = SimConfig {
            mac: tiling_mac(&shape).unwrap(),
            traffic: TrafficModel::Periodic { period: traffic_period },
            slots,
            ..SimConfig::default()
        };
        let dispatched = run_simulation(&network, &config).unwrap();
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(&dispatched, &frame);
        prop_assert_eq!(&dispatched, &reference);
    }

    /// Cross-check of the dimension-specialized coset arithmetic: over several
    /// coset periods of a random 2-D sublattice, `reduce_into_fixed` and
    /// `coset_rank_fixed` agree with the generic `reduce_into` / `coset_rank`.
    #[test]
    fn fixed_reduction_matches_generic_reduction_d2(
        basis in ((1i64..6), (0i64..6), (-5i64..6), (1i64..6)),
        offset in (-50i64..50, -50i64..50),
    ) {
        let (a, b, c, d) = basis;
        if a * d - b * c == 0 {
            return Ok(());
        }
        let lambda = match Sublattice::from_vectors(&[Point::xy(a, b), Point::xy(c, d)]) {
            Ok(lambda) => lambda,
            Err(_) => return Ok(()),
        };
        let fixed = lambda.fixed_reducer::<2>().unwrap();
        let (ox, oy) = offset;
        // A block larger than one coset period in each direction.
        for x in ox..ox + 8 {
            for y in oy..oy + 8 {
                let mut generic = [x, y];
                lambda.reduce_into(&mut generic).unwrap();
                let mut specialized = [x, y];
                fixed.reduce_into_fixed(&mut specialized);
                prop_assert_eq!(specialized, generic, "at ({}, {})", x, y);
                let mut for_rank = [x, y];
                prop_assert_eq!(
                    fixed.coset_rank_fixed(&mut for_rank),
                    lambda.coset_rank(&Point::xy(x, y)).unwrap()
                );
            }
        }
    }

    /// Randomized partially conflicting deployments: explicit slot
    /// assignments with dense shared slots and sparse singleton slots, so the
    /// compiled plan mixes conflicted and clean slots. The kernel must match
    /// the reference simulator bit for bit across every traffic model.
    #[test]
    fn frame_kernel_matches_reference_on_partially_conflicting_assignments(
        side in 3i64..7,
        period in 2usize..6,
        assign_seed in 0u64..1000,
        traffic_idx in 0usize..3,
        traffic_param in 1u64..24,
        p_traffic in 0.05f64..0.4,
        slots in 1u64..250,
        max_retries in 0u32..4,
        seed in 0u64..1000,
    ) {
        let shape = shapes::moore();
        let network = grid_network(side, &shape).unwrap();
        let n = network.len();
        // Derandomized assignment: a cheap hash of (node, assign_seed) picks
        // each node's slot, yielding dense (conflicted) and occasionally
        // sparse (clean) frame slots.
        let assignment: Vec<usize> = (0..n as u64)
            .map(|i| {
                let mut h = i
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(assign_seed.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                h ^= h >> 31;
                (h % period as u64) as usize
            })
            .collect();
        let traffic = match traffic_idx {
            0 => TrafficModel::Periodic { period: traffic_param },
            1 => TrafficModel::Staggered { period: traffic_param },
            _ => TrafficModel::Bernoulli { p: p_traffic },
        };
        let config = SimConfig {
            mac: MacPolicy::SlotAssignment { slots: assignment, period },
            traffic,
            slots,
            max_retries,
            seed,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(frame, reference);
    }

    /// Cross-check of the runtime-dimension coset arithmetic at d = 4 (the
    /// `DynReducer` gap the const-generic fast paths do not cover): over
    /// several coset periods of a random upper-triangular sublattice, the
    /// division-free reduction agrees with the generic one.
    #[test]
    fn dyn_reduction_matches_generic_reduction_d4(
        diag in (1i64..4, 1i64..4, 1i64..4, 1i64..4),
        upper_a in (0i64..4, 0i64..4, 0i64..4),
        upper_b in (0i64..4, 0i64..4, 0i64..4),
        offset in (-20i64..20, -20i64..20, -20i64..20, -20i64..20),
    ) {
        let (d0, d1, d2, d3) = diag;
        let (u01, u02, u03) = upper_a;
        let (u12, u13, u23) = upper_b;
        let lambda = Sublattice::from_vectors(&[
            Point::new(vec![d0, u01, u02, u03]),
            Point::new(vec![0, d1, u12, u13]),
            Point::new(vec![0, 0, d2, u23]),
            Point::new(vec![0, 0, 0, d3]),
        ]).unwrap();
        let dynr = lambda.dyn_reducer().unwrap();
        let (ox, oy, oz, ow) = offset;
        for x in ox..ox + 4 {
            for y in oy..oy + 4 {
                for z in oz..oz + 4 {
                    for w in ow..ow + 4 {
                        let p = Point::new(vec![x, y, z, w]);
                        let mut generic = [x, y, z, w];
                        lambda.reduce_into(&mut generic).unwrap();
                        let mut specialized = [x, y, z, w];
                        dynr.reduce_into_dyn(&mut specialized);
                        prop_assert_eq!(specialized, generic, "at {}", p);
                        let mut for_rank = [x, y, z, w];
                        prop_assert_eq!(
                            dynr.coset_rank_dyn(&mut for_rank),
                            lambda.coset_rank(&p).unwrap()
                        );
                    }
                }
            }
        }
    }

    /// Same cross-check in three dimensions.
    #[test]
    fn fixed_reduction_matches_generic_reduction_d3(
        diag in (1i64..4, 1i64..4, 1i64..4),
        upper in (0i64..4, 0i64..4, 0i64..4),
        offset in (-20i64..20, -20i64..20, -20i64..20),
    ) {
        let (d0, d1, d2) = diag;
        let (u01, u02, u12) = upper;
        let lambda = Sublattice::from_vectors(&[
            Point::xyz(d0, u01, u02),
            Point::xyz(0, d1, u12),
            Point::xyz(0, 0, d2),
        ]).unwrap();
        let fixed = lambda.fixed_reducer::<3>().unwrap();
        let (ox, oy, oz) = offset;
        for x in ox..ox + 5 {
            for y in oy..oy + 5 {
                for z in oz..oz + 5 {
                    let mut generic = [x, y, z];
                    lambda.reduce_into(&mut generic).unwrap();
                    let mut specialized = [x, y, z];
                    fixed.reduce_into_fixed(&mut specialized);
                    prop_assert_eq!(specialized, generic, "at ({}, {}, {})", x, y, z);
                    let mut for_rank = [x, y, z];
                    prop_assert_eq!(
                        fixed.coset_rank_fixed(&mut for_rank),
                        lambda.coset_rank(&Point::xyz(x, y, z)).unwrap()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized clean scheduled runs: the closed-form analytic replay (the
    /// `run_frames` fast path for conflict-free plans) must reproduce the
    /// general slot loop bit for bit, across periodic, staggered and
    /// trace-compiled Bernoulli traffic, retry budgets and seeds.
    #[test]
    fn analytic_replay_matches_the_slot_loop_on_clean_schedules(
        side in 3i64..8,
        period_extra in 0usize..3,
        traffic_idx in 0usize..3,
        traffic_param in 1u64..24,
        p_traffic in 0.02f64..0.5,
        slots in 0u64..250,
        max_retries in 0u32..4,
        seed in 0u64..1000,
    ) {
        use latsched::engine::{
            grid_adjacency, run_frames, run_frames_loop, FramePlan, FrameSchedule, KernelConfig,
            KernelMac, KernelTraffic, TrafficTrace,
        };
        let shape = shapes::moore();
        let region = BoxRegion::square_window(2, side).unwrap();
        let adjacency = grid_adjacency(&region, &shape).unwrap();
        let n = adjacency.num_nodes();
        // One node per slot: conflict-free by construction, with optional
        // trailing empty slots so the frame period stays arbitrary.
        let assignment: Vec<usize> = (0..n).collect();
        let frames = FrameSchedule::from_assignment(&assignment, n + period_extra).unwrap();
        let plan = FramePlan::new(&frames, &adjacency).unwrap();
        prop_assert!(plan.conflict_free());
        let traffic = match traffic_idx {
            0 => KernelTraffic::Periodic { period: traffic_param },
            1 => KernelTraffic::Staggered { period: traffic_param },
            _ => KernelTraffic::Trace(
                TrafficTrace::bernoulli(&plan, seed, p_traffic, slots).unwrap().into(),
            ),
        };
        let config = KernelConfig {
            slots,
            traffic,
            mac: KernelMac::Scheduled,
            max_retries,
            seed,
        };
        let analytic = run_frames(&plan, &config).unwrap();
        let looped = run_frames_loop(&plan, &config).unwrap();
        prop_assert_eq!(analytic, looped);
    }

    /// Randomized *sparsely conflicted* deployments: a clean one-node-per-
    /// slot assignment with a few nodes moved onto their line neighbour's
    /// slot, so at most three of its ≥ 16 slots conflict. No engine request
    /// builds such a plan (every engine schedule is a tiling or a proper
    /// colouring); only an improper explicit assignment does, and the frame
    /// kernel runs it on its general loop. It must match the reference
    /// simulator bit for bit across periodic and staggered traffic, retries
    /// and slot counts.
    #[test]
    fn frame_kernel_matches_reference_on_sparsely_conflicted_assignments(
        side in 4i64..8,
        moved in 1usize..4,
        move_seed in 0u64..1000,
        staggered in 0u8..2,
        traffic_param in 1u64..24,
        slots in 0u64..250,
        max_retries in 0u32..4,
    ) {
        use latsched::engine::{grid_adjacency, FramePlan, FrameSchedule};
        let shape = shapes::moore();
        let network = grid_network(side, &shape).unwrap();
        let n = network.len();
        let line = side as usize;
        // Start clean (one node per slot), then move a few hash-picked nodes
        // onto their successor's slot. The window is lexicographic, so a pick
        // that ends a line moves its predecessor instead: the moved node and
        // its successor are line neighbours, which interfere under the Moore
        // shape, and the last move leaves at least one conflicted slot.
        let mut assignment: Vec<usize> = (0..n).collect();
        for k in 0..moved {
            let mut h = (k as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(move_seed.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            h ^= h >> 31;
            let mut v = (h % (n as u64 - 1)) as usize;
            if v % line == line - 1 {
                v -= 1;
            }
            assignment[v] = assignment[v + 1];
        }
        // Engine view: the fused plan really is conflicted.
        let region = BoxRegion::square_window(2, side).unwrap();
        let adjacency = grid_adjacency(&region, &shape).unwrap();
        let frames = FrameSchedule::from_assignment(&assignment, n).unwrap();
        let plan = FramePlan::new(&frames, &adjacency).unwrap();
        prop_assert!(!plan.conflict_free());
        let traffic = if staggered == 1 {
            TrafficModel::Staggered { period: traffic_param }
        } else {
            TrafficModel::Periodic { period: traffic_param }
        };
        let config = SimConfig {
            mac: MacPolicy::SlotAssignment { slots: assignment, period: n },
            traffic,
            slots,
            max_retries,
            ..SimConfig::default()
        };
        let (frame, reference) = run_both(&network, &config);
        prop_assert_eq!(frame, reference);
    }

    /// Each lane of the bit-sliced multi-seed kernel equals the scalar kernel
    /// run of that lane's seed — on clean and partially conflicting plans,
    /// under scheduled and slotted-ALOHA access, across periodic, staggered
    /// and Bernoulli traffic (per-lane head slots, and arrival bitmaps under
    /// Bernoulli traffic), with partial (<64) batches.
    #[test]
    fn lane_kernel_matches_scalar_runs_on_random_plans(
        side in 3i64..7,
        clean in 0u8..2,
        period in 1usize..6,
        assign_seed in 0u64..1000,
        aloha in 0u8..2,
        p_aloha in 0.0f64..1.0,
        traffic_idx in 0u8..3,
        traffic_param in 1u64..16,
        p_traffic in 0.02f64..0.6,
        slots in 0u64..200,
        max_retries in 0u32..4,
        seed0 in 0u64..1000,
        lane_count in 1usize..7,
    ) {
        use latsched::engine::{
            grid_adjacency, run_frames, run_frames_lanes, FramePlan, FrameSchedule, KernelConfig,
            KernelMac, KernelTraffic,
        };
        let shape = shapes::moore();
        let region = BoxRegion::square_window(2, side).unwrap();
        let adjacency = grid_adjacency(&region, &shape).unwrap();
        let n = adjacency.num_nodes();
        let (assignment, frame_period) = if clean == 1 {
            // One node per slot: conflict-free.
            ((0..n).collect::<Vec<usize>>(), n)
        } else {
            // Hash-randomized dense slots: mixed clean/conflicted.
            let assignment = (0..n as u64)
                .map(|i| {
                    let mut h = i
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(assign_seed.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    h ^= h >> 31;
                    (h % period as u64) as usize
                })
                .collect();
            (assignment, period)
        };
        let frames = FrameSchedule::from_assignment(&assignment, frame_period).unwrap();
        let plan = FramePlan::new(&frames, &adjacency).unwrap();
        let traffic = match traffic_idx {
            0 => KernelTraffic::Periodic { period: traffic_param },
            1 => KernelTraffic::Staggered { period: traffic_param },
            _ => KernelTraffic::Bernoulli { p: p_traffic },
        };
        let mac = if aloha == 1 {
            KernelMac::Aloha { p: p_aloha }
        } else {
            KernelMac::Scheduled
        };
        let seeds: Vec<u64> = (0..lane_count as u64).map(|l| seed0 + l * 13).collect();
        let config = KernelConfig {
            slots,
            traffic,
            mac,
            max_retries,
            seed: 0,
        };
        let lanes = run_frames_lanes(&plan, &config, &seeds).unwrap();
        prop_assert_eq!(lanes.len(), seeds.len());
        for (l, &seed) in seeds.iter().enumerate() {
            let scalar = run_frames(&plan, &KernelConfig { seed, ..config.clone() }).unwrap();
            prop_assert_eq!(&lanes[l], &scalar, "lane {} seed {}", l, seed);
        }
    }
}
