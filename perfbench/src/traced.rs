//! The traced pass: per-layer numbers for one workload.
//!
//! Each pass serves one cold and one warm request (timed whole, as in the
//! end-to-end pass, for the store counters and a same-process reference
//! time), then replays the cold request as timed calls into each layer's
//! public functions — spec parse, shape compile, window assignment,
//! adjacency, plan fuse, trace compile, kernel runs, folds, merge,
//! serialization, warm cache lookups. The replay's outputs are checked
//! against the oracle too, so a replay that drifts from what the engine
//! does fails instead of timing something else. Nothing here reads the
//! engine's telemetry registry.

use crate::e2e::panic_message;
use crate::metrics::{median, BenchResult, Tally, LAYER_SUM_PARTS, PER_LAYER};
use crate::workload::{one, serve, Oracle, Served};
use crate::Args;
use latsched_coloring::{
    annealing_coloring, dsatur_coloring, exact_coloring, greedy_coloring, tdma_coloring,
    AnnealingParams, Coloring, ConflictGraph, GreedyOrder, InterferenceGraph,
};
use latsched_core::{optimality, theorem1, Deployment};
use latsched_engine::parallel::worker_threads;
use latsched_engine::{
    compile_shape, count_values, grid_adjacency, run_frames, run_frames_lanes, CompiledSchedule,
    EngineError, FramePlan, FrameSchedule, GroupBy, GroupFolds, InterferenceCsr, KernelConfig,
    KernelCounts, KernelMac, KernelTraffic, OnlineFold, SearchFamily, SearchReport, SearchSpec,
    StoreStats, SweepCacheStats, SweepCaches, SweepMac, SweepMode, SweepReport, SweepSpec,
    SweepTraffic, TrafficTrace,
};
use latsched_lattice::BoxRegion;
use latsched_tiling::sublattice_search::tiling_sublattices;
use latsched_tiling::{Prototile, Tiling};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Display;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sampled passes a run makes at least, after one discarded warm-up pass.
const MIN_PASSES: usize = 3;

/// Graphs above this many vertices skip the `exact` colouring generator, as
/// the engine's search does.
const EXACT_MAX_VERTICES: usize = 49;

const COLD_MISSES: [&str; 5] = [
    "store.cold.schedules.misses",
    "store.cold.adjacencies.misses",
    "store.cold.plans.misses",
    "store.cold.traces.misses",
    "store.cold.searches.misses",
];

const WARM_HITS: [&str; 5] = [
    "store.warm.schedules.hits",
    "store.warm.adjacencies.hits",
    "store.warm.plans.hits",
    "store.warm.traces.hits",
    "store.warm.searches.hits",
];

fn tiers(stats: &SweepCacheStats) -> [StoreStats; 5] {
    [
        stats.schedules,
        stats.adjacencies,
        stats.plans,
        stats.traces,
        stats.searches,
    ]
}

fn text<E: Display>(e: E) -> String {
    e.to_string()
}

/// The per-layer values of one pass, keyed by metric name.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.get_mut(name).expect("a per-layer metric") += value;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        *self.0.get_mut(name).expect("a per-layer metric") = value;
    }

    /// Runs `f`, adding its wall time to `name` (in µs for `_us` metrics, ms
    /// otherwise).
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
        self.add(name, seconds * scale);
        out
    }
}

/// One kernel work item: a scalar run, or a lane batch of up to 64 seeds.
struct Item {
    plan: Arc<FramePlan>,
    config: KernelConfig,
    lane_seeds: Option<Vec<u64>>,
}

impl Item {
    fn run(&self) -> Result<Vec<KernelCounts>, EngineError> {
        match &self.lane_seeds {
            Some(seeds) => run_frames_lanes(&self.plan, &self.config, seeds),
            None => run_frames(&self.plan, &self.config).map(|c| vec![c]),
        }
    }
}

/// Runs every item sequentially (the kernel layer's time and rate). Returns
/// per-run counts in order.
fn kernel_phase(
    items: &[Item],
    node_slots: f64,
    layers: &mut Layers,
) -> Result<Vec<KernelCounts>, String> {
    let lanes = items.iter().any(|item| item.lane_seeds.is_some());
    let (time_name, rate_name) = if lanes {
        ("simkernel.lanes_ms", "simkernel.lanes_node_slots_per_s")
    } else {
        ("simkernel.run_ms", "simkernel.run_node_slots_per_s")
    };
    let start = Instant::now();
    let sequential = items
        .iter()
        .map(Item::run)
        .collect::<Result<Vec<_>, _>>()
        .map_err(text)?;
    let sequential_s = start.elapsed().as_secs_f64();
    layers.add(time_name, sequential_s * 1e3);
    layers.add(rate_name, node_slots / sequential_s);
    Ok(sequential.into_iter().flatten().collect())
}

/// Folds per-run counts into `4 × threads` bands of group accumulators
/// (`aggregate.fold_ms`), then merges the bands in order
/// (`aggregate.merge_us`).
fn fold_phase(
    counts: &[KernelCounts],
    group_of: impl Fn(usize) -> usize,
    groups: usize,
    layers: &mut Layers,
) -> Vec<OnlineFold> {
    let bands = (4 * worker_threads()).clamp(1, counts.len().max(1));
    let per_band = counts.len().div_ceil(bands).max(1);
    let folds: Vec<GroupFolds> = layers.time("aggregate.fold_ms", || {
        counts
            .chunks(per_band)
            .enumerate()
            .map(|(b, band)| {
                let mut folds = GroupFolds::new(groups);
                for (i, c) in band.iter().enumerate() {
                    folds.observe(group_of(b * per_band + i), c);
                }
                folds
            })
            .collect()
    });
    layers.time("aggregate.merge_us", || {
        let mut dense = vec![OnlineFold::new(); groups];
        for band in &folds {
            band.merge_into(&mut dense);
        }
        dense
    })
}

/// Compiles one Bernoulli trace, counting it and its computed size.
fn compile_trace(
    plan: &FramePlan,
    seed: u64,
    p: f64,
    slots: u64,
    layers: &mut Layers,
) -> Result<Arc<TrafficTrace>, String> {
    let trace = layers.time("simkernel.trace_ms", || {
        TrafficTrace::bernoulli(plan, seed, p, slots)
    });
    let bytes = plan.num_nodes().div_ceil(64) as f64 * slots as f64 * 8.0 + slots as f64 * 4.0;
    layers.add("simkernel.trace_count", 1.0);
    layers.add("simkernel.trace_mb", bytes / 1e6);
    trace.map(Arc::new).map_err(text)
}

fn build_plan(
    assignment: &[usize],
    period: usize,
    adjacency: &InterferenceCsr,
    layers: &mut Layers,
) -> Result<Arc<FramePlan>, String> {
    layers.add("frames.plan_count", 1.0);
    layers
        .time("frames.plan_ms", || {
            FrameSchedule::from_assignment(assignment, period)
                .and_then(|frames| FramePlan::new(&frames, adjacency))
        })
        .map(Arc::new)
        .map_err(text)
}

fn redundant_share(counts: &[KernelCounts]) -> f64 {
    let distinct: BTreeSet<[u64; 11]> = counts.iter().map(count_values).collect();
    1.0 - distinct.len() as f64 / counts.len().max(1) as f64
}

fn expect_hit<T>(tier: &str, lookup: Result<(T, bool), EngineError>) -> Result<(), String> {
    match lookup {
        Ok((_, true)) => Ok(()),
        Ok((_, false)) => Err(format!("warm {tier} lookup missed")),
        Err(e) => Err(text(e)),
    }
}

/// The traffic model of traffic-axis value `ti` for inline draws.
fn inline_traffic(traffic: &SweepTraffic, ti: usize) -> KernelTraffic {
    match traffic {
        SweepTraffic::Bernoulli(loads) => KernelTraffic::Bernoulli { p: loads[ti] },
        SweepTraffic::Periodic(periods) => KernelTraffic::Periodic {
            period: periods[ti],
        },
        SweepTraffic::Staggered(periods) => KernelTraffic::Staggered {
            period: periods[ti],
        },
    }
}

/// The artifacts of one sweep window.
struct Window {
    region: BoxRegion,
    adjacency: InterferenceCsr,
    assignment: Vec<usize>,
    period: usize,
    plan: Arc<FramePlan>,
}

/// Replays a sweep request layer by layer, as `run_sweep` serves it: tiling
/// grids as scalar runs over compiled traces, multi-seed ALOHA grids as lane
/// batches without traces.
fn replay_sweep(
    spec_text: &str,
    oracle: &Oracle,
    warm: &SweepCaches,
    cold: &SweepReport,
    layers: &mut Layers,
) -> Result<(), String> {
    let (spec, shape) = layers.time("sweep.parse_ms", || -> Result<_, String> {
        let spec = one(SweepSpec::parse_spec(spec_text).map_err(text)?)?;
        let shape = spec.shape.prototile().map_err(text)?;
        Ok((spec, shape))
    })?;
    let lanes = matches!(spec.mac, SweepMac::Aloha { .. }) && spec.seeds.len() > 1;
    let compiled = match spec.mac {
        SweepMac::Tiling => Some(
            layers
                .time("compiled.compile_ms", || compile_shape(&shape))
                .map_err(text)?,
        ),
        SweepMac::Aloha { .. } => None,
    };
    let mut windows = Vec::with_capacity(spec.windows.len());
    for &side in &spec.windows {
        let (region, adjacency) = layers.time("sweep.adjacency_ms", || -> Result<_, String> {
            let region = BoxRegion::square_window(spec.shape.dim(), side).map_err(text)?;
            let adjacency = grid_adjacency(&region, &shape).map_err(text)?;
            Ok((region, adjacency))
        })?;
        let (assignment, period) = match &compiled {
            Some(compiled) => {
                let slots = layers
                    .time("compiled.assign_ms", || compiled.slots_of_region(&region))
                    .map_err(text)?;
                (
                    slots.into_iter().map(usize::from).collect(),
                    compiled.num_slots(),
                )
            }
            // ALOHA: every node is a candidate of a 1-slot frame.
            None => (vec![0; adjacency.num_nodes()], 1),
        };
        let plan = build_plan(&assignment, period, &adjacency, layers)?;
        windows.push(Window {
            region,
            adjacency,
            assignment,
            period,
            plan,
        });
    }

    let trace_loads: &[f64] = match (&spec.traffic, lanes) {
        (SweepTraffic::Bernoulli(loads), false) => loads,
        _ => &[],
    };
    let mut traces: HashMap<(usize, u64, u64), Arc<TrafficTrace>> = HashMap::new();
    for (w, window) in windows.iter().enumerate() {
        for &p in trace_loads {
            for seed in spec.seeds.iter() {
                let trace = compile_trace(&window.plan, seed, p, spec.slots, layers)?;
                traces.insert((w, seed, p.to_bits()), trace);
            }
        }
    }

    let mac = match spec.mac {
        SweepMac::Tiling => KernelMac::Scheduled,
        SweepMac::Aloha { p } => KernelMac::Aloha { p },
    };
    let s = spec.seeds.len();
    let mut items = Vec::new();
    for (w, window) in windows.iter().enumerate() {
        for ti in 0..spec.traffic.len() {
            for &max_retries in &spec.retries {
                let config = |seed: u64, traffic: KernelTraffic| KernelConfig {
                    slots: spec.slots,
                    traffic,
                    mac: mac.clone(),
                    max_retries,
                    seed,
                };
                let mut si = 0;
                while si < s {
                    let seed = spec.seeds.get(si);
                    if lanes {
                        let batch: Vec<u64> =
                            (si..s.min(si + 64)).map(|i| spec.seeds.get(i)).collect();
                        si += batch.len();
                        items.push(Item {
                            plan: Arc::clone(&window.plan),
                            config: config(seed, inline_traffic(&spec.traffic, ti)),
                            lane_seeds: Some(batch),
                        });
                    } else {
                        let traffic = match &spec.traffic {
                            SweepTraffic::Bernoulli(loads) => KernelTraffic::Trace(Arc::clone(
                                &traces[&(w, seed, loads[ti].to_bits())],
                            )),
                            other => inline_traffic(other, ti),
                        };
                        si += 1;
                        items.push(Item {
                            plan: Arc::clone(&window.plan),
                            config: config(seed, traffic),
                            lane_seeds: None,
                        });
                    }
                }
            }
        }
    }
    let counts = kernel_phase(&items, oracle.node_slots, layers)?;
    if counts != oracle.per_run {
        return Err("replayed runs differ from the oracle".into());
    }
    layers.set("sweep.redundant_run_share", redundant_share(&counts));
    if let SweepMode::Streaming(group_spec) = &spec.mode {
        let grouping = layers
            .time("aggregate.fold_ms", || GroupBy::for_spec(&spec, group_spec))
            .map_err(text)?;
        let folds = fold_phase(
            &counts,
            |run| grouping.group_of_run(run),
            grouping.num_groups(),
            layers,
        );
        if grouping.reports(&spec, folds) != oracle.groups {
            return Err("replayed group folds differ from the oracle".into());
        }
    }
    layers.time("sweep.serialize_ms", || {
        serde_json::to_string(&cold.to_json_value())
    });

    layers.time("store.warm_lookup_ms", || -> Result<(), String> {
        for window in &windows {
            expect_hit(
                "adjacency",
                warm.adjacencies
                    .get_or_build_tracked(&window.region, &shape),
            )?;
            if compiled.is_some() {
                expect_hit("schedule", warm.schedules.get_or_compile_tracked(&shape))?;
            }
            expect_hit(
                "plan",
                warm.plans.get_or_build_tracked(
                    &window.assignment,
                    window.period,
                    &window.adjacency,
                ),
            )?;
            for &p in trace_loads {
                for seed in spec.seeds.iter() {
                    expect_hit(
                        "trace",
                        warm.traces
                            .get_or_build_tracked(&window.plan, seed, p, spec.slots),
                    )?;
                }
            }
        }
        Ok(())
    })
}

/// The colouring-family candidates in the engine's generator order: TDMA,
/// greedy (natural, then largest-degree-first), DSATUR, annealing, and exact
/// branch-and-bound on small graphs, capped at `budget` generators.
fn coloring_candidates(conflicts: &ConflictGraph, budget: usize) -> Result<Vec<Coloring>, String> {
    let mut produced: Vec<Coloring> = Vec::new();
    for generator in 0..6.min(budget) {
        let coloring = match generator {
            0 => tdma_coloring(conflicts),
            1 => greedy_coloring(conflicts, GreedyOrder::Natural),
            2 => greedy_coloring(conflicts, GreedyOrder::LargestDegreeFirst),
            3 => dsatur_coloring(conflicts),
            4 => annealing_coloring(conflicts, &AnnealingParams::default()),
            _ if conflicts.len() > EXACT_MAX_VERTICES => continue,
            // DSATUR's colour count bounds the branch-and-bound.
            _ => exact_coloring(conflicts, produced[3].colors_used),
        };
        produced.push(coloring.map_err(text)?);
    }
    Ok(produced)
}

/// Replays a search request layer by layer, as `run_search` serves it cold.
fn replay_search(
    spec_text: &str,
    oracle: &Oracle,
    warm: &SweepCaches,
    cold: &SearchReport,
    layers: &mut Layers,
) -> Result<(), String> {
    let outcome = oracle
        .outcome
        .as_ref()
        .ok_or("search oracle has no outcome")?;
    let spec = layers.time("sweep.parse_ms", || -> Result<SearchSpec, String> {
        one(SearchSpec::parse_spec(spec_text).map_err(text)?)
    })?;
    let (shape, (scenario, objective)) = layers
        .time("search.key_us", || {
            spec.shape.prototile().map(|shape: Prototile| {
                let keys = spec.fingerprints(&shape);
                (shape, keys)
            })
        })
        .map_err(text)?;
    let (region, adjacency) = layers.time("sweep.adjacency_ms", || -> Result<_, String> {
        let region = BoxRegion::square_window(spec.shape.dim(), spec.window).map_err(text)?;
        let adjacency = grid_adjacency(&region, &shape).map_err(text)?;
        Ok((region, adjacency))
    })?;
    let deployment = Deployment::Homogeneous(shape.clone());
    let budget = spec.budget.max(1);

    // (assignment, period) per candidate, lattice family first.
    let mut candidates: Vec<(Vec<usize>, usize)> = Vec::new();
    if spec.families.contains(&SearchFamily::Lattice) {
        let witnesses = layers
            .time("tiling.sublattice_search_ms", || tiling_sublattices(&shape))
            .map_err(text)?;
        for (i, lambda) in witnesses.into_iter().take(budget).enumerate() {
            let compiled = layers.time("compiled.compile_ms", || -> Result<_, String> {
                let tiling = Tiling::from_sublattice(shape.clone(), lambda).map_err(text)?;
                let schedule = theorem1::schedule_from_tiling(&tiling);
                std::hint::black_box(optimality::is_optimal(&schedule, &deployment));
                // The first witness is the one the schedule tier compiles.
                if i == 0 {
                    compile_shape(&shape).map_err(text)
                } else {
                    CompiledSchedule::compile(&schedule).map_err(text)
                }
            })?;
            let slots = layers
                .time("compiled.assign_ms", || compiled.slots_of_region(&region))
                .map_err(text)?;
            candidates.push((
                slots.into_iter().map(usize::from).collect(),
                compiled.num_slots(),
            ));
        }
    }
    if spec.families.contains(&SearchFamily::Coloring) {
        let conflicts = layers
            .time("coloring.conflict_graph_ms", || {
                InterferenceGraph::from_window(&region, deployment.clone())
                    .map(|graph| graph.conflict_graph())
            })
            .map_err(text)?;
        let colorings = layers.time("coloring.generators_ms", || {
            coloring_candidates(&conflicts, budget)
        })?;
        candidates.extend(colorings.into_iter().map(|c| {
            let period = c.colors_used.max(1);
            (c.colors, period)
        }));
    }
    if candidates.len() != outcome.candidates() {
        return Err(format!(
            "replay enumerated {} candidates, the search {}",
            candidates.len(),
            outcome.candidates()
        ));
    }

    // One plan per distinct (assignment, period), one trace per distinct
    // (plan, seed, load) — what the content-addressed tiers build cold.
    let mut plans: Vec<Arc<FramePlan>> = Vec::with_capacity(candidates.len());
    for (c, (assignment, period)) in candidates.iter().enumerate() {
        let plan = match candidates[..c]
            .iter()
            .position(|prior| prior == &candidates[c])
        {
            Some(prior) => Arc::clone(&plans[prior]),
            None => build_plan(assignment, *period, &adjacency, layers)?,
        };
        plans.push(plan);
    }
    let mut traces: HashMap<(u64, u64, u64), Arc<TrafficTrace>> = HashMap::new();
    if let SweepTraffic::Bernoulli(loads) = &spec.traffic {
        for plan in &plans {
            for &p in loads {
                for seed in spec.seeds.iter() {
                    let key = (plan.fingerprint(), seed, p.to_bits());
                    if let Entry::Vacant(slot) = traces.entry(key) {
                        slot.insert(compile_trace(plan, seed, p, spec.slots, layers)?);
                    }
                }
            }
        }
    }

    let mut items = Vec::with_capacity(candidates.len() * spec.runs_per_candidate());
    for plan in &plans {
        for ti in 0..spec.traffic.len() {
            for &max_retries in &spec.retries {
                for seed in spec.seeds.iter() {
                    let traffic = match &spec.traffic {
                        SweepTraffic::Bernoulli(loads) => KernelTraffic::Trace(Arc::clone(
                            &traces[&(plan.fingerprint(), seed, loads[ti].to_bits())],
                        )),
                        other => inline_traffic(other, ti),
                    };
                    items.push(Item {
                        plan: Arc::clone(plan),
                        config: KernelConfig {
                            slots: spec.slots,
                            traffic,
                            mac: KernelMac::Scheduled,
                            max_retries,
                            seed,
                        },
                        lane_seeds: None,
                    });
                }
            }
        }
    }
    let counts = kernel_phase(&items, oracle.node_slots, layers)?;
    layers.set("sweep.redundant_run_share", redundant_share(&counts));
    let rpc = spec.runs_per_candidate();
    let folds = fold_phase(&counts, |run| run / rpc, candidates.len(), layers);
    for ranked in &outcome.ranked {
        let id = ranked.id;
        if folds[id] != ranked.fold
            || plans[id].fingerprint() != ranked.plan_fingerprint
            || candidates[id].1 != ranked.period
        {
            return Err(format!(
                "replayed candidate {id} differs from the search outcome"
            ));
        }
    }
    layers.time("sweep.serialize_ms", || {
        serde_json::to_string(&cold.to_json_value())
    });
    layers.time("store.warm_lookup_ms", || {
        expect_hit(
            "search",
            warm.searches.get_or_build_tracked(scenario, objective, || {
                Err(EngineError::InvalidSpec("not cached".into()))
            }),
        )
    })
}

/// One traced pass.
fn pass(args: &Args, spec_text: &str, oracle: &Oracle) -> Result<Layers, String> {
    let mut layers = Layers::new();
    layers.set("parallel.threads", worker_threads() as f64);
    let caches = SweepCaches::new();
    let start = Instant::now();
    let cold = serve(args.workload, spec_text, &caches)?;
    layers.set("trace.cold_request_ms", start.elapsed().as_secs_f64() * 1e3);
    oracle.check(&cold)?;
    let start = Instant::now();
    let warm = serve(args.workload, spec_text, &caches)?;
    layers.set("trace.warm_request_ms", start.elapsed().as_secs_f64() * 1e3);
    oracle.check(&warm)?;
    let (cold_tiers, warm_tiers) = (tiers(cold.caches()), tiers(warm.caches()));
    for i in 0..COLD_MISSES.len() {
        layers.set(COLD_MISSES[i], cold_tiers[i].misses as f64);
        layers.set(WARM_HITS[i], warm_tiers[i].hits as f64);
    }
    match &cold {
        Served::Sweep(report, _) => replay_sweep(spec_text, oracle, &caches, report, &mut layers)?,
        Served::Search(report, _) => {
            replay_search(spec_text, oracle, &caches, report, &mut layers)?
        }
    }
    let sum = LAYER_SUM_PARTS
        .iter()
        .map(|&name| {
            let v = layers.get(name);
            if name.ends_with("_us") {
                v / 1e3
            } else {
                v
            }
        })
        .sum();
    layers.set("trace.layer_sum_ms", sum);
    Ok(layers)
}

pub fn run(args: &Args) -> Result<BenchResult, String> {
    let spec_text = args.workload.spec_text(args.seed, args.scale);
    let oracle = Oracle::build(args.workload, &spec_text)?;
    let mut tally = Tally::default();
    let mut passes: Vec<Layers> = Vec::new();
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut attempts = 0;
    // The first pass warms the process and is checked but not sampled.
    while attempts <= MIN_PASSES || start.elapsed() < deadline {
        attempts += 1;
        tally.attempted += 1;
        match panic::catch_unwind(AssertUnwindSafe(|| pass(args, &spec_text, &oracle))) {
            Ok(Ok(layers)) if attempts > 1 => passes.push(layers),
            Ok(Ok(_)) => {}
            Ok(Err(why)) => tally.fail("traced pass", &why),
            Err(payload) => tally.fail("traced pass", &panic_message(payload.as_ref())),
        }
    }
    eprintln!("perfbench: {} traced passes sampled", passes.len());
    let mut metrics = BTreeMap::new();
    if !passes.is_empty() {
        for &(name, _) in PER_LAYER.iter() {
            let values: Vec<f64> = passes.iter().map(|layers| layers.get(name)).collect();
            metrics.insert(name, median(&values));
        }
    }
    Ok(BenchResult {
        tally,
        metrics,
        table: &PER_LAYER,
    })
}
