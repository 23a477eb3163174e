//! The three workloads: their spec texts, the request each one serves, and
//! the correctness oracle every request's output is checked against.

use latsched_core::Deployment;
use latsched_engine::parallel::worker_threads;
use latsched_engine::{
    fold_full_report, run_search, run_sweep, GroupReport, KernelCounts, SearchFamily,
    SearchOutcome, SearchReport, SearchSpec, SweepCacheStats, SweepCaches, SweepMac, SweepMode,
    SweepReport, SweepRunReport, SweepSpec, SweepTraffic,
};
use latsched_lattice::BoxRegion;
use latsched_sensornet::{
    run_simulation_with, tiling_mac, EnergyModel, MacPolicy, Network, ReferenceKernel, SimConfig,
    SimMetrics, TrafficModel,
};

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The builtin sweep: Moore 3×3 on 64×64, tiling MAC, Bernoulli loads ×
    /// retries × 8 seeds, full report.
    TilingBernoulli,
    /// A 1024-run slotted-ALOHA streaming sweep on 12×12, served by the
    /// 64-seed lane kernel and folded by traffic × retries.
    AlohaStream,
    /// The builtin Figure 2 search: 10 candidates × 16 runs on 16×16.
    SearchFigure2,
}

/// Input size: `Full` is the benchmark proper, `Toy` shrinks windows and
/// slots (same grid shape) for the self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Toy,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Toy => "toy",
        }
    }

    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Full, Scale::Toy]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

const MOORE: &str = r#"{"kind": "ball", "dim": 2, "radius": 1, "metric": "chebyshev"}"#;

/// The seed axis of a spec, shifted by the workload seed.
fn seed_list(first: u64, count: u64, offset: u64) -> String {
    let seeds: Vec<String> = (first..first + count)
        .map(|s| (s + offset).to_string())
        .collect();
    format!("[{}]", seeds.join(", "))
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TilingBernoulli,
        Workload::AlohaStream,
        Workload::SearchFigure2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TilingBernoulli => "sweep-tiling-bernoulli",
            Workload::AlohaStream => "sweep-aloha-stream",
            Workload::SearchFigure2 => "search-figure2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec JSON a request parses. The workload seed offsets every seed
    /// axis, so seed 0 gives the builtin specs exactly.
    pub fn spec_text(self, seed: u64, scale: Scale) -> String {
        let toy = scale == Scale::Toy;
        match self {
            Workload::TilingBernoulli => format!(
                r#"{{"name": "moore-bernoulli-64", "shape": {MOORE}, "windows": [{}], "slots": {}, "mac": {{"kind": "tiling"}}, "traffic": {{"kind": "bernoulli", "loads": [0.02, 0.05]}}, "seeds": {}, "retries": [0, 1, 2, 4]}}"#,
                if toy { 16 } else { 64 },
                if toy { 64 } else { 512 },
                seed_list(1, 8, seed),
            ),
            Workload::AlohaStream => format!(
                r#"{{"name": "moore-aloha-stream", "shape": {MOORE}, "windows": [{}], "slots": {}, "mac": {{"kind": "aloha", "p": 0.25}}, "traffic": {{"kind": "bernoulli", "loads": [0.02, 0.05, 0.1, 0.2]}}, "seeds": {{"range": [{}, {}]}}, "retries": [0, 2], "group_by": ["traffic", "retries"]}}"#,
                if toy { 6 } else { 12 },
                if toy { 16 } else { 64 },
                1 + seed,
                128 + seed,
            ),
            Workload::SearchFigure2 => format!(
                r#"{{"name": "moore-figure2-search", "shape": {MOORE}, "window": {}, "slots": {}, "traffic": {{"kind": "bernoulli", "loads": [0.05, 0.1]}}, "seeds": {}, "retries": [0, 2], "objective": "latency_p99", "families": ["lattice", "coloring"], "budget": 8, "top": 8}}"#,
                if toy { 8 } else { 16 },
                if toy { 64 } else { 256 },
                seed_list(1, 4, seed),
            ),
        }
    }

    pub fn is_search(self) -> bool {
        self == Workload::SearchFigure2
    }
}

/// What one request returned: the engine's report and its serialized text.
pub enum Served {
    Sweep(SweepReport, String),
    Search(SearchReport, String),
}

impl Served {
    /// The per-tier cache counters of the request.
    pub fn caches(&self) -> &SweepCacheStats {
        match self {
            Served::Sweep(report, _) => &report.caches,
            Served::Search(report, _) => &report.caches,
        }
    }

    /// The part of the output the oracle pins, rendered exactly (`Debug`
    /// prints floats round-trip exact): per-run counts of a full sweep, group
    /// folds of a streaming sweep, the ranked outcome of a search.
    fn content(&self) -> String {
        match self {
            Served::Sweep(report, _) => match report.mode {
                SweepMode::Full => {
                    let counts: Vec<&KernelCounts> =
                        report.per_run.iter().map(|r| &r.counts).collect();
                    format!("{counts:?}")
                }
                SweepMode::Streaming(_) => format!("{:?}", report.groups),
            },
            Served::Search(report, _) => format!("{:?}", *report.outcome),
        }
    }

    /// A 64-bit digest of [`Served::content`], as set-up probes report it.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.content())
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The single spec of a spec document.
pub fn one<T>(mut specs: Vec<T>) -> Result<T, String> {
    match specs.len() {
        1 => Ok(specs.remove(0)),
        n => Err(format!("spec text holds {n} specs, expected 1")),
    }
}

/// One request, as `engine-cli` serves it in-process: parse the spec text,
/// run it on the given caches, serialize the report.
pub fn serve(workload: Workload, text: &str, caches: &SweepCaches) -> Result<Served, String> {
    if workload.is_search() {
        let spec = one(SearchSpec::parse_spec(text).map_err(|e| e.to_string())?)?;
        let report = run_search(&spec, caches).map_err(|e| e.to_string())?;
        let json = serde_json::to_string(&report.to_json_value());
        Ok(Served::Search(report, json))
    } else {
        let spec = one(SweepSpec::parse_spec(text).map_err(|e| e.to_string())?)?;
        let report = run_sweep(&spec, caches).map_err(|e| e.to_string())?;
        let json = serde_json::to_string(&report.to_json_value());
        Ok(Served::Sweep(report, json))
    }
}

/// The expected output of one workload at one seed, computed once per run
/// outside every timed region.
pub struct Oracle {
    content: String,
    digest: u64,
    /// Grid runs one request answers.
    pub runs: usize,
    /// `nodes × slots × runs` one request answers.
    pub node_slots: f64,
    /// The per-run counts of the grid (sweeps only), in grid order.
    pub per_run: Vec<KernelCounts>,
    /// The expected group folds (streaming sweeps only).
    pub groups: Vec<GroupReport>,
    /// The expected outcome (searches only).
    pub outcome: Option<SearchOutcome>,
}

/// Unit costs turn the reference simulator's energy account back into the
/// exact radio-state slot counts (all far below 2^53).
const UNIT_ENERGY: EnergyModel = EnergyModel {
    tx: 1.0,
    rx: 1.0,
    idle: 1.0,
};

fn counts_of(m: &SimMetrics) -> KernelCounts {
    KernelCounts {
        packets_generated: m.packets_generated,
        packets_delivered: m.packets_delivered,
        packets_dropped: m.packets_dropped,
        packets_pending: m.packets_pending,
        transmissions: m.transmissions,
        receptions: m.receptions,
        collisions: m.collisions,
        total_latency: m.total_latency,
        tx_slots: m.energy.tx as u64,
        rx_slots: m.energy.rx as u64,
        idle_slots: m.energy.idle as u64,
    }
}

/// Every grid point of a sweep run on the reference simulator, in the
/// sweep's expansion order (windows × traffic × retries × seeds).
fn reference_runs(spec: &SweepSpec) -> Result<Vec<SweepRunReport>, String> {
    let shape = spec.shape.prototile().map_err(|e| e.to_string())?;
    let mac = match spec.mac {
        SweepMac::Tiling => tiling_mac(&shape).map_err(|e| e.to_string())?,
        SweepMac::Aloha { p } => MacPolicy::SlottedAloha { p },
    };
    let mut runs = Vec::with_capacity(spec.num_runs());
    for &window in &spec.windows {
        let region =
            BoxRegion::square_window(spec.shape.dim(), window).map_err(|e| e.to_string())?;
        let network = Network::from_window(&region, Deployment::Homogeneous(shape.clone()))
            .map_err(|e| e.to_string())?;
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
                    let config = SimConfig {
                        mac: mac.clone(),
                        traffic,
                        energy: UNIT_ENERGY,
                        max_retries: retries,
                        slots: spec.slots,
                        seed,
                    };
                    let metrics = run_simulation_with(&ReferenceKernel, &network, &config)
                        .map_err(|e| e.to_string())?;
                    runs.push(SweepRunReport {
                        window,
                        nodes: network.len(),
                        seed,
                        traffic: spec.traffic.label(ti),
                        retries,
                        counts: counts_of(&metrics),
                    });
                }
            }
        }
    }
    Ok(runs)
}

impl Oracle {
    /// Computes the expected output of `workload` for this spec text:
    ///
    /// * a full sweep's per-run counts must equal reference-simulator runs of
    ///   the same grid;
    /// * a streaming sweep's group folds must equal `fold_full_report` over
    ///   those reference runs;
    /// * a search's winner must be a provably optimal lattice tiling whose
    ///   period is the clique bound |N| = 9, and every later outcome must
    ///   equal this first one bit for bit.
    pub fn build(workload: Workload, text: &str) -> Result<Oracle, String> {
        if workload.is_search() {
            let spec = one(SearchSpec::parse_spec(text).map_err(|e| e.to_string())?)?;
            let report = run_search(&spec, &SweepCaches::new()).map_err(|e| e.to_string())?;
            let outcome = (*report.outcome).clone();
            match outcome.ranked.first() {
                Some(w) if w.family == SearchFamily::Lattice && w.period == 9 && w.optimal => {}
                other => {
                    return Err(format!(
                        "search winner is not the optimal 9-slot lattice tiling: {other:?}"
                    ))
                }
            }
            let runs = outcome.candidates() * outcome.runs_per_candidate;
            let node_slots = (outcome.nodes as u64 * spec.slots) as f64 * runs as f64;
            let content = Served::Search(report, String::new()).content();
            return Ok(Oracle {
                digest: fnv1a(&content),
                content,
                runs,
                node_slots,
                per_run: Vec::new(),
                groups: Vec::new(),
                outcome: Some(outcome),
            });
        }
        let spec = one(SweepSpec::parse_spec(text).map_err(|e| e.to_string())?)?;
        if workload == Workload::AlohaStream {
            check_lane_bands(&spec)?;
        }
        let reference = reference_runs(&spec)?;
        let node_slots = reference
            .iter()
            .map(|r| (r.nodes as u64 * spec.slots) as f64)
            .sum();
        let per_run: Vec<KernelCounts> = reference.iter().map(|r| r.counts).collect();
        let (content, groups) = match &spec.mode {
            SweepMode::Full => {
                let counts: Vec<&KernelCounts> = per_run.iter().collect();
                (format!("{counts:?}"), Vec::new())
            }
            SweepMode::Streaming(group_spec) => {
                let groups =
                    fold_full_report(&spec, group_spec, &reference).map_err(|e| e.to_string())?;
                (format!("{groups:?}"), groups)
            }
        };
        Ok(Oracle {
            digest: fnv1a(&content),
            content,
            runs: spec.num_runs(),
            node_slots,
            per_run,
            groups,
            outcome: None,
        })
    }

    /// The digest a correct set-up probe reports.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Checks one request's output: the pinned content, and that the
    /// serialized report parses back and describes the same grid.
    pub fn check(&self, served: &Served) -> Result<(), String> {
        if served.content() != self.content {
            return Err("output differs from the oracle".into());
        }
        let (json, field, expected) = match (served, &self.outcome) {
            (Served::Search(_, json), Some(outcome)) => {
                (json, "runs_per_candidate", outcome.runs_per_candidate)
            }
            (Served::Sweep(_, json), None) => (json, "runs", self.runs),
            _ => return Err("request kind differs from the workload".into()),
        };
        let parsed = serde_json::from_str(json).map_err(|e| format!("serialized report: {e}"))?;
        match parsed.get(field).and_then(serde_json::Value::as_u64) {
            Some(v) if v == expected as u64 => Ok(()),
            other => Err(format!(
                "serialized report has {field} {other:?}, expected {expected}"
            )),
        }
    }
}

/// The lane-dispatched streaming branch cuts `4·threads` bands of
/// `⌈batches / bands⌉` lane batches; with `(4·threads − 1)²` batches or
/// fewer the trailing bands can start past the end and the engine panics.
/// The workload must stay clear of that so its baseline measures requests,
/// not the panic.
fn check_lane_bands(spec: &SweepSpec) -> Result<(), String> {
    let points = spec.num_runs() / spec.seeds.len();
    let batches = points * spec.seeds.len().div_ceil(64);
    let bands = 4 * worker_threads();
    if batches <= (bands - 1) * (bands - 1) {
        return Err(format!(
            "{batches} lane batches at {} threads would overrun the last band; \
             the aloha-stream workload needs more than {}",
            worker_threads(),
            (bands - 1) * (bands - 1)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use latsched_engine::{builtin_search, builtin_sweep};

    #[test]
    fn seed_zero_specs_are_the_builtins() {
        let sweep = one(SweepSpec::parse_spec(
            &Workload::TilingBernoulli.spec_text(0, Scale::Full),
        )
        .unwrap())
        .unwrap();
        assert_eq!(sweep, builtin_sweep());
        let search = one(SearchSpec::parse_spec(
            &Workload::SearchFigure2.spec_text(0, Scale::Full),
        )
        .unwrap())
        .unwrap();
        assert_eq!(search, builtin_search());
    }

    #[test]
    fn aloha_stream_grid_matches_its_description() {
        let spec =
            one(SweepSpec::parse_spec(&Workload::AlohaStream.spec_text(5, Scale::Full)).unwrap())
                .unwrap();
        assert_eq!(spec.num_runs(), 1024);
        assert_eq!(spec.seeds.get(0), 6);
        assert_eq!(spec.num_runs() / 64, 16);
        assert!(matches!(spec.mode, SweepMode::Streaming(_)));
    }
}
