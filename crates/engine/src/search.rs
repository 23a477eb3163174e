//! Objective-driven schedule search: the fifth pipeline stage.
//!
//! The paper frames collision-free broadcast scheduling as distance-2
//! coloring of the interference graph — NP-complete in general — and shows
//! that lattice-tiling schedules sidestep the hardness with provably optimal
//! periods. The stages below this one can only *simulate a given schedule*;
//! this module *finds* one: given a scenario (neighbourhood shape, square
//! deployment window, traffic model), [`run_search`] enumerates candidate
//! schedules from two generator families, compiles each through the existing
//! artifact tiers, scores every candidate with the streaming aggregate layer
//! under a user-chosen [`Objective`], and returns a ranked [`SearchReport`]
//! with per-candidate provenance and optimality annotations from
//! `latsched_core::optimality`.
//!
//! The two generator families:
//!
//! * [`SearchFamily::Lattice`] — every sublattice tiling witness of the shape
//!   (via [`latsched_tiling::sublattice_search::tiling_sublattices`]), turned
//!   into a Theorem 1 schedule. Each candidate's period is `|N|`, the clique
//!   lower bound of [`latsched_core::optimality::slot_lower_bound`], so every
//!   lattice candidate carries a machine-checked `optimal = true` annotation
//!   (from [`latsched_core::optimality::is_optimal`]).
//! * [`SearchFamily::Coloring`] — the classical TDMA baselines of
//!   `latsched_coloring` on the window's distance-2 conflict graph: plain
//!   TDMA, greedy (natural and largest-degree-first orders), DSATUR,
//!   simulated annealing, and exact branch-and-bound on small windows. The
//!   conflict graph is the distance-2 closure of tier 2's window adjacency,
//!   so its vertices are the grid's nodes and a coloring *is* a slot assignment.
//!
//! Every candidate compiles through the shared [`SweepCaches`] tiers
//! (schedule → adjacency → plan → trace). The evaluation grid (`candidates ×
//! traffic × retries × seeds`) is a sweep grid whose outer axis is the
//! candidates instead of the windows, so it runs through the sweep engine's
//! one band executor and folds online into one [`OnlineFold`] per candidate:
//! one dense [`crate::GroupFolds`] per band, merged in band order, so the
//! outcome is bit-for-bit deterministic. Candidates whose slot assignments
//! coincide share one plan and are simulated once, as is the retry axis of
//! every conflict-free candidate; the other runs fold copies of those
//! counts.
//!
//! The outcome itself is content-addressed: tier 5,
//! [`crate::cache::SearchCache`], keys the ranked [`SearchOutcome`] by a
//! scenario fingerprint and an objective fingerprint, so a warm re-run of the
//! same search resolves from the cache without enumerating, compiling or
//! simulating a single candidate (asserted zero-miss by the `search` entry of
//! the `BENCH.json` baseline).
//!
//! `engine-cli search` serves this stage from JSON specs (`objective`,
//! `families`, `budget`, `top`); [`builtin_search`] is the paper's Figure 2
//! Moore scenario.

use crate::aggregate::OnlineFold;
use crate::compiled::CompiledSchedule;
use crate::error::{EngineError, Result};
use crate::frames::fingerprint_words;
use crate::scenario::{get_u64, invalid, window_side, ShapeSpec};
use crate::simkernel::KernelMac;
use crate::sweep::{
    get_u32_array, GridContext, SeedAxis, SweepCacheStats, SweepCaches, SweepTraffic,
};
use crate::telemetry::{self, span, Counter, Stage, TelemetrySnapshot};
use crate::FramePlan;
use latsched_coloring::{
    annealing_coloring, dsatur_coloring, exact_coloring, greedy_coloring, tdma_coloring,
    AnnealingParams, Coloring, ConflictGraph,
};
use latsched_core::{optimality, theorem1, Deployment};
use latsched_lattice::BoxRegion;
use latsched_tiling::{sublattice_search, Prototile, Tiling};
use serde_json::Value;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// What a search minimizes. All objectives are lower-is-better scores over a
/// candidate's per-candidate [`OnlineFold`] (and its period).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Objective {
    /// A lower bound on the `q`-th percentile of per-run mean delivery
    /// latency (log₂-bucket exact; `q` in `(0, 1]`). Candidates whose grid
    /// delivered no packet score `+∞`.
    LatencyPercentile {
        /// The percentile, as a fraction in `(0, 1]`.
        q: f64,
    },
    /// Negated aggregate delivery ratio (sum delivered / sum generated), so
    /// higher delivery sorts first.
    DeliveryRatio,
    /// Radio-active slots (transmit + receive) per delivered packet — an
    /// energy-per-delivery proxy. Candidates delivering nothing score `+∞`.
    Energy,
    /// The schedule period (slot count) itself — the paper's own optimality
    /// measure.
    Period,
}

impl Objective {
    /// Parses an objective name: `"period"`, `"delivery"` (or
    /// `"delivery_ratio"`), `"energy"`, or `"latency_p<percentile>"` (e.g.
    /// `"latency_p99"`, `"latency_p99.9"`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for an unknown name or an
    /// out-of-range percentile.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "period" => Ok(Objective::Period),
            "delivery" | "delivery_ratio" => Ok(Objective::DeliveryRatio),
            "energy" => Ok(Objective::Energy),
            _ => name
                .strip_prefix("latency_p")
                .and_then(|pct| pct.parse::<f64>().ok())
                .filter(|pct| *pct > 0.0 && *pct <= 100.0)
                .map(|pct| Objective::LatencyPercentile { q: pct / 100.0 })
                .ok_or_else(|| {
                    invalid(
                        "'objective' must be 'period', 'delivery', 'energy' or \
                         'latency_p<percentile>'",
                    )
                }),
        }
    }

    /// The objective's spec-file name (inverse of [`Objective::parse`]).
    pub fn name(&self) -> String {
        match self {
            Objective::LatencyPercentile { q } => format!("latency_p{}", q * 100.0),
            Objective::DeliveryRatio => "delivery".to_string(),
            Objective::Energy => "energy".to_string(),
            Objective::Period => "period".to_string(),
        }
    }

    /// The candidate's score under this objective — lower is better. Ties
    /// break by period, then by candidate id (lattice candidates enumerate
    /// first).
    pub fn score(&self, fold: &OnlineFold, period: usize) -> f64 {
        match self {
            Objective::LatencyPercentile { q } => fold
                .latency
                .percentile_lower_bound(*q)
                .map_or(f64::INFINITY, |b| b as f64),
            Objective::DeliveryRatio => -fold.delivery_ratio(),
            Objective::Energy => {
                let sums = fold.sums();
                if sums.packets_delivered == 0 {
                    f64::INFINITY
                } else {
                    (sums.tx_slots + sums.rx_slots) as f64 / sums.packets_delivered as f64
                }
            }
            Objective::Period => period as f64,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A candidate-generator family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SearchFamily {
    /// Sublattice-tiling witnesses turned into Theorem 1 schedules.
    Lattice,
    /// Graph-coloring TDMA baselines on the window's conflict graph.
    Coloring,
}

impl SearchFamily {
    /// The family's spec-file name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchFamily::Lattice => "lattice",
            SearchFamily::Coloring => "coloring",
        }
    }

    /// Parses a family name (`"lattice"` or `"coloring"`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for an unknown name.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "lattice" => Ok(SearchFamily::Lattice),
            "coloring" => Ok(SearchFamily::Coloring),
            _ => Err(invalid(
                "'families' entries must be 'lattice' or 'coloring'",
            )),
        }
    }
}

impl fmt::Display for SearchFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One schedule search: a scenario (shape, window, traffic grid) plus the
/// objective and the candidate-generation knobs.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchSpec {
    /// Search name (used in reports).
    pub name: String,
    /// The neighbourhood shape.
    pub shape: ShapeSpec,
    /// Side length of the square deployment window.
    pub window: i64,
    /// Number of slots each evaluation run simulates.
    pub slots: u64,
    /// The traffic axis of the evaluation grid.
    pub traffic: SweepTraffic,
    /// The seed axis of the evaluation grid.
    pub seeds: SeedAxis,
    /// The retry-budget axis of the evaluation grid.
    pub retries: Vec<u32>,
    /// What to minimize.
    pub objective: Objective,
    /// Which generator families to enumerate (candidate ids order lattice
    /// candidates before coloring candidates regardless of list order).
    pub families: Vec<SearchFamily>,
    /// Maximum number of candidates enumerated *per family*.
    pub budget: usize,
    /// Maximum number of ranked candidates kept in the outcome.
    pub top: usize,
}

impl SearchSpec {
    /// Parses one search spec object. Required fields: `shape`, `window`,
    /// `slots`, `traffic`. Defaults: `seeds` `[1, 2, 3, 4]`, `retries` `[0]`,
    /// `objective` `"latency_p99"`, `families` `["lattice", "coloring"]`,
    /// `budget` 8, `top` 8.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the first malformed field.
    pub fn from_json(value: &Value) -> Result<Self> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("unnamed-search")
            .to_string();
        let shape = ShapeSpec::from_json(
            value
                .get("shape")
                .ok_or_else(|| invalid("search needs a 'shape' object"))?,
        )?;
        let window = window_side(get_u64(value, "window")?, shape.dim(), "window")?;
        let slots = get_u64(value, "slots")?;
        let traffic = SweepTraffic::from_json(
            value
                .get("traffic")
                .ok_or_else(|| invalid("search needs a 'traffic' object"))?,
        )?;
        if traffic.is_empty() {
            return Err(invalid("'traffic' axis must not be empty"));
        }
        let seeds = match value.get("seeds") {
            None => SeedAxis::List(vec![1, 2, 3, 4]),
            Some(seeds) => SeedAxis::from_json(seeds)?,
        };
        let retries = match value.get("retries") {
            None => vec![0],
            Some(_) => get_u32_array(value, "retries")?,
        };
        let objective = match value.get("objective") {
            None => Objective::LatencyPercentile { q: 0.99 },
            Some(obj) => Objective::parse(
                obj.as_str()
                    .ok_or_else(|| invalid("'objective' must be a string"))?,
            )?,
        };
        let families = match value.get("families") {
            None => vec![SearchFamily::Lattice, SearchFamily::Coloring],
            Some(list) => {
                let raw = list
                    .as_array()
                    .ok_or_else(|| invalid("'families' must be an array"))?;
                let mut families = Vec::new();
                for entry in raw {
                    let family = SearchFamily::parse(
                        entry
                            .as_str()
                            .ok_or_else(|| invalid("'families' entries must be strings"))?,
                    )?;
                    if !families.contains(&family) {
                        families.push(family);
                    }
                }
                if families.is_empty() {
                    return Err(invalid("'families' must not be empty"));
                }
                families
            }
        };
        let budget = match value.get("budget") {
            None => 8,
            Some(_) => get_u64(value, "budget")? as usize,
        };
        if budget == 0 {
            return Err(invalid("'budget' must be positive"));
        }
        let top = match value.get("top") {
            None => 8,
            Some(_) => get_u64(value, "top")? as usize,
        };
        if top == 0 {
            return Err(invalid("'top' must be positive"));
        }
        if [retries.len(), seeds.len()]
            .into_iter()
            .try_fold(traffic.len(), usize::checked_mul)
            .is_none()
        {
            return Err(invalid("search grid has more runs than a usize counts"));
        }
        Ok(SearchSpec {
            name,
            shape,
            window,
            slots,
            traffic,
            seeds,
            retries,
            objective,
            families,
            budget,
            top,
        })
    }

    /// Parses a spec document: one search object or an array of them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for malformed JSON or fields.
    pub fn parse_spec(text: &str) -> Result<Vec<SearchSpec>> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| invalid(&format!("malformed JSON: {e}")))?;
        match &value {
            Value::Array(items) => items.iter().map(SearchSpec::from_json).collect(),
            _ => Ok(vec![SearchSpec::from_json(&value)?]),
        }
    }

    /// Evaluation runs per candidate: `traffic × retries × seeds`.
    pub fn runs_per_candidate(&self) -> usize {
        self.traffic.len() * self.retries.len() * self.seeds.len()
    }

    /// The content fingerprints the [`crate::cache::SearchCache`] keys an
    /// outcome by: `(scenario, objective)`. The scenario fingerprint covers
    /// the resolved shape (point set, not spec syntax), window, slots and the
    /// whole evaluation grid; the objective fingerprint covers the objective,
    /// family set, budget and top. A `Range` seed axis fingerprints its two
    /// bounds (never materialized), so an equal-content `List` axis keys a
    /// separate — conservatively distinct — entry.
    pub fn fingerprints(&self, shape: &Prototile) -> (u64, u64) {
        let mut words: Vec<u64> = Vec::new();
        words.push(shape.dim() as u64);
        for p in shape.iter() {
            words.extend(p.coords().iter().map(|&c| c as u64));
        }
        words.push(self.window as u64);
        words.push(self.slots);
        match &self.traffic {
            SweepTraffic::Bernoulli(loads) => {
                words.push(1);
                words.extend(loads.iter().map(|p| p.to_bits()));
            }
            SweepTraffic::Periodic(periods) => {
                words.push(2);
                words.extend(periods.iter().copied());
            }
            SweepTraffic::Staggered(periods) => {
                words.push(3);
                words.extend(periods.iter().copied());
            }
        }
        match &self.seeds {
            SeedAxis::List(seeds) => {
                words.push(4);
                words.push(seeds.len() as u64);
                words.extend(seeds.iter().copied());
            }
            SeedAxis::Range { start, end } => {
                words.push(5);
                words.push(*start);
                words.push(*end);
            }
        }
        words.push(self.retries.len() as u64);
        words.extend(self.retries.iter().map(|&r| u64::from(r)));
        let scenario = fingerprint_words(0x5EA2_C400_0001, words);

        let mut words: Vec<u64> = Vec::new();
        match self.objective {
            Objective::LatencyPercentile { q } => {
                words.push(1);
                words.push(q.to_bits());
            }
            Objective::DeliveryRatio => words.push(2),
            Objective::Energy => words.push(3),
            Objective::Period => words.push(4),
        }
        words.push(self.families.iter().fold(0u64, |mask, f| {
            mask | match f {
                SearchFamily::Lattice => 1,
                SearchFamily::Coloring => 2,
            }
        }));
        words.push(self.budget as u64);
        words.push(self.top as u64);
        let objective = fingerprint_words(0x5EA2_C400_0002, words);
        (scenario, objective)
    }
}

/// One evaluated candidate, with provenance, optimality annotation and its
/// streaming fold.
#[derive(Clone, PartialEq, Debug)]
pub struct CandidateReport {
    /// Candidate id, in enumeration order (lattice candidates first).
    pub id: usize,
    /// The generator family.
    pub family: SearchFamily,
    /// Provenance: which generator produced the schedule (e.g. `theorem1
    /// Λ⟨(3, 0), (0, 3)⟩ of index 9` or `dsatur`).
    pub generator: String,
    /// The schedule period (slot count / colors used).
    pub period: usize,
    /// Whether the candidate matches the clique lower bound of
    /// [`latsched_core::optimality::slot_lower_bound`] (for lattice
    /// candidates this is the verdict of
    /// [`latsched_core::optimality::is_optimal`] on the Theorem 1 schedule).
    pub optimal: bool,
    /// The candidate's score under the search objective (lower is better).
    pub score: f64,
    /// Content fingerprint of the candidate's fused frame plan.
    pub plan_fingerprint: u64,
    /// The streaming fold of the candidate's evaluation runs.
    pub fold: OnlineFold,
}

impl CandidateReport {
    /// The candidate as a JSON object.
    pub fn to_json_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("id".to_string(), Value::from(self.id));
        map.insert("family".to_string(), Value::from(self.family.name()));
        map.insert("generator".to_string(), Value::from(self.generator.clone()));
        map.insert("period".to_string(), Value::from(self.period));
        map.insert("optimal".to_string(), Value::from(self.optimal));
        map.insert("score".to_string(), Value::from(self.score));
        map.insert(
            "plan_fingerprint".to_string(),
            Value::from(format!("{:016x}", self.plan_fingerprint)),
        );
        map.insert(
            "delivery_ratio".to_string(),
            Value::from(self.fold.delivery_ratio()),
        );
        map.insert("fold".to_string(), self.fold.to_json_value());
        Value::Object(map)
    }
}

/// The cacheable result of one search: everything derived from `(scenario,
/// objective)` alone — no wall-clock times, no cache counters.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchOutcome {
    /// Nodes in the deployment window.
    pub nodes: usize,
    /// The clique lower bound `|N|` on any collision-free period.
    pub lower_bound: usize,
    /// How many lattice candidates were enumerated.
    pub lattice_candidates: usize,
    /// How many coloring candidates were enumerated.
    pub coloring_candidates: usize,
    /// Evaluation runs folded per candidate.
    pub runs_per_candidate: usize,
    /// The candidates, best first (ties by period, then enumeration id),
    /// truncated to the spec's `top`.
    pub ranked: Vec<CandidateReport>,
}

impl SearchOutcome {
    /// Total candidates enumerated (before `top` truncation).
    pub fn candidates(&self) -> usize {
        self.lattice_candidates + self.coloring_candidates
    }
}

/// The outcome of one search plus this invocation's observability: timing,
/// per-tier cache movement, and whether tier 5 answered warm.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Search name.
    pub name: String,
    /// The objective that was minimized.
    pub objective: Objective,
    /// Window side length.
    pub window: i64,
    /// Slots simulated per evaluation run.
    pub slots: u64,
    /// Whether the outcome came from a warm [`crate::cache::SearchCache`]
    /// hit (no candidate was enumerated, compiled or simulated).
    pub from_cache: bool,
    /// Wall-clock seconds of this invocation.
    pub seconds: f64,
    /// Per-tier cache counters over this invocation, read from its own
    /// recording so they stay exact when concurrent searches or sweeps share
    /// the caches.
    pub caches: SweepCacheStats,
    /// The (possibly cached) ranked outcome.
    pub outcome: Arc<SearchOutcome>,
    /// This invocation's telemetry recording when it ran inside a
    /// [`crate::telemetry::profile`] scope; `None` otherwise.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl SearchReport {
    /// The best candidate (rank 0).
    pub fn winner(&self) -> Option<&CandidateReport> {
        self.outcome.ranked.first()
    }

    /// The report as a JSON object.
    pub fn to_json_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("name".to_string(), Value::from(self.name.clone()));
        map.insert("objective".to_string(), Value::from(self.objective.name()));
        map.insert("window".to_string(), Value::from(self.window));
        map.insert("slots".to_string(), Value::from(self.slots));
        map.insert("nodes".to_string(), Value::from(self.outcome.nodes));
        map.insert(
            "lower_bound".to_string(),
            Value::from(self.outcome.lower_bound),
        );
        map.insert(
            "lattice_candidates".to_string(),
            Value::from(self.outcome.lattice_candidates),
        );
        map.insert(
            "coloring_candidates".to_string(),
            Value::from(self.outcome.coloring_candidates),
        );
        map.insert(
            "runs_per_candidate".to_string(),
            Value::from(self.outcome.runs_per_candidate),
        );
        map.insert("from_cache".to_string(), Value::from(self.from_cache));
        map.insert("seconds".to_string(), Value::from(self.seconds));
        map.insert("caches".to_string(), self.caches.to_json_value());
        map.insert(
            "ranked".to_string(),
            Value::Array(
                self.outcome
                    .ranked
                    .iter()
                    .map(CandidateReport::to_json_value)
                    .collect(),
            ),
        );
        if let Some(telemetry) = &self.telemetry {
            map.insert("telemetry".to_string(), telemetry.to_json_value());
        }
        Value::Object(map)
    }
}

impl fmt::Display for SearchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} candidates ({} lattice, {} coloring) x {} runs, objective {}, \
             lower bound {} slots{} in {:.2} ms",
            self.name,
            self.outcome.candidates(),
            self.outcome.lattice_candidates,
            self.outcome.coloring_candidates,
            self.outcome.runs_per_candidate,
            self.objective,
            self.outcome.lower_bound,
            if self.from_cache { " [cached]" } else { "" },
            self.seconds * 1e3,
        )?;
        writeln!(
            f,
            "{:>4}  {:<8} {:>6}  {:<7}  {:>12}  {:>9}  generator",
            "rank", "family", "period", "optimal", "score", "delivery"
        )?;
        for (rank, c) in self.outcome.ranked.iter().enumerate() {
            writeln!(
                f,
                "{:>4}  {:<8} {:>6}  {:<7}  {:>12.3}  {:>8.1}%  {}",
                rank,
                c.family.name(),
                c.period,
                if c.optimal { "yes" } else { "no" },
                c.score,
                c.fold.delivery_ratio() * 100.0,
                c.generator,
            )?;
        }
        Ok(())
    }
}

/// One enumerated (not yet evaluated) candidate schedule.
struct Candidate {
    family: SearchFamily,
    generator: String,
    period: usize,
    optimal: bool,
    plan: Arc<FramePlan>,
}

fn coloring_err(e: latsched_coloring::ColoringError) -> EngineError {
    EngineError::Coloring(e.to_string())
}

/// Largest conflict graph the `exact` branch-and-bound generator runs on
/// (a 7×7 window); beyond it the generator is skipped, not failed.
const EXACT_MAX_VERTICES: usize = 49;

/// Enumerates the coloring-family candidates, in a fixed generator order.
fn coloring_candidates(
    conflicts: &ConflictGraph,
    budget: usize,
) -> Result<Vec<(&'static str, Coloring)>> {
    const GENERATORS: [&str; 6] = [
        "tdma",
        "greedy-natural",
        "greedy-degree",
        "dsatur",
        "annealing",
        "exact",
    ];
    let mut produced: Vec<(&'static str, Coloring)> = Vec::new();
    for name in GENERATORS.into_iter().take(budget) {
        if name == "exact" && conflicts.len() > EXACT_MAX_VERTICES {
            continue;
        }
        let _span = span(Stage::ColoringGenerator);
        let coloring = match name {
            "tdma" => tdma_coloring(conflicts),
            "greedy-natural" => greedy_coloring(conflicts, latsched_coloring::GreedyOrder::Natural),
            "greedy-degree" => greedy_coloring(
                conflicts,
                latsched_coloring::GreedyOrder::LargestDegreeFirst,
            ),
            "dsatur" => dsatur_coloring(conflicts),
            "annealing" => annealing_coloring(conflicts, &AnnealingParams::default()),
            "exact" => {
                // DSATUR precedes exact in the generator order, so its color
                // count is available as the branch-and-bound budget.
                let bound = produced
                    .iter()
                    .find(|(n, _)| *n == "dsatur")
                    .map_or(conflicts.len(), |(_, c)| c.colors_used);
                exact_coloring(conflicts, bound)
            }
            _ => unreachable!("generator list is fixed"),
        }
        .map_err(coloring_err)?;
        debug_assert!(conflicts.is_proper(&coloring.colors));
        produced.push((name, coloring));
    }
    Ok(produced)
}

/// Enumerates, compiles and evaluates every candidate of the spec, returning
/// the ranked outcome. This is the cold path behind
/// [`crate::cache::SearchCache`]; [`run_search`] is the cached entry point.
fn execute_search(
    spec: &SearchSpec,
    shape: &Prototile,
    caches: &SweepCaches,
) -> Result<SearchOutcome> {
    let _span = span(Stage::SearchCompile);
    let region = BoxRegion::square_window(spec.shape.dim(), spec.window)?;
    let adjacency = caches.adjacencies.get_or_build(&region, shape)?;
    let nodes = adjacency.num_nodes();
    let deployment = Deployment::Homogeneous(shape.clone());
    let lower_bound = optimality::slot_lower_bound(&deployment);
    let budget = spec.budget.max(1);

    // Enumerate the candidates, lattice family first (so candidate ids give
    // the paper's construction the tie-break under period-equal scores).
    let enumerate = span(Stage::CandidateEnumerate);
    let mut candidates: Vec<Candidate> = Vec::new();
    if spec.families.contains(&SearchFamily::Lattice) {
        let witnesses = sublattice_search::tiling_sublattices(shape)?;
        for (i, lambda) in witnesses.into_iter().take(budget).enumerate() {
            let generator = format!("theorem1 {lambda}");
            let tiling = Tiling::from_sublattice(shape.clone(), lambda)?;
            let schedule = theorem1::schedule_from_tiling(&tiling);
            let optimal = optimality::is_optimal(&schedule, &deployment);
            // The schedule tier compiles exactly the first witness
            // (`find_tiling` takes the first), so candidate 0 shares the
            // cached table; later witnesses are per-search artifacts.
            let compiled = if i == 0 {
                caches.schedules.get_or_compile(shape)?
            } else {
                Arc::new(CompiledSchedule::compile(&schedule)?)
            };
            let assignment: Vec<usize> = compiled
                .slots_of_region(&region)?
                .into_iter()
                .map(usize::from)
                .collect();
            let period = compiled.num_slots();
            let plan = caches.plans.get_or_build(&assignment, period, &adjacency)?;
            candidates.push(Candidate {
                family: SearchFamily::Lattice,
                generator,
                period,
                optimal,
                plan,
            });
        }
    }
    if spec.families.contains(&SearchFamily::Coloring) {
        // The conflict graph closes the plans' own adjacency, so a coloring
        // is directly a per-node slot assignment over it.
        let conflicts = {
            let _span = span(Stage::ConflictGraph);
            let out_lists =
                (0..nodes).map(|v| adjacency.neighbours_of(v).iter().map(|&u| u as usize));
            ConflictGraph::from_interference(out_lists).map_err(coloring_err)?
        };
        for (name, coloring) in coloring_candidates(&conflicts, budget)? {
            let period = coloring.colors_used.max(1);
            let plan = caches
                .plans
                .get_or_build(&coloring.colors, period, &adjacency)?;
            candidates.push(Candidate {
                family: SearchFamily::Coloring,
                generator: name.to_string(),
                // Coloring periods are annotated against the infinite-lattice
                // clique bound; on windows too small to contain a full
                // neighbourhood a coloring may use fewer colors than it.
                optimal: period == lower_bound,
                period,
                plan,
            });
        }
    }
    drop(enumerate);
    if candidates.is_empty() {
        return Err(invalid("search enumerated no candidates"));
    }

    // Evaluate the whole grid (candidates × traffic × retries × seeds) on the
    // sweep engine's run grid, folding each run into its candidate's
    // accumulator: one candidate per group.
    let rpc = spec.runs_per_candidate();
    let mut grid = GridContext::new(
        candidates.iter().map(|c| Arc::clone(&c.plan)).collect(),
        candidates
            .iter()
            .enumerate()
            .map(|(id, c)| format!("candidate {id} ({})", c.generator))
            .collect(),
        spec.slots,
        &spec.traffic,
        &spec.retries,
        &spec.seeds,
        KernelMac::Scheduled,
    );
    grid.fetch_traces(&caches.traces)?;
    let folds = grid.fold_groups(candidates.len(), |run| run / rpc)?;

    // Score and rank.
    let lattice_candidates = candidates
        .iter()
        .filter(|c| c.family == SearchFamily::Lattice)
        .count();
    let coloring_candidates = candidates.len() - lattice_candidates;
    let mut ranked: Vec<CandidateReport> = candidates
        .into_iter()
        .zip(folds)
        .enumerate()
        .map(|(id, (candidate, fold))| {
            let score = spec.objective.score(&fold, candidate.period);
            CandidateReport {
                id,
                family: candidate.family,
                generator: candidate.generator,
                period: candidate.period,
                optimal: candidate.optimal,
                score,
                plan_fingerprint: candidate.plan.fingerprint(),
                fold,
            }
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.period.cmp(&b.period))
            .then(a.id.cmp(&b.id))
    });
    ranked.truncate(spec.top.max(1));
    Ok(SearchOutcome {
        nodes,
        lower_bound,
        lattice_candidates,
        coloring_candidates,
        runs_per_candidate: rpc,
        ranked,
    })
}

/// Runs one schedule search through the content-addressed tier 5: the
/// `(scenario, objective)` fingerprint pair resolves a cached
/// [`SearchOutcome`] if one exists; otherwise the search executes cold
/// (enumerate → compile through tiers 1–4 → simulate → rank) and its outcome
/// is inserted. The report's `from_cache` flag and per-tier counters say
/// which happened; the search is one telemetry request, so they come from
/// its own recording.
///
/// # Errors
///
/// Propagates spec-resolution, enumeration, compilation and kernel errors,
/// and [`EngineError::RunPanicked`] for an evaluation run that panicked.
pub fn run_search(spec: &SearchSpec, caches: &SweepCaches) -> Result<SearchReport> {
    let start = Instant::now();
    let (outcome, recording, profiled) = telemetry::request(|| {
        let shape = spec.shape.prototile()?;
        if spec.runs_per_candidate() == 0 {
            return Err(invalid("search evaluation grid is empty"));
        }
        let (scenario, objective) = spec.fingerprints(&shape);
        caches
            .searches
            .get_or_build(scenario, objective, || execute_search(spec, &shape, caches))
    });
    let outcome = outcome?;
    Ok(SearchReport {
        name: spec.name.clone(),
        objective: spec.objective,
        window: spec.window,
        slots: spec.slots,
        // The request makes one search-tier lookup: a hit means tier 5
        // answered warm.
        from_cache: recording.counter(Counter::SearchHits) > 0,
        seconds: start.elapsed().as_secs_f64(),
        caches: SweepCacheStats::recorded(&recording, caches),
        outcome,
        telemetry: profiled.then_some(recording),
    })
}

/// The default search `engine-cli search` runs when given no spec file: the
/// paper's Figure 2 Moore scenario (the 3×3 Chebyshev ball) on a 16×16
/// window, minimizing p99 delivery latency over a 16-run evaluation grid per
/// candidate. The winning candidate is a Theorem 1 lattice tiling whose
/// 9-slot period matches the clique lower bound (`optimal = true`).
pub fn builtin_search() -> SearchSpec {
    SearchSpec {
        name: "moore-figure2-search".into(),
        shape: ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: latsched_lattice::Metric::Chebyshev,
        },
        window: 16,
        slots: 256,
        traffic: SweepTraffic::Bernoulli(vec![0.05, 0.1]),
        seeds: (1..=4).collect(),
        retries: vec![0, 2],
        objective: Objective::LatencyPercentile { q: 0.99 },
        families: vec![SearchFamily::Lattice, SearchFamily::Coloring],
        budget: 8,
        top: 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SearchSpec {
        SearchSpec {
            window: 6,
            slots: 64,
            traffic: SweepTraffic::Bernoulli(vec![0.1]),
            seeds: vec![1, 2].into(),
            retries: vec![0],
            budget: 3,
            ..builtin_search()
        }
    }

    #[test]
    fn objective_parse_name_roundtrip() {
        for name in ["period", "delivery", "energy", "latency_p99", "latency_p50"] {
            let objective = Objective::parse(name).unwrap();
            assert_eq!(Objective::parse(&objective.name()).unwrap(), objective);
        }
        assert_eq!(
            Objective::parse("delivery_ratio").unwrap(),
            Objective::DeliveryRatio
        );
        assert_eq!(
            Objective::parse("latency_p99").unwrap(),
            Objective::LatencyPercentile { q: 0.99 }
        );
        for bad in ["", "latency", "latency_p0", "latency_p101", "latency_pX"] {
            assert!(Objective::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn objective_scores_order_as_documented() {
        let mut good = OnlineFold::new();
        let mut counts = crate::simkernel::KernelCounts {
            packets_generated: 10,
            packets_delivered: 10,
            total_latency: 10,
            tx_slots: 10,
            ..Default::default()
        };
        good.observe(&counts);
        let mut bad = OnlineFold::new();
        counts.packets_delivered = 5;
        counts.total_latency = 100;
        counts.tx_slots = 40;
        bad.observe(&counts);
        for objective in [
            Objective::LatencyPercentile { q: 0.99 },
            Objective::DeliveryRatio,
            Objective::Energy,
        ] {
            assert!(
                objective.score(&good, 9) < objective.score(&bad, 9),
                "{objective} should prefer the better fold"
            );
        }
        assert!(Objective::Period.score(&bad, 9) < Objective::Period.score(&good, 10));
        // Undelivered grids score +∞ under latency and energy.
        let empty = OnlineFold::new();
        assert_eq!(
            Objective::LatencyPercentile { q: 0.5 }.score(&empty, 9),
            f64::INFINITY
        );
        assert_eq!(Objective::Energy.score(&empty, 9), f64::INFINITY);
    }

    #[test]
    fn parses_search_specs_with_defaults() {
        let text = r#"{
            "name": "s",
            "shape": {"kind": "ball", "dim": 2, "radius": 1},
            "window": 8,
            "slots": 128,
            "traffic": {"kind": "bernoulli", "loads": [0.05]}
        }"#;
        let specs = SearchSpec::parse_spec(text).unwrap();
        assert_eq!(specs.len(), 1);
        let spec = &specs[0];
        assert_eq!(spec.name, "s");
        assert_eq!(spec.seeds, SeedAxis::List(vec![1, 2, 3, 4]));
        assert_eq!(spec.retries, vec![0]);
        assert_eq!(spec.objective, Objective::LatencyPercentile { q: 0.99 });
        assert_eq!(
            spec.families,
            vec![SearchFamily::Lattice, SearchFamily::Coloring]
        );
        assert_eq!((spec.budget, spec.top), (8, 8));
        assert_eq!(spec.runs_per_candidate(), 4);
    }

    #[test]
    fn parses_explicit_fields_and_rejects_malformed_ones() {
        let text = r#"{
            "shape": {"kind": "ball", "dim": 2, "radius": 1, "metric": "euclidean"},
            "window": 10,
            "slots": 64,
            "traffic": {"kind": "periodic", "periods": [6]},
            "seeds": {"range": [1, 100]},
            "retries": [0, 2],
            "objective": "period",
            "families": ["coloring", "coloring", "lattice"],
            "budget": 2,
            "top": 3
        }"#;
        let spec = &SearchSpec::parse_spec(text).unwrap()[0];
        assert_eq!(spec.objective, Objective::Period);
        assert_eq!(spec.seeds, SeedAxis::Range { start: 1, end: 100 });
        // Duplicate families collapse, order preserved.
        assert_eq!(
            spec.families,
            vec![SearchFamily::Coloring, SearchFamily::Lattice]
        );
        // 1 traffic value × 2 retry budgets × 100 seeds.
        assert_eq!(spec.runs_per_candidate(), 200);

        let base = r#"{"shape": {"kind": "hex7"}, "window": 8, "slots": 64,
                       "traffic": {"kind": "bernoulli", "loads": [0.1]}"#;
        for (field, bad) in [
            ("objective", r#""fastest""#),
            ("objective", "17"),
            ("families", r#"["lattice", "random"]"#),
            ("families", r#"[]"#),
            ("budget", "0"),
            ("top", "0"),
            ("window", "0"),
        ] {
            let text = format!("{base}, \"{field}\": {bad}}}");
            assert!(
                SearchSpec::parse_spec(&text).is_err(),
                "{field}={bad} should be rejected"
            );
        }
        assert!(SearchSpec::parse_spec(r#"{"window": 4}"#).is_err());
    }

    #[test]
    fn fingerprints_separate_scenario_and_objective_changes() {
        let spec = tiny_spec();
        let shape = spec.shape.prototile().unwrap();
        let (scenario, objective) = spec.fingerprints(&shape);
        // Objective-side knobs move only the objective fingerprint.
        for changed in [
            SearchSpec {
                objective: Objective::Period,
                ..spec.clone()
            },
            SearchSpec {
                families: vec![SearchFamily::Lattice],
                ..spec.clone()
            },
            SearchSpec {
                budget: 1,
                ..spec.clone()
            },
            SearchSpec {
                top: 1,
                ..spec.clone()
            },
        ] {
            let (s2, o2) = changed.fingerprints(&shape);
            assert_eq!(s2, scenario);
            assert_ne!(o2, objective);
        }
        // Scenario-side knobs move only the scenario fingerprint.
        for changed in [
            SearchSpec {
                window: 7,
                ..spec.clone()
            },
            SearchSpec {
                slots: 65,
                ..spec.clone()
            },
            SearchSpec {
                seeds: vec![1, 3].into(),
                ..spec.clone()
            },
            SearchSpec {
                retries: vec![1],
                ..spec.clone()
            },
            SearchSpec {
                traffic: SweepTraffic::Bernoulli(vec![0.2]),
                ..spec.clone()
            },
        ] {
            let (s2, o2) = changed.fingerprints(&shape);
            assert_ne!(s2, scenario);
            assert_eq!(o2, objective);
        }
        // The name is cosmetic: same fingerprints.
        let renamed = SearchSpec {
            name: "other".into(),
            ..spec.clone()
        };
        assert_eq!(renamed.fingerprints(&shape), (scenario, objective));
    }

    #[test]
    fn tiny_search_ranks_lattice_winner_and_annotates_optimality() {
        let caches = SweepCaches::new();
        let report = run_search(&tiny_spec(), &caches).unwrap();
        assert!(!report.from_cache);
        let outcome = &report.outcome;
        assert_eq!(outcome.nodes, 36);
        assert_eq!(outcome.lower_bound, 9);
        assert_eq!(outcome.lattice_candidates, 3);
        assert_eq!(outcome.coloring_candidates, 3);
        assert_eq!(outcome.runs_per_candidate, 2);
        assert!(outcome.ranked.len() <= 6);
        let winner = report.winner().unwrap();
        assert_eq!(winner.family, SearchFamily::Lattice);
        assert!(winner.optimal);
        assert_eq!(winner.period, 9);
        assert_eq!(winner.fold.runs, 2);
        // Scheduled candidates are collision-free.
        assert_eq!(winner.fold.sums().collisions, 0);
        // Scores are sorted ascending.
        for pair in outcome.ranked.windows(2) {
            assert!(pair[0].score <= pair[1].score);
        }
        // Ranked JSON and Display render without panicking.
        assert!(report.to_json_value().get("ranked").is_some());
        assert!(report.to_string().contains("lattice"));
    }

    #[test]
    fn warm_search_hits_tier5_and_returns_identical_outcome() {
        let caches = SweepCaches::new();
        let spec = tiny_spec();
        let cold = run_search(&spec, &caches).unwrap();
        let warm = run_search(&spec, &caches).unwrap();
        assert!(warm.from_cache);
        assert_eq!(*cold.outcome, *warm.outcome);
        assert!(Arc::ptr_eq(&cold.outcome, &warm.outcome));
        // The warm run touched no tier but tier 5.
        let delta = warm.caches;
        assert_eq!((delta.searches.hits, delta.searches.misses), (1, 0));
        for tier in [
            delta.schedules,
            delta.adjacencies,
            delta.plans,
            delta.traces,
        ] {
            assert_eq!((tier.hits, tier.misses), (0, 0));
        }
        // A different objective over the same scenario is a distinct entry.
        let other = SearchSpec {
            objective: Objective::Period,
            ..spec
        };
        let report = run_search(&other, &caches).unwrap();
        assert!(!report.from_cache);
        assert_eq!(caches.searches.len(), 2);
    }

    #[test]
    fn period_objective_ranks_by_period_with_lattice_tiebreak() {
        let caches = SweepCaches::new();
        let spec = SearchSpec {
            objective: Objective::Period,
            ..tiny_spec()
        };
        let report = run_search(&spec, &caches).unwrap();
        let winner = report.winner().unwrap();
        // All lattice candidates share period 9 = |N|; candidate 0 wins the
        // id tie-break.
        assert_eq!((winner.id, winner.family), (0, SearchFamily::Lattice));
        assert_eq!(winner.score, 9.0);
        // TDMA (one slot per node) ranks last under the period objective.
        let last = report.outcome.ranked.last().unwrap();
        assert_eq!(last.generator, "tdma");
        assert_eq!(last.period, 36);
    }

    #[test]
    fn families_restrict_enumeration() {
        let caches = SweepCaches::new();
        let lattice_only = SearchSpec {
            families: vec![SearchFamily::Lattice],
            ..tiny_spec()
        };
        let report = run_search(&lattice_only, &caches).unwrap();
        assert_eq!(report.outcome.coloring_candidates, 0);
        assert!(report.outcome.lattice_candidates > 0);
        let coloring_only = SearchSpec {
            families: vec![SearchFamily::Coloring],
            ..tiny_spec()
        };
        let report = run_search(&coloring_only, &caches).unwrap();
        assert_eq!(report.outcome.lattice_candidates, 0);
        assert!(report
            .outcome
            .ranked
            .iter()
            .all(|c| c.family == SearchFamily::Coloring));
    }

    #[test]
    fn exact_generator_runs_on_small_windows_and_matches_the_bound() {
        let caches = SweepCaches::new();
        let spec = SearchSpec {
            window: 5,
            budget: 6,
            top: 16,
            objective: Objective::Period,
            ..tiny_spec()
        };
        let report = run_search(&spec, &caches).unwrap();
        let exact = report
            .outcome
            .ranked
            .iter()
            .find(|c| c.generator == "exact")
            .expect("exact runs on a 25-vertex window");
        // The 5×5 Moore window's chromatic number is exactly 9 (see the
        // coloring crate's own exact tests), matching the clique bound.
        assert_eq!(exact.period, 9);
        assert!(exact.optimal);
        assert_eq!(report.winner().unwrap().period, 9);
    }

    #[test]
    fn builtin_search_wins_with_an_optimal_lattice_tiling() {
        let caches = SweepCaches::new();
        let report = run_search(&builtin_search(), &caches).unwrap();
        let winner = report.winner().unwrap();
        assert_eq!(winner.family, SearchFamily::Lattice);
        assert!(winner.optimal);
        assert_eq!(winner.period, report.outcome.lower_bound);
    }
}
