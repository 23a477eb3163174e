//! Simulated-annealing colouring.
//!
//! The related work surveyed by the paper includes stochastic-search approaches to
//! broadcast scheduling (Wang and Ansari's mean-field annealing, Shi and Wang's
//! neural-network hybrid). This module provides a classical simulated-annealing
//! colourer in that spirit: for a fixed colour budget it minimizes the number of
//! conflicting edges by random recolouring moves with a geometric cooling schedule,
//! and a driver searches for the smallest feasible budget.

use crate::dsatur::dsatur_coloring;
use crate::error::{ColoringError, Result};
use crate::graph::{Coloring, ConflictGraph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the annealing schedule.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct AnnealingParams {
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied after every sweep.
    pub cooling: f64,
    /// Number of sweeps (each sweep attempts `|V|` moves).
    pub sweeps: usize,
    /// RNG seed (all runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for AnnealingParams {
    fn default() -> Self {
        AnnealingParams {
            initial_temperature: 2.0,
            cooling: 0.95,
            sweeps: 200,
            seed: 0x5eed,
        }
    }
}

/// Attempts to colour the graph with exactly `colors` colours by simulated annealing,
/// returning a colouring with zero conflicts on success and `None` if the search ends
/// with conflicts remaining.
pub fn anneal_with_colors(
    graph: &ConflictGraph,
    colors: usize,
    params: &AnnealingParams,
) -> Option<Coloring> {
    if colors == 0 {
        return None;
    }
    let n = graph.len();
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    // Start from a random assignment.
    let mut assignment: Vec<usize> = (0..n).map(|_| rng.gen_range(0..colors)).collect();
    let mut conflicts = graph.conflict_count(&assignment);
    let mut temperature = params.initial_temperature;

    for _ in 0..params.sweeps {
        if conflicts == 0 {
            break;
        }
        for _ in 0..n {
            if conflicts == 0 {
                break;
            }
            let v = rng.gen_range(0..n);
            let old = assignment[v];
            let new = rng.gen_range(0..colors);
            if new == old {
                continue;
            }
            // Change in the number of conflicting edges incident to v.
            let mut delta: i64 = 0;
            for &u in graph.neighbours(v) {
                if assignment[u] == old {
                    delta -= 1;
                }
                if assignment[u] == new {
                    delta += 1;
                }
            }
            let accept =
                delta <= 0 || rng.gen::<f64>() < (-(delta as f64) / temperature.max(1e-9)).exp();
            if accept {
                assignment[v] = new;
                conflicts = (conflicts as i64 + delta) as usize;
            }
        }
        temperature *= params.cooling;
    }
    if conflicts == 0 {
        Some(Coloring::from_assignment(assignment))
    } else {
        None
    }
}

/// Searches for the smallest colour budget (up to the DSATUR upper bound) for which
/// annealing finds a conflict-free colouring.
///
/// The result is an upper bound on the chromatic number: annealing is a heuristic and
/// may fail to certify a feasible budget, in which case the DSATUR colouring is
/// returned instead (the baseline never does worse than DSATUR).
///
/// # Errors
///
/// Returns [`ColoringError::EmptyGraph`] for an empty graph.
pub fn annealing_coloring(graph: &ConflictGraph, params: &AnnealingParams) -> Result<Coloring> {
    if graph.is_empty() {
        return Err(ColoringError::EmptyGraph);
    }
    let upper = dsatur_coloring(graph)?;
    let lower = graph.greedy_clique_bound().max(1);
    let mut best = upper;
    let mut budget = best.colors_used.saturating_sub(1);
    while budget >= lower {
        match anneal_with_colors(graph, budget, params) {
            Some(coloring) => {
                debug_assert!(graph.is_proper(&coloring.colors));
                best = coloring;
                budget = best.colors_used.saturating_sub(1);
            }
            None => break,
        }
        if budget == 0 {
            break;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InterferenceGraph;
    use latsched_core::Deployment;
    use latsched_lattice::BoxRegion;
    use latsched_tiling::shapes;

    fn grid_conflicts(side: i64) -> ConflictGraph {
        let window = BoxRegion::square_window(2, side).unwrap();
        InterferenceGraph::from_window(&window, Deployment::Homogeneous(shapes::von_neumann()))
            .unwrap()
            .conflict_graph()
    }

    #[test]
    fn annealing_result_is_always_proper() {
        let graph = grid_conflicts(6);
        let coloring = annealing_coloring(&graph, &AnnealingParams::default()).unwrap();
        assert!(graph.is_proper(&coloring.colors));
        assert!(coloring.colors_used >= graph.greedy_clique_bound());
    }

    #[test]
    fn annealing_with_generous_budget_succeeds() {
        let graph = grid_conflicts(5);
        let coloring = anneal_with_colors(&graph, 12, &AnnealingParams::default()).unwrap();
        assert!(graph.is_proper(&coloring.colors));
        assert!(coloring.colors_used <= 12);
    }

    #[test]
    fn annealing_with_impossible_budget_fails() {
        // The clique on four vertices cannot be 3-coloured.
        let k4 = ConflictGraph::from_adjacency(vec![
            vec![false, true, true, true],
            vec![true, false, true, true],
            vec![true, true, false, true],
            vec![true, true, true, false],
        ])
        .unwrap();
        assert!(anneal_with_colors(&k4, 3, &AnnealingParams::default()).is_none());
        assert!(anneal_with_colors(&k4, 0, &AnnealingParams::default()).is_none());
    }

    #[test]
    fn annealing_is_deterministic_for_a_fixed_seed() {
        let graph = grid_conflicts(4);
        let params = AnnealingParams {
            seed: 99,
            ..AnnealingParams::default()
        };
        let a = annealing_coloring(&graph, &params).unwrap();
        let b = annealing_coloring(&graph, &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_never_does_worse_than_dsatur() {
        let graph = grid_conflicts(6);
        let ds = crate::dsatur::dsatur_coloring(&graph).unwrap();
        let ann = annealing_coloring(&graph, &AnnealingParams::default()).unwrap();
        assert!(ann.colors_used <= ds.colors_used);
    }
}
