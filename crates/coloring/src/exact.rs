//! Exact minimal colouring by branch and bound.
//!
//! Distance-2 colouring is NP-complete (McCormick; Lloyd and Ramanathan show it stays
//! NP-complete for planar graphs with 7 slots), so no polynomial exact algorithm is
//! expected. This branch-and-bound solver is intended for the small instances used to
//! certify the optimality of tiling schedules and to calibrate the heuristics; it
//! combines a greedy clique lower bound with a DSATUR upper bound and then tightens
//! the bound by exact backtracking.

use crate::dsatur::dsatur_coloring;
use crate::error::{ColoringError, Result};
use crate::graph::{Coloring, ConflictGraph};

/// Computes the chromatic number of the conflict graph and a witness colouring,
/// limited to `max_colors` colours.
///
/// # Errors
///
/// * [`ColoringError::EmptyGraph`] for an empty graph;
/// * [`ColoringError::Infeasible`] if more than `max_colors` colours are needed.
///
/// # Examples
///
/// ```
/// use latsched_coloring::{exact_coloring, ConflictGraph};
///
/// let cycle5 = ConflictGraph::from_adjacency(vec![
///     vec![false, true, false, false, true],
///     vec![true, false, true, false, false],
///     vec![false, true, false, true, false],
///     vec![false, false, true, false, true],
///     vec![true, false, false, true, false],
/// ])?;
/// // An odd cycle needs 3 colours.
/// assert_eq!(exact_coloring(&cycle5, 10)?.colors_used, 3);
/// # Ok::<(), latsched_coloring::ColoringError>(())
/// ```
pub fn exact_coloring(graph: &ConflictGraph, max_colors: usize) -> Result<Coloring> {
    if graph.is_empty() {
        return Err(ColoringError::EmptyGraph);
    }
    let lower = graph.greedy_clique_bound().max(1);
    let upper_coloring = dsatur_coloring(graph)?;
    let mut best = upper_coloring.clone();
    if best.colors_used <= lower {
        if lower > max_colors {
            return Err(ColoringError::Infeasible { max_colors });
        }
        return Ok(best);
    }
    // Try every colour count from the lower bound up to (upper bound − 1); the first
    // feasible count is the chromatic number.
    for k in lower..best.colors_used {
        if k > max_colors {
            return Err(ColoringError::Infeasible { max_colors });
        }
        if let Some(colors) = colour_with(graph, k) {
            best = Coloring::from_assignment(colors);
            break;
        }
    }
    if best.colors_used > max_colors {
        return Err(ColoringError::Infeasible { max_colors });
    }
    Ok(best)
}

/// Exact chromatic number (convenience wrapper around [`exact_coloring`]).
///
/// # Errors
///
/// Same as [`exact_coloring`].
pub fn chromatic_number(graph: &ConflictGraph, max_colors: usize) -> Result<usize> {
    Ok(exact_coloring(graph, max_colors)?.colors_used)
}

/// Backtracking `k`-colourability with largest-degree-first ordering and palette
/// symmetry breaking.
fn colour_with(graph: &ConflictGraph, k: usize) -> Option<Vec<usize>> {
    let n = graph.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    let mut colors = vec![usize::MAX; n];

    fn backtrack(
        graph: &ConflictGraph,
        order: &[usize],
        colors: &mut Vec<usize>,
        idx: usize,
        k: usize,
    ) -> bool {
        if idx == order.len() {
            return true;
        }
        let v = order[idx];
        let used_so_far = colors
            .iter()
            .filter(|&&c| c != usize::MAX)
            .max()
            .map(|&c| c + 1)
            .unwrap_or(0);
        for c in 0..k.min(used_so_far + 1) {
            let clash = graph.neighbours(v).iter().any(|&u| colors[u] == c);
            if clash {
                continue;
            }
            colors[v] = c;
            if backtrack(graph, order, colors, idx + 1, k) {
                return true;
            }
            colors[v] = usize::MAX;
        }
        false
    }

    if backtrack(graph, &order, &mut colors, 0, k) {
        Some(colors)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InterferenceGraph;
    use latsched_core::Deployment;
    use latsched_lattice::BoxRegion;
    use latsched_tiling::shapes;

    #[test]
    fn exact_matches_known_chromatic_numbers() {
        // Complete graph K4.
        let k4 = ConflictGraph::from_adjacency(vec![
            vec![false, true, true, true],
            vec![true, false, true, true],
            vec![true, true, false, true],
            vec![true, true, true, false],
        ])
        .unwrap();
        assert_eq!(chromatic_number(&k4, 10).unwrap(), 4);
        // Bipartite path.
        let path = ConflictGraph::from_adjacency(vec![
            vec![false, true, false, false],
            vec![true, false, true, false],
            vec![false, true, false, true],
            vec![false, false, true, false],
        ])
        .unwrap();
        assert_eq!(chromatic_number(&path, 10).unwrap(), 2);
    }

    #[test]
    fn exact_coloring_is_proper_and_minimal_on_lattice_windows() {
        let window = BoxRegion::square_window(2, 5).unwrap();
        let graph =
            InterferenceGraph::from_window(&window, Deployment::Homogeneous(shapes::moore()))
                .unwrap()
                .conflict_graph();
        let coloring = exact_coloring(&graph, 16).unwrap();
        assert!(graph.is_proper(&coloring.colors));
        // The window contains a 5×5 full clique of the Moore distance-2 relation? No:
        // the clique bound is 9 (a 3×3 block) and the window restriction admits a
        // 9-colouring, so the chromatic number is exactly 9.
        assert_eq!(coloring.colors_used, 9);
    }

    #[test]
    fn infeasible_budget_is_reported() {
        let k4 = ConflictGraph::from_adjacency(vec![
            vec![false, true, true, true],
            vec![true, false, true, true],
            vec![true, true, false, true],
            vec![true, true, true, false],
        ])
        .unwrap();
        assert!(matches!(
            exact_coloring(&k4, 3),
            Err(ColoringError::Infeasible { max_colors: 3 })
        ));
    }

    #[test]
    fn exact_never_beats_the_clique_bound() {
        let window = BoxRegion::square_window(2, 6).unwrap();
        let graph =
            InterferenceGraph::from_window(&window, Deployment::Homogeneous(shapes::von_neumann()))
                .unwrap()
                .conflict_graph();
        let coloring = exact_coloring(&graph, 16).unwrap();
        assert!(coloring.colors_used >= graph.greedy_clique_bound());
        assert!(graph.is_proper(&coloring.colors));
        // The plus-shaped neighbourhood tiles the lattice, so the periodic optimum is
        // 5; the finite window can need at most that.
        assert!(coloring.colors_used <= 5);
    }
}
