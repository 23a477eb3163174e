//! The DSATUR colouring heuristic (Brélaz).
//!
//! DSATUR repeatedly colours the vertex with the highest *saturation* (number of
//! distinct colours among its coloured neighbours), breaking ties by degree. It is
//! the strongest of the polynomial heuristics used as baselines for the
//! broadcast-scheduling comparison, and is exact on many structured graphs.

use crate::error::{ColoringError, Result};
use crate::graph::{Coloring, ConflictGraph};
use std::collections::BTreeSet;

/// Colours the graph with the DSATUR heuristic.
///
/// # Errors
///
/// Returns [`ColoringError::EmptyGraph`] for an empty graph.
///
/// # Examples
///
/// ```
/// use latsched_coloring::{dsatur_coloring, ConflictGraph};
///
/// let path = ConflictGraph::from_adjacency(vec![
///     vec![false, true, false],
///     vec![true, false, true],
///     vec![false, true, false],
/// ])?;
/// assert_eq!(dsatur_coloring(&path)?.colors_used, 2);
/// # Ok::<(), latsched_coloring::ColoringError>(())
/// ```
pub fn dsatur_coloring(graph: &ConflictGraph) -> Result<Coloring> {
    if graph.is_empty() {
        return Err(ColoringError::EmptyGraph);
    }
    let n = graph.len();
    let mut colors = vec![usize::MAX; n];
    let mut neighbour_colors: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];

    for _ in 0..n {
        // Pick the uncoloured vertex with maximal saturation, ties by degree, then by
        // index (for determinism).
        let v = (0..n)
            .filter(|&v| colors[v] == usize::MAX)
            .max_by_key(|&v| {
                (
                    neighbour_colors[v].len(),
                    graph.degree(v),
                    std::cmp::Reverse(v),
                )
            })
            .expect("an uncoloured vertex remains");
        let c = (0..n)
            .find(|c| !neighbour_colors[v].contains(c))
            .expect("n colours always suffice");
        colors[v] = c;
        for &u in graph.neighbours(v) {
            neighbour_colors[u].insert(c);
        }
    }
    Ok(Coloring::from_assignment(colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InterferenceGraph;
    use crate::greedy::{greedy_coloring, GreedyOrder};
    use latsched_core::Deployment;
    use latsched_lattice::BoxRegion;
    use latsched_tiling::shapes;

    fn grid_conflicts(side: i64, shape: latsched_tiling::Prototile) -> ConflictGraph {
        let window = BoxRegion::square_window(2, side).unwrap();
        InterferenceGraph::from_window(&window, Deployment::Homogeneous(shape))
            .unwrap()
            .conflict_graph()
    }

    #[test]
    fn dsatur_is_proper_and_at_least_the_clique_bound() {
        let graph = grid_conflicts(7, shapes::von_neumann());
        let coloring = dsatur_coloring(&graph).unwrap();
        assert!(graph.is_proper(&coloring.colors));
        assert!(coloring.colors_used >= graph.greedy_clique_bound());
    }

    #[test]
    fn dsatur_is_no_worse_than_natural_greedy_on_lattice_graphs() {
        for shape in [shapes::von_neumann(), shapes::moore()] {
            let graph = grid_conflicts(6, shape);
            let ds = dsatur_coloring(&graph).unwrap();
            let greedy = greedy_coloring(&graph, GreedyOrder::Natural).unwrap();
            assert!(ds.colors_used <= greedy.colors_used + 1);
        }
    }

    #[test]
    fn dsatur_finds_the_optimum_for_the_moore_neighbourhood_window() {
        // The Moore neighbourhood needs 9 slots in the infinite lattice; on an
        // aligned 6×6 window DSATUR should also reach 9 (it contains a 3×3 clique so
        // fewer is impossible).
        let graph = grid_conflicts(6, shapes::moore());
        let coloring = dsatur_coloring(&graph).unwrap();
        assert!(coloring.colors_used >= 9);
        assert!(coloring.colors_used <= 12, "DSATUR should stay close to 9");
    }

    #[test]
    fn two_isolated_vertices_share_a_colour() {
        let g =
            ConflictGraph::from_adjacency(vec![vec![false, false], vec![false, false]]).unwrap();
        assert_eq!(dsatur_coloring(&g).unwrap().colors_used, 1);
    }
}
