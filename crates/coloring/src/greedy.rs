//! Greedy (first-fit) colouring heuristics.
//!
//! Baselines for the broadcast-scheduling comparison: colour the vertices one at a
//! time, giving each the smallest colour not used by an already-coloured neighbour.
//! The vertex order matters; three standard orders are provided.

use crate::error::{ColoringError, Result};
use crate::graph::{Coloring, ConflictGraph};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The vertex order used by the greedy colourer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum GreedyOrder {
    /// Vertices in their natural index order.
    Natural,
    /// Vertices by decreasing degree (Welsh–Powell).
    LargestDegreeFirst,
    /// A uniformly random order drawn from the given seed.
    Random(u64),
}

/// Greedy first-fit colouring in the requested vertex order.
///
/// # Errors
///
/// Returns [`ColoringError::EmptyGraph`] for an empty graph.
///
/// # Examples
///
/// ```
/// use latsched_coloring::{greedy_coloring, GreedyOrder, ConflictGraph};
///
/// let triangle = ConflictGraph::from_adjacency(vec![
///     vec![false, true, true],
///     vec![true, false, true],
///     vec![true, true, false],
/// ])?;
/// let coloring = greedy_coloring(&triangle, GreedyOrder::Natural)?;
/// assert_eq!(coloring.colors_used, 3);
/// # Ok::<(), latsched_coloring::ColoringError>(())
/// ```
pub fn greedy_coloring(graph: &ConflictGraph, order: GreedyOrder) -> Result<Coloring> {
    if graph.is_empty() {
        return Err(ColoringError::EmptyGraph);
    }
    let n = graph.len();
    let mut vertices: Vec<usize> = (0..n).collect();
    match order {
        GreedyOrder::Natural => {}
        GreedyOrder::LargestDegreeFirst => {
            vertices.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        }
        GreedyOrder::Random(seed) => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            vertices.shuffle(&mut rng);
        }
    }
    let mut colors = vec![usize::MAX; n];
    let mut used = Vec::new();
    for &v in &vertices {
        // First fit never needs a colour above `degree(v)`: the neighbours
        // block at most that many of the colours 0..=degree(v). Uncoloured
        // neighbours (usize::MAX) and higher colours cannot block one.
        let degree = graph.degree(v);
        used.clear();
        used.resize(degree + 1, false);
        for &u in graph.neighbours(v) {
            if colors[u] <= degree {
                used[colors[u]] = true;
            }
        }
        colors[v] = used
            .iter()
            .position(|&taken| !taken)
            .expect("degree + 1 colours always suffice");
    }
    Ok(Coloring::from_assignment(colors))
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
    fn greedy_colorings_are_proper_for_all_orders() {
        let graph = grid_conflicts(6);
        for order in [
            GreedyOrder::Natural,
            GreedyOrder::LargestDegreeFirst,
            GreedyOrder::Random(7),
        ] {
            let coloring = greedy_coloring(&graph, order).unwrap();
            assert!(graph.is_proper(&coloring.colors), "{order:?}");
            assert!(coloring.colors_used >= graph.greedy_clique_bound());
            assert!(coloring.colors_used <= graph.len());
        }
    }

    #[test]
    fn greedy_uses_far_fewer_slots_than_tdma() {
        let graph = grid_conflicts(8);
        let coloring = greedy_coloring(&graph, GreedyOrder::LargestDegreeFirst).unwrap();
        assert!(coloring.colors_used < graph.len() / 2);
    }

    #[test]
    fn random_order_is_deterministic_for_a_fixed_seed() {
        let graph = grid_conflicts(5);
        let a = greedy_coloring(&graph, GreedyOrder::Random(42)).unwrap();
        let b = greedy_coloring(&graph, GreedyOrder::Random(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_vertex_graph() {
        let g = ConflictGraph::from_adjacency(vec![vec![false]]).unwrap();
        let c = greedy_coloring(&g, GreedyOrder::Natural).unwrap();
        assert_eq!(c.colors_used, 1);
    }
}
