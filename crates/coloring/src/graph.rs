//! Interference graphs of sensor deployments.
//!
//! The related-work section of the paper frames broadcast scheduling on a *directed
//! interference graph*: one node per sensor, and an edge from `v` to `u` whenever `u`
//! is affected by the radio communication of `v`. A valid schedule with `m` slots is
//! then a distance-2 colouring with `m` colours of that graph, which is the classical
//! (NP-complete) broadcast scheduling problem. This module builds these graphs from
//! lattice deployments so the classical algorithms can be compared against the
//! tiling-based schedules.

use crate::error::{ColoringError, Result};
use latsched_core::{Deployment, FiniteDeployment};
use latsched_lattice::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A directed interference graph over a finite set of sensors.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct InterferenceGraph {
    /// Sensor positions, indexed by vertex id.
    positions: Vec<Point>,
    /// `out[v]` lists the vertices affected by a broadcast of `v` (excluding `v`).
    out: Vec<Vec<usize>>,
}

impl InterferenceGraph {
    /// Builds the interference graph of a finite deployment: an edge `v → u` exists
    /// iff `u ≠ v` and `u ∈ v + N_v`.
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError::EmptyGraph`] for an empty deployment and propagates
    /// lattice errors.
    pub fn from_deployment(finite: &FiniteDeployment) -> Result<Self> {
        let positions = finite.positions().to_vec();
        if positions.is_empty() {
            return Err(ColoringError::EmptyGraph);
        }
        let index_of = |p: &Point| positions.binary_search(p).ok();
        let mut out = vec![Vec::new(); positions.len()];
        for (v, p) in positions.iter().enumerate() {
            let neighbourhood = finite.deployment().neighbourhood_of(p)?;
            for q in neighbourhood {
                if &q == p {
                    continue;
                }
                if let Some(u) = index_of(&q) {
                    out[v].push(u);
                }
            }
            out[v].sort_unstable();
            out[v].dedup();
        }
        Ok(InterferenceGraph { positions, out })
    }

    /// Builds the interference graph of all sensors in a box window under the given
    /// interference model.
    ///
    /// # Errors
    ///
    /// Same as [`InterferenceGraph::from_deployment`].
    pub fn from_window(
        window: &latsched_lattice::BoxRegion,
        deployment: Deployment,
    ) -> Result<Self> {
        let finite = FiniteDeployment::window(window, deployment)?;
        InterferenceGraph::from_deployment(&finite)
    }

    /// Number of sensors (vertices).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the graph has no vertices (never true for a validly constructed graph).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The sensor position of a vertex.
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError::VertexOutOfRange`] for an invalid index.
    pub fn position(&self, v: usize) -> Result<&Point> {
        self.positions
            .get(v)
            .ok_or(ColoringError::VertexOutOfRange {
                vertex: v,
                vertices: self.positions.len(),
            })
    }

    /// All sensor positions, indexed by vertex id.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The vertices affected by a broadcast of `v` (its out-neighbours).
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError::VertexOutOfRange`] for an invalid index.
    pub fn affected_by(&self, v: usize) -> Result<&[usize]> {
        self.out
            .get(v)
            .map(Vec::as_slice)
            .ok_or(ColoringError::VertexOutOfRange {
                vertex: v,
                vertices: self.positions.len(),
            })
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// The *conflict graph* for broadcast scheduling: an undirected graph in which
    /// two sensors are adjacent iff they must not share a time slot, i.e. iff they
    /// are within distance 2 of each other in the symmetrized interference graph
    /// (equivalently: one affects the other, or they affect a common sensor, or a
    /// common sensor is affected by both — the hidden-terminal situation).
    pub fn conflict_graph(&self) -> ConflictGraph {
        ConflictGraph::from_interference(self.out.iter().map(|outs| outs.iter().copied()))
            .expect("a constructed interference graph is non-empty and indexes its own vertices")
    }
}

impl fmt::Display for InterferenceGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interference graph with {} sensors and {} directed edges",
            self.len(),
            self.edge_count()
        )
    }
}

/// An undirected conflict graph: vertices that are adjacent must receive different
/// time slots. This is the graph that all colouring baselines operate on, stored as
/// one ascending neighbour list per vertex (on a lattice window, at most a number of
/// entries fixed by the shape, however large the window).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ConflictGraph {
    /// `neighbours[v]` lists the vertices adjacent to `v`, ascending, without `v`.
    neighbours: Vec<Vec<usize>>,
}

impl ConflictGraph {
    /// Creates a conflict graph from an adjacency matrix (symmetrized; the diagonal
    /// is ignored).
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError::EmptyGraph`] if the matrix is empty.
    pub fn from_adjacency(adjacency: Vec<Vec<bool>>) -> Result<Self> {
        if adjacency.is_empty() {
            return Err(ColoringError::EmptyGraph);
        }
        let n = adjacency.len();
        let edge = |i: usize, j: usize| adjacency[i].get(j) == Some(&true);
        let neighbours = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i && (edge(i, j) || edge(j, i)))
                    .collect()
            })
            .collect();
        Ok(ConflictGraph { neighbours })
    }

    /// The distance-2 conflict graph of a directed interference graph given by its
    /// out-neighbour lists (`v`'s list names the vertices `v` affects): two vertices
    /// conflict iff they are within distance 2 once every edge is made undirected.
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError::EmptyGraph`] for no lists and
    /// [`ColoringError::VertexOutOfRange`] for a neighbour id that is not a vertex.
    pub fn from_interference<I, L>(out_lists: I) -> Result<Self>
    where
        I: IntoIterator<Item = L>,
        I::IntoIter: ExactSizeIterator,
        L: IntoIterator<Item = usize>,
    {
        let out_lists = out_lists.into_iter();
        let vertices = out_lists.len();
        if vertices == 0 {
            return Err(ColoringError::EmptyGraph);
        }
        // The undirected (distance-1) relation, then every row's 2-hop closure.
        let mut near = vec![Vec::new(); vertices];
        for (v, outs) in out_lists.enumerate() {
            for u in outs {
                if u >= vertices {
                    return Err(ColoringError::VertexOutOfRange {
                        vertex: u,
                        vertices,
                    });
                }
                near[v].push(u);
                near[u].push(v);
            }
        }
        for list in &mut near {
            list.sort_unstable();
            list.dedup();
        }
        let two_hop = |v: usize| near[v].iter().chain(near[v].iter().flat_map(|&w| &near[w]));
        let neighbours = (0..vertices)
            .map(|v| {
                let mut row: Vec<usize> = two_hop(v).copied().filter(|&u| u != v).collect();
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        Ok(ConflictGraph { neighbours })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.neighbours.len()
    }

    /// Whether the graph has no vertices (never true for a validly constructed graph).
    pub fn is_empty(&self) -> bool {
        self.neighbours.is_empty()
    }

    /// Whether two vertices conflict.
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        self.neighbours[a].binary_search(&b).is_ok()
    }

    /// The degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.neighbours[v].len()
    }

    /// The neighbours of a vertex, ascending.
    pub fn neighbours(&self, v: usize) -> &[usize] {
        &self.neighbours[v]
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbours.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Checks whether a colouring (one colour per vertex) is proper.
    pub fn is_proper(&self, colors: &[usize]) -> bool {
        colors.len() == self.len() && self.conflict_count(colors) == 0
    }

    /// The number of conflicting (monochromatic) edges of a colouring; zero iff
    /// proper.
    pub fn conflict_count(&self, colors: &[usize]) -> usize {
        (0..self.len())
            .flat_map(|v| self.neighbours[v].iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| u > v && colors.get(u) == colors.get(v))
            .count()
    }

    /// Size of a maximal clique found greedily (largest-degree-first): a lower bound
    /// on the chromatic number.
    pub fn greedy_clique_bound(&self) -> usize {
        let n = self.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        let mut clique: Vec<usize> = Vec::new();
        for v in order {
            if clique.iter().all(|&u| self.conflicts(v, u)) {
                clique.push(v);
            }
        }
        clique.len()
    }
}

impl fmt::Display for ConflictGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict graph with {} vertices and {} edges",
            self.len(),
            self.edge_count()
        )
    }
}

/// A colouring result: the number of colours used and the per-vertex assignment.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Coloring {
    /// Number of colours used (`max(colors) + 1`).
    pub colors_used: usize,
    /// Colour of each vertex.
    pub colors: Vec<usize>,
}

impl Coloring {
    /// Builds a colouring value from a raw assignment.
    pub fn from_assignment(colors: Vec<usize>) -> Self {
        let colors_used = colors.iter().max().map(|&c| c + 1).unwrap_or(0);
        Coloring {
            colors_used,
            colors,
        }
    }
}

impl fmt::Display for Coloring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "colouring with {} colours", self.colors_used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latsched_lattice::BoxRegion;
    use latsched_tiling::shapes;

    fn small_graph() -> InterferenceGraph {
        let window = BoxRegion::square_window(2, 4).unwrap();
        InterferenceGraph::from_window(&window, Deployment::Homogeneous(shapes::von_neumann()))
            .unwrap()
    }

    #[test]
    fn interference_graph_structure() {
        let g = small_graph();
        assert_eq!(g.len(), 16);
        assert!(!g.is_empty());
        // A corner sensor affects its two in-window neighbours.
        let corner = g
            .positions()
            .iter()
            .position(|p| p == &Point::xy(0, 0))
            .unwrap();
        assert_eq!(g.affected_by(corner).unwrap().len(), 2);
        // An interior sensor affects four neighbours.
        let interior = g
            .positions()
            .iter()
            .position(|p| p == &Point::xy(1, 1))
            .unwrap();
        assert_eq!(g.affected_by(interior).unwrap().len(), 4);
        assert!(g.edge_count() > 0);
        assert!(g.to_string().contains("16 sensors"));
        assert!(g.position(0).is_ok());
        assert!(g.position(99).is_err());
        assert!(g.affected_by(99).is_err());
    }

    #[test]
    fn conflict_graph_is_distance_two() {
        let g = small_graph();
        let c = g.conflict_graph();
        assert_eq!(c.len(), 16);
        let idx = |x: i64, y: i64| {
            g.positions()
                .iter()
                .position(|p| p == &Point::xy(x, y))
                .unwrap()
        };
        // Distance 1 and 2 conflict; distance 3 does not.
        assert!(c.conflicts(idx(0, 0), idx(1, 0)));
        assert!(c.conflicts(idx(0, 0), idx(2, 0)));
        assert!(c.conflicts(idx(0, 0), idx(1, 1)));
        assert!(!c.conflicts(idx(0, 0), idx(3, 0)));
        assert!(!c.conflicts(idx(0, 0), idx(0, 0)));
    }

    #[test]
    fn conflict_graph_helpers() {
        let c = small_graph().conflict_graph();
        assert!(c.degree(0) >= 5);
        assert_eq!(c.neighbours(0).len(), c.degree(0));
        assert!(c.edge_count() > 0);
        assert!(c.greedy_clique_bound() >= 3);
        assert!(!c.is_empty());
        assert!(c.to_string().contains("16 vertices"));

        // A proper colouring vs an improper one.
        let tdma: Vec<usize> = (0..c.len()).collect();
        assert!(c.is_proper(&tdma));
        assert_eq!(c.conflict_count(&tdma), 0);
        let all_zero = vec![0; c.len()];
        assert!(!c.is_proper(&all_zero));
        assert_eq!(c.conflict_count(&all_zero), c.edge_count());
        assert!(!c.is_proper(&[0]));
    }

    #[test]
    fn from_adjacency_symmetrizes() {
        let g = ConflictGraph::from_adjacency(vec![
            vec![false, true, false],
            vec![false, false, false],
            vec![true, false, true],
        ])
        .unwrap();
        assert!(g.conflicts(0, 1));
        assert!(g.conflicts(1, 0));
        assert!(g.conflicts(0, 2));
        assert!(!g.conflicts(2, 2), "diagonal must be ignored");
        assert!(ConflictGraph::from_adjacency(vec![]).is_err());
    }

    #[test]
    fn from_interference_closes_directed_paths_at_distance_two() {
        // 0 → 1 → 2 and a self-loop: 0 and 2 share the receiver 1, so all three
        // conflict; the self-loop is dropped.
        let g = ConflictGraph::from_interference([vec![1], vec![2, 1], vec![]]).unwrap();
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(g.edge_count(), 3);
        let isolated = ConflictGraph::from_interference([vec![], vec![]]).unwrap();
        assert_eq!(isolated.edge_count(), 0);
        assert_eq!(
            ConflictGraph::from_interference(Vec::<Vec<usize>>::new()).unwrap_err(),
            ColoringError::EmptyGraph
        );
        assert!(ConflictGraph::from_interference([vec![2]]).is_err());
    }

    #[test]
    fn coloring_from_assignment() {
        let c = Coloring::from_assignment(vec![0, 2, 1, 2]);
        assert_eq!(c.colors_used, 3);
        assert!(c.to_string().contains("3 colours"));
        assert_eq!(Coloring::from_assignment(vec![]).colors_used, 0);
    }

    #[test]
    fn empty_deployment_is_rejected() {
        // FiniteDeployment cannot be empty, so construct the error via from_adjacency.
        assert_eq!(
            ConflictGraph::from_adjacency(Vec::new()).unwrap_err(),
            ColoringError::EmptyGraph
        );
    }
}
