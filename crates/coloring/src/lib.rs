//! # latsched-coloring
//!
//! Broadcast-scheduling baselines for the `latsched` library: interference graphs,
//! distance-2 conflict graphs and the colouring algorithms the paper's related-work
//! section compares against (plain TDMA, greedy heuristics, DSATUR, exact
//! branch-and-bound, simulated annealing).
//!
//! The paper frames optimal collision-free scheduling as distance-2 colouring of the
//! interference graph — an NP-complete problem in general. The tiling schedules of
//! `latsched-core` sidestep the hardness for lattice deployments; the algorithms in
//! this crate provide (a) the classical comparison points for experiment E6 and (b)
//! independent optimality cross-checks on small instances.
//!
//! Every algorithm colours a [`ConflictGraph`], stored as sorted neighbour lists: the
//! distance-2 closure that [`ConflictGraph::from_interference`] computes from any
//! directed adjacency's out-neighbour lists (as [`InterferenceGraph::conflict_graph`]
//! does from its own).
//!
//! ## Example
//!
//! ```
//! use latsched_coloring::{InterferenceGraph, dsatur_coloring, tdma_coloring};
//! use latsched_core::Deployment;
//! use latsched_lattice::BoxRegion;
//! use latsched_tiling::shapes;
//!
//! let window = BoxRegion::square_window(2, 6)?;
//! let graph = InterferenceGraph::from_window(
//!     &window,
//!     Deployment::Homogeneous(shapes::von_neumann()),
//! )?;
//! let conflicts = graph.conflict_graph();
//!
//! let tdma = tdma_coloring(&conflicts)?;
//! let dsatur = dsatur_coloring(&conflicts)?;
//! assert_eq!(tdma.colors_used, 36);          // one slot per sensor — does not scale
//! assert!(dsatur.colors_used <= 7);          // close to the tiling optimum of 5
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod annealing;
mod dsatur;
mod error;
mod exact;
mod graph;
mod greedy;
mod tdma;

pub use annealing::{anneal_with_colors, annealing_coloring, AnnealingParams};
pub use dsatur::dsatur_coloring;
pub use error::{ColoringError, Result};
pub use exact::{chromatic_number, exact_coloring};
pub use graph::{Coloring, ConflictGraph, InterferenceGraph};
pub use greedy::{greedy_coloring, GreedyOrder};
pub use tdma::tdma_coloring;
