//! # latsched
//!
//! Collision-free, provably optimal broadcast schedules for wirelessly communicating
//! sensors placed on the points of a lattice — a faithful, from-scratch reproduction
//! of *Scheduling Sensors by Tiling Lattices* (Andreas Klappenecker, Hyunyoung Lee,
//! Jennifer L. Welch, 2008).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`lattice`] | `latsched-lattice` | Euclidean lattices, integer linear algebra, sublattices, cosets, Voronoi cells |
//! | [`tiling`] | `latsched-tiling` | Prototiles, tilings (T1/T2, GT1/GT2), exactness algorithms (sublattice search, Beauquier–Nivat) |
//! | [`core`] | `latsched-core` | Theorems 1 and 2, schedule verification, optimality, finite restrictions, mobile sensors |
//! | [`coloring`] | `latsched-coloring` | Interference graphs, distance-2 colouring baselines (TDMA, greedy, DSATUR, exact, annealing) |
//! | [`sensornet`] | `latsched-sensornet` | Slot-synchronous network simulator with the paper's interference model |
//! | [`engine`] | `latsched-engine` | Compiled, batched, parallel schedule-query engine (dense coset tables, cache tiers, scenario CLI) |
//!
//! ## Quick start
//!
//! ```
//! use latsched::prelude::*;
//!
//! // Sensors on Z² with the 3×3 Moore interference neighbourhood (Figure 2, left).
//! let neighbourhood = shapes::moore();
//!
//! // Find a tiling of the lattice by that neighbourhood and read off the schedule.
//! let tiling = find_tiling(&neighbourhood)?.expect("the Moore neighbourhood is exact");
//! let schedule = theorem1::schedule_from_tiling(&tiling);
//! let deployment = theorem1::deployment_for(&tiling);
//!
//! // 9 slots, collision-free on the whole infinite lattice, and optimal.
//! assert_eq!(schedule.num_slots(), 9);
//! assert!(verify::verify_schedule(&schedule, &deployment)?.collision_free());
//! assert!(optimality::is_optimal(&schedule, &deployment));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use latsched_coloring as coloring;
pub use latsched_core as core;
pub use latsched_engine as engine;
pub use latsched_lattice as lattice;
pub use latsched_sensornet as sensornet;
pub use latsched_tiling as tiling;

/// A convenient set of re-exports covering the most common entry points.
pub mod prelude {
    pub use latsched_coloring::{
        dsatur_coloring, exact_coloring, greedy_coloring, tdma_coloring, ConflictGraph,
        GreedyOrder, InterferenceGraph,
    };
    pub use latsched_core::{
        mobile, optimality, theorem1, theorem2, verify, Deployment, FiniteDeployment,
        PeriodicSchedule, SlotSource,
    };
    pub use latsched_engine::{
        builtin_scenarios, run_scenario, CompiledSchedule, PlanCache, Scenario, ScheduleCache,
        TraceCache,
    };
    pub use latsched_lattice::{
        ball_points, hexagonal_lattice, square_lattice, voronoi_cell, BoxRegion, DynReducer,
        Embedding, FixedReducer, IntMatrix, MagicDiv, Metric, Point, Sublattice,
    };
    pub use latsched_sensornet::{
        aloha_mac, coloring_mac, grid_network, run_comparison, run_simulation, run_simulation_with,
        tiling_mac, FrameKernel, MacPolicy, Network, ReferenceKernel, SimBackend, SimConfig,
        TrafficModel,
    };
    pub use latsched_tiling::{
        boundary_word, check_exactness, find_tiling, is_exact, is_exact_polyomino, shapes,
        tetromino, tile_torus, tile_torus_with_all, MultiTiling, Prototile, Tetromino, Tiling,
        TorusSearch, TranslationSet,
    };
}
