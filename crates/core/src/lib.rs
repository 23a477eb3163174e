//! # latsched-core
//!
//! Collision-free optimal broadcast schedules derived from lattice tilings — the
//! primary contribution of *Scheduling Sensors by Tiling Lattices* (Klappenecker,
//! Lee, Welch, 2008).
//!
//! Sensors sit on the points of a lattice `L`, share one radio channel, and the
//! sensor at `t` interferes with exactly the sensors at `t + N` for a prototile `N`.
//! Given a tiling of `L` by translates of `N`:
//!
//! * [`theorem1::schedule_from_tiling`] builds the deterministic periodic schedule of
//!   **Theorem 1**: `m = |N|` time slots, collision-free, and optimal (no
//!   collision-free periodic schedule uses fewer slots).
//! * [`theorem2::schedule_from_multi_tiling`] builds the **Theorem 2** schedule for
//!   heterogeneous deployments (several prototiles, deployment rule D1); it is
//!   collision-free always and optimal for *respectable* tilings.
//! * [`verify`] proves (exactly, for the whole infinite lattice) that a schedule is
//!   collision-free for a deployment; [`optimality`] checks the matching lower
//!   bounds and reproduces the Figure 5 phenomenon that without respectability the
//!   optimum depends on the chosen tiling.
//! * [`FiniteDeployment`] restricts schedules to finite deployments and checks the
//!   paper's `N₁ + N₁` condition for the restriction to stay optimal.
//! * [`mobile`] extends the scheme to mobile sensors by assigning slots to Voronoi
//!   cells of lattice points (the paper's concluding construction).
//!
//! ## Quick start
//!
//! ```
//! use latsched_core::{theorem1, verify, optimality};
//! use latsched_tiling::{shapes, find_tiling};
//!
//! // Figure 3: sensors on Z² with the 8-point directional-antenna neighbourhood.
//! let antenna = shapes::directional_antenna();
//! let tiling = find_tiling(&antenna)?.expect("the antenna prototile tiles Z²");
//!
//! let schedule = theorem1::schedule_from_tiling(&tiling);
//! let deployment = theorem1::deployment_for(&tiling);
//!
//! assert_eq!(schedule.num_slots(), 8);                          // m = |N|
//! assert!(verify::verify_schedule(&schedule, &deployment)?.collision_free());
//! assert!(optimality::is_optimal(&schedule, &deployment));      // matches the bound
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod deployment;
mod error;
pub mod mobile;
pub mod optimality;
mod restriction;
mod schedule;
pub mod theorem1;
pub mod theorem2;
pub mod verify;

pub use deployment::Deployment;
pub use error::{Result, ScheduleError};
pub use restriction::FiniteDeployment;
pub use schedule::{PeriodicSchedule, SlotSource};
pub use verify::{Collision, VerificationReport};
