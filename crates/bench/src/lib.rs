//! # latsched-bench
//!
//! The experiment harness and micro-benchmarks of the `latsched` reproduction of
//! *Scheduling Sensors by Tiling Lattices* (Klappenecker, Lee, Welch, 2008).
//!
//! The paper contains no numbered tables; its evaluation content is Figures 1–5 plus
//! the quantitative claims in the introduction, related work and conclusions. Each of
//! those artifacts has an experiment here (E1–E8, see DESIGN.md §3 for the mapping),
//! runnable via the `harness` binary:
//!
//! ```bash
//! cargo run --release -p latsched-bench --bin harness            # all experiments
//! cargo run --release -p latsched-bench --bin harness -- E5      # one experiment
//! cargo run --release -p latsched-bench --bin harness -- --json out.json all
//! ```
//!
//! `harness --bench` measures the committed performance baseline, `BENCH.json`
//! (see [`baseline`]), and the `perf_gate` binary checks a fresh measurement
//! against it.
//!
//! Criterion micro-benchmarks live under `benches/` (one per experiment family) and
//! are run with `cargo bench -p latsched-bench`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod alloc;
pub mod baseline;
pub mod experiments;
pub mod replay;
pub mod report;
pub mod search;
pub mod simbench;
pub mod sweep;
pub mod telemetry;
pub mod tracecache;

pub use aggregate::measure_aggregate;
pub use baseline::Measurement;
pub use experiments::{run_all, run_by_id, ExpResult};
pub use replay::measure_replay;
pub use report::Table;
pub use search::measure_search;
pub use simbench::measure_simkernel;
pub use sweep::measure_sweep;
pub use telemetry::measure_telemetry;
pub use tracecache::measure_tracecache;
