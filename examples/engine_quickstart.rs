//! The compiled schedule-query engine in one sitting: compile the Figure 2
//! neighbourhood schedules through the schedule cache, batch-answer a 512×512
//! window of point queries, and cross-check the compiled backend against the
//! paper's exact whole-lattice verifier.
//!
//! Run with: `cargo run --release --example engine_quickstart`

use latsched::engine::telemetry::{request, Counter};
use latsched::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = ScheduleCache::new();
    let window = BoxRegion::square_window(2, 512)?;

    for (name, shape) in [
        ("moore9", shapes::chebyshev_ball(2, 1)?),
        ("plus5", shapes::euclidean_ball(2, 1)?),
        ("antenna8", shapes::directional_antenna()),
    ] {
        // Compile once (tiling search + dense table build) …
        let compile_start = Instant::now();
        let compiled = cache.get_or_compile(&shape)?;
        let compile_time = compile_start.elapsed();

        // … then serve a quarter-million queries in one batched call.
        let query_start = Instant::now();
        let slots = compiled.slots_of_region(&window)?;
        let query_time = query_start.elapsed();

        // The compiled table still passes the paper's exact collision-freedom
        // proof for the whole infinite lattice.
        let tiling = find_tiling(&shape)?.expect("Figure 2 shapes are exact");
        let deployment = theorem1::deployment_for(&tiling);
        assert!(compiled.verify(&deployment)?.collision_free());

        println!(
            "{name:<9} m={:<2}  compiled in {compile_time:>9.1?}, {} queries in {query_time:>9.1?} \
             ({:.1} M queries/s)",
            compiled.num_slots(),
            slots.len(),
            slots.len() as f64 / query_time.as_secs_f64() / 1e6,
        );
    }

    // Re-running a scenario hits the cache: no tiling search, no table build.
    // The lookup counts in the telemetry request it runs in.
    let again = Instant::now();
    let (lookup, recording, _) = request(|| cache.get_or_compile(&shapes::moore()));
    lookup?;
    println!(
        "cache hit for moore9 in {:?} ({} hit / {} miss in this request)",
        again.elapsed(),
        recording.counter(Counter::ScheduleHits),
        recording.counter(Counter::ScheduleMisses)
    );

    // The same engine powers ad-hoc point sets (deployed sensor positions).
    let compiled = cache.get_or_compile(&shapes::moore())?;
    let sensors: Vec<Point> = (0..1000)
        .map(|i| Point::xy(i * 37 - 500, i * 91 - 700))
        .collect();
    let slots = compiled.slots_of_points(&sensors)?;
    println!(
        "1000 scattered sensors scheduled; first five slots: {:?}",
        &slots[..5]
    );
    Ok(())
}
