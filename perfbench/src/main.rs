//! `perfbench` — the latsched benchmark.
//!
//! One closed-loop client serves `engine-cli`-style requests in process
//! (parse the spec JSON, `run_sweep`/`run_search`, serialize the report) on
//! one of three workloads, checks every output against an oracle, and
//! prints one JSON result line last on stdout:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|toy]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (telemetry off); `--trace 1`
//! reports per-layer metrics from a separate traced pass. See `README.md`
//! for the workloads, the metrics and which layer should move which
//! end-to-end number.

mod alloc;
mod e2e;
mod metrics;
mod traced;
mod workload;

use workload::{Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <sweep-tiling-bernoulli|sweep-aloha-stream|search-figure2> \
     --seed <n> --seconds <s> --trace <0|1> [--scale full|toy]";

/// The parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Run one set-up probe (a child of a `--trace 0` run) instead.
    pub probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut probe = false;
    while let Some(flag) = argv.next() {
        if flag == "--probe" {
            probe = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            // Seeds offset the spec's seed axes, which must not overflow.
            "--seed" => {
                seed = value
                    .parse()
                    .ok()
                    .filter(|s| *s < 1 << 62)
                    .ok_or_else(|| bad("expected an integer below 2^62"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                scale = Scale::from_name(&value).ok_or_else(|| bad("expected full or toy"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
        probe,
    })
}

/// The engine's worker count in every run and probe. On a few shared vCPUs a
/// parallel section waits for its slowest worker, so two or more workers
/// measure the host's scheduler more than the engine; one worker keeps runs
/// of the same code comparable.
const WORKER_THREADS: &str = "1";

fn main() {
    // Before the engine's first `worker_threads()` call, which caches it;
    // probe children inherit it.
    std::env::set_var("LATSCHED_THREADS", WORKER_THREADS);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.probe {
        e2e::probe(args.workload, args.seed, args.scale).map(|()| None)
    } else if args.trace {
        traced::run(&args).map(Some)
    } else {
        e2e::run(&args).map(Some)
    };
    match outcome {
        Ok(Some(result)) => println!("{}", result.to_json_line()),
        Ok(None) => {}
        Err(why) => {
            eprintln!("perfbench: {why}");
            std::process::exit(1);
        }
    }
}
