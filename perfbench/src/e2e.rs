//! The end-to-end pass: one closed-loop client sending cold/warm request
//! pairs for the run's duration, with set-up probes spread between them.
//! Telemetry stays off.

use crate::alloc;
use crate::metrics::{median, quantile, BenchResult, Tally, END_TO_END};
use crate::workload::{serve, Oracle, Scale, Served, Workload};
use crate::Args;
use latsched_engine::SweepCaches;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up probes per run; `setup_s` is their median.
const PROBES: usize = 11;

/// Runs one request under `catch_unwind`, timing it and its peak allocation
/// delta, and checks its output. Returns `(ms, peak bytes)` on success; a
/// returned error, a panic or a wrong output counts as a failure in `tally`.
fn measure(
    what: &str,
    oracle: &Oracle,
    tally: &mut Tally,
    request: impl FnOnce() -> Result<Served, String>,
) -> Option<(f64, usize)> {
    tally.attempted += 1;
    let baseline = alloc::reset_peak();
    let start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(request));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let peak = alloc::peak_bytes().saturating_sub(baseline);
    let verdict = match outcome {
        Ok(Ok(served)) => oracle.check(&served),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(panic_message(payload.as_ref())),
    };
    match verdict {
        Ok(()) => Some((ms, peak)),
        Err(why) => {
            tally.fail(what, &why);
            None
        }
    }
}

pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("panicked: {text}")
}

/// The set-up probe a child process runs: the wall time from workload start
/// (spec generation, cache construction, the engine's first-use
/// initialisation) to the first completed cold request, printed with the
/// output digest.
pub fn probe(workload: Workload, seed: u64, scale: Scale) -> Result<(), String> {
    let start = Instant::now();
    let text = workload.spec_text(seed, scale);
    let caches = SweepCaches::new();
    let served = serve(workload, &text, &caches)?;
    let seconds = start.elapsed().as_secs_f64();
    println!("probe {seconds} {:016x}", served.digest());
    Ok(())
}

/// Runs one probe in a child process and returns its set-up seconds and
/// output digest.
fn run_probe(args: &Args) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--probe", "--workload", args.workload.name()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--scale",
            args.scale.name(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("probe exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix("probe "));
    let fields: Vec<&str> = line.unwrap_or_default().split_whitespace().collect();
    match fields.as_slice() {
        [secs, digest] => Ok((
            secs.parse().map_err(|e| format!("probe seconds: {e}"))?,
            u64::from_str_radix(digest, 16).map_err(|e| format!("probe digest: {e}"))?,
        )),
        _ => Err(format!("malformed probe output {stdout:?}")),
    }
}

pub fn run(args: &Args) -> Result<BenchResult, String> {
    let text = args.workload.spec_text(args.seed, args.scale);
    let oracle = Oracle::build(args.workload, &text)?;
    let mut tally = Tally::default();

    let mut setups = Vec::with_capacity(PROBES);
    let mut probes = 0;
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    // Node-slots answered per second of request time, one rate per pair.
    let mut rates = Vec::new();
    let mut peak = 0usize;
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // The first pair only warms the process (page faults, allocator pools);
    // it is checked but not sampled. At least one pair is sampled.
    let mut pairs = 0;
    while pairs < 2 || probes < PROBES || start.elapsed() < deadline {
        // Probe `i` is due at `i / PROBES` of the run, so `setup_s` samples
        // the host over the whole run, as the requests do.
        if probes < PROBES && start.elapsed() >= deadline.mul_f64(probes as f64 / PROBES as f64) {
            probes += 1;
            tally.attempted += 1;
            match run_probe(args) {
                Ok((secs, digest)) if digest == oracle.digest() => setups.push(secs),
                Ok(_) => tally.fail("set-up probe", "output differs from the oracle"),
                Err(why) => tally.fail("set-up probe", &why),
            }
        }
        let sampled = pairs > 0;
        pairs += 1;
        let mut caches = None;
        let cold_sample = measure("cold request", &oracle, &mut tally, || {
            serve(args.workload, &text, caches.insert(SweepCaches::new()))
        });
        let warm_sample = match (&cold_sample, &caches) {
            (Some(_), Some(caches)) => measure("warm request", &oracle, &mut tally, || {
                serve(args.workload, &text, caches)
            }),
            _ => None,
        };
        drop(caches);
        if sampled {
            if let (Some((cold_ms, _)), Some((warm_ms, _))) = (cold_sample, warm_sample) {
                rates.push(2.0 * oracle.node_slots / ((cold_ms + warm_ms) / 1e3));
            }
            for (sample, into) in [(cold_sample, &mut cold), (warm_sample, &mut warm)] {
                if let Some((ms, bytes)) = sample {
                    into.push(ms);
                    peak = peak.max(bytes);
                }
            }
        }
    }
    for (kind, samples) in [("cold", &cold), ("warm", &warm)] {
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.2}", quantile(samples, f64::from(d) / 10.0)))
            .collect();
        eprintln!(
            "perfbench: {} {kind} requests sampled{}; deciles ms {}",
            samples.len(),
            if samples.len() < 100 {
                " (fewer than 100: p90 is coarse)"
            } else {
                ""
            },
            deciles.join(" ")
        );
    }
    eprintln!("perfbench: set-up probes s {setups:?}");

    let mut metrics = BTreeMap::new();
    if !setups.is_empty() {
        metrics.insert("setup_s", median(&setups));
    }
    if !cold.is_empty() && !warm.is_empty() {
        metrics.insert("cold_ms_p90", quantile(&cold, 0.9));
        metrics.insert("warm_ms_p90", quantile(&warm, 0.9));
        metrics.insert("node_slots_per_s_p10", quantile(&rates, 0.1));
        metrics.insert("peak_alloc_mb", peak as f64 / 1e6);
    }
    Ok(BenchResult {
        tally,
        metrics,
        table: &END_TO_END,
    })
}
