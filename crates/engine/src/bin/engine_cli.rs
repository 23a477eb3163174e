//! `engine-cli`: run schedule-query scenarios and report throughput.
//!
//! ```bash
//! engine-cli                         # run the builtin Figure-2 scenario suite
//! engine-cli spec.json [spec2.json]  # run scenarios from JSON spec files
//! engine-cli --json out.json ...     # also write the reports as JSON
//! engine-cli --dump ...              # stream every slot answer to stdout (CSV)
//! engine-cli sweep                   # run the builtin 64-run stochastic sweep
//! engine-cli sweep spec.json ...     # run sweeps from JSON spec files
//! engine-cli search                  # run the builtin Figure-2 schedule search
//! engine-cli search spec.json ...    # run schedule searches from JSON spec files
//! engine-cli --threads N ...         # pin the worker pool (any mode/subcommand)
//! engine-cli sweep --profile         # print the per-sweep runtime profile
//! engine-cli --metrics-out FILE ...  # write Prometheus-style telemetry text
//! ```
//!
//! `--threads N` sets `LATSCHED_THREADS` before the first worker-pool query,
//! so benches and CI determinism checks reproduce a fixed parallelism; it is
//! accepted anywhere on the command line, in every mode.
//!
//! `--metrics-out FILE` (also accepted anywhere, in every mode) runs the
//! whole command inside one [`telemetry::profile`] scope and, after the run,
//! writes its recording — every request's counters and stage histograms,
//! each merged once — as Prometheus-style text exposition to `FILE`.
//! `sweep --profile` and `search --profile` profile each spec's request and
//! pretty-print its report's own [`latsched_engine::TelemetrySnapshot`]: the
//! fast-path dispatch mix, per-tier cache counters and the nested stage-time
//! tree. The summary line each mode ends with sums the cache lookups of
//! every request it ran, read from one enclosing request's recording.
//!
//! See `latsched_engine::Scenario` for the scenario spec format,
//! `latsched_engine::SweepSpec` for the sweep spec format and
//! `latsched_engine::SearchSpec` for the search spec format.

use latsched_engine::telemetry::{self, CacheTier};
use latsched_engine::{
    builtin_scenarios, builtin_search, builtin_sweep, run_scenario, run_search, run_sweep,
    GroupReport, GroupSpec, Scenario, ScheduleCache, SearchSpec, SweepCacheStats, SweepCaches,
    SweepMode, SweepSpec, TelemetrySnapshot,
};
use std::process::ExitCode;

/// Prints one sweep's group folds as a table: key, run count, aggregate
/// delivery, mean latency and the p99 latency bucket bound. With `top`,
/// rows are ranked by delivered packets and truncated.
fn print_group_table(groups: &[GroupReport], top: Option<usize>) {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    if top.is_some() {
        order.sort_by_key(|&i| std::cmp::Reverse(groups[i].fold.sums().packets_delivered));
    }
    let shown = top.unwrap_or(groups.len()).min(groups.len());
    println!(
        "  {:<44} {:>8} {:>12} {:>12} {:>9} {:>10} {:>9}",
        "group", "runs", "generated", "delivered", "ratio", "mean-lat", "p99-lat"
    );
    for &i in order.iter().take(shown) {
        let g = &groups[i];
        let sums = g.fold.sums();
        let latency = g.fold.field("total_latency").expect("known field");
        let mean_latency = if sums.packets_delivered > 0 {
            latency.sum as f64 / sums.packets_delivered as f64
        } else {
            0.0
        };
        println!(
            "  {:<44} {:>8} {:>12} {:>12} {:>8.1}% {:>10.2} {:>9}",
            g.key.to_string(),
            g.fold.runs,
            sums.packets_generated,
            sums.packets_delivered,
            g.fold.delivery_ratio() * 100.0,
            mean_latency,
            g.fold
                .latency
                .percentile_lower_bound(0.99)
                .map_or("-".to_string(), |b| format!("≥{b}")),
        );
    }
    if shown < groups.len() {
        println!("  … {} more group(s)", groups.len() - shown);
    }
}

/// The `sweep` subcommand: run parameter-grid sweeps and report aggregate
/// counters plus throughput (and, with `--stats`, per-tier cache counters of
/// the artifact pipeline). `--streaming` switches every sweep to online
/// per-axis folds (`--group-by` selects the axes) so the report stays
/// O(groups) on huge grids; `--top N` ranks the printed group table by
/// delivered packets.
fn sweep_main(args: Vec<String>) -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut stats = false;
    let mut profile = false;
    let mut streaming = false;
    let mut group_by: Option<GroupSpec> = None;
    let mut top: Option<usize> = None;
    let mut spec_paths: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--stats" => stats = true,
            "--profile" => profile = true,
            "--streaming" => streaming = true,
            "--group-by" => match iter.next() {
                Some(list) => match GroupSpec::parse(&list) {
                    Ok(spec) => group_by = Some(spec),
                    Err(err) => {
                        eprintln!("bad --group-by: {err}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--group-by requires a comma-separated axis list");
                    return ExitCode::FAILURE;
                }
            },
            "--top" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => top = Some(n),
                None => {
                    eprintln!("--top requires a row count");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: engine-cli sweep [--json FILE] [--stats] [--profile] [--streaming] \
                     [--group-by AXES] [--top N] [--threads N] [--metrics-out FILE] [SPEC.json]..."
                );
                println!("With no spec files, runs the builtin 64-run stochastic sweep.");
                println!("--stats prints hit/miss/entry counters of all five artifact tiers.");
                println!(
                    "--profile prints each sweep's runtime profile: kernel dispatch mix, \
                     cache counters and the nested stage-time tree."
                );
                println!(
                    "--streaming folds runs online (O(groups) report memory, no per-run \
                     detail); --group-by selects fold axes from window, traffic/load, \
                     retries, seed."
                );
                return ExitCode::SUCCESS;
            }
            other => spec_paths.push(other.to_string()),
        }
    }

    let Some(mut sweeps) = load_specs(&spec_paths, || vec![builtin_sweep()], SweepSpec::parse_spec)
    else {
        return ExitCode::FAILURE;
    };
    if streaming || group_by.is_some() {
        // The command-line mode overrides whatever the spec files say.
        for spec in &mut sweeps {
            spec.mode = SweepMode::Streaming(group_by.clone().unwrap_or_default());
        }
    }
    let caches = SweepCaches::new();
    let (reports, recording, _) = telemetry::request(|| {
        let mut reports = Vec::with_capacity(sweeps.len());
        for spec in &sweeps {
            match profiled(profile, || run_sweep(spec, &caches)) {
                Ok(report) => {
                    println!("{report}");
                    if matches!(report.mode, SweepMode::Streaming(_)) {
                        print_group_table(&report.groups, top);
                    }
                    if stats {
                        println!("  caches: {}", report.caches);
                    }
                    if let Some(recording) = report.telemetry.as_ref().filter(|_| profile) {
                        print!("{recording}");
                    }
                    reports.push(report);
                }
                Err(err) => {
                    eprintln!("sweep '{}' failed: {err}", spec.name);
                    return None;
                }
            }
        }
        Some(reports)
    });
    let Some(reports) = reports else {
        return ExitCode::FAILURE;
    };
    println!(
        "{} sweep(s), artifact pipeline: {}",
        reports.len(),
        SweepCacheStats::recorded(&recording, &caches)
    );

    if let Some(path) = json_path {
        let json = reports.iter().map(|r| r.to_json_value()).collect();
        if !write_json(&path, json, "sweep report(s)") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `search` subcommand: enumerate, simulate and rank candidate schedules
/// for each scenario spec, printing the ranked candidate table (and, with
/// `--stats`, per-tier cache counters including the tier-5 search cache).
/// `--top N` overrides every spec's ranked-report truncation.
fn search_main(args: Vec<String>) -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut stats = false;
    let mut profile = false;
    let mut top: Option<usize> = None;
    let mut spec_paths: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--stats" => stats = true,
            "--profile" => profile = true,
            "--top" => match iter.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => top = Some(n),
                _ => {
                    eprintln!("--top requires a positive row count");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: engine-cli search [--json FILE] [--stats] [--profile] [--top N] \
                     [--threads N] [--metrics-out FILE] [SPEC.json]..."
                );
                println!(
                    "With no spec files, runs the builtin Figure-2 Moore search \
                     (p99-latency objective)."
                );
                println!(
                    "Specs choose an objective (period, delivery, energy, \
                     latency_p<pct>), generator families (lattice, coloring), a \
                     per-family candidate budget and the evaluation grid."
                );
                println!(
                    "--stats prints hit/miss/entry counters of all five artifact \
                     tiers; warm re-runs answer from the search tier without \
                     re-evaluating any candidate."
                );
                return ExitCode::SUCCESS;
            }
            other => spec_paths.push(other.to_string()),
        }
    }

    let Some(mut searches) = load_specs(
        &spec_paths,
        || vec![builtin_search()],
        SearchSpec::parse_spec,
    ) else {
        return ExitCode::FAILURE;
    };
    if let Some(top) = top {
        for spec in &mut searches {
            spec.top = top;
        }
    }
    let caches = SweepCaches::new();
    let (reports, recording, _) = telemetry::request(|| {
        let mut reports = Vec::with_capacity(searches.len());
        for spec in &searches {
            match profiled(profile, || run_search(spec, &caches)) {
                Ok(report) => {
                    print!("{report}");
                    if let Some(winner) = report.winner() {
                        println!(
                            "winner: {} ({}, period {}, {})",
                            winner.generator,
                            winner.family,
                            winner.period,
                            if winner.optimal {
                                "provably optimal"
                            } else {
                                "above the clique bound"
                            }
                        );
                    }
                    if stats {
                        println!("  caches: {}", report.caches);
                    }
                    if let Some(recording) = report.telemetry.as_ref().filter(|_| profile) {
                        print!("{recording}");
                    }
                    reports.push(report);
                }
                Err(err) => {
                    eprintln!("search '{}' failed: {err}", spec.name);
                    return None;
                }
            }
        }
        Some(reports)
    });
    let Some(reports) = reports else {
        return ExitCode::FAILURE;
    };
    println!(
        "{} search(es), artifact pipeline: {}",
        reports.len(),
        SweepCacheStats::recorded(&recording, &caches)
    );

    if let Some(path) = json_path {
        let json = reports.iter().map(|r| r.to_json_value()).collect();
        if !write_json(&path, json, "search report(s)") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one spec's request, inside its own [`telemetry::profile`] scope when
/// `profile` is set (`--profile`), so its report carries its recording.
fn profiled<T>(profile: bool, run: impl FnOnce() -> T) -> T {
    if profile {
        telemetry::profile(run).0
    } else {
        run()
    }
}

/// Strips the global flags accepted anywhere on the command line, in every
/// mode: `--threads N` pins the worker pool by setting `LATSCHED_THREADS`
/// before the first `worker_threads()` query caches it, and
/// `--metrics-out FILE` selects the Prometheus exposition file the run's
/// recording is written to. Returns the remaining args and the metrics path.
fn apply_global_flags(args: Vec<String>) -> Result<(Vec<String>, Option<String>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut metrics_out = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            let threads = iter
                .next()
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .ok_or("--threads requires a positive thread count")?;
            std::env::set_var("LATSCHED_THREADS", threads.to_string());
        } else if arg == "--metrics-out" {
            metrics_out = Some(iter.next().ok_or("--metrics-out requires a file path")?);
        } else {
            rest.push(arg);
        }
    }
    Ok((rest, metrics_out))
}

/// The specs a subcommand runs: `builtin()` without spec files, else every
/// spec of every file in order. Prints the first read or parse failure and
/// returns `None`.
fn load_specs<T>(
    paths: &[String],
    builtin: impl FnOnce() -> Vec<T>,
    parse: impl Fn(&str) -> latsched_engine::Result<Vec<T>>,
) -> Option<Vec<T>> {
    if paths.is_empty() {
        return Some(builtin());
    }
    let mut specs = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("failed to read {path}: {err}");
                return None;
            }
        };
        match parse(&text) {
            Ok(mut parsed) => specs.append(&mut parsed),
            Err(err) => {
                eprintln!("failed to parse {path}: {err}");
                return None;
            }
        }
    }
    Some(specs)
}

/// Writes reports to `path` as a pretty-printed JSON array and announces
/// them as `what`. Returns whether the write succeeded.
fn write_json(path: &str, reports: Vec<serde_json::Value>, what: &str) -> bool {
    let count = reports.len();
    let json = serde_json::to_string_pretty(&serde_json::Value::Array(reports));
    if let Err(err) = std::fs::write(path, json) {
        eprintln!("failed to write {path}: {err}");
        return false;
    }
    println!("wrote {count} {what} to {path}");
    true
}

/// Writes a recording (every counter and stage histogram) as Prometheus-style
/// text exposition. Returns whether the write succeeded.
fn write_metrics(path: &str, recording: &TelemetrySnapshot) -> bool {
    if let Err(err) = std::fs::write(path, recording.to_prometheus()) {
        eprintln!("failed to write {path}: {err}");
        return false;
    }
    println!("wrote telemetry metrics to {path}");
    true
}

fn main() -> ExitCode {
    let (args, metrics_out) = match apply_global_flags(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    let run = move || match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(args.into_iter().skip(1).collect()),
        Some("search") => search_main(args.into_iter().skip(1).collect()),
        _ => scenario_main(args),
    };
    let Some(path) = metrics_out else {
        return run();
    };
    let (code, recording) = telemetry::profile(run);
    if !write_metrics(&path, &recording) {
        return ExitCode::FAILURE;
    }
    code
}

/// The default mode: compile each scenario's schedule and answer every
/// query of its window, streaming one throughput line per scenario (and,
/// with `--dump`, every slot answer as CSV).
fn scenario_main(args: Vec<String>) -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut dump = false;
    let mut spec_paths: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--dump" => dump = true,
            "--help" | "-h" => {
                println!("usage: engine-cli [--json FILE] [--dump] [SPEC.json]...");
                println!("       engine-cli sweep [--json FILE] [SPEC.json]...");
                println!("       engine-cli search [--json FILE] [SPEC.json]...");
                println!("With no spec files, runs the builtin 512x512 scenario suite.");
                println!("--threads N pins the worker pool (any mode, sets LATSCHED_THREADS).");
                return ExitCode::SUCCESS;
            }
            other => spec_paths.push(other.to_string()),
        }
    }

    let Some(scenarios) = load_specs(&spec_paths, builtin_scenarios, Scenario::parse_spec) else {
        return ExitCode::FAILURE;
    };

    let cache = ScheduleCache::new();
    let (reports, recording, _) = telemetry::request(|| {
        let mut reports = Vec::with_capacity(scenarios.len());
        for scenario in &scenarios {
            let ran = run_scenario(scenario, &cache).and_then(|report| {
                // Stream each result as it completes.
                println!("{report}");
                reports.push(report);
                // Dump after the timed run so the report's compile time
                // reflects the real (cache-miss) compilation, not a
                // dump-warmed hit.
                if dump {
                    dump_scenario(scenario, &cache)?;
                }
                Ok(())
            });
            if let Err(err) = ran {
                eprintln!("scenario '{}' failed: {err}", scenario.name);
                return None;
            }
        }
        Some(reports)
    });
    let Some(reports) = reports else {
        return ExitCode::FAILURE;
    };
    let lookups = |hit| recording.counter(CacheTier::Schedules.counter(hit));
    println!(
        "{} scenario(s), {} compiled schedule(s) cached ({} hits / {} misses)",
        reports.len(),
        cache.len(),
        lookups(true),
        lookups(false)
    );

    if let Some(path) = json_path {
        let json = reports.iter().map(|r| r.to_json_value()).collect();
        if !write_json(&path, json, "report(s)") {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Streams the full slot answer set of one scenario to stdout as CSV rows
/// (`x,y,...,slot`), one row per lattice point of the window.
fn dump_scenario(scenario: &Scenario, cache: &ScheduleCache) -> latsched_engine::Result<()> {
    use std::io::Write;
    let compiled = cache.get_or_compile(&scenario.shape.prototile()?)?;
    let region = scenario.region()?;
    let slots = compiled.slots_of_region(&region)?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for (point, slot) in region.iter().zip(&slots) {
        let mut line = String::new();
        for c in point.coords() {
            line.push_str(&c.to_string());
            line.push(',');
        }
        line.push_str(&slot.to_string());
        let _ = writeln!(out, "{line}");
    }
    Ok(())
}
