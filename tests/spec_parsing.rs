//! Robustness of the sweep and search spec parsers, which read files from
//! outside the program: replacing any one field of the builtin specs with
//! arbitrary JSON (huge and negative numbers, fractions, strings, empty
//! arrays, objects) must return `Ok` or `Err`, never panic, and every
//! accepted spec must hold exactly the retry budgets it was given, loads in
//! `[0, 1]` and an ALOHA `p` in `[0, 1]`. Windows and ball shapes too large
//! to build are errors naming their field in every request mode — scenario,
//! sweep and search — rather than allocation aborts, and a one-point shape in
//! 256 dimensions, which the tiling search admits, completes in every mode.
//! Seeds and periods up to `u64::MAX` parse, run and report exactly, and a
//! grid of more runs than a `usize` counts is refused.

use latsched_engine::{
    run_scenario, run_search, run_sweep, Scenario, SearchSpec, SweepCaches, SweepMac, SweepSpec,
    SweepTraffic,
};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;

/// The builtin sweep's grid (`engine-cli sweep`) under an ALOHA MAC and
/// streaming by load, so that `mac.p` and `group_by` are fields too.
const SWEEP: &str = r#"{
    "name": "moore-bernoulli-64",
    "shape": {"kind": "ball", "dim": 2, "radius": 1, "metric": "chebyshev"},
    "windows": [64], "slots": 512,
    "mac": {"kind": "aloha", "p": 0.25},
    "traffic": {"kind": "bernoulli", "loads": [0.02, 0.05]},
    "seeds": [1, 2, 3, 4, 5, 6, 7, 8], "retries": [0, 1, 2, 4],
    "group_by": ["load"]
}"#;

/// The builtin Figure-2 search (`engine-cli search`).
const SEARCH: &str = r#"{
    "name": "moore-figure2-search",
    "shape": {"kind": "ball", "dim": 2, "radius": 1, "metric": "chebyshev"},
    "window": 16, "slots": 256,
    "traffic": {"kind": "bernoulli", "loads": [0.05, 0.1]},
    "seeds": [1, 2, 3, 4], "retries": [0, 2],
    "objective": "latency_p99", "families": ["lattice", "coloring"],
    "budget": 8, "top": 8
}"#;

/// Field paths replaced, one at a time; the first `SWEEP_FIELDS` belong to
/// the sweep spec, the rest to the search spec.
const FIELDS: [&[&str]; 26] = [
    &["name"],
    &["shape"],
    &["shape", "dim"],
    &["shape", "radius"],
    &["shape", "kind"],
    &["windows"],
    &["slots"],
    &["mac"],
    &["mac", "p"],
    &["traffic"],
    &["traffic", "loads"],
    &["traffic", "kind"],
    &["seeds"],
    &["retries"],
    &["group_by"],
    &["mode"],
    &["window"],
    &["slots"],
    &["traffic", "loads"],
    &["seeds"],
    &["retries"],
    &["objective"],
    &["families"],
    &["budget"],
    &["top"],
    &["shape", "radius"],
];
const SWEEP_FIELDS: usize = 16;

/// Numbers at and past every range the parsers narrow to.
const NUMBERS: [f64; 18] = [
    0.0,
    1.0,
    -1.0,
    0.5,
    1.5,
    -0.25,
    1e-300,
    4294967295.0,
    4294967296.0,
    9007199254740993.0,
    9.3e18,
    -9.3e18,
    1.8446744073709552e19,
    1e308,
    -1e308,
    64.0,
    8.0,
    0.999,
];

/// One of [`NUMBERS`], or `random` for picks past its end.
fn number(pick: usize, random: f64) -> Value {
    Value::from(NUMBERS.get(pick).copied().unwrap_or(random))
}

/// An arbitrary JSON value of one of 12 shapes, built from the numbers `a`
/// and `b`.
fn json(kind: usize, a: Value, b: Value) -> Value {
    let object = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    match kind {
        0 => a,
        1 => Value::from("x"),
        2 => Value::Array(Vec::new()),
        3 => Value::Array(vec![a]),
        4 => Value::Array(vec![a, b]),
        5 => Value::Object(BTreeMap::new()),
        6 => object(vec![("range", Value::Array(vec![a, b]))]),
        7 => Value::Bool(true),
        8 => Value::Null,
        9 => Value::Array(vec![Value::from("load")]),
        10 => object(vec![("kind", Value::from("aloha")), ("p", a)]),
        _ => object(vec![
            ("kind", Value::from("bernoulli")),
            ("loads", Value::Array(vec![a])),
        ]),
    }
}

fn replace(spec: &mut Value, path: &[&str], value: Value) {
    let Value::Object(fields) = spec else {
        unreachable!("specs and their nested fields are objects")
    };
    match path {
        [field] => {
            fields.insert(field.to_string(), value);
        }
        [field, rest @ ..] => replace(fields.get_mut(*field).expect("path exists"), rest, value),
        [] => unreachable!("paths are nonempty"),
    }
}

/// The retry budgets the spec text asks for, if it has a `retries` field.
fn asked_retries(spec: &Value) -> Option<Vec<f64>> {
    let retries = spec.get("retries")?.as_array()?;
    Some(retries.iter().filter_map(Value::as_f64).collect())
}

fn probabilities_in_range(traffic: &SweepTraffic) -> bool {
    match traffic {
        SweepTraffic::Bernoulli(loads) => loads.iter().all(|p| (0.0..=1.0).contains(p)),
        SweepTraffic::Periodic(_) | SweepTraffic::Staggered(_) => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_never_panic_and_accept_only_in_range_axes(
        kind in 0usize..12,
        picks in (0usize..NUMBERS.len() + 4, 0usize..NUMBERS.len() + 4),
        randoms in (-1e12f64..1e12, -2.0f64..2.0),
    ) {
        // The first random number is integral, so past `u32` it tests
        // narrowing rather than the integer check.
        let value = json(kind, number(picks.0, randoms.0.round()), number(picks.1, randoms.1));
        for (i, path) in FIELDS.iter().enumerate() {
            let sweep = i < SWEEP_FIELDS;
            let mut spec: Value = serde_json::from_str(if sweep { SWEEP } else { SEARCH }).unwrap();
            replace(&mut spec, path, value.clone());
            let text = serde_json::to_string(&spec);
            let asked = asked_retries(&spec);
            if sweep {
                if let Ok(specs) = SweepSpec::parse_spec(&text) {
                    let parsed = &specs[0];
                    let retries: Vec<f64> = parsed.retries.iter().map(|&r| f64::from(r)).collect();
                    prop_assert_eq!(Some(retries), asked, "{}", text);
                    prop_assert!(probabilities_in_range(&parsed.traffic), "{}", text);
                    if let SweepMac::Aloha { p } = parsed.mac {
                        prop_assert!((0.0..=1.0).contains(&p), "{}", text);
                    }
                }
            } else if let Ok(specs) = SearchSpec::parse_spec(&text) {
                let parsed = &specs[0];
                let retries: Vec<f64> = parsed.retries.iter().map(|&r| f64::from(r)).collect();
                prop_assert_eq!(retries, asked.unwrap_or(vec![0.0]), "{}", text);
                prop_assert!(probabilities_in_range(&parsed.traffic), "{}", text);
            }
        }
    }
}

#[test]
fn out_of_range_axes_are_named_at_parse_time() {
    for (path, value, named) in [
        (&["retries"][..], "[4294967296]", "retries"),
        (&["traffic", "loads"][..], "[1.5]", "traffic.loads"),
        (&["traffic", "loads"][..], "[-0.1]", "traffic.loads"),
        (&["mac", "p"][..], "1.5", "mac.p"),
    ] {
        let mut spec: Value = serde_json::from_str(SWEEP).unwrap();
        replace(&mut spec, path, serde_json::from_str(value).unwrap());
        let err = SweepSpec::parse_spec(&serde_json::to_string(&spec)).unwrap_err();
        assert!(err.to_string().contains(named), "{path:?}={value}: {err}");
    }
    let mut spec: Value = serde_json::from_str(SEARCH).unwrap();
    replace(
        &mut spec,
        &["retries"],
        serde_json::from_str("[0, 4294967296]").unwrap(),
    );
    let err = SearchSpec::parse_spec(&serde_json::to_string(&spec)).unwrap_err();
    assert!(err.to_string().contains("retries"), "{err}");
}

#[test]
fn integers_past_two_to_the_53_parse_and_run_exactly() {
    // 2^53 + 1 is the first integer an `f64` rounds, 2^63 the first past
    // `i64`, and `u64::MAX` the last seed and period a spec can name.
    let caches = SweepCaches::new();
    for n in [(1u64 << 53) + 1, 1 << 63, u64::MAX] {
        for (kind, seeds) in [
            ("periodic", format!("[{n}]")),
            ("staggered", format!(r#"{{"range": [{n}, {n}]}}"#)),
        ] {
            let text = format!(
                r#"{{"shape": {{"kind": "ball", "dim": 2, "radius": 1}}, "windows": [4],
                "slots": 16, "mac": {{"kind": "aloha", "p": 0.5}},
                "traffic": {{"kind": "{kind}", "periods": [{n}]}},
                "seeds": {seeds}, "retries": [0]}}"#
            );
            let spec = SweepSpec::parse_spec(&text).unwrap().remove(0);
            assert_eq!(spec.seeds.iter().collect::<Vec<_>>(), [n], "{text}");
            let periods = match &spec.traffic {
                SweepTraffic::Periodic(periods) | SweepTraffic::Staggered(periods) => periods,
                SweepTraffic::Bernoulli(_) => unreachable!("{text}"),
            };
            assert_eq!(periods, &[n], "{text}");
            let report = run_sweep(&spec, &caches).unwrap();
            assert_eq!(report.per_run[0].seed, n, "{text}");
            let json: Value = serde_json::to_string(&report.to_json_value())
                .parse()
                .unwrap();
            let run = &json.get("per_run").and_then(Value::as_array).unwrap()[0];
            assert_eq!(run.get("seed").and_then(Value::as_u64), Some(n), "{text}");
        }
    }
}

#[test]
fn grids_of_more_runs_than_a_usize_counts_are_refused() {
    // 2^64 − 1 seeds fit the range check but not times 2 loads × 4 retries.
    let seeds: Value = serde_json::from_str(r#"{"range": [1, 18446744073709551615]}"#).unwrap();
    let mut sweep: Value = serde_json::from_str(SWEEP).unwrap();
    replace(&mut sweep, &["seeds"], seeds.clone());
    let err = SweepSpec::parse_spec(&serde_json::to_string(&sweep)).unwrap_err();
    assert!(err.to_string().contains("more runs"), "{err}");
    let mut search: Value = serde_json::from_str(SEARCH).unwrap();
    replace(&mut search, &["seeds"], seeds);
    let err = SearchSpec::parse_spec(&serde_json::to_string(&search)).unwrap_err();
    assert!(err.to_string().contains("more runs"), "{err}");
}

#[test]
fn oversized_windows_and_balls_are_named_errors_in_every_mode() {
    let moore = r#"{"kind": "ball", "dim": 2, "radius": 1}"#;
    let grid = r#""slots": 16, "traffic": {"kind": "bernoulli", "loads": [0.1]},
        "seeds": [1], "retries": [0]"#;
    // {0, e_1} in 256 dimensions: 2^256 − 1 candidate sublattices.
    let pair = format!(
        r#"{{"kind": "points", "points": [{:?}, {:?}]}}"#,
        [0; 256],
        std::iter::once(1).chain([0; 255]).collect::<Vec<i64>>()
    );
    for (shape, window, named) in [
        // The 5-D Moore ball: ~6.2e9 candidate sublattices of index 243.
        (r#"{"kind": "ball", "dim": 5, "radius": 1}"#, "2", "shape"),
        (pair.as_str(), "1", "shape"),
        (r#"{"kind": "ball", "dim": 40, "radius": 1}"#, "4", "dim"),
        (
            r#"{"kind": "ball", "dim": 2, "radius": 3000000000}"#,
            "4",
            "radius",
        ),
        (
            r#"{"kind": "ball", "dim": 100000000, "radius": 0}"#,
            "1",
            "dim",
        ),
        (moore, "100000", "window"),
        (moore, "2147483648", "window"),
        // 2^32 squared wraps a u64 point count to zero.
        (moore, "4294967296", "window"),
    ] {
        let caches = SweepCaches::new();
        let scenario = format!(r#"{{"shape": {shape}, "window": {window}}}"#);
        let sweep = format!(r#"{{"shape": {shape}, "windows": [{window}], {grid}}}"#);
        let search = format!(r#"{{"shape": {shape}, "window": {window}, {grid}}}"#);
        let results = [
            Scenario::parse_spec(&scenario)
                .and_then(|specs| run_scenario(&specs[0], &caches.schedules))
                .map(drop),
            SweepSpec::parse_spec(&sweep)
                .and_then(|specs| run_sweep(&specs[0], &caches))
                .map(drop),
            SearchSpec::parse_spec(&search)
                .and_then(|specs| run_search(&specs[0], &caches))
                .map(drop),
        ];
        for (mode, result) in ["scenario", "sweep", "search"].into_iter().zip(results) {
            let err = result.expect_err(mode);
            assert!(
                err.to_string().contains(named),
                "{mode} {shape} window {window}: {err}"
            );
        }
    }
}

#[test]
fn a_one_point_shape_in_256_dimensions_completes_in_every_mode() {
    // One candidate sublattice (Z^256 itself), whose Hermite normal form has
    // 256·255/2 entries above the diagonal: the enumeration must not hold a
    // stack frame per entry.
    let shape = format!(r#"{{"kind": "points", "points": [{:?}]}}"#, [0; 256]);
    let grid = r#""slots": 8, "traffic": {"kind": "bernoulli", "loads": [0.5]},
        "seeds": [1], "retries": [0]"#;
    let caches = SweepCaches::new();
    let scenario = format!(r#"{{"shape": {shape}, "window": 1}}"#);
    let report = run_scenario(
        &Scenario::parse_spec(&scenario).unwrap()[0],
        &caches.schedules,
    );
    assert_eq!(report.unwrap().num_slots, 1);
    let sweep = format!(r#"{{"shape": {shape}, "windows": [1], {grid}}}"#);
    let report = run_sweep(&SweepSpec::parse_spec(&sweep).unwrap()[0], &caches).unwrap();
    assert_eq!(report.runs, 1);
    let search = format!(r#"{{"shape": {shape}, "window": 1, {grid}}}"#);
    let report = run_search(&SearchSpec::parse_spec(&search).unwrap()[0], &caches).unwrap();
    let winner = report.winner().expect("a one-node window has a schedule");
    assert_eq!(winner.period, 1);
}
