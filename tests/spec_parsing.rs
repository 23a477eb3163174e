//! Robustness of the sweep and search spec parsers, which read files from
//! outside the program: replacing any one field of the builtin specs with
//! arbitrary JSON (huge and negative numbers, fractions, strings, empty
//! arrays, objects) must return `Ok` or `Err`, never panic, and every
//! accepted spec must hold exactly the retry budgets it was given, loads in
//! `[0, 1]` and an ALOHA `p` in `[0, 1]`.

use latsched_engine::{SearchSpec, SweepMac, SweepSpec, SweepTraffic};
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
    Value::Number(NUMBERS.get(pick).copied().unwrap_or(random))
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
