//! JSON scenario specifications and the scenario runner behind `engine-cli`.
//!
//! A scenario names a neighbourhood shape, a query window and a load profile:
//!
//! ```json
//! {
//!   "name": "moore-512",
//!   "shape": { "kind": "ball", "dim": 2, "radius": 1, "metric": "chebyshev" },
//!   "window": 512,
//!   "repeats": 3
//! }
//! ```
//!
//! Shapes: `{"kind": "ball", dim, radius, metric}` (metrics `chebyshev`,
//! `euclidean`, `manhattan`), `{"kind": "antenna"}` (Figure 3's 8-point
//! directional antenna), `{"kind": "hex7"}` (the 7-point hexagonal one-hop
//! cluster), or `{"kind": "points", "points": [[0,0], [1,0], ...]}`. A spec file
//! holds one scenario object or an array of them. [`run_scenario`] compiles the
//! shape's Theorem 1 schedule through a [`ScheduleCache`], answers every point
//! query of the window `repeats` times, and reports the throughput.

use crate::cache::ScheduleCache;
use crate::error::{EngineError, Result};
use latsched_lattice::{ball_points, BoxRegion, LatticeError, Metric, Point};
use latsched_tiling::{shapes, Prototile};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// The neighbourhood shape of a scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShapeSpec {
    /// A metric ball around the origin.
    Ball {
        /// Ambient dimension.
        dim: usize,
        /// Ball radius.
        radius: i64,
        /// The metric (Figure 2's neighbourhood families).
        metric: Metric,
    },
    /// Figure 3's 8-point directional antenna neighbourhood.
    Antenna,
    /// The 7-point one-hop cluster of the hexagonal lattice (frequency reuse 7).
    Hex7,
    /// An explicit list of lattice points (must contain the origin).
    Points(Vec<Point>),
}

/// Most lattice points a ball shape's bounding box `[-radius, radius]^dim`
/// may hold (2^20). Building the prototile enumerates the whole box, so a
/// larger ball is rejected when its spec is parsed rather than aborting the
/// process on allocation; the dim-9 unit ball (3^9 = 19 683 points) fits.
const BALL_BOX_POINT_LIMIT: u64 = 1 << 20;

/// Most dimensions a ball shape may span: Theorem 1 compilation works on
/// `dim × dim` integer matrices and recurses over dimensions, so a radius-0
/// ball (one point, whatever its dimension) is bounded here instead.
const BALL_MAX_DIM: u64 = 64;

impl ShapeSpec {
    /// Materializes the prototile.
    ///
    /// # Errors
    ///
    /// Propagates lattice/tiling construction errors (bad radius, missing origin).
    pub fn prototile(&self) -> Result<Prototile> {
        match self {
            ShapeSpec::Ball {
                dim,
                radius,
                metric,
            } => Ok(Prototile::new(ball_points(*dim, *radius, *metric)?)?),
            ShapeSpec::Antenna => Ok(shapes::directional_antenna()),
            ShapeSpec::Hex7 => Ok(shapes::hex7()),
            ShapeSpec::Points(points) => Ok(Prototile::new(points.clone())?),
        }
    }

    /// The ambient dimension of the shape.
    pub fn dim(&self) -> usize {
        match self {
            ShapeSpec::Ball { dim, .. } => *dim,
            ShapeSpec::Antenna | ShapeSpec::Hex7 => 2,
            ShapeSpec::Points(points) => points.first().map_or(2, Point::dim),
        }
    }

    pub(crate) fn from_json(value: &Value) -> Result<Self> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("shape needs a string field 'kind'"))?;
        match kind {
            "ball" => {
                let dim = get_u64(value, "dim")?;
                let radius = i64::try_from(get_u64(value, "radius")?)
                    .map_err(|_| invalid("ball 'radius' must fit in an i64"))?;
                if !(1..=BALL_MAX_DIM).contains(&dim) {
                    return Err(invalid(&format!(
                        "ball 'dim' must be in 1..={BALL_MAX_DIM}, got {dim}"
                    )));
                }
                let side = 2 * radius.unsigned_abs() + 1;
                if side
                    .checked_pow(dim as u32)
                    .is_none_or(|n| n > BALL_BOX_POINT_LIMIT)
                {
                    return Err(invalid(&format!(
                        "ball 'dim' {dim} and 'radius' {radius}: its bounding box \
                         exceeds {BALL_BOX_POINT_LIMIT} points"
                    )));
                }
                let dim = dim as usize;
                let metric = match value.get("metric").and_then(Value::as_str) {
                    Some("chebyshev") | Some("moore") | None => Metric::Chebyshev,
                    Some("euclidean") => Metric::Euclidean,
                    Some("manhattan") => Metric::Manhattan,
                    Some(other) => {
                        return Err(invalid(&format!("unknown metric '{other}'")));
                    }
                };
                Ok(ShapeSpec::Ball {
                    dim,
                    radius,
                    metric,
                })
            }
            "antenna" => Ok(ShapeSpec::Antenna),
            "hex7" => Ok(ShapeSpec::Hex7),
            "points" => {
                let raw = value
                    .get("points")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid("shape kind 'points' needs a 'points' array"))?;
                let mut points = Vec::with_capacity(raw.len());
                for entry in raw {
                    let coords = entry
                        .as_array()
                        .ok_or_else(|| invalid("each point must be a coordinate array"))?
                        .iter()
                        .map(|c| {
                            c.as_i64()
                                .ok_or_else(|| invalid("coordinates must be integers"))
                        })
                        .collect::<Result<Vec<i64>>>()?;
                    points.push(Point::new(coords));
                }
                Ok(ShapeSpec::Points(points))
            }
            other => Err(invalid(&format!("unknown shape kind '{other}'"))),
        }
    }
}

impl fmt::Display for ShapeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeSpec::Ball {
                dim,
                radius,
                metric,
            } => write!(f, "ball(dim={dim}, r={radius}, {metric})"),
            ShapeSpec::Antenna => write!(f, "antenna8"),
            ShapeSpec::Hex7 => write!(f, "hex7"),
            ShapeSpec::Points(points) => write!(f, "points({})", points.len()),
        }
    }
}

/// One scenario: a shape, a square query window and a repeat count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scenario {
    /// Scenario name (used in reports).
    pub name: String,
    /// The neighbourhood shape.
    pub shape: ShapeSpec,
    /// Side length of the square query window `[0, window)^dim`.
    pub window: i64,
    /// How many times the whole window is evaluated (later passes hit the cache).
    pub repeats: usize,
}

impl Scenario {
    /// Parses one scenario object.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the first malformed field.
    pub fn from_json(value: &Value) -> Result<Self> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("unnamed")
            .to_string();
        let shape = ShapeSpec::from_json(
            value
                .get("shape")
                .ok_or_else(|| invalid("scenario needs a 'shape' object"))?,
        )?;
        let window = window_side(get_u64(value, "window")?, shape.dim(), "window")?;
        let repeats = value
            .get("repeats")
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| invalid("'repeats' must be a nonnegative integer"))
            })
            .transpose()?
            .unwrap_or(1) as usize;
        Ok(Scenario {
            name,
            shape,
            window,
            repeats: repeats.max(1),
        })
    }

    /// Parses a spec document: one scenario object or an array of them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for malformed JSON or fields.
    pub fn parse_spec(text: &str) -> Result<Vec<Scenario>> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| invalid(&format!("malformed JSON: {e}")))?;
        match &value {
            Value::Array(items) => items.iter().map(Scenario::from_json).collect(),
            _ => Ok(vec![Scenario::from_json(&value)?]),
        }
    }

    /// The query window `[0, window)^dim`.
    ///
    /// # Errors
    ///
    /// Propagates region-construction errors.
    pub fn region(&self) -> Result<BoxRegion> {
        Ok(BoxRegion::square_window(self.shape.dim(), self.window)?)
    }
}

/// The measured outcome of one scenario run.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Slots of the compiled schedule (`m = |N|`).
    pub num_slots: usize,
    /// Points queried per pass.
    pub points_per_pass: u64,
    /// Number of passes.
    pub repeats: usize,
    /// Total queries answered.
    pub queries: u64,
    /// Wall-clock seconds over all passes (excluding compilation).
    pub elapsed_seconds: f64,
    /// Seconds spent compiling (zero on a cache hit).
    pub compile_seconds: f64,
    /// Queries answered per second.
    pub throughput: f64,
    /// Sum of the slots returned by one pass over the window — a checksum that
    /// forces evaluation and lets two backends be compared cheaply. Deliberately
    /// per-pass (every pass answers the same queries), so it is independent of
    /// `repeats`.
    pub slot_checksum: u64,
}

impl ScenarioReport {
    /// The report as a JSON object.
    pub fn to_json_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("name".to_string(), Value::from(self.name.clone()));
        map.insert("num_slots".to_string(), Value::from(self.num_slots));
        map.insert(
            "points_per_pass".to_string(),
            Value::from(self.points_per_pass),
        );
        map.insert("repeats".to_string(), Value::from(self.repeats));
        map.insert("queries".to_string(), Value::from(self.queries));
        map.insert(
            "elapsed_seconds".to_string(),
            Value::from(self.elapsed_seconds),
        );
        map.insert(
            "compile_seconds".to_string(),
            Value::from(self.compile_seconds),
        );
        map.insert("throughput".to_string(), Value::from(self.throughput));
        map.insert("slot_checksum".to_string(), Value::from(self.slot_checksum));
        Value::Object(map)
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} m={:<3} {:>10} queries in {:>8.3} ms  ({:>12.0} queries/s, checksum {})",
            self.name,
            self.num_slots,
            self.queries,
            self.elapsed_seconds * 1e3,
            self.throughput,
            self.slot_checksum
        )
    }
}

/// Runs one scenario: compile (through the cache), then answer every window query
/// `repeats` times with the batched engine.
///
/// # Errors
///
/// Propagates compilation and query errors.
pub fn run_scenario(scenario: &Scenario, cache: &ScheduleCache) -> Result<ScenarioReport> {
    let shape = scenario.shape.prototile()?;
    let compile_start = Instant::now();
    // The lookup is one telemetry request: it counts in the recorder the
    // scenario runs in (with its compile span, when that one is profiled).
    let compiled = crate::telemetry::request(|| cache.get_or_compile(&shape)).0?;
    let compile_seconds = compile_start.elapsed().as_secs_f64();

    // The window is held to the point bound of the sweep adjacency before
    // the per-point slot table is allocated.
    let region = scenario.region()?;
    if !crate::sweep::indexable(region.len()) {
        return Err(EngineError::WindowTooLarge {
            points: region.len(),
        });
    }
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..scenario.repeats {
        let slots = compiled.slots_of_region(&region)?;
        checksum = slots.iter().map(|&s| s as u64).sum();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let points = region.len();
    let queries = points * scenario.repeats as u64;
    Ok(ScenarioReport {
        name: scenario.name.clone(),
        num_slots: compiled.num_slots(),
        points_per_pass: points,
        repeats: scenario.repeats,
        queries,
        elapsed_seconds: elapsed,
        compile_seconds,
        throughput: queries as f64 / elapsed.max(1e-12),
        slot_checksum: checksum,
    })
}

/// The default scenario suite `engine-cli` runs when given no spec file: the
/// Figure 2 neighbourhoods plus the hexagonal cluster, each over a 512×512 window.
pub fn builtin_scenarios() -> Vec<Scenario> {
    let window = 512;
    vec![
        Scenario {
            name: "moore9-512".into(),
            shape: ShapeSpec::Ball {
                dim: 2,
                radius: 1,
                metric: Metric::Chebyshev,
            },
            window,
            repeats: 3,
        },
        Scenario {
            name: "plus5-512".into(),
            shape: ShapeSpec::Ball {
                dim: 2,
                radius: 1,
                metric: Metric::Euclidean,
            },
            window,
            repeats: 3,
        },
        Scenario {
            name: "antenna8-512".into(),
            shape: ShapeSpec::Antenna,
            window,
            repeats: 3,
        },
        Scenario {
            name: "hex7-512".into(),
            shape: ShapeSpec::Hex7,
            window,
            repeats: 3,
        },
        Scenario {
            name: "ball13-512".into(),
            shape: ShapeSpec::Ball {
                dim: 2,
                radius: 2,
                metric: Metric::Euclidean,
            },
            window,
            repeats: 3,
        },
    ]
}

pub(crate) fn invalid(msg: &str) -> EngineError {
    EngineError::InvalidSpec(msg.to_string())
}

/// Checks one square-window side read from the spec's `field`: it must be
/// positive, and the window `[0, side)^dim` must count its points in a `u64`
/// (the box constructor refuses a larger one; here the error names the
/// field).
pub(crate) fn window_side(raw: u64, dim: usize, field: &str) -> Result<i64> {
    let side = i64::try_from(raw)
        .ok()
        .filter(|&side| side > 0)
        .ok_or_else(|| invalid(&format!("'{field}' must be positive")))?;
    if let Err(LatticeError::Overflow) = BoxRegion::square_window(dim, side) {
        return Err(invalid(&format!(
            "'{field}' {side} spans more than 2^64 points in {dim} dimensions"
        )));
    }
    Ok(side)
}

pub(crate) fn get_u64(value: &Value, field: &str) -> Result<u64> {
    value
        .get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| invalid(&format!("missing or non-integer field '{field}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_scenario_and_arrays() {
        let single =
            r#"{"name": "m", "shape": {"kind": "ball", "dim": 2, "radius": 1}, "window": 16}"#;
        let scenarios = Scenario::parse_spec(single).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name, "m");
        assert_eq!(scenarios[0].repeats, 1);
        assert_eq!(
            scenarios[0].shape,
            ShapeSpec::Ball {
                dim: 2,
                radius: 1,
                metric: Metric::Chebyshev
            }
        );

        let array = r#"[
            {"name": "a", "shape": {"kind": "antenna"}, "window": 8, "repeats": 2},
            {"name": "h", "shape": {"kind": "hex7"}, "window": 8}
        ]"#;
        let scenarios = Scenario::parse_spec(array).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].shape, ShapeSpec::Antenna);
        assert_eq!(scenarios[0].repeats, 2);
        assert_eq!(scenarios[1].shape, ShapeSpec::Hex7);
    }

    #[test]
    fn parses_explicit_point_shapes() {
        let spec =
            r#"{"shape": {"kind": "points", "points": [[0,0],[1,0],[0,1],[1,1]]}, "window": 8}"#;
        let scenario = &Scenario::parse_spec(spec).unwrap()[0];
        let tile = scenario.shape.prototile().unwrap();
        assert_eq!(tile.len(), 4);
        assert_eq!(scenario.shape.dim(), 2);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "not json",
            r#"{"window": 8}"#,
            r#"{"shape": {"kind": "warp"}, "window": 8}"#,
            r#"{"shape": {"kind": "ball", "dim": 2}, "window": 8}"#,
            r#"{"shape": {"kind": "ball", "dim": 2, "radius": 1, "metric": "hamming"}, "window": 8}"#,
            r#"{"shape": {"kind": "antenna"}, "window": 0}"#,
            r#"{"shape": {"kind": "points", "points": [[0,"x"]]}, "window": 8}"#,
        ] {
            assert!(Scenario::parse_spec(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn runs_builtin_scenarios_end_to_end() {
        let cache = ScheduleCache::new();
        let ((), lookups, _) = crate::telemetry::request(|| {
            for scenario in builtin_scenarios() {
                let scenario = Scenario {
                    window: 32,
                    repeats: 2,
                    ..scenario
                };
                let report = run_scenario(&scenario, &cache).unwrap();
                assert_eq!(report.points_per_pass, 32 * 32);
                assert_eq!(report.queries, 2 * 32 * 32);
                assert!(report.throughput > 0.0);
                // A balanced schedule over any window has a predictable checksum scale.
                assert!(report.slot_checksum > 0);
                let json = report.to_json_value();
                assert_eq!(
                    json.get("name").unwrap().as_str(),
                    Some(report.name.as_str())
                );
            }
        });
        // 5 distinct shapes were compiled once each, each in its own
        // scenario's request, merged into the enclosing one.
        let misses = crate::telemetry::CacheTier::Schedules.counter(false);
        assert_eq!(lookups.counter(misses), 5);
    }

    #[test]
    fn shape_display_names_are_stable() {
        assert_eq!(ShapeSpec::Antenna.to_string(), "antenna8");
        assert_eq!(ShapeSpec::Hex7.to_string(), "hex7");
        assert!(ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: Metric::Chebyshev
        }
        .to_string()
        .contains("r=1"));
    }
}
