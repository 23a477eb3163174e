//! The telemetry-overhead baseline in its own test binary: the measurement
//! toggles the process-wide telemetry flag off and on, and a test sharing
//! the binary would have its profiled requests unprofiled mid-run (or its
//! unprofiled ones profiled).

use latsched_bench::measure_telemetry;

#[test]
fn baseline_measures_and_serializes() {
    // Medians of five sweeps per side, each several milliseconds long: on a
    // loaded host one scheduler stall in a single 1 ms sample can decide the
    // overhead bound on its own.
    let baseline = measure_telemetry(16, 128, 5).unwrap();
    assert!(baseline.num("off_ms") > 0.0 && baseline.num("on_ms") > 0.0);
    assert!(baseline.parity(), "off/on sweeps must agree: {baseline:?}");
    let json = baseline.to_json_value();
    assert_eq!(json.get("runs").unwrap().as_u64(), Some(64));
    assert_eq!(json.get("parity").unwrap().as_bool(), Some(true));
    assert!(json.get("overhead_ratio").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(json.get("dispatch_total").unwrap().as_u64(), Some(64));
}
