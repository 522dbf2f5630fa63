//! Smoke-scale runs of every workload (`--seconds 1`): each metric named
//! in `BENCHMARK.json` is printed with its unit, no operation fails, the
//! traced run's layers reconcile with its wall time, and a seed
//! reproduces its design stream and output digest.

use std::path::Path;
use std::process::Command;

use sns_rt::json::{parse, Json};

/// Share of the traced wall time the layer spans may leave unaccounted.
const MAX_UNACCOUNTED: f64 = 0.25;

/// `(name, unit)` of each metric in one list of `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one workload at smoke scale; returns the result object and the
/// header's output digest.
fn run(workload: &str, seed: u64, trace: bool) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sns-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {stdout}",
        out.status
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let header = parse(lines[0]).expect("header line is JSON");
    let digest = header
        .get("env")
        .and_then(|e| e.get("digest"))
        .and_then(Json::as_str)
        .expect("digest");
    let result = parse(lines.last().expect("result line")).expect("result line is JSON");
    (result, digest.to_string())
}

fn metric(result: &Json, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|_| panic!("metric {name}"));
    let value = m.get("value").and_then(Json::as_f64).expect("value");
    (
        value,
        m.get("unit")
            .and_then(Json::as_str)
            .expect("unit")
            .to_string(),
    )
}

fn assert_clean(workload: &str, result: &Json) {
    assert!(
        result
            .get("correct")
            .and_then(Json::as_bool)
            .expect("correct"),
        "{workload}: not correct"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64).expect("failed"),
        0,
        "{workload}: failed_frac > 0"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
}

fn check(workload: &str) {
    let (result, digest) = run(workload, 7, false);
    assert_clean(workload, &result);
    for (name, unit) in contract("end_to_end") {
        let (value, got) = metric(&result, &name);
        assert_eq!(got, unit, "{workload}: unit of {name}");
        assert!(
            value.is_finite() && value > 0.0,
            "{workload}: {name} = {value}"
        );
    }

    let (again, same_digest) = run(workload, 7, false);
    assert_clean(workload, &again);
    assert_eq!(
        digest, same_digest,
        "{workload}: same seed, different inputs or outputs"
    );
    let (_, other_digest) = run(workload, 8, false);
    assert_ne!(
        digest, other_digest,
        "{workload}: the seed does not reach the inputs"
    );

    let (traced, traced_digest) = run(workload, 7, true);
    assert_clean(workload, &traced);
    assert_eq!(
        digest, traced_digest,
        "{workload}: tracing changed inputs or outputs"
    );
    for (name, unit) in contract("per_layer") {
        let (value, got) = metric(&traced, &name);
        assert_eq!(got, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    let (unaccounted, _) = metric(&traced, "trace.unaccounted_frac");
    assert!(
        (0.0..=MAX_UNACCOUNTED).contains(&unaccounted),
        "{workload}: layers leave {unaccounted} of the traced wall time unaccounted"
    );
}

#[test]
fn dse_sweep_smoke() {
    check("dse_sweep");
}

#[test]
fn serve_warm_smoke() {
    check("serve_warm");
}

#[test]
fn selftrain_smoke() {
    check("selftrain");
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "selftrain", "--seed", "x"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_sns-perfbench"))
            .args(args)
            .status()
            .expect("run");
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
