//! `--check`: the benchmark's own code at tiny sizes, driven the way
//! the driver drives it — one process per workload, the result read
//! from the last line of standard output.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use manimal_benchmark::metrics::{per_layer, stand_in, END_TO_END, WORKLOADS};
use mr_json::Json;

/// A finished `--check` run: its metrics by name, as `(value, unit)`.
struct Run {
    metrics: BTreeMap<String, (f64, String)>,
    attempted: i64,
    /// The run's "input digest" line.
    input_digest: String,
}

/// The directory the driver runs the benchmark from.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
}

fn run(workload: &str, seed: u64, traced: bool) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_manimal-bench"));
    cmd.args([
        "--check",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .current_dir(repo_root());
    let output = cmd.output().expect("spawn the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.trim_end().lines().last().expect("a result line");
    let doc = mr_json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(0));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("a value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("a unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    let input_digest = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("input digest: "))
        .expect("an input digest line")
        .to_string();
    Run {
        metrics,
        attempted: doc.get("attempted").and_then(Json::as_i64).unwrap(),
        input_digest,
    }
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for (workload, _) in WORKLOADS {
        let r = run(workload, 1, false);
        assert!(r.attempted >= 1);
        let names: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "{workload}");
        // Every stand-in of a run is one calibration time in its unit.
        // (Batch workloads leave the latencies unmeasured, service
        // workloads the batch times.)
        let calibration_s = END_TO_END
            .iter()
            .filter(|m| !m.measured(workload))
            .find_map(|m| match m.unit {
                "s" => Some(r.metrics[m.name].0),
                "ms" => Some(r.metrics[m.name].0 / 1e3),
                _ => None,
            })
            .expect("an unmeasured time");
        for m in END_TO_END {
            let (value, got_unit) = &r.metrics[m.name];
            assert!(name_ok(m.name));
            assert_eq!(got_unit, m.unit, "{workload} {}", m.name);
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {} = {value}",
                m.name
            );
            // A metric the workload does not measure is its stand-in
            // and nothing else.
            if !m.measured(workload) {
                let expected = stand_in(m.unit, calibration_s);
                assert!(
                    (value - expected).abs() <= expected * 1e-9,
                    "{workload} {} = {value}, expected the stand-in {expected}",
                    m.name
                );
            }
        }
    }
}

/// The per-layer metrics that are pure counts of the program's work:
/// one seed must give the same value twice.
fn is_count(name: &str) -> bool {
    let counted = [
        "mr-engine.map.",
        "mr-engine.input.bytes",
        "mr-engine.shuffle.bytes",
        "mr-engine.combine.",
        "mr-engine.reduce.",
        "mr-engine.task.retries",
        "mr-storage.input.bytes_ratio",
        "mr-ir.interp.instructions_per_record",
        "core.indexgen.",
    ];
    counted.iter().any(|p| name.starts_with(p)) && !name.ends_with("build_s")
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_counts_repeat() {
    for (workload, _) in WORKLOADS {
        let a = run(workload, 1, true);
        let b = run(workload, 1, true);
        let expected = per_layer();
        assert_eq!(a.metrics.len(), expected.len(), "{workload}");
        for (name, unit, _) in &expected {
            assert!(name_ok(name));
            let (value, got_unit) = a
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(got_unit, unit);
            assert!(value.is_finite(), "{workload} {name}");
            if is_count(name) {
                assert_eq!(
                    *value, b.metrics[name].0,
                    "{workload} {name} differs between two runs of one seed"
                );
            }
        }
        let trace = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
        let trace = std::fs::read_to_string(trace).expect("a span file");
        let spans = mr_json::parse(&trace).expect("span file parses");
        assert!(spans
            .get("spans")
            .and_then(Json::as_arr)
            .is_some_and(|s| s.len() > 5));
        // Batch workloads run both plans, so both suffixes carry counts.
        if !workload.starts_with("service") {
            assert!(
                a.metrics["mr-engine.map.records_in.base"].0 > 0.0,
                "{workload}"
            );
            assert!(
                a.metrics["mr-engine.map.records_in.opt"].0 > 0.0,
                "{workload}"
            );
        }
    }
}

#[test]
fn the_seed_decides_the_inputs() {
    for workload in ["select-sweep", "agg-spill", "join", "service-miss"] {
        let first = run(workload, 7, false);
        let again = run(workload, 7, false);
        assert_eq!(
            first.input_digest, again.input_digest,
            "{workload}: one seed, one input"
        );
        assert_eq!(
            first.metrics["index_bytes_ratio"].0, again.metrics["index_bytes_ratio"].0,
            "{workload}: index_bytes_ratio is deterministic"
        );
        assert_ne!(
            first.input_digest,
            run(workload, 8, false).input_digest,
            "{workload}: another seed, another input"
        );
    }
}
