//! Smoke test: every workload at toy size, both modes. Checks that each
//! metric named in `BENCHMARK.json` is printed with its unit, that every
//! run passes its own correctness checks, and that the deterministic
//! metrics repeat exactly across two runs with the same seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: &[&str] = &["steady_serve", "drift_republish"];

/// Metrics that are a pure function of the seed.
const DETERMINISTIC: &[&str] = &[
    "mean_access_slots",
    "p99_access_slots",
    "mean_data_wait",
    "search.expanded",
    "search.generated",
];

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run(workload: &str, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--size", "toy"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let number = |key: &str| -> &str {
        let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        let rest = &line[at..];
        &rest[..rest.find([',', '}']).expect("terminated value")]
    };
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let metrics = body
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let value_at = entry.find("\"value\": ").expect("value") + 9;
            let value_end = value_at + entry[value_at..].find(',').expect("value ends");
            let value: f64 = entry[value_at..value_end].parse().expect("numeric value");
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
            let unit = unit[..unit.find('"').expect("unit ends")].to_string();
            (name, value, unit)
        })
        .collect();
    Run {
        correct: number("correct") == "true",
        attempted: number("attempted").parse().expect("count"),
        failed: number("failed").parse().expect("count"),
        metrics,
    }
}

fn deterministic(r: &Run) -> Vec<(String, u64)> {
    r.metrics
        .iter()
        .filter(|(n, _, _)| DETERMINISTIC.contains(&n.as_str()))
        .map(|(n, v, _)| (n.clone(), v.to_bits()))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_repeats() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for &w in WORKLOADS {
        for (trace, names) in [(0u8, &end_to_end), (1, &per_layer)] {
            let first = run(w, trace);
            assert!(first.correct, "{w} trace {trace}: checks failed");
            assert!(
                first.attempted > 0 && first.failed == 0,
                "{w} trace {trace}"
            );
            let printed: Vec<(String, String)> = first
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.clone()))
                .collect();
            assert_eq!(&printed, names, "{w} trace {trace}: metric names/units");
            for (name, value, _) in &first.metrics {
                assert!(value.is_finite(), "{w}: {name} = {value}");
                if trace == 0 {
                    assert!(*value != 0.0, "{w}: end-to-end {name} is 0");
                }
            }
            let second = run(w, trace);
            assert_eq!(
                deterministic(&first),
                deterministic(&second),
                "{w} trace {trace}: deterministic metrics moved between same-seed runs"
            );
        }
    }
}
