//! Runs every workload in `--smoke` mode through the real binary: every
//! named metric present and finite, every correctness gate green (a red gate
//! exits non-zero), and what must repeat exactly for one seed does.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

fn names(contract: &Json, key: &str) -> Vec<String> {
    contract
        .get(key)
        .expect("contract key")
        .arr()
        .iter()
        .map(|m| m.get("name").and_then(Json::str).expect("name").to_owned())
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_adlp-benchmark"))
        .args(["run", "--smoke", "--workload", workload, "--seed", "7"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn benchmark");
    assert!(
        output.status.success(),
        "{workload} trace={trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result =
        Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::num)
            .expect("attempted")
            >= 1.0
    );
    result
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::num)
        .unwrap_or_else(|| panic!("metric {metric} missing"))
}

#[test]
fn every_workload_reports_every_metric_and_repeats() {
    let contract = contract();
    let end_to_end = names(&contract, "end_to_end");
    let per_layer = names(&contract, "per_layer");
    for workload in names(&contract, "workloads") {
        let plain = [run(&workload, false), run(&workload, false)];
        let traced = [run(&workload, true), run(&workload, true)];
        for (results, metrics) in [(&plain, &end_to_end), (&traced, &per_layer)] {
            for result in results {
                let reported = result.get("metrics").expect("metrics").obj().count();
                assert_eq!(
                    reported,
                    metrics.len(),
                    "{workload}: metric set differs from BENCHMARK.json"
                );
                for metric in metrics {
                    assert!(
                        value(result, metric).is_finite(),
                        "{workload}: {metric} not finite"
                    );
                }
            }
        }
        // A smoke round is shorter than one 10 ms tick of process CPU time;
        // every other end-to-end metric must already be non-zero.
        for metric in end_to_end.iter().filter(|m| *m != "cpu_ms_per_entry") {
            assert!(
                value(&plain[0], metric) > 0.0,
                "{workload}: {metric} is zero"
            );
        }
        let same = |results: &[Json; 2], metric: &str| {
            assert_eq!(
                value(&results[0], metric),
                value(&results[1], metric),
                "{workload}: {metric} differs between two runs of one seed"
            );
        };
        same(&plain, "log_bytes_per_entry");
        same(&traced, "driver.input_digest");
        same(&traced, "logger.storage_syncs_per_entry");
    }
}
