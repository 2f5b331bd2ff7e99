//! Drives the built benchmark binary end to end at smoke scale (≤ 1 s per
//! workload): every workload passes, every declared metric is emitted under a
//! well-formed name, a wrong expected value fails the run, and `list` agrees
//! with `BENCHMARK.json`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::{Command, Output};
use std::sync::Mutex;

use json::Json;

/// Runs share `benchmark/out/`; one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const WORKLOADS: [&str; 5] = [
    "wire_rw",
    "wire_durable",
    "inproc_hot",
    "kv_durable",
    "crash_recover",
];

fn bench(args: &[&str]) -> Output {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    Command::new(env!("CARGO_BIN_EXE_terp-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(section: &Json) -> Vec<String> {
    section
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_run_passes_and_emits_every_end_to_end_metric() {
    let contract = contract();
    let wanted = names(contract.get("end_to_end").unwrap());
    for w in WORKLOADS {
        let out = bench(&[
            "run",
            "--smoke",
            "--workload",
            w,
            "--seed",
            "3",
            "--trace",
            "0",
        ]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = result_line(&out);
        let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        assert!(
            result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
            "{w}"
        );
        let got: Vec<String> = result
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            got, wanted,
            "{w} emits exactly the end-to-end metrics, in order"
        );
        for (name, m) in result.get("metrics").unwrap().fields() {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(
                v > 0.0 && v.is_finite(),
                "{w} {name} = {v}: end-to-end metrics are never 0"
            );
        }
        // The human lines read `workload metric value unit`.
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| l.starts_with(w)) {
            let cols: Vec<&str> = line.split(' ').collect();
            assert_eq!(cols.len(), 4, "{line}");
            assert!(well_formed(cols[1]), "{line}");
            assert!(cols[2].parse::<f64>().is_ok(), "{line}");
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric_and_spans_that_add_up() {
    let contract = contract();
    let wanted = names(contract.get("per_layer").unwrap());
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    for w in WORKLOADS {
        let out = bench(&["run", "--smoke", "--workload", w, "--trace", "1"]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = result_line(&out);
        let metrics = result.get("metrics").unwrap();
        let got: Vec<String> = metrics.fields().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(
            got, wanted,
            "{w} emits exactly the per-layer metrics, in order"
        );
        assert!(got.iter().all(|n| well_formed(n)));
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(value("fail_frac"), 0.0, "{w}");
        assert!(value("bench.threads") >= 2.0, "{w}");

        let file =
            Json::parse(&std::fs::read_to_string(format!("{out_dir}/{w}.traced.json")).unwrap())
                .unwrap();
        let host = file.get("host").expect("host block");
        for key in [
            "nproc",
            "pinned_cpu",
            "driver_threads",
            "connections",
            "server_threads",
            "oversubscribed",
            "network",
            "data_dir_filesystem",
            "commit",
            "seed",
            "phases",
        ] {
            assert!(host.get(key).is_some(), "{w}: host block lacks {key}");
        }
        assert!(file
            .get("flush_policy")
            .and_then(Json::as_str)
            .unwrap()
            .contains("fsynced"));

        // crash_recover times layers from outside without spans of its own.
        if w == "crash_recover" {
            continue;
        }
        let spans = std::fs::read_to_string(format!("{out_dir}/{w}.spans.jsonl")).unwrap();
        assert!(spans.lines().count() > 10, "{w} dumped spans");
        for line in spans.lines().take(50) {
            let s = Json::parse(line).unwrap();
            for key in ["req", "id", "parent", "layer", "name", "start_ns", "end_ns"] {
                assert!(s.get(key).is_some(), "{w}: span lacks {key}: {line}");
            }
        }
        let coverage = value("bench.span_coverage_frac");
        assert!(
            (0.9..=1.1).contains(&coverage),
            "{w}: self times cover {coverage} of the request spans"
        );
    }
}

#[test]
fn a_wrong_expected_value_fails_the_run() {
    for w in WORKLOADS {
        let out = bench(&["run", "--smoke", "--workload", w, "--corrupt-expected"]);
        assert!(
            !out.status.success(),
            "{w} must exit non-zero on a wrong answer"
        );
        let result = result_line(&out);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}");
        assert!(
            result.get("failed").and_then(Json::as_f64).unwrap() >= 1.0,
            "{w}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("FAILED CHECK"), "{w}: {stderr}");
    }
}

#[test]
fn list_prints_the_set_in_benchmark_json() {
    let contract = contract();
    let out = bench(&["list", "--json"]);
    assert!(out.status.success());
    let listed = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(listed, contract);

    let text = bench(&["list"]);
    let text = String::from_utf8_lossy(&text.stdout).to_string();
    let listed_names: Vec<&str> = text.lines().filter_map(|l| l.split(' ').nth(1)).collect();
    let mut wanted = names(contract.get("workloads").unwrap());
    wanted.extend(names(contract.get("end_to_end").unwrap()));
    wanted.extend(names(contract.get("per_layer").unwrap()));
    assert_eq!(listed_names, wanted);
    assert!(wanted.iter().all(|n| well_formed(n)));
}

#[test]
fn bad_usage_is_refused() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["frobnicate"],
        &["run", "--seconds", "0"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result line on bad usage");
    }
}
