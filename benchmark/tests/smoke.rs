//! Drives every workload at `--scale=smoke` through the benchmark binary
//! and checks its output against `BENCHMARK.json`: every declared metric
//! is printed once per workload with its declared unit, nothing
//! undeclared is printed, and a tampered OSSM trips the pattern gate.

use std::collections::BTreeMap;
use std::process::Command;

use ossm_obs::json::{self, Json};

const EXE: &str = env!("CARGO_BIN_EXE_ossm-benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    code: i32,
    lines: Vec<Json>,
    stderr: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(EXE)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Run {
        code: out.status.code().unwrap_or(-1),
        lines: stdout
            .lines()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("line {l:?}: {e}")))
            .collect(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn smoke(workload: &str, trace: &str, extra: &[&str]) -> Run {
    let mut args = vec![
        "--workload",
        workload,
        "--scale=smoke",
        "--seconds=0.3",
        "--trace",
        trace,
    ];
    args.extend_from_slice(extra);
    run(&args)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, ossm_benchmark::WORKLOADS);
    for w in &workloads {
        let r = smoke(w, "1", &[]);
        assert_eq!(r.code, 0, "{w} failed:\n{}", r.stderr);
        let (summary, metric_lines) = r.lines.split_last().expect("output");
        let mut printed: BTreeMap<(String, String), String> = BTreeMap::new();
        for line in metric_lines {
            let field = |f: &str| {
                line.get(f)
                    .and_then(Json::as_str)
                    .expect("field")
                    .to_owned()
            };
            assert_eq!(field("workload"), *w);
            let name = field("metric");
            assert!(well_formed(&name), "{name}");
            for f in ["value", "n", "p25", "p75"] {
                assert!(
                    line.get(f).and_then(Json::as_f64).is_some(),
                    "{name} lacks {f}"
                );
            }
            let key = (field("kind"), name.clone());
            assert!(
                printed.insert(key, field("unit")).is_none(),
                "{w}: {name} printed twice"
            );
            if field("kind") == "e2e" {
                let value = line.get("value").and_then(Json::as_f64).expect("value");
                assert!(value > 0.0, "{w}: end-to-end {name} reads {value}");
            }
        }
        let of_kind = |kind: &str| -> BTreeMap<String, String> {
            printed
                .iter()
                .filter(|((k, _), _)| k == kind)
                .map(|((_, n), u)| (n.clone(), u.clone()))
                .collect()
        };
        assert_eq!(of_kind("e2e"), e2e, "{w}: end-to-end lines");
        assert_eq!(of_kind("layer"), layer, "{w}: per-layer lines");
        assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(summary.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            summary
                .get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = summary
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        let in_summary: BTreeMap<String, String> = metrics
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect();
        assert_eq!(
            in_summary, layer,
            "{w}: --trace 1 summary holds the per-layer metrics"
        );
    }
}

#[test]
fn untraced_runs_summarize_the_end_to_end_metrics() {
    let r = smoke("mine-regular", "0", &[]);
    assert_eq!(r.code, 0, "{}", r.stderr);
    let summary = r.lines.last().expect("summary");
    let names: std::collections::BTreeSet<&str> = summary
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics")
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let e2e = declared("end_to_end");
    assert_eq!(names, e2e.keys().map(String::as_str).collect());
    assert!(r
        .lines
        .iter()
        .all(|l| l.get("kind").and_then(Json::as_str) != Some("layer")));
}

#[test]
fn a_tampered_ossm_trips_the_pattern_gate() {
    let r = smoke("mine-skewed", "0", &["--tamper-ossm"]);
    assert_eq!(r.code, 1, "the gate must fail the run:\n{}", r.stderr);
    assert!(r.stderr.contains("found other patterns"), "{}", r.stderr);
    let summary = r.lines.last().expect("summary still printed");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(false)));
    assert!(
        summary
            .get("failed")
            .and_then(Json::as_f64)
            .expect("failed")
            >= 1.0
    );
}

#[test]
fn all_writes_one_trace_lane_per_workload() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace.json");
    let out = format!("--trace-out={}", trace.display());
    let r = run(&["--workload=all", "--scale=smoke", "--seconds=0.2", &out]);
    assert_eq!(r.code, 0, "{}", r.stderr);
    let summaries = r
        .lines
        .iter()
        .filter(|l| l.get("correct").is_some())
        .count();
    assert_eq!(summaries, ossm_benchmark::WORKLOADS.len());
    let events = json::parse(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("trace parses");
    let events = events.as_array().expect("an array of events");
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .expect("lane")
        })
        .collect();
    assert_eq!(lanes, ossm_benchmark::WORKLOADS);
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("mining.count")));
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("data.wal.fsync")));
    std::fs::remove_file(trace).expect("trace removed");
}

#[test]
fn bad_command_lines_exit_2_without_a_result() {
    for args in [
        &["--workload=nope"][..],
        &["--workload=all", "--trace=7"],
        &[],
    ] {
        let r = run(args);
        assert_eq!(r.code, 2, "{args:?}");
        assert!(r.lines.is_empty(), "{args:?} printed a result");
    }
}
