//! The bench regression gate.
//!
//! Runs the experiment suite at the committed smoke scale, flattens the
//! resulting `BENCH_obs.json` stream, and compares it metric-by-metric
//! against the committed baseline. Deterministic count metrics (candidate
//! counts, losses, counter values, phase call counts) are gated at ±5 %
//! relative drift by default; timing metrics are report-only unless
//! `--max-time-regress` is given. Exits non-zero on any breach, so CI can
//! gate merges on it.
//!
//! Usage: `cargo run -p ossm-bench --release --bin regress --
//! [--baseline=BENCH_baseline.json] [--current=PATH] [--count-drift=0.05]
//! [--mem-drift=0.10] [--max-time-regress=0.25] [--report=PATH] [--write-baseline]
//! [--trace[=chrome|folded] [PATH]]`
//!
//! * default: fresh smoke-scale run vs `--baseline`, markdown report on
//!   stdout, exit 1 on failure;
//! * `--current=PATH`: compare an existing obs file instead of running
//!   (e.g. one produced by `all-experiments` at another scale — the
//!   baseline must have been recorded at the same scale);
//! * `--write-baseline`: record a fresh smoke run as the baseline and exit.

use ossm_bench::experiments::{obs_json_body, run_all, smoke_options};
use ossm_bench::regress::{compare, parse_obs_lines, ObsData, Thresholds};
use ossm_bench::traceio;

fn main() {
    traceio::main_with_trace(
        &[
            "baseline=PATH",
            "current=PATH",
            "count-drift=F",
            "mem-drift=F",
            "max-time-regress=F",
            "report=PATH",
            "write-baseline",
        ],
        |opts| {
            let baseline_path: String = opts.get("baseline", "BENCH_baseline.json".to_owned());

            if opts.flag("write-baseline") {
                let (_, rows) = run_all(&smoke_options());
                let body = obs_json_body(&rows);
                return match std::fs::write(&baseline_path, &body) {
                    Ok(()) => {
                        eprintln!("wrote smoke-scale baseline -> {baseline_path}");
                        0
                    }
                    Err(e) => {
                        eprintln!("cannot write {baseline_path}: {e}");
                        1
                    }
                };
            }

            let baseline = match read_obs(&baseline_path) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("baseline {baseline_path}: {e}");
                    eprintln!("(record one with `regress --write-baseline`)");
                    return 2;
                }
            };
            let current = match opts.raw("current") {
                Some(path) => match read_obs(path) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("current {path}: {e}");
                        return 2;
                    }
                },
                None => {
                    eprintln!("running the smoke-scale experiment suite…");
                    let (_, rows) = run_all(&smoke_options());
                    match parse_obs_lines(&obs_json_body(&rows)) {
                        Ok(d) => d,
                        Err(e) => {
                            eprintln!("internal error: fresh obs stream unparseable: {e}");
                            return 2;
                        }
                    }
                }
            };

            let thresholds = Thresholds {
                count_drift: opts.get("count-drift", 0.05f64),
                time_regress: opts.raw("max-time-regress").map(|v| {
                    v.parse::<f64>()
                        .unwrap_or_else(|e| panic!("--max-time-regress={v}: invalid value ({e:?})"))
                }),
                mem_drift: opts.get("mem-drift", Thresholds::default().mem_drift),
            };
            let report = compare(&baseline, &current, &thresholds);
            let markdown = report.to_markdown(&thresholds);
            println!("{markdown}");
            if let Some(path) = opts.raw("report") {
                if let Err(e) = std::fs::write(path, &markdown) {
                    eprintln!("cannot write report to {path}: {e}");
                    return 2;
                }
            }
            i32::from(report.failed())
        },
    );
}

fn read_obs(path: &str) -> Result<ObsData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_obs_lines(&text)
}
