//! End-to-end and per-layer benchmark of the OSSM workspace.
//!
//! One command runs one workload (or, with `--workload=all`, every
//! workload, each in its own child process):
//!
//! ```text
//! ossm-benchmark --workload=mine-skewed --seed=1 --seconds=15 --trace=1
//! ```
//!
//! Each run sets its input up three times (the median is `setup_s`),
//! measures interleaved samples for `--seconds`, checks every output
//! against an oracle, and with `--trace=1` replays the workload once more
//! under the benchmark's own span recorder for the per-layer split. The
//! layers are timed from outside, through public functions of
//! `ossm-data`, `ossm-core`, `ossm-mining` and `ossm-serve`, plus counters
//! already in `ossm_obs::registry()`; nothing inside the program is
//! instrumented for the benchmark. See `README.md` for the workloads and
//! the meaning of every metric.

#![forbid(unsafe_code)]

mod inputs;
mod mine;
mod ooc;
mod report;
mod serve;
mod stats;
mod trace;

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use report::Report;
use trace::Tracer;

/// Worker threads for the program under test, pinned so every run does
/// the same work split whatever the host reports.
const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Every workload, in `--workload=all` order.
pub const WORKLOADS: [&str; 4] = ["mine-skewed", "mine-regular", "ooc-huge", "serve-mixed"];

/// Input sizes: `full` is what the numbers in `BENCHMARK.json` refer to;
/// `smoke` runs every code path in about a second, for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scale {
    /// Benchmark scale.
    Full,
    /// Test scale.
    Smoke,
}

impl Scale {
    /// The `--scale` spelling.
    fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    /// A name from [`WORKLOADS`], or `all`.
    pub workload: String,
    /// Seed every generator derives its own seed from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where to write the traced pass as Chrome-trace JSON.
    pub trace_out: Option<PathBuf>,
    /// Chrome-trace lane (thread id) of this workload's spans.
    pub trace_lane: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Zero one OSSM segment's supports before mining, so the pattern
    /// gate must trip (a self-test of the gate).
    pub tamper_ossm: bool,
    /// Internal: run only `ooc-huge`'s set-up into this directory (the
    /// child-process half of that workload).
    pub ooc_prepare: Option<PathBuf>,
}

const USAGE: &str =
    "usage: ossm-benchmark --workload=<mine-skewed|mine-regular|ooc-huge|serve-mixed|all> \
[--seed=N] [--seconds=S] [--trace=0|1] [--trace-out=PATH] [--scale=full|smoke]";

impl Args {
    /// Parses `--key=value` or `--key value` pairs.
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: inputs::DEFAULT_SEED,
            seconds: 15.0,
            trace: true,
            trace_out: None,
            trace_lane: 0,
            scale: Scale::Full,
            tamper_ossm: false,
            ooc_prepare: None,
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            let (key, inline) = match flag.split_once('=') {
                Some((k, v)) => (k, Some(v.to_owned())),
                None => (flag, None),
            };
            if key == "tamper-ossm" {
                args.tamper_ossm = true;
                continue;
            }
            let value = match inline {
                Some(v) => v,
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("--{key} needs a value"))?,
            };
            let bad = |what: &str| format!("--{key}: {what} {value:?}");
            match key {
                "workload" => args.workload = value.clone(),
                "seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
                "seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                        return Err(bad("out of range"));
                    }
                }
                "trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "trace-out" => args.trace_out = Some(PathBuf::from(&value)),
                "ooc-prepare" => args.ooc_prepare = Some(PathBuf::from(&value)),
                "trace-lane" => args.trace_lane = value.parse().map_err(|_| bad("not a lane"))?,
                "scale" => {
                    args.scale = match value.as_str() {
                        "full" => Scale::Full,
                        "smoke" => Scale::Smoke,
                        _ => return Err(bad("expected full or smoke")),
                    }
                }
                _ => return Err(format!("unknown option --{key}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        Ok(args)
    }

    /// The measured window.
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs the command line and returns the process exit code: 0 when every
/// gate passed, 1 when one failed, 2 on a usage error.
pub fn main_with(raw: &[String], out: &mut dyn Write) -> i32 {
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ossm-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    if args.workload == "all" {
        return run_all(&args, out);
    }
    if let Some(dir) = &args.ooc_prepare {
        ossm_par::set_threads(Some(THREADS));
        return match ooc::prepare(&args, dir, out) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("ossm-benchmark: ooc-huge set-up: {e}");
                1
            }
        };
    }
    let report = run_workload(&args);
    for f in &report.failures {
        eprintln!("ossm-benchmark: {}: gate failed: {f}", report.workload);
    }
    if let Err(e) = report.emit(args.trace, out) {
        eprintln!("ossm-benchmark: writing the report: {e}");
        return 1;
    }
    i32::from(!report.correct())
}

/// Runs one workload in this process.
fn run_workload(args: &Args) -> Report {
    ossm_par::set_threads(Some(THREADS));
    let name = WORKLOADS
        .into_iter()
        .find(|w| *w == args.workload)
        .expect("workload validated by Args::parse");
    let mut report = Report::new(name);
    let mut tracer = Tracer::new(args.trace);
    let scratch = match Scratch::new(name) {
        Ok(s) => s,
        Err(e) => {
            report.gate(false, || format!("creating the scratch directory: {e}"));
            return report;
        }
    };
    let result = match name {
        "mine-skewed" | "mine-regular" => mine::run(args, &mut report, &mut tracer),
        "ooc-huge" => ooc::run(args, scratch.path(), &mut report, &mut tracer),
        _ => serve::run(args, scratch.path(), &mut report, &mut tracer),
    };
    if let Err(e) = result {
        report.gate(false, || format!("I/O error: {e}"));
    }
    if let Some(path) = &args.trace_out {
        let events = trace::chrome_events(tracer.spans(), name, args.trace_lane);
        if let Err(e) = std::fs::write(path, format!("[\n{events}\n]\n")) {
            report.gate(false, || format!("writing {}: {e}", path.display()));
        }
    }
    report
}

/// Runs every workload, each in a child process of this binary so peak
/// memory is per workload, and merges their trace lanes.
fn run_all(args: &Args, out: &mut dyn Write) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ossm-benchmark: locating this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut lanes = Vec::new();
    for (lane, workload) in WORKLOADS.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.arg(format!("--workload={workload}"))
            .arg(format!("--seed={}", args.seed))
            .arg(format!("--seconds={}", args.seconds))
            .arg(format!("--trace={}", u8::from(args.trace)))
            .arg(format!("--scale={}", args.scale.name()));
        if args.tamper_ossm {
            cmd.arg("--tamper-ossm");
        }
        let part = args
            .trace_out
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.{workload}.part", p.display())));
        if let Some(p) = &part {
            cmd.arg(format!("--trace-out={}", p.display()))
                .arg(format!("--trace-lane={lane}"));
        }
        let output = match cmd.stderr(Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ossm-benchmark: running {workload}: {e}");
                code = 1;
                continue;
            }
        };
        if out.write_all(&output.stdout).is_err() || !output.status.success() {
            code = 1;
        }
        if let Some(p) = part {
            match std::fs::read_to_string(&p) {
                Ok(text) => lanes.push(
                    text.trim()
                        .trim_start_matches('[')
                        .trim_end_matches(']')
                        .trim()
                        .to_owned(),
                ),
                Err(_) => code = 1,
            }
            let _ = std::fs::remove_file(&p);
        }
    }
    if let Some(path) = &args.trace_out {
        if std::fs::write(path, format!("[\n{}\n]\n", lanes.join(",\n"))).is_err() {
            code = 1;
        }
    }
    code
}

/// A per-run directory under `.bench_tmp/` in the working directory,
/// removed (with `.bench_tmp/` itself, once empty) when dropped.
struct Scratch {
    path: PathBuf,
}

impl Scratch {
    fn new(workload: &str) -> io::Result<Self> {
        let path = std::env::current_dir()?
            .join(".bench_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The input gates: every set-up generated the same input, and at the
/// default seed it is the pinned one.
fn check_crcs(report: &mut Report, crcs: &[u32], args: &Args) {
    let first = crcs[0];
    report.gate(crcs.iter().all(|&c| c == first), || {
        format!("set-ups generated different inputs: {crcs:08x?}")
    });
    if args.seed == inputs::DEFAULT_SEED {
        let pinned = inputs::pinned_crc(report.workload, args.scale);
        report.gate(first == pinned, || {
            format!(
                "input CRC {first:08x} differs from the pinned {pinned:08x} at the default seed"
            )
        });
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS high-water mark to the current RSS (writing `5`
/// to `/proc/self/clear_refs`), so set-up data already dropped does not
/// count. Returns whether the kernel accepted the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn both_flag_spellings_parse() {
        let a = parse(&[
            "--workload",
            "ooc-huge",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ooc-huge", 7, 2.5, false)
        );
        let b = parse(&[
            "--workload=all",
            "--seed=3",
            "--scale=smoke",
            "--trace-out=t.json",
        ])
        .unwrap();
        assert_eq!(
            (b.workload.as_str(), b.seed, b.scale),
            ("all", 3, Scale::Smoke)
        );
        assert_eq!(b.trace_out, Some(PathBuf::from("t.json")));
        assert!(b.trace, "per-layer metrics are on unless --trace=0");
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse(&["--workload=nope"]).is_err());
        assert!(parse(&[]).is_err(), "a workload is required");
        assert!(parse(&["--workload=all", "--trace=2"]).is_err());
        assert!(parse(&["--workload=all", "--seconds=0"]).is_err());
        assert!(parse(&["--workload=all", "--seed"]).is_err());
        assert!(parse(&["--workload=all", "--frobnicate=1"]).is_err());
        assert!(parse(&["mine-skewed"]).is_err());
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
