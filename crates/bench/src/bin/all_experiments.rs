//! Runs every reproduced table and figure in EXPERIMENTS.md order and
//! prints one consolidated markdown report.
//!
//! Usage: `cargo run -p ossm-bench --release --bin all-experiments --
//! [--smoke] [--pages=…] [--items=…] [--threads=N]
//! [--obs-out=BENCH_obs.json] [--trace[=chrome|folded] [PATH]]
//! [--write-experiments [--experiments-md=EXPERIMENTS.md]]`
//!
//! `--smoke` runs everything at tiny scale (seconds, debug-build friendly)
//! and rejects, with exit status 2, any scale option given next to it;
//! default scale matches the per-binary defaults.
//!
//! Alongside the markdown, the run writes `BENCH_obs.json` (override with
//! `--obs-out=PATH`, disable with `--obs-out=`): one self-describing JSON
//! line per speedup row, followed by the instrumentation snapshot
//! (counters, phase timings, histograms) — so the perf record says *why* a
//! run was fast, not just how fast. That file is what the `regress` binary
//! gates against `BENCH_baseline.json`.
//!
//! `--write-experiments` instead fills the `<!-- FIG4_REGULAR -->`,
//! `<!-- FIG4_SKEWED -->`, `<!-- FIG5 -->`, `<!-- FIG6 -->`,
//! `<!-- SEC7 -->`, `<!-- OOC -->`, and `<!-- ABLATION -->` placeholders of EXPERIMENTS.md
//! with freshly measured tables, idempotently (re-runs replace the filled
//! blocks in place).

use ossm_bench::cli::Options;
use ossm_bench::experiments::{
    fig4, fig5, fig6, obs_json_body, ooc, patch_placeholders, run_all, sec7, smoke_options,
};
use ossm_bench::{ablation, traceio};

fn main() {
    traceio::main_with_trace(
        &[
            "smoke",
            "pages=N",
            "hybrid-pages=N",
            "full",
            "items=M",
            "minsup=F",
            "nuser=N",
            "nmid=N",
            "bubble-minsup=F",
            "buckets=N",
            "seed=S",
            "workload=KIND",
            "trials=N",
            "ooc-pages=N",
            "ooc-items=M",
            "ooc-minsup=F",
            "ooc-page-bytes=B",
            "pool-frames=N",
            "obs-out=PATH",
            "write-experiments",
            "experiments-md=PATH",
        ],
        |opts| {
            let run_opts = if opts.flag("smoke") {
                if let Some(name) = dropped_by_smoke(opts) {
                    eprintln!(
                        "error: --{name} sets the scale, which --smoke fixes; drop one of them"
                    );
                    return 2;
                }
                smoke_options()
            } else {
                opts.clone()
            };
            if opts.flag("write-experiments") {
                return write_experiments(opts, &run_opts);
            }
            let obs_out: String = opts.get("obs-out", "BENCH_obs.json".to_owned());
            let (markdown, rows) = run_all(&run_opts);
            println!("{markdown}");
            if !obs_out.is_empty() {
                match std::fs::write(&obs_out, obs_json_body(&rows)) {
                    Ok(()) => eprintln!("wrote instrumentation snapshot -> {obs_out}"),
                    Err(e) => {
                        eprintln!("could not write {obs_out}: {e}");
                        return 1;
                    }
                }
            }
            0
        },
    );
}

/// Options that keep their meaning next to `--smoke`; every other one
/// sets the scale of a run, which `--smoke` replaces with its preset.
const KEPT_BY_SMOKE: [&str; 7] = [
    "smoke",
    "obs-out",
    "write-experiments",
    "experiments-md",
    "threads",
    "trace",
    "trace-out",
];

/// The first option given next to `--smoke` that the smoke preset would
/// silently drop.
fn dropped_by_smoke(opts: &Options) -> Option<&str> {
    opts.names().find(|name| !KEPT_BY_SMOKE.contains(name))
}

/// Measures every experiment (Figure 4 on both workloads, Figures 5–6,
/// Section 7, the ablations) and patches the results into EXPERIMENTS.md.
fn write_experiments(opts: &Options, run_opts: &Options) -> i32 {
    let path: String = opts.get("experiments-md", "EXPERIMENTS.md".to_owned());
    let doc = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {path}: {e} (run from the workspace root or pass --experiments-md=PATH)");
            return 1;
        }
    };
    ossm_obs::registry().reset();
    eprintln!("measuring figure 4 (regular)…");
    let fig4_regular = fig4(run_opts);
    eprintln!("measuring figure 4 (skewed)…");
    let mut skewed_opts = run_opts.clone();
    skewed_opts.set("workload", "skewed");
    let fig4_skewed = fig4(&skewed_opts);
    eprintln!("measuring figure 5…");
    let fig5 = fig5(run_opts);
    eprintln!("measuring figure 6…");
    let fig6 = fig6(run_opts);
    eprintln!("measuring section 7…");
    let sec7 = sec7(run_opts);
    eprintln!("measuring the out-of-core table…");
    let ooc = ooc(run_opts);
    eprintln!("measuring ablations…");
    let ablation = ablation::all(run_opts);
    let sections: Vec<(&str, &str)> = vec![
        ("FIG4_REGULAR", fig4_regular.markdown.as_str()),
        ("FIG4_SKEWED", fig4_skewed.markdown.as_str()),
        ("FIG5", fig5.markdown.as_str()),
        ("FIG6", fig6.markdown.as_str()),
        ("SEC7", sec7.markdown.as_str()),
        ("OOC", ooc.markdown.as_str()),
        ("ABLATION", ablation.as_str()),
    ];
    let patched = match patch_placeholders(&doc, &sections) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    if let Err(e) = std::fs::write(&path, patched) {
        eprintln!("cannot write {path}: {e}");
        return 1;
    }
    eprintln!("filled measured tables into {path}");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn smoke_rejects_the_scale_options_it_would_drop() {
        for scale in [
            "--pages=100000",
            "--items=50",
            "--minsup=0.01",
            "--seed=5",
            "--full",
            "--workload=skewed",
            "--ooc-pages=9",
            "--pool-frames=4",
        ] {
            let opts = parse(&["--smoke", "--obs-out=", scale]);
            let name = scale.trim_start_matches("--").split('=').next();
            assert_eq!(dropped_by_smoke(&opts), name, "{scale}");
        }
        for kept in [
            &["--smoke"][..],
            &["--smoke", "--obs-out=x.json", "--threads=2"],
            &["--smoke", "--write-experiments", "--experiments-md=E.md"],
            &["--smoke", "--trace=folded", "--trace-out=t.folded"],
            &["--smoke", "--trace"],
        ] {
            assert_eq!(dropped_by_smoke(&parse(kept)), None, "{kept:?}");
        }
    }
}
