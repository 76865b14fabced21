//! Reproduces Figure 5 of the paper: segmentation cost and speedup for the
//! pure strategies at p = 500 (a) and for the Random-RC / Random-Greedy
//! hybrids at large p (b).
//!
//! Usage: `cargo run -p ossm-bench --release --bin fig5 -- [--pages=500]
//! [--hybrid-pages=2500] [--full] [--items=1000] [--nuser=40] [--nmid=200]`
//!
//! `--full` restores the paper's 50 000 hybrid pages (5 M transactions).
//! `--trace[=chrome|folded] [PATH]` records a span trace of the run.

use ossm_bench::experiments::fig5;
use ossm_bench::traceio;

fn main() {
    traceio::main_with_trace(
        &[
            "pages=N",
            "hybrid-pages=N",
            "full",
            "items=M",
            "nuser=N",
            "nmid=N",
            "minsup=F",
            "seed=S",
            "workload=KIND",
        ],
        |opts| {
            print!("{}", fig5(opts));
            0
        },
    );
}
