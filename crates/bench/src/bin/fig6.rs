//! Reproduces Figure 6 of the paper: segmentation cost (a) and speedup (b)
//! as a function of bubble-list size, for the Random-Greedy and Random-RC
//! hybrids. The bubble list is built at a 0.25 % reference threshold while
//! queries run at 1 %, matching the paper's threshold-mismatch setup.
//!
//! Usage: `cargo run -p ossm-bench --release --bin fig6 -- [--pages=2500]
//! [--full] [--items=1000] [--nuser=40] [--nmid=200]
//! [--bubble-minsup=0.0025] [--minsup=0.01]
//! [--trace[=chrome|folded] [PATH]]`

use ossm_bench::experiments::fig6;
use ossm_bench::traceio;

fn main() {
    traceio::main_with_trace(
        &[
            "pages=N",
            "full",
            "items=M",
            "nuser=N",
            "nmid=N",
            "bubble-minsup=F",
            "minsup=F",
            "seed=S",
            "workload=KIND",
        ],
        |opts| {
            print!("{}", fig6(opts));
            0
        },
    );
}
