//! Reproduces Section 7's preliminary table: the DHP algorithm with and
//! without an OSSM (built by Random-RC with 40 segments), reporting
//! runtime and the number of candidate 2-itemsets.
//!
//! Usage: `cargo run -p ossm-bench --release --bin sec7 -- [--pages=50]
//! [--items=200] [--minsup=0.02] [--nuser=40] [--buckets=2048]
//! [--seed=1] [--workload=alarm] [--trace[=chrome|folded] [PATH]]`

use ossm_bench::experiments::sec7;
use ossm_bench::traceio;

fn main() {
    traceio::main_with_trace(
        &[
            "pages=N",
            "items=M",
            "minsup=F",
            "nuser=N",
            "buckets=N",
            "seed=S",
            "workload=KIND",
        ],
        |opts| {
            print!("{}", sec7(opts));
            0
        },
    );
}
