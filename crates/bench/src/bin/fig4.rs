//! Reproduces Figure 4 of the paper: Apriori speedup (a) and fraction of
//! candidate 2-itemsets still requiring counting (b), as a function of the
//! number of segments, for the Greedy, RC, and Random algorithms.
//!
//! Usage: `cargo run -p ossm-bench --release --bin fig4 -- [--pages=200]
//! [--items=1000] [--minsup=0.01] [--seed=1]
//! [--trace[=chrome|folded] [PATH]]`

use ossm_bench::experiments::fig4;
use ossm_bench::traceio;

fn main() {
    traceio::main_with_trace(
        &["pages=N", "items=M", "minsup=F", "seed=S", "workload=KIND"],
        |opts| {
            print!("{}", fig4(opts));
            0
        },
    );
}
