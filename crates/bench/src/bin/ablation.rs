//! Runs the design-decision ablation studies of DESIGN.md §6:
//! loss-evaluation timing (A1), heuristic quality vs the exhaustive
//! optimum (A3), the Lemma 1 pre-pass (A4), and incremental maintenance
//! vs full rebuild (A5).
//!
//! Usage: `cargo run -p ossm-bench --release --bin ablation --
//! [--items=…] [--trials=…] [--pages=…] [--nuser=…]
//! [--trace[=chrome|folded] [PATH]]`

use ossm_bench::{ablation, traceio};

fn main() {
    traceio::main_with_trace(
        &["items=M", "trials=N", "pages=N", "nuser=N", "seed=S"],
        |opts| {
            print!("{}", ablation::all(opts));
            0
        },
    );
}
