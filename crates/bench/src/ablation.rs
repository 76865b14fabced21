//! Ablation studies for the design decisions DESIGN.md §6 calls out.
//!
//! Unlike the Criterion benches (which time code), these studies measure
//! *quality* and *work*, which Criterion cannot express:
//!
//! * **A1 (loss evaluation)** — time per merge loss of the paper's O(m²)
//!   pair loop, of the linear `merge_loss`, and of the one `f(a + b)` pass
//!   the segmentation loops pay with `f` cached, at paper-scale m over
//!   page-scale, paper-scale and large supports, plus equality
//!   spot-checks.
//! * **A3 (heuristic quality)** — eq. (2) loss of Greedy / RC / Random /
//!   hybrids against the *exhaustive optimum* on small page counts, where
//!   the optimum is computable (Example 4's combinatorics).
//! * **A4 (lossless pre-pass)** — effect of the Lemma 1 group-by-
//!   configuration pre-pass on final loss.
//! * **A5 (incremental vs rebuild)** — bound quality of the streaming
//!   appender against a same-budget full rebuild.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;

use ossm_core::loss::pair_min_sum;
use ossm_core::seg::{
    hybrid::random_greedy, Greedy, Optimal, Random, RandomClosest, SegmentationAlgorithm,
};
use ossm_core::{Aggregate, IncrementalOssm, LossCalculator, Ossm, OssmBuilder, Strategy};
use ossm_data::Itemset;

use crate::cli::Options;
use crate::runner::timed;
use crate::table::Table;
use crate::workloads::{Workload, WorkloadKind};

/// A1: naive vs linear loss evaluation timing.
///
/// Three ways to get one eq. (2) merge loss: the paper's pair loop, the
/// public `merge_loss` (three linear `f` evaluations), and what RC, Greedy
/// and the incremental map pay per pair now that they cache `f` of each
/// live segment: one `f(a + b)` of a precomputed sum. Rows cover page-scale
/// supports, the paper-scale range and values past 2¹⁶, so both of `f`'s
/// identities (support histogram, radix sort) are timed; the `f(a + b)`
/// column names the one that ran, read from `core.loss.{hist,radix}_evals`.
pub fn loss_evaluation(opts: &Options) -> String {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Ablation A1 — equation (2) evaluation: O(m²) pair loop vs linear pass\n\n\
         Time per merge loss of two random aggregates with supports uniform in the given \
         range: the median of {SAMPLES} interleaved bursts of at least {} ms each, after a \
         warm-up. `f(a + b)` names the identity the cached evaluation used: the support \
         histogram (`hist`) or the radix sort (`radix`).\n",
        MIN_BURST.as_millis()
    );
    let mut table = Table::new([
        "m",
        "supports",
        "f(a + b)",
        "naive pair loop (µs)",
        "merge_loss (µs)",
        "per pair, f cached (µs)",
        "naive / cached",
    ]);
    let seed: u64 = opts.get("seed", 7);
    let mut rng = StdRng::seed_from_u64(seed);
    let hist_evals = || {
        ossm_obs::registry()
            .snapshot()
            .counter("core.loss.hist_evals")
    };
    let (page, paper, large) = (0..100u64, 0..1000u64, 1 << 16..1 << 17);
    for (m, range) in [
        (100usize, &page),
        (1000, &page),
        (100, &paper),
        (400, &paper),
        (1000, &paper),
        (2000, &paper),
        (100, &large),
        (1000, &large),
    ] {
        let mut aggregate = || {
            let v: Vec<u64> = (0..m).map(|_| rng.gen_range(range.clone())).collect();
            Aggregate::new(v, range.end)
        };
        let (a, b) = (aggregate(), aggregate());
        let naive_calc = LossCalculator::all_items().with_naive_evaluation();
        let fast_calc = LossCalculator::all_items();
        let (fa, fb) = (pair_min_sum(a.supports()), pair_min_sum(b.supports()));
        let sum = a.merged(&b);
        let before = hist_evals();
        black_box(pair_min_sum(sum.supports()));
        let path = match (ossm_obs::ENABLED, hist_evals() > before) {
            (false, _) => "-",
            (true, true) => "hist",
            (true, false) => "radix",
        };
        let [t_naive, t_fast, t_cached] = median_times([
            &mut || naive_calc.merge_loss(&a, &b),
            &mut || fast_calc.merge_loss(&a, &b),
            &mut || pair_min_sum(sum.supports()) - fa - fb,
        ]);
        table.row([
            m.to_string(),
            format!("{}..{}", range.start, range.end),
            path.to_owned(),
            micros(t_naive),
            micros(t_fast),
            micros(t_cached),
            format!(
                "{:.1}x",
                t_naive.as_secs_f64() / t_cached.as_secs_f64().max(1e-12)
            ),
        ]);
    }
    out.push_str(&table.to_markdown());
    out
}

/// A duration in microseconds with two decimals: A1's per-pair times sit
/// between a fraction of a microsecond and a few milliseconds.
fn micros(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Timed bursts per evaluation in ablation A1.
const SAMPLES: usize = 9;
/// Shortest timed burst in ablation A1.
const MIN_BURST: Duration = Duration::from_millis(2);

/// Median time per call of each loss evaluation in `evals`, which must
/// all return the same loss.
///
/// A warm-up doubles each evaluation's burst length until one burst takes
/// at least `MIN_BURST`; then `SAMPLES` rounds time one burst of every
/// evaluation in turn, so a slow spell on the machine hits all of them
/// alike.
fn median_times<const N: usize>(mut evals: [&mut dyn FnMut() -> u64; N]) -> [Duration; N] {
    let expected = (evals[0])();
    let mut reps = [1u32; N];
    for (eval, reps) in evals.iter_mut().zip(&mut reps) {
        assert_eq!(eval(), expected, "the evaluations must agree");
        while burst(*eval, *reps) < MIN_BURST {
            *reps *= 2;
        }
    }
    let mut samples = [[Duration::ZERO; SAMPLES]; N];
    for round in 0..SAMPLES {
        for ((eval, &reps), per_eval) in evals.iter_mut().zip(&reps).zip(&mut samples) {
            per_eval[round] = burst(*eval, reps) / reps;
        }
    }
    samples.map(|mut s| {
        s.sort_unstable();
        s[SAMPLES / 2]
    })
}

/// Wall time of `reps` back-to-back calls of `eval`.
fn burst(eval: &mut dyn FnMut() -> u64, reps: u32) -> Duration {
    timed(|| {
        for _ in 0..reps {
            black_box(eval());
        }
    })
    .0
}

/// A3: heuristic loss vs the exhaustive optimum on small inputs.
pub fn heuristic_quality(opts: &Options) -> String {
    let items: usize = opts.get("items", 60);
    let trials: usize = opts.get("trials", 8);
    let seed: u64 = opts.get("seed", 3);
    let calc = LossCalculator::all_items();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Ablation A3 — heuristic loss vs exhaustive optimum\n\n\
         {trials} trials, p = 9 pages of skewed-synthetic data, n_user = 3, m = {items}. \
         Cells: total eq. (2) loss relative to optimal (1.00 = optimal).\n"
    );
    let mut table = Table::new([
        "trial",
        "Optimal",
        "Greedy",
        "RC",
        "Random",
        "Random-Greedy",
    ]);
    let mut sums = [0.0f64; 4];
    for t in 0..trials {
        let w = Workload {
            kind: WorkloadKind::Skewed,
            pages: 9,
            items,
            seed: seed + t as u64,
        };
        let inputs = Aggregate::from_pages(&w.store());
        let opt_loss = calc.segmentation_loss(&inputs, &Optimal::default().segment(&inputs, 3));
        let rel = |algo: &dyn SegmentationAlgorithm| -> f64 {
            let loss = calc.segmentation_loss(&inputs, &algo.segment(&inputs, 3));
            if opt_loss == 0 {
                if loss == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                loss as f64 / opt_loss as f64
            }
        };
        let g = rel(&Greedy::default());
        let rc = rel(&RandomClosest::new(calc.clone(), seed + t as u64));
        let rnd = rel(&Random::new(seed + t as u64));
        let hyb = rel(&random_greedy(calc.clone(), 6, seed + t as u64));
        sums[0] += g;
        sums[1] += rc;
        sums[2] += rnd;
        sums[3] += hyb;
        table.row([
            t.to_string(),
            opt_loss.to_string(),
            format!("{g:.2}"),
            format!("{rc:.2}"),
            format!("{rnd:.2}"),
            format!("{hyb:.2}"),
        ]);
    }
    table.row([
        "mean".to_owned(),
        "1.00".to_owned(),
        format!("{:.2}", sums[0] / trials as f64),
        format!("{:.2}", sums[1] / trials as f64),
        format!("{:.2}", sums[2] / trials as f64),
        format!("{:.2}", sums[3] / trials as f64),
    ]);
    out.push_str(&table.to_markdown());
    out
}

/// A4: effect of the Lemma 1 lossless pre-pass.
pub fn prepass_effect(opts: &Options) -> String {
    let pages: usize = opts.get("pages", 40);
    let items: usize = opts.get("items", 100);
    let n_user: usize = opts.get("nuser", 6);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Ablation A4 — Lemma 1 group-by-configuration pre-pass\n\n\
         skewed-synthetic, p = {pages}, m = {items}, n_user = {n_user}. \
         Final eq. (2) loss with and without the lossless pre-pass.\n"
    );
    let mut table = Table::new(["Strategy", "Loss without pre-pass", "Loss with pre-pass"]);
    let store = Workload::skewed(pages, items).store();
    for strategy in [Strategy::Random, Strategy::Rc, Strategy::Greedy] {
        let with = OssmBuilder::new(n_user)
            .strategy(strategy)
            .lossless_prepass(true)
            .build(&store)
            .1;
        let without = OssmBuilder::new(n_user)
            .strategy(strategy)
            .lossless_prepass(false)
            .build(&store)
            .1;
        table.row([
            format!("{strategy:?}"),
            without.total_loss.to_string(),
            with.total_loss.to_string(),
        ]);
    }
    out.push_str(&table.to_markdown());
    out
}

/// A5: incremental appends vs full rebuild, at equal segment budget.
pub fn incremental_vs_rebuild(opts: &Options) -> String {
    let pages: usize = opts.get("pages", 60);
    let items: usize = opts.get("items", 100);
    let n_user: usize = opts.get("nuser", 8);
    let store = Workload::skewed(pages, items).store();
    let min_support = store.dataset().absolute_threshold(0.01);

    let mut inc = IncrementalOssm::new(n_user, LossCalculator::all_items())
        .expect("segment budget is positive");
    inc.append_store(&store);
    let streamed = inc.snapshot();
    let (rebuilt, _) = OssmBuilder::new(n_user)
        .strategy(Strategy::Greedy)
        .build(&store);
    let single = Ossm::single_segment(&store);

    // Compare total bound slack over all frequent-item pairs.
    let totals = store.total_supports();
    let frequent: Vec<u32> = (0..items as u32)
        .filter(|&i| totals[i as usize] >= min_support)
        .collect();
    let slack = |map: &Ossm| -> u64 {
        let mut s = 0u64;
        for (i, &a) in frequent.iter().enumerate() {
            for &b in &frequent[i + 1..] {
                let x = Itemset::new([a, b]);
                s += map.upper_bound(&x) - store.dataset().support(&x);
            }
        }
        s
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Ablation A5 — incremental appends vs full rebuild\n\n\
         skewed-synthetic, p = {pages}, m = {items}, budget {n_user} segments. \
         Total bound slack (Σ ub − sup) over frequent-item pairs; lower is tighter.\n"
    );
    let mut table = Table::new(["Construction", "Total bound slack"]);
    table.row([
        "single segment (no OSSM)".to_owned(),
        slack(&single).to_string(),
    ]);
    table.row([
        "incremental appends".to_owned(),
        slack(&streamed).to_string(),
    ]);
    table.row([
        "full Greedy rebuild".to_owned(),
        slack(&rebuilt).to_string(),
    ]);
    out.push_str(&table.to_markdown());
    out
}

/// All ablations in order.
pub fn all(opts: &Options) -> String {
    let mut out = String::new();
    for section in [
        loss_evaluation(opts),
        heuristic_quality(opts),
        prepass_effect(opts),
        incremental_vs_rebuild(opts),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Options {
        Options::parse(
            ["--items=20", "--trials=2", "--pages=10", "--nuser=3"]
                .iter()
                .map(|s| (*s).to_owned()),
        )
    }

    #[test]
    fn loss_evaluation_reports_agreeing_methods() {
        let r = loss_evaluation(&tiny());
        assert!(r.contains("O(m²) pair loop vs linear pass"));
        assert!(r.contains("2000"));
    }

    #[test]
    fn heuristic_quality_reports_relative_losses() {
        let r = heuristic_quality(&tiny());
        assert!(r.contains("mean"));
        assert!(r.contains("Optimal"));
    }

    #[test]
    fn prepass_and_incremental_sections_render() {
        assert!(prepass_effect(&tiny()).contains("pre-pass"));
        assert!(incremental_vs_rebuild(&tiny()).contains("bound slack"));
    }
}
