//! Experiment runner: the measurements every figure/table binary shares.
//!
//! The paper's central metric is the *speedup*: "the ratio of the execution
//! time of the Apriori algorithm without the OSSM, to that with the OSSM
//! produced by algorithm A". We report that ratio and, alongside it, the
//! deterministic quantity that drives it — the number of candidate
//! 2-itemsets that still required counting (Figure 4(b)'s y-axis) — so the
//! experiments are meaningful even under timing noise.

use std::time::{Duration, Instant};

use ossm_core::{Ossm, OssmBuilder};
use ossm_data::PageStore;
use ossm_mining::{Apriori, CountingBackend, MiningOutcome, NoFilter, OssmFilter};

/// Times a closure.
pub fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// The Apriori configuration used by all timing experiments: hash-tree
/// counting (the strongest baseline — a linear-scan baseline would flatter
/// the OSSM).
pub fn experiment_apriori() -> Apriori {
    Apriori::new().with_backend(CountingBackend::HashTree)
}

/// Result of one Apriori-without-OSSM baseline run.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Full mining outcome (metrics carry candidate counts).
    pub outcome: MiningOutcome,
}

/// Runs the no-OSSM baseline (single run, timed as each with-OSSM row
/// is; see [`measure_ossm`]).
pub fn run_baseline(store: &PageStore, min_support: u64) -> Baseline {
    run_baseline_repeated(store, min_support, 1)
}

/// Runs the no-OSSM baseline `repeats` times and keeps the fastest run
/// (standard noise reduction for wall-clock comparisons).
pub fn run_baseline_repeated(store: &PageStore, min_support: u64, repeats: u32) -> Baseline {
    let apriori = experiment_apriori();
    let mut best: Option<Baseline> = None;
    for _ in 0..repeats.max(1) {
        let (elapsed, outcome) =
            timed(|| apriori.mine_filtered(store.dataset(), min_support, &NoFilter));
        if best.as_ref().map_or(true, |b| elapsed < b.elapsed) {
            best = Some(Baseline { elapsed, outcome });
        }
    }
    best.expect("at least one repeat")
}

/// One row of a speedup table.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Workload name ("Regular", "Skewed", "Alarm"); set via
    /// [`Self::stamped`] so serialized rows say where they came from.
    pub workload: String,
    /// Strategy label ("Greedy", "Random-RC", …).
    pub label: String,
    /// Final segment count of the OSSM.
    pub num_segments: usize,
    /// One-time segmentation cost.
    pub segmentation_time: Duration,
    /// Apriori runtime with this OSSM.
    pub mining_time: Duration,
    /// Paper's speedup ratio (baseline time / with-OSSM time).
    pub speedup: f64,
    /// Fraction of the baseline's counted candidate 2-itemsets that still
    /// required counting (Figure 4(b)'s y-axis; 1.0 = no pruning).
    pub c2_fraction: f64,
    /// Absolute number of candidate 2-itemsets counted with this OSSM.
    pub c2_counted: u64,
    /// Total equation-(2) loss of the segmentation.
    pub loss: u64,
    /// OSSM size in bytes.
    pub memory_bytes: usize,
}

/// Builds an OSSM with `builder`, mines with it, and compares against
/// `baseline`. Panics if the filtered run returns different patterns than
/// the baseline (the OSSM must be lossless; this is a live correctness
/// check inside every experiment).
pub fn run_with_ossm(
    store: &PageStore,
    min_support: u64,
    builder: &OssmBuilder,
    label: impl Into<String>,
    baseline: &Baseline,
) -> SpeedupRow {
    let (ossm, report) = builder.build(store);
    let row = measure_ossm(store, min_support, &ossm, label, baseline);
    SpeedupRow {
        segmentation_time: report.segmentation_time,
        loss: report.total_loss,
        ..row
    }
}

/// Mines with an already-built OSSM and compares against `baseline`.
/// The wall time is one run's, as [`run_baseline`]'s is, so both sides
/// of the speedup are timed the same way. A second, untimed run must
/// repeat the first's patterns and level rows: the filtered miner splits
/// its work over the `ossm_par` workers, and must not depend on how.
pub fn measure_ossm(
    store: &PageStore,
    min_support: u64,
    ossm: &Ossm,
    label: impl Into<String>,
    baseline: &Baseline,
) -> SpeedupRow {
    let apriori = experiment_apriori();
    let mine = || apriori.mine_filtered(store.dataset(), min_support, &OssmFilter::new(ossm));
    let (elapsed, outcome) = timed(mine);
    let again = mine();
    assert!(
        again.patterns == outcome.patterns && again.metrics.levels == outcome.metrics.levels,
        "two runs of the OSSM-filtered miner disagree"
    );
    assert_eq!(
        outcome.patterns, baseline.outcome.patterns,
        "OSSM filtering changed the mining result — equation (1) violated"
    );
    let base_c2 = baseline.outcome.metrics.candidate_2_itemsets_counted();
    let c2 = outcome.metrics.candidate_2_itemsets_counted();
    SpeedupRow {
        workload: String::new(),
        label: label.into(),
        num_segments: ossm.num_segments(),
        segmentation_time: Duration::ZERO,
        mining_time: elapsed,
        speedup: ratio(baseline.elapsed, elapsed),
        c2_fraction: if base_c2 == 0 {
            1.0
        } else {
            c2 as f64 / base_c2 as f64
        },
        c2_counted: c2,
        loss: 0,
        memory_bytes: ossm.memory_bytes(),
    }
}

impl SpeedupRow {
    /// Stamps the row with its workload name.
    pub fn stamped(mut self, workload: impl Into<String>) -> Self {
        self.workload = workload.into();
        self
    }

    /// One self-describing JSON object (no trailing newline): every field
    /// is keyed, so rows from different sweeps can be concatenated into one
    /// stream and still identify their workload, strategy, and `n_user`.
    pub fn to_json_row(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        // JSON has no Infinity; an unmeasurably fast run serializes as null.
        let speedup = if self.speedup.is_finite() {
            format!("{:.4}", self.speedup)
        } else {
            "null".to_owned()
        };
        format!(
            "{{\"type\":\"speedup\",\"workload\":\"{}\",\"strategy\":\"{}\",\
             \"n_user\":{},\"segmentation_nanos\":{},\"mining_nanos\":{},\
             \"speedup\":{speedup},\"c2_counted\":{},\"c2_fraction\":{:.6},\
             \"loss\":{},\"memory_bytes\":{}}}",
            esc(&self.workload),
            esc(&self.label),
            self.num_segments,
            self.segmentation_time.as_nanos(),
            self.mining_time.as_nanos(),
            self.c2_counted,
            self.c2_fraction,
            self.loss,
            self.memory_bytes,
        )
    }
}

/// `a / b` as a float, saturating sanely when `b` is ~0.
pub fn ratio(a: Duration, b: Duration) -> f64 {
    let (a, b) = (a.as_secs_f64(), b.as_secs_f64());
    if b <= f64::EPSILON {
        f64::INFINITY
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use ossm_core::Strategy;

    #[test]
    fn speedup_row_carries_consistent_numbers() {
        let store = Workload::regular(10, 60).store();
        let min_support = store.dataset().absolute_threshold(0.02);
        let baseline = run_baseline(&store, min_support);
        let builder = OssmBuilder::new(8).strategy(Strategy::Rc);
        let row = run_with_ossm(&store, min_support, &builder, "RC", &baseline).stamped("Regular");
        assert_eq!(row.label, "RC");
        assert_eq!(row.workload, "Regular");
        assert_eq!(row.num_segments, 8);
        assert!(row.c2_fraction <= 1.0, "pruning cannot add candidates");
        assert!(row.c2_fraction >= 0.0);
        assert!(row.memory_bytes > 0);
        assert!(row.speedup.is_finite() || row.mining_time.is_zero());
    }

    #[test]
    fn json_rows_are_self_describing() {
        let row = SpeedupRow {
            workload: "Skewed".into(),
            label: "Random-RC".into(),
            num_segments: 40,
            segmentation_time: Duration::from_millis(3),
            mining_time: Duration::from_millis(7),
            speedup: 1.5,
            c2_fraction: 0.25,
            c2_counted: 120,
            loss: 9,
            memory_bytes: 4096,
        };
        let json = row.to_json_row();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in [
            "\"workload\":\"Skewed\"",
            "\"strategy\":\"Random-RC\"",
            "\"n_user\":40",
            "\"speedup\":1.5000",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
        // Infinite speedups must stay valid JSON.
        let inf = SpeedupRow {
            speedup: f64::INFINITY,
            ..row
        };
        assert!(inf.to_json_row().contains("\"speedup\":null"));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert!(ratio(Duration::from_secs(1), Duration::ZERO).is_infinite());
        assert!((ratio(Duration::from_secs(2), Duration::from_secs(1)) - 2.0).abs() < 1e-9);
    }
}
