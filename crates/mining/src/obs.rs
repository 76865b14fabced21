//! Shared mining-layer instrumentation.
//!
//! Two families of metrics, both feeding the global [`ossm_obs`] registry:
//!
//! * **Bound effectiveness** — for every candidate a bound-based filter
//!   admitted and the miner then counted, the slack `ub(X) − sup(X)`
//!   (equation (1) minus the truth) lands in a log2 histogram, and the
//!   candidate is classified as a *true positive* (genuinely frequent) or a
//!   *false positive* (admitted but infrequent — counting work the bound
//!   failed to save). The false-positive rate is the experimental knob the
//!   paper's Figure 4(b) turns: more segments → tighter bound → fewer
//!   false positives. A level tallies its outcomes locally and adds them
//!   to the registry once (`BoundOutcomes`).
//! * **Per-level candidate flow** — every [`LevelMetrics`] row a level-wise
//!   miner pushes is mirrored as dynamic counters
//!   `mining.<miner>.level<k>.{generated,filtered_out,counted,frequent}`.
//!
//! Everything is gated on [`ossm_obs::ENABLED`], so disabled builds skip
//! even the `Option` plumbing.

use crate::metrics::LevelMetrics;

/// Slack `ub(X) − sup(X)` of bound-admitted candidates that were counted.
static BOUND_SLACK: ossm_obs::Histogram = ossm_obs::Histogram::new("mining.bound.slack");
/// Bound-admitted candidates that turned out frequent.
static BOUND_TRUE_POS: ossm_obs::Counter = ossm_obs::Counter::new("mining.bound.true_pos");
/// Bound-admitted candidates that turned out infrequent (wasted counting).
static BOUND_FALSE_POS: ossm_obs::Counter = ossm_obs::Counter::new("mining.bound.false_pos");

/// The bound outcomes of one level's counted candidates, tallied
/// locally and added to the `mining.bound.*` metrics in one
/// [`flush`](Self::flush), so a level of many candidates pays no atomic
/// per candidate. A zero-sized no-op when instrumentation is disabled.
#[derive(Default)]
pub(crate) struct BoundOutcomes {
    slack: ossm_obs::Tally,
    true_pos: u64,
    false_pos: u64,
}

impl BoundOutcomes {
    /// Tallies the outcome of counting one filter-admitted candidate
    /// whose bound was `ub`: how loose the bound was (slack) and whether
    /// admitting it was a true or false positive.
    #[inline]
    pub(crate) fn record(&mut self, ub: u64, support: u64, min_support: u64) {
        if !ossm_obs::ENABLED {
            return;
        }
        self.slack.record(ub.saturating_sub(support));
        if support >= min_support {
            self.true_pos += 1;
        } else {
            self.false_pos += 1;
        }
    }

    /// Adds the tallied outcomes to the registry.
    pub(crate) fn flush(self) {
        if !ossm_obs::ENABLED {
            return;
        }
        BOUND_SLACK.record_tally(&self.slack);
        if self.true_pos > 0 {
            BOUND_TRUE_POS.add(self.true_pos);
        }
        if self.false_pos > 0 {
            BOUND_FALSE_POS.add(self.false_pos);
        }
    }
}

/// Mirrors one finished [`LevelMetrics`] row into dynamic counters under
/// `mining.<miner>.level<k>.*`.
pub(crate) fn record_level(miner: &str, level: &LevelMetrics) {
    if !ossm_obs::ENABLED {
        return;
    }
    let scope = ossm_obs::registry().scope(format!("mining.{miner}.level{}", level.level));
    scope.add("generated", level.generated);
    scope.add("filtered_out", level.filtered_out);
    scope.add("counted", level.counted);
    scope.add("frequent", level.frequent);
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn bound_outcomes_split_true_and_false_positives() {
        let before_tp = ossm_obs::registry()
            .snapshot()
            .counter("mining.bound.true_pos");
        let before_fp = ossm_obs::registry()
            .snapshot()
            .counter("mining.bound.false_pos");
        let mut outcomes = BoundOutcomes::default();
        // ub = 30, frequent at threshold 25 → true positive.
        outcomes.record(30, 28, 25);
        // Infrequent at threshold 25 → false positive.
        outcomes.record(30, 12, 25);
        outcomes.flush();
        // Other tests in this binary share the registry, so assert deltas
        // as lower bounds.
        let snap = ossm_obs::registry().snapshot();
        assert!(snap.counter("mining.bound.true_pos") > before_tp);
        assert!(snap.counter("mining.bound.false_pos") > before_fp);
    }

    #[test]
    fn levels_mirror_into_scoped_counters() {
        let row = LevelMetrics {
            level: 7,
            generated: 9,
            filtered_out: 4,
            counted: 5,
            frequent: 2,
        };
        record_level("testminer", &row);
        let snap = ossm_obs::registry().snapshot();
        assert_eq!(snap.counter("mining.testminer.level7.generated"), 9);
        assert_eq!(snap.counter("mining.testminer.level7.filtered_out"), 4);
        assert_eq!(snap.counter("mining.testminer.level7.counted"), 5);
        assert_eq!(snap.counter("mining.testminer.level7.frequent"), 2);
    }
}
