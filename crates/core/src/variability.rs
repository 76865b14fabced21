//! Segment-variability analysis.
//!
//! Beyond pruning, the paper's conclusion notes the OSSM "also provides
//! direct information about the variability of frequencies in different
//! segments of the transactions" — the map is a profile of how non-uniform
//! the data is, which is precisely what makes it effective ("the more
//! skewed the data, the more effective the OSSM is", Section 3). This
//! module turns an [`Ossm`] into that profile:
//!
//! * per-item variability: how unevenly each item's support spreads over
//!   the segments (coefficient of variation of its *rates*);
//! * a whole-map skew score: the average of the per-item scores, weighted
//!   by support — near 0 for uniform data, large for seasonal/bursty data;
//! * the segment-configuration census: how many distinct configurations
//!   the final segments realize.
//!
//! The skew score also answers the Figure 7 recipe's "is the data skewed?"
//! question from data instead of judgement — see [`VariabilityReport::is_skewed`].

use ossm_data::ItemId;

use crate::config::Configuration;
use crate::ssm::Ossm;

/// Variability profile of an OSSM.
#[derive(Clone, Debug)]
pub struct VariabilityReport {
    /// Coefficient of variation of each item's per-segment support *rate*
    /// (support divided by segment size), indexed by item. Items with zero
    /// total support score 0.
    pub item_cv: Vec<f64>,
    /// Support-weighted mean of `item_cv` — the map's overall skew score.
    pub skew_score: f64,
    /// Number of distinct configurations among the final segments.
    pub distinct_configurations: usize,
    /// Number of segments profiled.
    pub num_segments: usize,
}

impl VariabilityReport {
    /// Default skewness verdict for the Figure 7 recipe: seasonal/bursty
    /// data lands well above this; i.i.d. data well below (the threshold
    /// is calibrated in this module's tests against the three generators).
    pub const SKEW_THRESHOLD: f64 = 0.35;

    /// Whether the data should count as "skewed" for the recipe.
    pub fn is_skewed(&self) -> bool {
        self.skew_score >= Self::SKEW_THRESHOLD
    }

    /// The `k` items with the most inter-segment variability.
    pub fn most_variable_items(&self, k: usize) -> Vec<(ItemId, f64)> {
        let mut idx: Vec<usize> = (0..self.item_cv.len()).collect();
        idx.sort_by(|&a, &b| {
            self.item_cv[b]
                .partial_cmp(&self.item_cv[a])
                .expect("CVs are finite")
        });
        idx.into_iter()
            .take(k)
            .map(|i| (ItemId(i as u32), self.item_cv[i]))
            .collect()
    }
}

/// Profiles an OSSM (see module docs).
///
/// # Panics
/// Panics if the map covers zero transactions.
pub fn analyze(ossm: &Ossm) -> VariabilityReport {
    let n_total = ossm.num_transactions();
    assert!(n_total > 0, "cannot profile an empty map");
    let m = ossm.num_items();
    let n = ossm.num_segments();
    let mut item_cv = vec![0.0f64; m];
    let mut weighted = 0.0f64;
    let mut weight_total = 0.0f64;
    let transactions = ossm.segment_transactions();
    for (i, cv_slot) in item_cv.iter_mut().enumerate() {
        let row = ossm.item_supports(ItemId(i as u32));
        // Per-segment occurrence rate of item i.
        let rates: Vec<f64> = row
            .iter()
            .zip(transactions)
            .map(|(&sup, &count)| {
                if count == 0 {
                    0.0
                } else {
                    sup as f64 / count as f64
                }
            })
            .collect();
        let total_support: u64 = row.iter().sum();
        if total_support == 0 || n < 2 {
            continue;
        }
        let mean = rates.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            continue;
        }
        let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        *cv_slot = cv;
        let w = total_support as f64;
        weighted += cv * w;
        weight_total += w;
    }
    let skew_score = if weight_total > 0.0 {
        weighted / weight_total
    } else {
        0.0
    };
    let mut configs = std::collections::BTreeSet::new();
    for s in ossm.segments() {
        configs.insert(Configuration::of_supports(s.supports()));
    }
    VariabilityReport {
        item_cv,
        skew_score,
        distinct_configurations: configs.len(),
        num_segments: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OssmBuilder;
    use crate::segmentation::Aggregate;
    use ossm_data::gen::{QuestConfig, SkewedConfig};
    use ossm_data::PageStore;

    #[test]
    fn uniform_segments_score_zero() {
        let seg = Aggregate::new(vec![10, 5, 2], 20);
        let ossm = Ossm::from_aggregates(vec![seg.clone(), seg.clone(), seg]);
        let report = analyze(&ossm);
        assert!(
            report.skew_score < 1e-9,
            "identical segments have no variability"
        );
        assert_eq!(report.distinct_configurations, 1);
        assert!(!report.is_skewed());
    }

    #[test]
    fn seasonal_segments_score_high() {
        // Item 0 only in segment A, item 1 only in segment B.
        let a = Aggregate::new(vec![20, 0], 20);
        let b = Aggregate::new(vec![0, 20], 20);
        let report = analyze(&Ossm::from_aggregates(vec![a, b]));
        assert!(report.skew_score > 0.9, "score {}", report.skew_score);
        assert!(report.is_skewed());
        assert_eq!(report.distinct_configurations, 2);
        let top = report.most_variable_items(1);
        assert!(top[0].1 > 0.9);
    }

    #[test]
    fn skew_threshold_separates_the_paper_generators() {
        let score = |ossm: &Ossm| analyze(ossm).skew_score;
        // i.i.d. Quest data → low score.
        let regular = QuestConfig {
            num_transactions: 2000,
            num_items: 60,
            ..QuestConfig::small()
        }
        .generate();
        let store = PageStore::with_page_count(regular, 20);
        let (ossm_r, _) = OssmBuilder::new(10).build(&store);
        // Seasonal data → high score.
        let skewed = SkewedConfig {
            num_transactions: 2000,
            num_items: 60,
            season_boost: 10.0,
            ..SkewedConfig::small()
        }
        .generate();
        let store = PageStore::with_page_count(skewed, 20);
        let (ossm_s, _) = OssmBuilder::new(10).build(&store);
        let (r, s) = (score(&ossm_r), score(&ossm_s));
        assert!(r < VariabilityReport::SKEW_THRESHOLD, "regular scored {r}");
        assert!(s > VariabilityReport::SKEW_THRESHOLD, "skewed scored {s}");
        assert!(
            s > 2.0 * r,
            "want clear separation: regular {r}, skewed {s}"
        );
        assert!(analyze(&ossm_s).is_skewed());
        assert!(!analyze(&ossm_r).is_skewed());
    }

    #[test]
    fn single_segment_has_no_variability() {
        let ossm = Ossm::from_aggregates(vec![Aggregate::new(vec![3, 1], 5)]);
        let report = analyze(&ossm);
        assert_eq!(report.skew_score, 0.0);
        assert_eq!(report.num_segments, 1);
    }

    #[test]
    #[should_panic(expected = "empty map")]
    fn empty_map_is_rejected() {
        analyze(&Ossm::from_aggregates(vec![Aggregate::zero(3)]));
    }
}
