//! A DepthProject-style depth-first miner (Agarwal, Aggarwal, Prasad \[1\]).
//!
//! DepthProject explores the lexicographic tree of itemsets depth-first:
//! a node's pattern `P` is extended by every frequent item greater than
//! `max(P)`, each extension's support is counted inside the node's
//! *projected* transactions, and frequent extensions recurse. It shines on
//! long patterns, where level-wise miners drown in candidates.
//!
//! Section 7 of the paper: "at each step, the algorithm generates possible
//! frequent lexicographic extensions (i.e. candidates) of a tree node and
//! tests for frequency. If an OSSM is used simultaneously, then known
//! infrequent candidates can be pruned before the frequency counting" —
//! exactly what the [`CandidateFilter`] hook does here.

use std::time::Instant;

use ossm_data::{Dataset, ItemId, Itemset};

use crate::apriori::MiningOutcome;
use crate::filter::{CandidateFilter, NoFilter};
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::support::FrequentPatterns;

/// DepthProject-style depth-first miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepthProject;

impl DepthProject {
    /// Creates the miner.
    pub fn new() -> Self {
        DepthProject
    }

    /// Mines without a candidate filter.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        self.mine_filtered(dataset, min_support, &NoFilter)
    }

    /// Mines with a candidate filter applied to every lexicographic
    /// extension before its frequency test.
    ///
    /// # Panics
    /// Panics if `min_support == 0`.
    pub fn mine_filtered(
        &self,
        dataset: &Dataset,
        min_support: u64,
        filter: &dyn CandidateFilter,
    ) -> MiningOutcome {
        assert!(min_support > 0, "support threshold must be at least 1");
        let start = Instant::now();
        let mut state = State {
            dataset,
            min_support,
            filter,
            patterns: FrequentPatterns::new(),
            metrics: MiningMetrics::default(),
        };

        // Root: frequent singletons, counted in one pass.
        let m = dataset.num_items();
        let singles = dataset.singleton_supports();
        let mut level1 = LevelMetrics {
            level: 1,
            generated: m as u64,
            ..Default::default()
        };
        let mut frontier: Vec<(ItemId, u64)> = Vec::new();
        for i in 0..m as u32 {
            let item = ItemId(i);
            if !state
                .filter
                .may_be_frequent(&Itemset::singleton(item), min_support)
            {
                level1.filtered_out += 1;
                continue;
            }
            level1.counted += 1;
            if singles[item.index()] >= min_support {
                frontier.push((item, singles[item.index()]));
            }
        }
        level1.frequent = frontier.len() as u64;
        state.metrics.push_level(level1);

        // All-transactions tid universe, reused by every root branch.
        let all_tids: Vec<u32> = (0..dataset.len() as u32).collect();
        for (item, sup) in frontier {
            let pattern = Itemset::singleton(item);
            state.patterns.insert(pattern.clone(), sup);
            let tids: Vec<u32> = all_tids
                .iter()
                .copied()
                .filter(|&t| dataset.transaction(t as usize).contains(item))
                .collect();
            state.expand(&pattern, &tids);
        }

        state.metrics.elapsed = start.elapsed();
        MiningOutcome {
            patterns: state.patterns,
            metrics: state.metrics,
        }
    }
}

struct State<'a> {
    dataset: &'a Dataset,
    min_support: u64,
    filter: &'a dyn CandidateFilter,
    patterns: FrequentPatterns,
    metrics: MiningMetrics,
}

impl State<'_> {
    /// Expands the lexicographic node `pattern`, whose projected
    /// transactions are `tids`.
    fn expand(&mut self, pattern: &Itemset, tids: &[u32]) {
        let last = *pattern.items().last().expect("non-root node");
        let m = self.dataset.num_items();
        if last.index() + 1 >= m || (tids.len() as u64) < self.min_support {
            return; // no extension can be frequent
        }

        // Candidate extensions: items after `last`, OSSM-filtered before
        // the counting step.
        let mut level = LevelMetrics {
            level: pattern.len() + 1,
            ..Default::default()
        };
        let mut extensions: Vec<ItemId> = Vec::new();
        for e in (last.0 + 1)..m as u32 {
            let ext = ItemId(e);
            level.generated += 1;
            if self
                .filter
                .may_be_frequent(&pattern.with(ext), self.min_support)
            {
                extensions.push(ext);
            } else {
                level.filtered_out += 1;
            }
        }
        level.counted = extensions.len() as u64;
        if extensions.is_empty() {
            self.metrics.push_level(level);
            return;
        }

        // One pass over the projected transactions counts every extension.
        let mut counts = vec![0u64; extensions.len()];
        for &tid in tids {
            let t = self.dataset.transaction(tid as usize);
            for (i, &e) in extensions.iter().enumerate() {
                if t.contains(e) {
                    counts[i] += 1;
                }
            }
        }

        let mut frequent: Vec<ItemId> = Vec::new();
        for (&e, &sup) in extensions.iter().zip(&counts) {
            if sup >= self.min_support {
                frequent.push(e);
                self.patterns.insert(pattern.with(e), sup);
            }
        }
        level.frequent = frequent.len() as u64;
        self.metrics.push_level(level);

        // Recurse with each frequent extension's projected tids.
        for e in frequent {
            let child = pattern.with(e);
            let child_tids: Vec<u32> = tids
                .iter()
                .copied()
                .filter(|&t| self.dataset.transaction(t as usize).contains(e))
                .collect();
            self.expand(&child, &child_tids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::filter::OssmFilter;
    use ossm_core::minimize_segments;
    use ossm_data::gen::{AlarmConfig, QuestConfig};

    fn quest(n: usize, m: usize) -> Dataset {
        QuestConfig {
            num_transactions: n,
            num_items: m,
            ..QuestConfig::small()
        }
        .generate()
    }

    #[test]
    fn agrees_with_apriori() {
        let d = quest(300, 25);
        for min_support in [5, 10, 20] {
            let a = Apriori::new().mine(&d, min_support);
            let dp = DepthProject::new().mine(&d, min_support);
            assert_eq!(a.patterns, dp.patterns, "min_support {min_support}");
        }
    }

    #[test]
    fn agrees_on_long_pattern_data() {
        // Alarm storms make long frequent patterns — DepthProject's home turf.
        let d = AlarmConfig {
            num_windows: 300,
            num_alarm_types: 20,
            ..AlarmConfig::small()
        }
        .generate();
        let a = Apriori::new().mine(&d, 20);
        let dp = DepthProject::new().mine(&d, 20);
        assert_eq!(a.patterns, dp.patterns);
        assert!(
            a.patterns.max_len() >= 3,
            "want long patterns to make the test meaningful"
        );
    }

    #[test]
    fn ossm_pruning_is_lossless_and_reduces_tests() {
        let d = quest(250, 30);
        let min = minimize_segments(&d);
        let plain = DepthProject::new().mine(&d, 6);
        let pruned = DepthProject::new().mine_filtered(&d, 6, &OssmFilter::new(&min.ossm));
        assert_eq!(plain.patterns, pruned.patterns);
        assert!(pruned.metrics.total_counted() <= plain.metrics.total_counted());
        assert!(
            pruned.metrics.total_filtered_out() > 0,
            "the exact OSSM must prune something"
        );
    }

    #[test]
    fn empty_result_when_threshold_too_high() {
        let d = quest(50, 10);
        let dp = DepthProject::new().mine(&d, 1000);
        assert!(dp.patterns.is_empty());
    }
}
