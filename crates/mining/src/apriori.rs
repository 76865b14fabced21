//! The classical Apriori algorithm (Agrawal–Srikant), the miner the paper's
//! evaluation is built on.
//!
//! Level-wise search: frequent singletons seed candidate 2-itemsets, each
//! level's candidates are the join of the previous level's frequent sets
//! pruned by downward closure, and every surviving candidate is counted
//! against the data. The [`CandidateFilter`] hook applies equation (1)
//! *between* candidate generation and counting — the paper's "Apriori with
//! the OSSM" is `mine_filtered(…, &OssmFilter::new(&ossm))` and its
//! baseline is `mine(…)`.

use std::time::Instant;

use ossm_data::{Dataset, ItemId, Itemset};

use crate::filter::{CandidateFilter, NoFilter};
use crate::levelwise::{admit, collect_singletons, Batch, LevelLoop, Trace};
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::obs;
use crate::support::{count_batch, CountingBackend, FrequentPatterns};

/// A mining result: the frequent patterns plus run metrics.
#[derive(Clone, Debug)]
pub struct MiningOutcome {
    /// All frequent patterns with exact supports.
    pub patterns: FrequentPatterns,
    /// Candidate bookkeeping and timing.
    pub metrics: MiningMetrics,
}

/// Apriori configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Apriori {
    backend: CountingBackend,
}

impl Apriori {
    /// Apriori with the linear-scan counting back-end.
    pub fn new() -> Self {
        Apriori::default()
    }

    /// Selects the counting back-end.
    pub fn with_backend(mut self, backend: CountingBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Mines all frequent itemsets at absolute threshold `min_support`
    /// without any candidate filter (the "without the OSSM" baseline).
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        self.mine_filtered(dataset, min_support, &NoFilter)
    }

    /// Mines all frequent itemsets, filtering candidates through `filter`
    /// before counting.
    ///
    /// # Panics
    /// Panics if `min_support == 0` (every subset of every transaction
    /// would be "frequent").
    pub fn mine_filtered(
        &self,
        dataset: &Dataset,
        min_support: u64,
        filter: &dyn CandidateFilter,
    ) -> MiningOutcome {
        assert!(min_support > 0, "support threshold must be at least 1");
        let _mine_span = ossm_obs::span("mining.apriori");
        let start = Instant::now();
        let mut patterns = FrequentPatterns::new();
        let mut metrics = MiningMetrics::default();

        // Level 1: every singleton is a candidate; the filter may discharge
        // some before the counting pass (an OSSM's singleton bounds are
        // exact, so this costs no accuracy).
        let m = dataset.num_items();
        let mut level = LevelMetrics {
            level: 1,
            generated: m as u64,
            ..Default::default()
        };
        let frequent = {
            let _level_span = ossm_obs::span("mining.apriori.level1");
            let mut bounds = Vec::new();
            let survivors: Vec<ItemId> = {
                let _s = ossm_obs::span("mining.apriori.prune");
                (0..m as u32)
                    .map(ItemId)
                    .filter(|&i| admit(filter, &Itemset::singleton(i), min_support, &mut bounds))
                    .collect()
            };
            level.filtered_out = m as u64 - survivors.len() as u64;
            level.counted = survivors.len() as u64;
            let _count_span = ossm_obs::span("mining.apriori.count");
            let supports = dataset.singleton_supports();
            collect_singletons(survivors, &supports, min_support, &bounds, &mut patterns)
        };
        level.frequent = frequent.len() as u64;
        obs::record_level("apriori", &level);
        metrics.push_level(level);

        // Levels 2..: join, prune, filter, count.
        let levels = LevelLoop {
            min_support,
            filter,
            trace: Trace::Apriori,
        };
        let count = |batch: Batch<'_>| {
            let mut s = ossm_obs::span("mining.apriori.count");
            s.attach("candidates", batch.len() as u64);
            Ok(count_batch(self.backend, dataset.transactions(), batch))
        };
        levels
            .run(&frequent, None, &mut patterns, &mut metrics, count)
            .expect("in-memory counting does no I/O");

        metrics.elapsed = start.elapsed();
        MiningOutcome { patterns, metrics }
    }
}

/// The Apriori candidate generation (`apriori-gen`): joins `k`-itemsets
/// sharing their first `k − 1` items, then prunes candidates with an
/// infrequent `k`-subset. `frequent` must be the complete frequent set of
/// one level; the output is sorted and duplicate-free.
pub fn generate_candidates(frequent: &[Itemset]) -> Vec<Itemset> {
    // Joining two singletons yields a pair whose 1-subsets are those two
    // frequent singletons, so level 2 needs no prune.
    let prune = !frequent.iter().all(|f| f.len() == 1);
    join_and_prune(frequent, prune)
}

/// `apriori-gen` with the downward-closure prune switched by `prune`.
fn join_and_prune(frequent: &[Itemset], prune: bool) -> Vec<Itemset> {
    if frequent.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<&Itemset> = frequent.iter().collect();
    sorted.sort();
    let lookup: std::collections::HashSet<&Itemset> = sorted.iter().copied().collect();
    let mut out = Vec::new();
    // Itemsets sharing a (k−1)-prefix are adjacent once sorted.
    for i in 0..sorted.len() {
        for j in (i + 1)..sorted.len() {
            match sorted[i].apriori_join(sorted[j]) {
                Some(candidate) => {
                    // Downward-closure prune: every k-subset must be frequent.
                    if !prune || candidate.proper_subsets().all(|s| lookup.contains(&s)) {
                        out.push(candidate);
                    }
                }
                None => break, // prefix changed; later j cannot match either
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::OssmFilter;
    use ossm_core::minimize_segments;
    use ossm_data::gen::QuestConfig;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    /// The textbook 9-transaction example.
    fn small_dataset() -> Dataset {
        Dataset::new(
            5,
            vec![
                set(&[0, 1, 4]),
                set(&[1, 3]),
                set(&[1, 2]),
                set(&[0, 1, 3]),
                set(&[0, 2]),
                set(&[1, 2]),
                set(&[0, 2]),
                set(&[0, 1, 2, 4]),
                set(&[0, 1, 2]),
            ],
        )
    }

    #[test]
    fn mines_the_textbook_example() {
        let out = Apriori::new().mine(&small_dataset(), 2);
        let p = &out.patterns;
        assert_eq!(p.support_of(&set(&[0])), Some(6));
        assert_eq!(p.support_of(&set(&[1])), Some(7));
        assert_eq!(p.support_of(&set(&[0, 1])), Some(4));
        assert_eq!(p.support_of(&set(&[0, 1, 2])), Some(2));
        assert_eq!(p.support_of(&set(&[0, 1, 4])), Some(2));
        assert_eq!(p.len(), 13, "the classic example has 13 frequent itemsets");
        assert!(p.closure_violation().is_none());
    }

    #[test]
    fn results_match_brute_force_on_generated_data() {
        let d = QuestConfig {
            num_transactions: 250,
            num_items: 12,
            num_patterns: 8,
            avg_transaction_len: 4.0,
            ..QuestConfig::small()
        }
        .generate();
        let min_support = 10;
        let out = Apriori::new().mine(&d, min_support);
        // Brute force over all non-empty itemsets of the 12-item domain.
        let mut expected = FrequentPatterns::new();
        for mask in 1u32..(1 << 12) {
            let x = set(&(0..12u32)
                .filter(|&i| mask & (1 << i) != 0)
                .collect::<Vec<_>>());
            let sup = d.support(&x);
            if sup >= min_support {
                expected.insert(x, sup);
            }
        }
        assert_eq!(out.patterns, expected);
    }

    #[test]
    fn hash_tree_backend_agrees_with_linear() {
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 40,
            ..QuestConfig::small()
        }
        .generate();
        let a = Apriori::new().mine(&d, 8);
        let b = Apriori::new()
            .with_backend(CountingBackend::HashTree)
            .mine(&d, 8);
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.metrics.total_counted(), b.metrics.total_counted());
    }

    #[test]
    fn ossm_filter_changes_counts_not_results() {
        let d = QuestConfig {
            num_transactions: 200,
            num_items: 30,
            ..QuestConfig::small()
        }
        .generate();
        let min = minimize_segments(&d);
        let plain = Apriori::new().mine(&d, 6);
        let filtered = Apriori::new().mine_filtered(&d, 6, &OssmFilter::new(&min.ossm));
        assert_eq!(
            plain.patterns, filtered.patterns,
            "filtering must be lossless"
        );
        assert!(
            filtered.metrics.total_counted() <= plain.metrics.total_counted(),
            "the OSSM can only reduce counting work"
        );
        // The exact OSSM filters every infrequent candidate: counted equals
        // frequent at every level ≥ 2.
        for l in &filtered.metrics.levels {
            if l.level >= 2 {
                assert_eq!(l.counted, l.frequent, "level {}", l.level);
            }
        }
    }

    #[test]
    fn generate_candidates_joins_and_prunes() {
        // L2 = {01, 02, 12, 13}: join gives 012 (kept: all subsets present)
        // and 123 (pruned: {2,3} missing).
        let l2 = vec![set(&[0, 1]), set(&[0, 2]), set(&[1, 2]), set(&[1, 3])];
        assert_eq!(generate_candidates(&l2), vec![set(&[0, 1, 2])]);
        assert!(generate_candidates(&[]).is_empty());
        // Singletons join into all pairs.
        let l1 = vec![set(&[3]), set(&[1]), set(&[2])];
        let c2 = generate_candidates(&l1);
        assert_eq!(c2, vec![set(&[1, 2]), set(&[1, 3]), set(&[2, 3])]);
    }

    #[test]
    fn level_2_without_the_prune_matches_the_generic_path() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC2);
        for round in 0..40 {
            let m = rng.gen_range(1..200u32);
            // Random singletons in random order, duplicates included.
            let mut l1: Vec<Itemset> = (0..m)
                .filter(|_| rng.gen_range(0..3u32) > 0)
                .map(|i| set(&[i]))
                .collect();
            l1.shuffle(&mut rng);
            if round % 4 == 0 && !l1.is_empty() {
                l1.push(l1[0].clone());
            }
            assert_eq!(
                generate_candidates(&l1),
                join_and_prune(&l1, true),
                "round {round}"
            );
        }
    }

    #[test]
    fn threshold_above_data_yields_nothing() {
        let out = Apriori::new().mine(&small_dataset(), 100);
        assert!(out.patterns.is_empty());
        assert_eq!(out.metrics.total_frequent(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_is_rejected() {
        Apriori::new().mine(&small_dataset(), 0);
    }

    #[test]
    fn metrics_track_candidate_flow() {
        let out = Apriori::new().mine(&small_dataset(), 2);
        let l1 = out.metrics.level(1).unwrap();
        assert_eq!(l1.generated, 5);
        assert_eq!(l1.frequent, 5);
        let l2 = out.metrics.level(2).unwrap();
        assert_eq!(l2.generated, 10, "all pairs of 5 frequent singletons");
        assert_eq!(l2.counted, 10, "no filter → all counted");
        assert_eq!(l2.frequent, 6);
    }
}
