//! DHP — the hash-based Apriori variant of Park, Chen, and Yu [15].
//!
//! During the first counting pass, every 2-subset of every transaction is
//! hashed into a bucket table; a pair can only be a candidate 2-itemset if
//! its bucket accumulated at least `min_support` hits. This attacks the
//! same bottleneck the OSSM does — the explosion of candidate 2-itemsets —
//! which is why Section 7 of the paper composes the two: the OSSM filters
//! the pairs *before* the hash check would have admitted them, and the
//! paper's preliminary table shows |C2| roughly halving.
//!
//! DHP also trims the database before counting each level `k`: items that
//! appear in no level-`k` candidate cannot appear in a frequent `k`-itemset
//! or any later candidate, and transactions with fewer than `k` surviving
//! items cannot support one. Both reductions are exact, so DHP's output
//! always equals Apriori's.

use std::collections::HashSet;
use std::time::Instant;

use ossm_data::{Dataset, ItemId, Itemset};

use crate::apriori::MiningOutcome;
use crate::filter::{CandidateFilter, NoFilter};
use crate::levelwise::{collect_singletons, LevelLoop, Trace};
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::obs;
use crate::support::{count_with, CountingBackend, FrequentPatterns};

/// DHP configuration.
#[derive(Clone, Copy, Debug)]
pub struct Dhp {
    /// Number of hash buckets for the pair table (the paper's Section 7
    /// experiment uses 32 768).
    pub num_buckets: usize,
    /// Counting back-end for levels ≥ 2.
    pub backend: CountingBackend,
}

impl Default for Dhp {
    fn default() -> Self {
        Dhp {
            num_buckets: 32_768,
            backend: CountingBackend::LinearScan,
        }
    }
}

#[inline]
fn pair_bucket(a: ItemId, b: ItemId, num_buckets: usize) -> usize {
    // The multiplicative pair hash of the DHP paper's spirit; exact choice
    // only affects collision rates, not correctness.
    (a.index()
        .wrapping_mul(2_654_435_761)
        .wrapping_add(b.index()))
        % num_buckets
}

/// Adds every 2-subset of transaction `items` to its bucket of `buckets`.
pub(crate) fn hash_pairs(items: &[ItemId], buckets: &mut [u64]) {
    for (i, &a) in items.iter().enumerate() {
        for &b in items.get(i + 1..).unwrap_or_default() {
            buckets[pair_bucket(a, b, buckets.len())] += 1;
        }
    }
}

/// The candidate 2-itemsets: pairs of frequent singletons `l1` whose
/// bucket reached `min_support`.
pub(crate) fn admitted_pairs(l1: &[Itemset], buckets: &[u64], min_support: u64) -> Vec<Itemset> {
    let items: Vec<ItemId> = l1.iter().flat_map(|s| s.items().iter().copied()).collect();
    let mut admitted = Vec::new();
    for (i, &a) in items.iter().enumerate() {
        for &b in items.get(i + 1..).unwrap_or_default() {
            if buckets[pair_bucket(a, b, buckets.len())] >= min_support {
                admitted.push(Itemset::from_sorted(vec![a, b]));
            }
        }
    }
    admitted
}

impl Dhp {
    /// DHP with `num_buckets` hash buckets.
    ///
    /// # Panics
    /// Panics if `num_buckets == 0`.
    pub fn new(num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one hash bucket");
        Dhp {
            num_buckets,
            ..Dhp::default()
        }
    }

    /// Mines without a candidate filter.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        self.mine_filtered(dataset, min_support, &NoFilter)
    }

    /// Mines with a candidate filter (the OSSM) applied to every candidate
    /// the hash table admits — "DHP with the OSSM" of Section 7.
    ///
    /// Metrics note: at level 2, `generated` counts the pairs admitted by
    /// the bucket table (the paper's `|C2|` before OSSM filtering),
    /// `filtered_out` the ones the filter then removed.
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
        let _mine_span = ossm_obs::span("mining.dhp");
        let start = Instant::now();
        let mut patterns = FrequentPatterns::new();
        let mut metrics = MiningMetrics::default();
        let m = dataset.num_items();

        // Pass 1: singleton counts + pair bucket counts in one scan.
        let pass1_span = ossm_obs::span("mining.dhp.pass1");
        let mut singles = vec![0u64; m];
        let mut buckets = vec![0u64; self.num_buckets];
        for t in dataset.transactions() {
            for item in t.items() {
                singles[item.index()] += 1;
            }
            hash_pairs(t.items(), &mut buckets);
        }
        let l1 = collect_singletons(
            (0..m as u32).map(ItemId),
            &singles,
            min_support,
            &[],
            &mut patterns,
        );
        let level1 = LevelMetrics {
            level: 1,
            generated: m as u64,
            filtered_out: 0,
            counted: m as u64,
            frequent: l1.len() as u64,
        };
        obs::record_level("dhp", &level1);
        metrics.push_level(level1);
        drop(pass1_span);

        // Level 2: the hash table admits a pair only if its bucket count
        // reaches the threshold; the filter (OSSM) then prunes further.
        // Levels ≥ 3: Apriori generation over the trimmed copy.
        let admitted = {
            let _s = ossm_obs::span("mining.dhp.hash_admit");
            admitted_pairs(&l1, &buckets, min_support)
        };
        let mut work: Option<Vec<Itemset>> = None;
        let levels = LevelLoop {
            min_support,
            filter,
            max_len: None,
            trace: Trace::Dhp,
        };
        let count = |k, batch: &[Itemset]| {
            let trimmed = {
                let _s = ossm_obs::span("mining.dhp.trim");
                trim(work.as_deref().unwrap_or(dataset.transactions()), batch, k)
            };
            let data = work.insert(trimmed);
            let mut s = ossm_obs::span("mining.dhp.count");
            s.attach("candidates", batch.len() as u64);
            Ok(count_with(self.backend, data, batch))
        };
        levels
            .run(l1, Some(admitted), &mut patterns, &mut metrics, count)
            .expect("in-memory counting does no I/O");

        metrics.elapsed = start.elapsed();
        MiningOutcome { patterns, metrics }
    }
}

/// DHP's trimming before counting level `k`: keep only items that occur in
/// some of `itemsets` (the level's candidates), then drop transactions left
/// with fewer than `k` items. Exact for all levels ≥ `k` (see module docs).
fn trim(transactions: &[Itemset], itemsets: &[Itemset], k: usize) -> Vec<Itemset> {
    let keep: HashSet<ItemId> = itemsets
        .iter()
        .flat_map(|f| f.items().iter().copied())
        .collect();
    transactions
        .iter()
        .filter_map(|t| {
            let kept: Vec<ItemId> = t
                .items()
                .iter()
                .copied()
                .filter(|i| keep.contains(i))
                .collect();
            (kept.len() >= k).then(|| Itemset::from_sorted(kept))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::filter::OssmFilter;
    use ossm_core::minimize_segments;
    use ossm_data::gen::QuestConfig;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

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
        let d = quest(300, 30);
        for min_support in [5, 10, 25] {
            let a = Apriori::new().mine(&d, min_support);
            let h = Dhp::default().mine(&d, min_support);
            assert_eq!(a.patterns, h.patterns, "min_support {min_support}");
        }
    }

    #[test]
    fn small_bucket_tables_stay_correct() {
        // Heavy collisions weaken pruning but must not change results.
        let d = quest(200, 25);
        let a = Apriori::new().mine(&d, 6);
        for buckets in [1, 7, 64] {
            let h = Dhp::new(buckets).mine(&d, 6);
            assert_eq!(a.patterns, h.patterns, "buckets {buckets}");
        }
    }

    #[test]
    fn hash_pruning_reduces_candidate_pairs() {
        let d = quest(400, 60);
        let apriori = Apriori::new().mine(&d, 12);
        let dhp = Dhp::default().mine(&d, 12);
        assert!(
            dhp.metrics.candidate_2_itemsets_counted()
                <= apriori.metrics.candidate_2_itemsets_counted(),
            "the bucket table can only remove pairs"
        );
        assert_eq!(apriori.patterns, dhp.patterns);
    }

    #[test]
    fn ossm_composes_with_dhp_as_in_section_7() {
        let d = quest(300, 40);
        let min = minimize_segments(&d);
        let plain = Dhp::default().mine(&d, 8);
        let with_ossm = Dhp::default().mine_filtered(&d, 8, &OssmFilter::new(&min.ossm));
        assert_eq!(
            plain.patterns, with_ossm.patterns,
            "OSSM must not change the result"
        );
        assert!(
            with_ossm.metrics.candidate_2_itemsets_counted()
                <= plain.metrics.candidate_2_itemsets_counted(),
            "Section 7: the OSSM removes candidates the hash table admits"
        );
    }

    #[test]
    fn trim_drops_dead_items_and_short_transactions() {
        let txs = vec![set(&[0, 1, 2]), set(&[0, 3]), set(&[1, 2, 3])];
        // Frequent 2-itemsets reference items {0, 1, 2} only.
        let frequent = vec![set(&[0, 1]), set(&[1, 2])];
        let trimmed = trim(&txs, &frequent, 3);
        // t1 keeps {0,1,2} (len 3 ✓); t2 shrinks to {0} (dropped);
        // t3 shrinks to {1,2} (dropped at k=3).
        assert_eq!(trimmed, vec![set(&[0, 1, 2])]);
    }

    #[test]
    fn bucket_hash_is_stable_and_in_range() {
        for n in [1usize, 13, 32_768] {
            for (a, b) in [(0u32, 1u32), (5, 9), (100, 2000)] {
                let h = pair_bucket(ItemId(a), ItemId(b), n);
                assert!(h < n);
                assert_eq!(h, pair_bucket(ItemId(a), ItemId(b), n));
            }
        }
    }
}
