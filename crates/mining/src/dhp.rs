//! DHP — the hash-based Apriori variant of Park, Chen, and Yu \[15\].
//!
//! During the first counting pass, every 2-subset of every transaction is
//! hashed into a bucket table; a pair can only be a candidate 2-itemset if
//! its bucket accumulated at least `min_support` hits. The bucket pass is
//! a pass of the shared pass source (`crate::support`); in memory the
//! same pass also counts level 1's item supports. This attacks the same
//! bottleneck the OSSM does — the explosion of candidate 2-itemsets —
//! which is why Section 7 of the paper composes the two: the OSSM filters
//! the pairs *before* the hash check would have admitted them, and the
//! paper's preliminary table shows |C2| roughly halving. The bucket test
//! flags the admitted pairs in level 2's triangle over the frequent
//! items, which the OSSM then judges in one batch, as for Apriori.
//!
//! DHP's second reduction, trimming the database before each level `k`,
//! is the hash tree's live-item projection: a pass walks each transaction
//! projected onto the items some level-`k` candidate holds and skips it
//! when fewer than `k` remain. Since the items of `C_k` are a subset of
//! those of `C_{k−1}`, projecting onto `C_k`'s items equals the cumulative
//! trim of every earlier level, so every level counts over the data itself.
//! Every level counts through `crate::support::count`, as Apriori's does.
//! Both reductions are exact, so DHP's output always equals Apriori's.

use std::time::Instant;

use ossm_data::{Dataset, ItemId};

use crate::apriori::MiningOutcome;
use crate::filter::{CandidateFilter, NoFilter};
use crate::levelwise::{collect_singletons, Batch, LevelLoop, Trace};
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::obs;
use crate::pairs::Triangle;
use crate::support::{count, FrequentPatterns, PassSource, PassState};

/// DHP configuration. Levels ≥ 2 count on the hash-tree back-end.
#[derive(Clone, Copy, Debug)]
pub struct Dhp {
    /// Number of hash buckets for the pair table (the paper's Section 7
    /// experiment uses 32 768).
    pub num_buckets: usize,
}

impl Default for Dhp {
    fn default() -> Self {
        Dhp::new(32_768)
    }
}

/// The multiplicative pair hash of the DHP paper's spirit; the exact
/// choice only affects collision rates, not correctness.
#[inline]
fn pair_hash(a: ItemId, b: ItemId) -> usize {
    a.index()
        .wrapping_mul(2_654_435_761)
        .wrapping_add(b.index())
}

/// `hash % num_buckets`, as a mask when `num_buckets` is a power of two.
#[inline]
fn reduce(hash: usize, num_buckets: usize) -> usize {
    if num_buckets.is_power_of_two() {
        hash & (num_buckets - 1)
    } else {
        hash % num_buckets
    }
}

/// The bucket of the pair `(a, b)` among `num_buckets`.
#[inline]
fn pair_bucket(a: ItemId, b: ItemId, num_buckets: usize) -> usize {
    reduce(pair_hash(a, b), num_buckets)
}

/// Adds every 2-subset of transaction `items` to its bucket of `buckets`.
/// The mask-or-`%` choice is made once per transaction, not per pair.
fn hash_pairs(items: &[ItemId], buckets: &mut [u64]) {
    let n = buckets.len();
    if n.is_power_of_two() {
        add_pairs(items, buckets, |h| h & (n - 1));
    } else {
        add_pairs(items, buckets, |h| h % n);
    }
}

/// [`hash_pairs`] with the hash reduced to a bucket by `bucket`.
#[inline]
fn add_pairs(items: &[ItemId], buckets: &mut [u64], bucket: impl Fn(usize) -> usize) {
    for (i, &a) in items.iter().enumerate() {
        for &b in items.get(i + 1..).unwrap_or_default() {
            buckets[bucket(pair_hash(a, b))] += 1;
        }
    }
}

/// The state of DHP's bucket pass: every 2-subset of a transaction
/// hashed into its bucket, and each item's support in `singles` where
/// the pass also counts level 1 (in memory; left empty out of core).
pub(crate) struct BucketPass {
    pub(crate) singles: Vec<u64>,
    pub(crate) buckets: Vec<u64>,
}

impl PassState for BucketPass {
    fn feed<'t>(&mut self, transactions: impl IntoIterator<Item = &'t [ItemId]>) {
        for t in transactions {
            if !self.singles.is_empty() {
                t.iter().for_each(|item| self.singles[item.index()] += 1);
            }
            hash_pairs(t, &mut self.buckets);
        }
    }

    fn add(&mut self, later: Self) {
        let counts = self.singles.iter_mut().chain(&mut self.buckets);
        let later = later.singles.into_iter().chain(later.buckets);
        counts.zip(later).for_each(|(c, l)| *c += l);
    }
}

/// The candidate 2-itemsets: the pairs of the frequent items `l1` (in
/// item order) whose bucket reached `min_support`.
pub(crate) fn admitted_pairs(l1: &[ItemId], buckets: &[u64], min_support: u64) -> Triangle {
    Triangle::with(l1.to_vec(), |a, b| {
        buckets[pair_bucket(a, b, buckets.len())] >= min_support
    })
}

impl Dhp {
    /// DHP with `num_buckets` hash buckets.
    ///
    /// # Panics
    /// Panics if `num_buckets == 0`.
    pub fn new(num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one hash bucket");
        Dhp { num_buckets }
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
        let BucketPass { singles, buckets } = dataset
            .transactions()
            .pass(None, || BucketPass {
                singles: vec![0; m],
                buckets: vec![0; self.num_buckets],
            })
            .expect("in-memory counting does no I/O");
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
        // Levels ≥ 3: Apriori generation. The hash tree's live-item
        // projection does DHP's trimming (see module docs).
        let admitted = {
            let _s = ossm_obs::span("mining.dhp.hash_admit");
            admitted_pairs(&l1, &buckets, min_support)
        };
        let levels = LevelLoop {
            min_support,
            filter,
            trace: Trace::Dhp,
        };
        let count = |batch: Batch<'_>| {
            let mut s = ossm_obs::span("mining.dhp.count");
            s.attach("candidates", batch.len() as u64);
            count(batch, &mut dataset.transactions())
        };
        levels
            .run(&l1, Some(admitted), &mut patterns, &mut metrics, count)
            .expect("in-memory counting does no I/O");

        metrics.elapsed = start.elapsed();
        MiningOutcome { patterns, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::filter::OssmFilter;
    use ossm_core::minimize_segments;
    use ossm_data::gen::QuestConfig;
    use ossm_data::Itemset;

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
    fn admitted_pairs_flag_exactly_the_pairs_whose_bucket_reaches_the_threshold() {
        let d = quest(300, 40);
        let supports = d.singleton_supports();
        let l1: Vec<ItemId> = (0..40u32)
            .map(ItemId)
            .filter(|i| supports[i.index()] >= 5)
            .collect();
        for n in [1, 7, 64, 32_768] {
            let mut buckets = vec![0u64; n];
            for t in d.transactions() {
                hash_pairs(t.items(), &mut buckets);
            }
            for min_support in [5, 12, 40] {
                let mut expected = Vec::new();
                for (x, &a) in l1.iter().enumerate() {
                    for &b in &l1[x + 1..] {
                        if buckets[pair_bucket(a, b, n)] >= min_support {
                            expected.push(Itemset::from_sorted(vec![a, b]));
                        }
                    }
                }
                let triangle = admitted_pairs(&l1, &buckets, min_support);
                assert_eq!(
                    triangle.itemsets(),
                    expected,
                    "{n} buckets at {min_support}"
                );
                assert_eq!(triangle.len(), expected.len());
            }
        }
    }

    #[test]
    fn the_bucket_pass_is_thread_count_invariant() {
        // 3000 transactions: several counting chunks at 2 and 8 threads.
        let d = quest(3000, 60);
        let mut buckets = vec![0u64; 512];
        for t in d.transactions() {
            hash_pairs(t.items(), &mut buckets);
        }
        let singles = d.singleton_supports();
        for threads in [1, 2, 8] {
            ossm_par::set_threads(Some(threads));
            let pass = d
                .transactions()
                .pass(None, || BucketPass {
                    singles: vec![0; 60],
                    buckets: vec![0; 512],
                })
                .expect("no I/O");
            assert_eq!(pass.singles, singles, "{threads} threads");
            assert_eq!(pass.buckets, buckets, "{threads} threads");
        }
        ossm_par::set_threads(None);
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

    #[test]
    fn a_power_of_two_bucket_count_masks_as_modulo_does() {
        let mut hashes = vec![0usize, 1, 2, 3, 255, 256, 2_654_435_761, usize::MAX - 1];
        hashes.extend((0..1000usize).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        for shift in 0..usize::BITS {
            let n = 1usize << shift;
            for &h in &hashes {
                assert_eq!(reduce(h, n), h % n, "{h} over {n} buckets");
            }
        }
        // Every transaction's pairs land in the `%` bucket, masked or not.
        let d = quest(200, 30);
        for n in [1usize, 7, 64, 100, 512, 32_768] {
            let mut buckets = vec![0u64; n];
            let mut expected = vec![0u64; n];
            for t in d.transactions() {
                hash_pairs(t.items(), &mut buckets);
                let items = t.items();
                for (x, &a) in items.iter().enumerate() {
                    for &b in &items[x + 1..] {
                        expected[pair_hash(a, b) % n] += 1;
                    }
                }
            }
            assert_eq!(buckets, expected, "{n} buckets");
        }
    }

    /// FNV-1a over every `items:support` pair, in itemset order.
    fn digest(patterns: &FrequentPatterns) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for (p, s) in patterns.iter() {
            let ids: Vec<String> = p.items().iter().map(|i| i.0.to_string()).collect();
            for b in format!("{}:{s};", ids.join(",")).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// `level:generated/filtered_out/counted/frequent` per row.
    fn rows(out: &MiningOutcome) -> String {
        let row = |l: &LevelMetrics| {
            let cells = [l.generated, l.filtered_out, l.counted, l.frequent].map(|c| c.to_string());
            format!("{}:{}", l.level, cells.join("/"))
        };
        let rows: Vec<String> = out.metrics.levels.iter().map(row).collect();
        rows.join(" ")
    }

    #[test]
    fn patterns_and_level_rows_are_pinned() {
        // Values recorded when DHP still counted on a trimmed copy of the
        // data with the linear scan; the hash tree's live-item projection
        // must reproduce them exactly.
        use ossm_core::{OssmBuilder, Strategy};
        use ossm_data::gen::SkewedConfig;
        use ossm_data::PageStore;
        let skewed = SkewedConfig {
            num_transactions: 600,
            num_items: 40,
            ..SkewedConfig::small()
        }
        .generate();
        let cases = [
            (
                quest(600, 50),
                30,
                (288, 0xd86f_e634_b251_2d85_u64),
                "1:50/0/50/48 2:965/0/965/239 3:732/0/732/1",
                "1:50/0/50/48 2:965/1/964/239 3:732/0/732/1",
            ),
            (
                skewed,
                90,
                (265, 0x215e_8949_2c89_68ce),
                "1:40/0/40/25 2:164/0/164/95 3:178/0/178/101 4:63/0/63/40 5:6/0/6/4",
                "1:40/0/40/25 2:164/14/150/95 3:178/0/178/101 4:63/0/63/40 5:6/0/6/4",
            ),
        ];
        for (d, min_support, pinned, plain_rows, ossm_rows) in cases {
            let pages = PageStore::with_page_count(d.clone(), 40);
            let ossm = OssmBuilder::new(20).strategy(Strategy::Rc).build(&pages).0;
            let plain = Dhp::new(512).mine(&d, min_support);
            let with = Dhp::new(512).mine_filtered(&d, min_support, &OssmFilter::new(&ossm));
            let got = (plain.patterns.len(), digest(&plain.patterns));
            assert_eq!(got, pinned, "min support {min_support}");
            assert_eq!(plain.patterns, with.patterns, "min support {min_support}");
            assert_eq!(rows(&plain), plain_rows, "min support {min_support}");
            assert_eq!(rows(&with), ossm_rows, "min support {min_support}");
        }
    }
}
