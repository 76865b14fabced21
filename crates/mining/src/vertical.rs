//! Vertical mining: Eclat, CHARM-style closed sets, GenMax-style maximal
//! sets.
//!
//! The paper's related work situates the OSSM against vertical miners
//! (CHARM [21], GenMax/diffsets [20]): they avoid candidate *counting
//! passes* by intersecting per-item transaction-id lists. We implement the
//! family both as a further cross-validation oracle (a completely
//! different counting mechanism that must agree with Apriori and
//! FP-growth) and to show the OSSM composing with it: equation (1) can
//! discharge a branch *before its tidset intersection is materialized* —
//! the vertical analogue of skipping a counting pass.
//!
//! All three miners share one DFS over the prefix tree of itemsets with
//! tidset propagation; CHARM adds closure-by-subsumption, GenMax maximal
//! filtering.

use std::time::Instant;

use ossm_data::{Dataset, ItemId, Itemset};

use crate::apriori::MiningOutcome;
use crate::filter::{CandidateFilter, NoFilter};
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::support::FrequentPatterns;

/// The vertical (tidset) representation of a dataset.
#[derive(Clone, Debug)]
pub struct VerticalIndex {
    num_transactions: u64,
    /// `tidsets[i]` = sorted ids of transactions containing item `i`.
    tidsets: Vec<Vec<u32>>,
}

impl VerticalIndex {
    /// Builds the index in one pass.
    pub fn build(dataset: &Dataset) -> Self {
        let mut tidsets = vec![Vec::new(); dataset.num_items()];
        for (tid, t) in dataset.transactions().iter().enumerate() {
            for item in t.items() {
                tidsets[item.index()].push(tid as u32);
            }
        }
        VerticalIndex {
            num_transactions: dataset.len() as u64,
            tidsets,
        }
    }

    /// The tidset of a single item.
    pub fn tidset(&self, item: ItemId) -> &[u32] {
        &self.tidsets[item.index()]
    }

    /// Number of transactions indexed.
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// Item-domain size.
    pub fn num_items(&self) -> usize {
        self.tidsets.len()
    }
}

/// Sorted-list intersection.
pub fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Which condensed form the DFS reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    All,
    Closed,
    Maximal,
}

/// Eclat: all frequent itemsets by tidset intersection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Eclat;

impl Eclat {
    /// Creates the miner.
    pub fn new() -> Self {
        Eclat
    }

    /// Mines all frequent itemsets.
    ///
    /// # Panics
    /// Panics if `min_support == 0`.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        self.mine_filtered(dataset, min_support, &NoFilter)
    }

    /// Mines with a candidate filter applied to every branch before its
    /// tidset intersection (equation-(1) branch pruning with the OSSM).
    pub fn mine_filtered(
        &self,
        dataset: &Dataset,
        min_support: u64,
        filter: &dyn CandidateFilter,
    ) -> MiningOutcome {
        run_vertical(dataset, min_support, filter, Mode::All)
    }
}

/// CHARM-style closed-itemset miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Charm;

impl Charm {
    /// Creates the miner.
    pub fn new() -> Self {
        Charm
    }

    /// Mines the closed frequent itemsets with their supports.
    ///
    /// # Panics
    /// Panics if `min_support == 0`.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        run_vertical(dataset, min_support, &NoFilter, Mode::Closed)
    }
}

/// GenMax-style maximal-itemset miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenMax;

impl GenMax {
    /// Creates the miner.
    pub fn new() -> Self {
        GenMax
    }

    /// Mines the maximal frequent itemsets with their supports.
    ///
    /// # Panics
    /// Panics if `min_support == 0`.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        run_vertical(dataset, min_support, &NoFilter, Mode::Maximal)
    }
}

fn run_vertical(
    dataset: &Dataset,
    min_support: u64,
    filter: &dyn CandidateFilter,
    mode: Mode,
) -> MiningOutcome {
    assert!(min_support > 0, "support threshold must be at least 1");
    let start = Instant::now();
    let index = VerticalIndex::build(dataset);
    let mut state = Vertical {
        min_support,
        filter,
        all: FrequentPatterns::new(),
        metrics: MiningMetrics::default(),
    };

    let m = dataset.num_items();
    let mut level1 = LevelMetrics {
        level: 1,
        generated: m as u64,
        counted: m as u64,
        ..Default::default()
    };
    let frequent_items: Vec<ItemId> = (0..m as u32)
        .map(ItemId)
        .filter(|&i| index.tidset(i).len() as u64 >= min_support)
        .collect();
    level1.frequent = frequent_items.len() as u64;
    state.metrics.push_level(level1);

    // DFS in ascending item order; each node carries its tidset.
    state.expand(
        &Itemset::empty(),
        &frequent_items
            .iter()
            .map(|&i| (i, index.tidset(i).to_vec()))
            .collect::<Vec<_>>(),
    );

    // Post-filter for the condensed modes (the DFS recorded every frequent
    // set; subsumption filtering afterwards keeps the DFS simple and the
    // two modes cross-checkable against `crate::patterns`).
    let patterns = match mode {
        Mode::All => state.all,
        Mode::Closed => crate::patterns::closed(&state.all),
        Mode::Maximal => {
            let max = crate::patterns::maximal(&state.all);
            max.into_iter()
                .map(|p| {
                    let s = state.all.support_of(&p).expect("maximal sets are frequent");
                    (p, s)
                })
                .collect()
        }
    };
    let mut metrics = state.metrics;
    metrics.elapsed = start.elapsed();
    MiningOutcome { patterns, metrics }
}

struct Vertical<'a> {
    min_support: u64,
    filter: &'a dyn CandidateFilter,
    all: FrequentPatterns,
    metrics: MiningMetrics,
}

impl Vertical<'_> {
    /// Expands `prefix` with the given extension candidates, each carrying
    /// its tidset *relative to the prefix*.
    fn expand(&mut self, prefix: &Itemset, extensions: &[(ItemId, Vec<u32>)]) {
        for (pos, (item, tids)) in extensions.iter().enumerate() {
            let pattern = prefix.with(*item);
            let support = tids.len() as u64;
            debug_assert!(support >= self.min_support);
            self.all.insert(pattern.clone(), support);

            // Children: larger items, intersected tidsets — with the filter
            // (the OSSM) discharging branches before the intersection
            // happens.
            let mut level = LevelMetrics {
                level: pattern.len() + 1,
                ..Default::default()
            };
            let mut children: Vec<(ItemId, Vec<u32>)> = Vec::new();
            for (next, next_tids) in &extensions[pos + 1..] {
                level.generated += 1;
                let child = pattern.with(*next);
                if !self.filter.may_be_frequent(&child, self.min_support) {
                    level.filtered_out += 1;
                    continue;
                }
                level.counted += 1;
                let tids = intersect(tids, next_tids);
                if tids.len() as u64 >= self.min_support {
                    level.frequent += 1;
                    children.push((*next, tids));
                }
            }
            if level.generated > 0 {
                self.metrics.push_level(level);
            }
            if !children.is_empty() {
                self.expand(&pattern, &children);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::filter::OssmFilter;
    use crate::fpgrowth::FpGrowth;
    use crate::patterns;
    use ossm_core::minimize_segments;
    use ossm_data::gen::{AlarmConfig, QuestConfig};

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
    fn intersect_merges_sorted_lists() {
        assert_eq!(intersect(&[1, 3, 5, 7], &[2, 3, 5, 8]), vec![3, 5]);
        assert_eq!(intersect(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect(&[4], &[4]), vec![4]);
    }

    #[test]
    fn vertical_index_matches_supports() {
        let d = quest(200, 20);
        let idx = VerticalIndex::build(&d);
        let singles = d.singleton_supports();
        for i in 0..20u32 {
            assert_eq!(idx.tidset(ItemId(i)).len() as u64, singles[i as usize]);
            assert!(idx.tidset(ItemId(i)).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn eclat_agrees_with_apriori_and_fpgrowth() {
        let d = quest(300, 25);
        for min_support in [5, 10, 20] {
            let e = Eclat::new().mine(&d, min_support);
            assert_eq!(e.patterns, Apriori::new().mine(&d, min_support).patterns);
            assert_eq!(e.patterns, FpGrowth::new().mine(&d, min_support).patterns);
        }
    }

    #[test]
    fn charm_agrees_with_posthoc_closed() {
        let d = quest(250, 20);
        let full = Apriori::new().mine(&d, 6).patterns;
        let charm = Charm::new().mine(&d, 6);
        assert_eq!(charm.patterns, patterns::closed(&full));
    }

    #[test]
    fn genmax_agrees_with_posthoc_maximal() {
        let d = AlarmConfig {
            num_windows: 250,
            num_alarm_types: 18,
            ..AlarmConfig::small()
        }
        .generate();
        let full = Apriori::new().mine(&d, 15).patterns;
        let genmax = GenMax::new().mine(&d, 15);
        let mut expected: Vec<Itemset> = patterns::maximal(&full);
        expected.sort();
        let got: Vec<Itemset> = genmax.patterns.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(got, expected);
        for (p, s) in genmax.patterns.iter() {
            assert_eq!(full.support_of(p), Some(s));
        }
    }

    #[test]
    fn ossm_branch_pruning_is_lossless_and_saves_intersections() {
        let d = quest(300, 30);
        let min = minimize_segments(&d);
        let plain = Eclat::new().mine(&d, 6);
        let pruned = Eclat::new().mine_filtered(&d, 6, &OssmFilter::new(&min.ossm));
        assert_eq!(plain.patterns, pruned.patterns);
        assert!(
            pruned.metrics.total_counted() < plain.metrics.total_counted(),
            "the exact OSSM must skip some intersections"
        );
        // With the exact map, every intersection performed yields a
        // frequent child.
        for l in &pruned.metrics.levels {
            if l.level >= 2 {
                assert_eq!(l.counted, l.frequent, "level {}", l.level);
            }
        }
    }

    #[test]
    fn small_example_by_hand() {
        let d = Dataset::new(
            3,
            vec![set(&[0, 1]), set(&[0, 1, 2]), set(&[0, 2]), set(&[1])],
        );
        let out = Eclat::new().mine(&d, 2);
        assert_eq!(out.patterns.support_of(&set(&[0])), Some(3));
        assert_eq!(out.patterns.support_of(&set(&[0, 1])), Some(2));
        assert_eq!(out.patterns.support_of(&set(&[0, 2])), Some(2));
        assert_eq!(
            out.patterns.support_of(&set(&[0, 1, 2])),
            None,
            "support 1 < 2"
        );
        let closed = Charm::new().mine(&d, 2);
        assert!(closed.patterns.len() <= out.patterns.len());
    }
}
