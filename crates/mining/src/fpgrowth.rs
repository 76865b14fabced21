//! FP-growth (Han, Pei, Yin [8]) — the candidate-generation-free baseline.
//!
//! The paper's related-work section contrasts the OSSM framework (which
//! optimizes candidate-based miners) with FP-growth (which avoids
//! candidates altogether by mining a prefix tree). We implement it for two
//! reasons: it completes the paper's comparison surface, and — because it
//! shares no code path with the candidate-based miners — it is the
//! strongest cross-validation oracle for the agreement tests.
//!
//! Standard construction: items of each transaction are reordered by
//! descending global frequency and inserted into a prefix tree with
//! per-item header chains; mining recurses over conditional pattern bases.

use std::time::Instant;

use ossm_data::{Dataset, ItemId, Itemset};

use crate::apriori::MiningOutcome;
use crate::metrics::MiningMetrics;
use crate::support::FrequentPatterns;

/// FP-trees constructed (the global tree plus every conditional tree).
static TREES_BUILT: ossm_obs::Counter = ossm_obs::Counter::new("mining.fpgrowth.trees_built");
/// Prefix-tree nodes allocated across all trees.
static NODES_CREATED: ossm_obs::Counter = ossm_obs::Counter::new("mining.fpgrowth.nodes_created");

/// FP-growth miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpGrowth;

/// One FP-tree node.
struct Node {
    item: u32,
    count: u64,
    parent: usize,
    children: Vec<usize>,
}

/// An FP-tree: node arena + per-item header chains.
struct Tree {
    nodes: Vec<Node>,
    /// `header[rank]` = indices of all nodes carrying the item of `rank`.
    header: Vec<Vec<usize>>,
}

const ROOT: usize = 0;

impl Tree {
    fn new(num_ranked: usize) -> Self {
        TREES_BUILT.incr();
        Tree {
            nodes: vec![Node {
                item: u32::MAX,
                count: 0,
                parent: usize::MAX,
                children: vec![],
            }],
            header: vec![Vec::new(); num_ranked],
        }
    }

    /// Inserts a rank-ordered item path with multiplicity `count`.
    fn insert(&mut self, ranked_items: &[u32], count: u64) {
        let mut cur = ROOT;
        for &rank in ranked_items {
            let found = self.nodes[cur]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].item == rank);
            cur = match found {
                Some(c) => {
                    self.nodes[c].count += count;
                    c
                }
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(Node {
                        item: rank,
                        count,
                        parent: cur,
                        children: vec![],
                    });
                    self.nodes[cur].children.push(id);
                    self.header[rank as usize].push(id);
                    NODES_CREATED.incr();
                    id
                }
            };
        }
    }

    /// The prefix path of `node` (excluding the node and the root), as
    /// ranks from deepest to shallowest.
    fn prefix_path(&self, mut node: usize) -> Vec<u32> {
        let mut path = Vec::new();
        node = self.nodes[node].parent;
        while node != ROOT {
            path.push(self.nodes[node].item);
            node = self.nodes[node].parent;
        }
        path
    }
}

/// The global-tree phase of FP-growth, factored out so the in-memory
/// miner and the out-of-core leg ([`crate::ooc`]) share it: rank the
/// frequent items once, stream transactions in (from a dataset or from
/// page guards), then mine the finished tree recursively.
pub(crate) struct GlobalTreeMiner {
    singles: Vec<u64>,
    frequent_items: Vec<u32>,
    rank_of: Vec<u32>,
    tree: Tree,
    ranked: Vec<u32>,
}

impl GlobalTreeMiner {
    const NONE: u32 = u32::MAX;

    /// Ranks the frequent items of `singles` (descending support, ties
    /// ascending id) and prepares an empty global tree.
    pub(crate) fn new(singles: &[u64], min_support: u64) -> Self {
        let mut frequent_items: Vec<u32> = (0..singles.len() as u32)
            .filter(|&i| singles[i as usize] >= min_support)
            .collect();
        frequent_items.sort_by_key(|&i| (std::cmp::Reverse(singles[i as usize]), i));
        let mut rank_of = vec![Self::NONE; singles.len()];
        for (rank, &item) in frequent_items.iter().enumerate() {
            rank_of[item as usize] = rank as u32;
        }
        let tree = Tree::new(frequent_items.len());
        GlobalTreeMiner {
            singles: singles.to_vec(),
            frequent_items,
            rank_of,
            tree,
            ranked: Vec::new(),
        }
    }

    /// Inserts one transaction (infrequent items drop out during rank
    /// encoding, exactly as in the in-memory miner).
    pub(crate) fn insert(&mut self, t: &Itemset) {
        self.ranked.clear();
        for i in t.items() {
            let r = self.rank_of[i.index()];
            if r != Self::NONE {
                self.ranked.push(r);
            }
        }
        self.ranked.sort_unstable();
        self.tree.insert(&self.ranked, 1);
    }

    /// Records the frequent singletons and mines the finished tree into
    /// `patterns`.
    pub(crate) fn finish(self, min_support: u64, patterns: &mut FrequentPatterns) {
        for &item in &self.frequent_items {
            patterns.insert(
                Itemset::singleton(ItemId(item)),
                self.singles[item as usize],
            );
        }
        let mut s = ossm_obs::span("mining.fpgrowth.grow");
        s.watch(&TREES_BUILT);
        s.watch(&NODES_CREATED);
        let mut suffix: Vec<u32> = Vec::new();
        mine_tree(
            &self.tree,
            &self.frequent_items,
            min_support,
            &mut suffix,
            patterns,
        );
    }
}

impl FpGrowth {
    /// Creates the miner.
    pub fn new() -> Self {
        FpGrowth
    }

    /// Mines all frequent itemsets at absolute threshold `min_support`.
    ///
    /// # Panics
    /// Panics if `min_support == 0`.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        assert!(min_support > 0, "support threshold must be at least 1");
        let _mine_span = ossm_obs::span("mining.fpgrowth");
        let start = Instant::now();
        let mut patterns = FrequentPatterns::new();

        let singles = dataset.singleton_supports();
        // Build the global tree over rank-encoded transactions.
        let miner = {
            let mut s = ossm_obs::span("mining.fpgrowth.build_tree");
            s.watch(&NODES_CREATED);
            let mut miner = GlobalTreeMiner::new(&singles, min_support);
            for t in dataset.transactions() {
                miner.insert(t);
            }
            miner
        };
        // Recursive mining over the finished tree.
        miner.finish(min_support, &mut patterns);

        let metrics = MiningMetrics {
            levels: Vec::new(),
            elapsed: start.elapsed(),
        };
        MiningOutcome { patterns, metrics }
    }
}

/// Mines one (conditional) tree. `item_of_rank` maps this tree's dense
/// ranks back to original item ids.
fn mine_tree(
    tree: &Tree,
    item_of_rank: &[u32],
    min_support: u64,
    suffix: &mut Vec<u32>,
    patterns: &mut FrequentPatterns,
) {
    // Process header items bottom-up (least frequent first).
    for rank in (0..item_of_rank.len()).rev() {
        let nodes = &tree.header[rank];
        if nodes.is_empty() {
            continue;
        }
        let support: u64 = nodes.iter().map(|&n| tree.nodes[n].count).sum();
        if support < min_support {
            continue;
        }
        let item = item_of_rank[rank];
        suffix.push(item);
        // Singletons of the *global* tree were recorded up front; every
        // longer suffix is a newly discovered pattern.
        if suffix.len() >= 2 {
            patterns.insert(Itemset::new(suffix.iter().copied()), support);
        }

        // Conditional pattern base: prefix paths of every header node.
        let mut conditional_counts = vec![0u64; rank]; // only ranks above can appear
        let mut paths: Vec<(Vec<u32>, u64)> = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let path = tree.prefix_path(n);
            let count = tree.nodes[n].count;
            for &r in &path {
                conditional_counts[r as usize] += count;
            }
            if !path.is_empty() {
                paths.push((path, count));
            }
        }
        // Re-rank the conditional tree's frequent items.
        let mut cond_items: Vec<u32> = (0..rank as u32)
            .filter(|&r| conditional_counts[r as usize] >= min_support)
            .collect();
        cond_items.sort_by_key(|&r| {
            (
                std::cmp::Reverse(conditional_counts[r as usize]),
                item_of_rank[r as usize],
            )
        });
        if !cond_items.is_empty() {
            let mut new_rank = vec![u32::MAX; rank];
            for (nr, &r) in cond_items.iter().enumerate() {
                new_rank[r as usize] = nr as u32;
            }
            let cond_item_of_rank: Vec<u32> = cond_items
                .iter()
                .map(|&r| item_of_rank[r as usize])
                .collect();
            let mut cond_tree = Tree::new(cond_items.len());
            let mut ranked: Vec<u32> = Vec::new();
            for (path, count) in &paths {
                ranked.clear();
                ranked.extend(path.iter().filter_map(|&r| {
                    let nr = new_rank[r as usize];
                    (nr != u32::MAX).then_some(nr)
                }));
                ranked.sort_unstable();
                if !ranked.is_empty() {
                    cond_tree.insert(&ranked, *count);
                }
            }
            mine_tree(
                &cond_tree,
                &cond_item_of_rank,
                min_support,
                suffix,
                patterns,
            );
        }
        suffix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use ossm_data::gen::{AlarmConfig, QuestConfig, SkewedConfig};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn mines_the_textbook_example() {
        let d = Dataset::new(
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
        );
        let out = FpGrowth::new().mine(&d, 2);
        assert_eq!(out.patterns.len(), 13);
        assert_eq!(out.patterns.support_of(&set(&[0, 1, 2])), Some(2));
        assert_eq!(out.patterns.support_of(&set(&[0, 1, 4])), Some(2));
        assert!(out.patterns.closure_violation().is_none());
    }

    #[test]
    fn agrees_with_apriori_on_quest_data() {
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 30,
            ..QuestConfig::small()
        }
        .generate();
        for min_support in [5, 10, 25] {
            let a = Apriori::new().mine(&d, min_support);
            let f = FpGrowth::new().mine(&d, min_support);
            assert_eq!(a.patterns, f.patterns, "min_support {min_support}");
        }
    }

    #[test]
    fn agrees_with_apriori_on_skewed_and_alarm_data() {
        let d1 = SkewedConfig {
            num_transactions: 300,
            num_items: 20,
            ..SkewedConfig::small()
        }
        .generate();
        assert_eq!(
            Apriori::new().mine(&d1, 10).patterns,
            FpGrowth::new().mine(&d1, 10).patterns
        );
        let d2 = AlarmConfig {
            num_windows: 250,
            num_alarm_types: 18,
            ..AlarmConfig::small()
        }
        .generate();
        assert_eq!(
            Apriori::new().mine(&d2, 15).patterns,
            FpGrowth::new().mine(&d2, 15).patterns
        );
    }

    #[test]
    fn empty_when_nothing_is_frequent() {
        let d = Dataset::new(3, vec![set(&[0]), set(&[1]), set(&[2])]);
        assert!(FpGrowth::new().mine(&d, 2).patterns.is_empty());
    }

    #[test]
    fn handles_identical_transactions_via_path_compression() {
        let d = Dataset::new(3, vec![set(&[0, 1, 2]); 5]);
        let out = FpGrowth::new().mine(&d, 3);
        assert_eq!(
            out.patterns.len(),
            7,
            "all 2³−1 subsets frequent with support 5"
        );
        assert!(out.patterns.iter().all(|(_, s)| s == 5));
    }
}
