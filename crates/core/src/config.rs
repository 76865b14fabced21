//! Segment configurations (Section 4 of the paper).
//!
//! The *configuration* of a segment is the descriptor
//! `(a_{i1} ≥ a_{i2} ≥ … ≥ a_{im})`: the permutation of the `m` items in
//! non-increasing order of their supports inside the segment, with ties
//! broken by the canonical item enumeration (footnote 4: smaller item id
//! first). Lemma 1 shows that merging two segments of the *same*
//! configuration changes no upper bound, which is what makes configurations
//! the unit of lossless merging in segment minimization.

use ossm_data::{ItemId, Itemset};

/// The support-rank permutation of the items within a segment.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Configuration {
    /// Item ids in non-increasing support order, canonical tie-break.
    order: Vec<u32>,
}

impl Configuration {
    /// Computes the configuration of a segment from its support vector.
    pub fn of_supports(supports: &[u64]) -> Self {
        let mut order: Vec<u32> = (0..supports.len() as u32).collect();
        // Descending support; ties by ascending item id. `sort_by_key` with
        // Reverse(support) is stable, and the initial order is ascending id,
        // so the canonical tie-break comes for free.
        order.sort_by_key(|&i| std::cmp::Reverse(supports[i as usize]));
        Configuration { order }
    }

    /// The configuration of a *single-transaction* segment over the domain
    /// `0..m`: members of the transaction first (support 1), non-members
    /// after (support 0), each group in canonical (ascending id) order.
    pub fn of_transaction(t: &Itemset, m: usize) -> Self {
        let mut order = Vec::with_capacity(m);
        order.extend(t.items().iter().map(|i| i.0));
        let mut member = vec![false; m];
        for i in t.items() {
            member[i.index()] = true;
        }
        order.extend((0..m as u32).filter(|&i| !member[i as usize]));
        Configuration { order }
    }

    /// The item ids in configuration (non-increasing support) order.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of items.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.order.len()
    }

    /// `rank()[i]` = position of item `i` in the configuration (0 = most
    /// frequent).
    pub fn rank(&self) -> Vec<usize> {
        let mut rank = vec![0usize; self.order.len()];
        for (pos, &item) in self.order.iter().enumerate() {
            rank[item as usize] = pos;
        }
        rank
    }

    /// Whether a support vector *realizes* this configuration, i.e. is
    /// non-increasing along the configuration's order with canonical
    /// tie-break (equal supports must appear in ascending item id).
    pub fn is_realized_by(&self, supports: &[u64]) -> bool {
        if supports.len() != self.order.len() {
            return false;
        }
        self.order.windows(2).all(|w| {
            let (a, b) = (w[0] as usize, w[1] as usize);
            supports[a] > supports[b] || (supports[a] == supports[b] && a < b)
        })
    }
}

/// The compact grouping key for single-transaction configurations.
///
/// Distinct transactions have distinct configurations **except** that the
/// canonical prefixes `{0}, {0,1}, …, {0,…,m−1}` all share the canonical
/// configuration `(0, 1, …, m−1)` — which is why there are `2^m − m`
/// possible configurations rather than `2^m − 1` (Section 4.2). Grouping by
/// this key is therefore equivalent to grouping by full configuration while
/// staying O(|t|) per transaction instead of O(m).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TransactionConfigKey {
    /// The transaction is a canonical prefix `{0, …, k−1}` (for some k ≥ 0,
    /// including the empty transaction): canonical configuration.
    CanonicalPrefix,
    /// Any other transaction: the configuration is unique to its itemset.
    Itemset(Vec<u32>),
}

impl TransactionConfigKey {
    /// Computes the key for a transaction over the domain `0..m`.
    pub fn of(t: &Itemset, _m: usize) -> Self {
        let is_prefix = t
            .items()
            .iter()
            .enumerate()
            .all(|(pos, item)| item.index() == pos);
        if is_prefix {
            TransactionConfigKey::CanonicalPrefix
        } else {
            TransactionConfigKey::Itemset(t.items().iter().map(|i| i.0).collect())
        }
    }
}

/// Upper bound of Theorem 1 on the number of distinct configurations:
/// `2^m − m`, saturating at `u64::MAX` for large `m` (the point of the
/// theorem is precisely that this is astronomically large).
pub fn max_configurations(m: usize) -> u64 {
    if m == 0 {
        return 0;
    }
    if m >= 64 {
        return u64::MAX;
    }
    (1u64 << m) - m as u64
}

/// Exhaustively enumerates the distinct single-transaction configurations
/// over `0..m` (test/analysis helper; exponential in `m`).
///
/// # Panics
/// Panics if `m > 20` to avoid accidental blow-ups.
pub fn enumerate_transaction_configurations(m: usize) -> Vec<Configuration> {
    assert!(m <= 20, "enumeration is exponential; refusing m > 20");
    let mut seen = std::collections::BTreeSet::new();
    for mask in 1u32..(1u32 << m) {
        let items: Vec<u32> = (0..m as u32).filter(|&i| mask & (1 << i) != 0).collect();
        let t = Itemset::new(items);
        seen.insert(Configuration::of_transaction(&t, m));
    }
    seen.into_iter().collect()
}

/// Convenience re-export of footnote 4's tie-break as a comparator:
/// orders items by `(support desc, id asc)`.
pub fn canonical_item_cmp(supports: &[u64], a: ItemId, b: ItemId) -> std::cmp::Ordering {
    supports[b.index()]
        .cmp(&supports[a.index()])
        .then_with(|| a.index().cmp(&b.index()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn of_supports_orders_descending_with_canonical_ties() {
        let c = Configuration::of_supports(&[5, 9, 5, 0]);
        assert_eq!(c.order(), &[1, 0, 2, 3], "ties 0 and 2 broken by id");
        assert!(c.is_realized_by(&[5, 9, 5, 0]));
        assert!(!c.is_realized_by(&[9, 5, 5, 0]));
    }

    #[test]
    fn rank_inverts_order() {
        let c = Configuration::of_supports(&[1, 3, 2]);
        assert_eq!(c.order(), &[1, 2, 0]);
        assert_eq!(c.rank(), vec![2, 0, 1]);
    }

    #[test]
    fn transaction_configuration_lists_members_first() {
        let c = Configuration::of_transaction(&set(&[1, 3]), 5);
        assert_eq!(c.order(), &[1, 3, 0, 2, 4]);
    }

    #[test]
    fn transaction_config_matches_support_config() {
        // of_transaction must agree with of_supports on the indicator vector.
        for items in [
            vec![],
            vec![0],
            vec![2],
            vec![0, 1],
            vec![1, 3],
            vec![0, 1, 2, 3, 4],
        ] {
            let t = set(&items.iter().map(|&i| i as u32).collect::<Vec<_>>());
            let mut indicator = vec![0u64; 5];
            for i in t.items() {
                indicator[i.index()] = 1;
            }
            assert_eq!(
                Configuration::of_transaction(&t, 5),
                Configuration::of_supports(&indicator),
                "mismatch for {t}"
            );
        }
    }

    #[test]
    fn canonical_prefixes_share_configuration() {
        let m = 4;
        let c1 = Configuration::of_transaction(&set(&[0]), m);
        let c2 = Configuration::of_transaction(&set(&[0, 1]), m);
        let c3 = Configuration::of_transaction(&set(&[0, 1, 2, 3]), m);
        assert_eq!(c1, c2);
        assert_eq!(c2, c3);
        let other = Configuration::of_transaction(&set(&[1]), m);
        assert_ne!(c1, other);
    }

    #[test]
    fn key_groups_exactly_like_full_configuration() {
        // For every pair of non-empty itemsets over m=5: same key ⇔ same
        // configuration.
        let m = 5;
        let sets: Vec<Itemset> = (1u32..(1 << m))
            .map(|mask| {
                set(&(0..m as u32)
                    .filter(|&i| mask & (1 << i) != 0)
                    .collect::<Vec<_>>())
            })
            .collect();
        for a in &sets {
            for b in &sets {
                let same_cfg =
                    Configuration::of_transaction(a, m) == Configuration::of_transaction(b, m);
                let same_key = TransactionConfigKey::of(a, m) == TransactionConfigKey::of(b, m);
                assert_eq!(same_cfg, same_key, "disagreement for {a} vs {b}");
            }
        }
    }

    #[test]
    fn distinct_configuration_count_is_2m_minus_m() {
        for m in 1..=10 {
            let count = enumerate_transaction_configurations(m).len() as u64;
            assert_eq!(count, max_configurations(m), "m = {m}");
        }
    }

    #[test]
    fn max_configurations_edge_cases() {
        assert_eq!(max_configurations(0), 0);
        assert_eq!(max_configurations(1), 1);
        assert_eq!(max_configurations(2), 2);
        assert_eq!(max_configurations(3), 5);
        assert_eq!(max_configurations(63), (1u64 << 63) - 63);
        assert_eq!(max_configurations(64), u64::MAX);
        assert_eq!(
            max_configurations(1000),
            u64::MAX,
            "saturates for paper-scale m"
        );
    }

    #[test]
    fn canonical_cmp_orders_by_support_then_id() {
        use std::cmp::Ordering::*;
        let sup = [3, 7, 3];
        assert_eq!(canonical_item_cmp(&sup, ItemId(1), ItemId(0)), Less);
        assert_eq!(
            canonical_item_cmp(&sup, ItemId(0), ItemId(2)),
            Less,
            "tie → smaller id first"
        );
        assert_eq!(canonical_item_cmp(&sup, ItemId(2), ItemId(0)), Greater);
        assert_eq!(canonical_item_cmp(&sup, ItemId(1), ItemId(1)), Equal);
    }
}
