//! The generalized OSSM of the paper's footnote 3.
//!
//! "An alternative way to tighten `ub(X, SSM_n)` is to generalize the OSSM
//! by storing not only the actual segment supports of singleton patterns
//! or itemsets, but also those of itemsets of higher cardinalities."
//!
//! A [`GeneralizedOssm`] carries, on top of the per-segment singleton
//! supports, the *exact* per-segment supports of a chosen set of tracked
//! itemsets (typically pairs of bubble-list items — the candidates whose
//! bounds matter most). The bound per segment becomes
//!
//! ```text
//! bound_s(X) = min( min_{a ∈ X} sup_s({a}),  min_{T tracked, T ⊆ X} sup_s(T) )
//! ```
//!
//! which is never looser than equation (1), because `sup_s(T) ≤
//! sup_s({a})` for every `a ∈ T ⊆ X`. Space grows by one counter row per
//! tracked itemset — the same linear trade the paper makes for segments.

use std::collections::BTreeMap;

use ossm_data::{Itemset, PageStore};

use crate::segmentation::Segmentation;
use crate::ssm::Ossm;

/// An OSSM augmented with per-segment supports of selected itemsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralizedOssm {
    base: Ossm,
    /// Tracked itemset → per-segment exact supports (len = num segments).
    tracked: BTreeMap<Itemset, Vec<u64>>,
}

impl GeneralizedOssm {
    /// Builds the generalized map over `store`'s pages, tracking the exact
    /// per-segment supports of each itemset in `tracked` (singletons and
    /// empty itemsets are ignored — the base map already covers them).
    pub fn from_pages(
        store: &PageStore,
        segmentation: &Segmentation,
        tracked: impl IntoIterator<Item = Itemset>,
    ) -> Self {
        let base = Ossm::from_pages(store, segmentation);
        let n = segmentation.num_segments();
        let mut map: BTreeMap<Itemset, Vec<u64>> = tracked
            .into_iter()
            .filter(|t| t.len() >= 2)
            .map(|t| (t, vec![0u64; n]))
            .collect();
        if !map.is_empty() {
            let assignment = segmentation.assignment();
            for (page_idx, page) in store.pages().iter().enumerate() {
                let seg = assignment[page_idx];
                for t in store.page_transactions(page_idx) {
                    for (pattern, counts) in &mut map {
                        if pattern.is_subset_of(t) {
                            counts[seg] += 1;
                        }
                    }
                }
                let _ = page;
            }
        }
        GeneralizedOssm { base, tracked: map }
    }

    /// The underlying singleton-only OSSM.
    pub fn base(&self) -> &Ossm {
        &self.base
    }

    /// Number of tracked higher-cardinality itemsets.
    pub fn num_tracked(&self) -> usize {
        self.tracked.len()
    }

    /// The tightened upper bound (see module docs). Never looser than
    /// `self.base().upper_bound(pattern)`, and exact for tracked patterns.
    pub fn upper_bound(&self, pattern: &Itemset) -> u64 {
        if pattern.is_empty() {
            return self.base.num_transactions();
        }
        // The pattern's item rows plus the rows of its tracked subsets
        // (including the pattern itself), one entry per segment each.
        let rows: Vec<&[u64]> = pattern
            .items()
            .iter()
            .map(|&a| self.base.item_supports(a))
            .chain(
                self.tracked
                    .iter()
                    .filter(|(t, _)| t.is_subset_of(pattern))
                    .map(|(_, counts)| counts.as_slice()),
            )
            .collect();
        (0..self.base.num_segments())
            .map(|s| rows.iter().map(|r| r[s]).fold(u64::MAX, u64::min))
            .sum()
    }

    /// Whether `pattern` can be pruned at `min_support`.
    pub fn prunes(&self, pattern: &Itemset, min_support: u64) -> bool {
        self.upper_bound(pattern) < min_support
    }

    /// Approximate memory footprint: base map plus one row per tracked set.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes()
            + self.tracked.len() * self.base.num_segments() * std::mem::size_of::<u64>()
    }
}

/// The natural tracking choice: all pairs of bubble-list items, whose
/// bounds sit closest to the threshold (footnote 3 meets Section 5.3).
pub fn bubble_pairs(bubble: &crate::bubble::BubbleList) -> Vec<Itemset> {
    let items = bubble.items();
    let mut out = Vec::with_capacity(items.len() * items.len().saturating_sub(1) / 2);
    for (i, &a) in items.iter().enumerate() {
        for &b in &items[i + 1..] {
            out.push(Itemset::new([a, b]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bubble::BubbleList;
    use ossm_data::gen::QuestConfig;
    use ossm_data::Dataset;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    fn store() -> PageStore {
        let d = QuestConfig {
            num_transactions: 400,
            num_items: 20,
            avg_transaction_len: 5.0,
            ..QuestConfig::small()
        }
        .generate();
        PageStore::with_page_count(d, 8)
    }

    #[test]
    fn tracked_pattern_bound_is_exact() {
        let s = store();
        let seg = Segmentation::identity(8);
        let pattern = set(&[0, 1]);
        let g = GeneralizedOssm::from_pages(&s, &seg, vec![pattern.clone()]);
        assert_eq!(g.upper_bound(&pattern), s.dataset().support(&pattern));
        assert_eq!(g.num_tracked(), 1);
    }

    #[test]
    fn bound_is_never_looser_than_base_and_still_sound() {
        let s = store();
        let seg =
            Segmentation::from_groups(vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]], 8);
        let bubble = BubbleList::from_store(&s, s.dataset().absolute_threshold(0.05), 6);
        let g = GeneralizedOssm::from_pages(&s, &seg, bubble_pairs(&bubble));
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                for c in (b + 1)..12 {
                    let x = set(&[a, b, c]);
                    let gb = g.upper_bound(&x);
                    assert!(gb <= g.base().upper_bound(&x), "looser for {x}");
                    assert!(gb >= s.dataset().support(&x), "unsound for {x}");
                }
            }
        }
    }

    #[test]
    fn superset_of_tracked_pair_gets_tighter_bound() {
        // Two items that never co-occur: tracking their pair forces every
        // superset bound to zero even when singleton bounds cannot.
        let d = Dataset::new(
            3,
            vec![set(&[0, 2]), set(&[0, 2]), set(&[1, 2]), set(&[1, 2])],
        );
        let s = PageStore::with_page_count(d, 1);
        let seg = Segmentation::identity(1);
        let base_only = GeneralizedOssm::from_pages(&s, &seg, vec![]);
        let tracked = GeneralizedOssm::from_pages(&s, &seg, vec![set(&[0, 1])]);
        let triple = set(&[0, 1, 2]);
        assert_eq!(
            base_only.upper_bound(&triple),
            2,
            "singletons cannot see the exclusion"
        );
        assert_eq!(tracked.upper_bound(&triple), 0, "the tracked pair can");
        assert!(tracked.prunes(&triple, 1));
    }

    #[test]
    fn singletons_and_empty_sets_are_not_tracked() {
        let s = store();
        let seg = Segmentation::identity(8);
        let g =
            GeneralizedOssm::from_pages(&s, &seg, vec![Itemset::empty(), set(&[3]), set(&[1, 2])]);
        assert_eq!(g.num_tracked(), 1, "only the pair survives");
        assert_eq!(g.upper_bound(&Itemset::empty()), s.dataset().len() as u64);
    }

    #[test]
    fn memory_accounts_for_tracked_rows() {
        let s = store();
        let seg = Segmentation::identity(8);
        let g0 = GeneralizedOssm::from_pages(&s, &seg, vec![]);
        let g2 = GeneralizedOssm::from_pages(&s, &seg, vec![set(&[0, 1]), set(&[2, 3])]);
        assert_eq!(g2.memory_bytes() - g0.memory_bytes(), 2 * 8 * 8);
    }

    #[test]
    fn bubble_pairs_enumerates_all_pairs() {
        let bubble = BubbleList::select(&[10, 20, 30, 40], 25, 3);
        let pairs = bubble_pairs(&bubble);
        assert_eq!(pairs.len(), 3);
    }
}
