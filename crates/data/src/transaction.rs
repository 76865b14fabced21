//! Transactions and datasets.
//!
//! A *transaction* is an observation over the item domain — a market basket,
//! or a window of a telecom alarm sequence (footnote 1 of the paper). A
//! *dataset* is the reference collection `T = {t_1, …, t_N}` over a fixed
//! item domain `0..m`.

use crate::item::Itemset;

/// The reference collection of transactions over a fixed item domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dataset {
    num_items: usize,
    transactions: Vec<Itemset>,
}

impl Dataset {
    /// Creates a dataset over the domain `0..num_items`.
    ///
    /// # Panics
    /// Panics if any transaction references an item `>= num_items`.
    pub fn new(num_items: usize, transactions: Vec<Itemset>) -> Self {
        for (i, t) in transactions.iter().enumerate() {
            if let Some(max) = t.items().last() {
                assert!(
                    max.index() < num_items,
                    "transaction {i} references item {max} outside domain 0..{num_items}"
                );
            }
        }
        Dataset {
            num_items,
            transactions,
        }
    }

    /// A dataset with no transactions over `0..num_items`.
    pub fn empty(num_items: usize) -> Self {
        Dataset {
            num_items,
            transactions: Vec::new(),
        }
    }

    /// Size of the item domain, `m`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of transactions, `N` (written `|T|` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the dataset holds no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The transactions, in storage order.
    #[inline]
    pub fn transactions(&self) -> &[Itemset] {
        &self.transactions
    }

    /// The `idx`-th transaction.
    #[inline]
    pub fn transaction(&self, idx: usize) -> &Itemset {
        &self.transactions[idx]
    }

    /// Actual support `sup(X)`: the number of transactions containing every
    /// item of `X`. This is the ground truth that OSSM bounds from above.
    pub fn support(&self, pattern: &Itemset) -> u64 {
        self.transactions
            .iter()
            .filter(|t| pattern.is_subset_of(t))
            .count() as u64
    }

    /// Support of every singleton, by one pass over the data: one count
    /// vector per transaction chunk on the `ossm_par` workers, summed in
    /// chunk order, so the supports are the same at any thread count.
    pub fn singleton_supports(&self) -> Vec<u64> {
        /// Transactions below which a chunk costs less to count than a
        /// worker takes to start.
        const MIN_TX_CHUNK: usize = 4096;
        if self.transactions.is_empty() {
            return vec![0; self.num_items];
        }
        let partials = ossm_par::map_chunks(self.transactions.len(), MIN_TX_CHUNK, |r| {
            let mut counts = vec![0u64; self.num_items];
            for t in &self.transactions[r] {
                for item in t.items() {
                    counts[item.index()] += 1;
                }
            }
            counts
        });
        ossm_par::sum_counts(partials)
    }

    /// Converts a relative threshold (fraction of `N`, e.g. `0.01` for the
    /// paper's 1 %) to an absolute minimum support count, rounding up so the
    /// semantics "at least this fraction" are preserved.
    pub fn absolute_threshold(&self, fraction: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "support fraction must be in [0,1]"
        );
        (fraction * self.len() as f64).ceil() as u64
    }

    /// Reorders the transactions according to `order`, where `order[i]` is
    /// the index (into the current storage order) of the transaction that
    /// should come `i`-th. Theorem 1 "allows T to be rearranged"; segment
    /// construction uses this to make segments contiguous.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..len()`.
    pub fn reordered(&self, order: &[usize]) -> Dataset {
        assert_eq!(
            order.len(),
            self.len(),
            "order must cover every transaction"
        );
        let mut seen = vec![false; self.len()];
        let mut transactions = Vec::with_capacity(self.len());
        for &src in order {
            assert!(
                !seen[src],
                "order must be a permutation (duplicate index {src})"
            );
            seen[src] = true;
            transactions.push(self.transactions[src].clone());
        }
        Dataset {
            num_items: self.num_items,
            transactions,
        }
    }

    /// Splits the dataset into `k` contiguous partitions of near-equal size
    /// (the unit of work of the Partition algorithm \[17\]). The last
    /// partitions may be one transaction shorter. All `k` partitions are
    /// non-empty iff `k <= len()`.
    pub fn partition_ranges(&self, k: usize) -> Vec<std::ops::Range<usize>> {
        assert!(k > 0, "cannot partition into zero parts");
        let n = self.len();
        let base = n / k;
        let extra = n % k;
        let mut ranges = Vec::with_capacity(k);
        let mut start = 0;
        for i in 0..k {
            let size = base + usize::from(i < extra);
            ranges.push(start..start + size);
            start += size;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;

    fn tx(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    fn sample() -> Dataset {
        Dataset::new(4, vec![tx(&[0, 1]), tx(&[1, 2]), tx(&[0, 1, 2]), tx(&[3])])
    }

    #[test]
    fn support_counts_containing_transactions() {
        let d = sample();
        assert_eq!(d.support(&tx(&[1])), 3);
        assert_eq!(d.support(&tx(&[0, 1])), 2);
        assert_eq!(d.support(&tx(&[0, 3])), 0);
        assert_eq!(
            d.support(&Itemset::empty()),
            4,
            "empty set occurs in every transaction"
        );
    }

    #[test]
    fn singleton_supports_matches_per_item_support() {
        let d = sample();
        let s = d.singleton_supports();
        assert_eq!(s, vec![2, 3, 2, 1]);
        for (i, &c) in s.iter().enumerate() {
            assert_eq!(c, d.support(&Itemset::singleton(ItemId(i as u32))));
        }
    }

    #[test]
    fn absolute_threshold_rounds_up() {
        let d = sample();
        assert_eq!(d.absolute_threshold(0.5), 2);
        assert_eq!(d.absolute_threshold(0.26), 2);
        assert_eq!(d.absolute_threshold(0.0), 0);
        assert_eq!(d.absolute_threshold(1.0), 4);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn new_rejects_out_of_domain_items() {
        Dataset::new(2, vec![tx(&[0, 2])]);
    }

    #[test]
    fn reordered_permutes() {
        let d = sample();
        let r = d.reordered(&[3, 2, 1, 0]);
        assert_eq!(r.transaction(0), &tx(&[3]));
        assert_eq!(r.transaction(3), &tx(&[0, 1]));
        assert_eq!(r.support(&tx(&[1])), 3, "support is order-invariant");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reordered_rejects_duplicates() {
        sample().reordered(&[0, 0, 1, 2]);
    }

    #[test]
    fn partition_ranges_cover_disjointly() {
        let d = sample();
        for k in 1..=4 {
            let ranges = d.partition_ranges(k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, d.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
        // 4 transactions into 3 parts: sizes 2,1,1.
        let sizes: Vec<usize> = d
            .partition_ranges(3)
            .iter()
            .map(std::iter::ExactSizeIterator::len)
            .collect();
        assert_eq!(sizes, vec![2, 1, 1]);
    }
}
