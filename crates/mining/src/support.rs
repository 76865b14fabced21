//! Frequency-counting back-ends and the shared result type.
//!
//! Counting candidate supports against the transaction collection is "one
//! of the key operations in data mining algorithms" — the operation the
//! OSSM exists to reduce. [`count_with`] dispatches on a
//! [`CountingBackend`]:
//!
//! * [`count_linear`] — for each transaction, test every candidate by a
//!   sorted-subset merge. Simple and exactly proportional to the number of
//!   candidates, which makes the OSSM's candidate reduction visible in
//!   wall-clock time the way the paper's C implementation showed it. Its
//!   time stays proportional to the candidates counted at every level.
//! * the hash tree of [`crate::hashtree`] — the classical Apriori counting
//!   structure, exposed through the same interface. A batch of pairs
//!   counts in a pair table over the live items instead (`crate::pairs`),
//!   in memory as out of core, whenever the table's size rule admits it:
//!   one increment per pair of live items in a transaction, so a pair
//!   eq. (1) prunes still costs its increment when both its items stay
//!   live. The tree counts every other batch and every level `k ≥ 3`.
//!
//! [`FrequentPatterns`] is the result type shared by all miners, so the
//! cross-miner agreement tests can compare outputs structurally.

use std::collections::BTreeMap;

use ossm_data::Itemset;

/// Minimum transactions per parallel counting chunk: below this the merge
/// overhead exceeds the counting work, so the scan stays on one thread.
pub(crate) const MIN_TX_CHUNK: usize = 256;

/// Bytes of candidate itemsets resident in the current counting level —
/// the memory half of the speed-vs-space tradeoff among the back-ends,
/// which the paper's counting-cost model ignores.
static MEM_CANDIDATES: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.mining.candidates");

/// Cost model for a candidate list: per-itemset struct overhead plus
/// 4 bytes per item id. Deterministic for a given list, independent of
/// allocator or thread count.
pub(crate) fn candidate_bytes(candidates: &[Itemset]) -> u64 {
    candidates
        .iter()
        .map(|c| (std::mem::size_of::<Itemset>() + 4 * c.len()) as u64)
        .sum()
}

/// Which counting back-end a level-wise miner uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CountingBackend {
    /// Per-transaction linear scan over the candidate list.
    #[default]
    LinearScan,
    /// The classical Apriori hash tree; a batch of pairs counts in a pair
    /// table over its live items when the table's size rule admits it.
    HashTree,
}

impl std::str::FromStr for CountingBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "linear" => Ok(CountingBackend::LinearScan),
            "hashtree" => Ok(CountingBackend::HashTree),
            other => Err(format!(
                "unknown counting backend {other:?} (expected linear or hashtree)"
            )),
        }
    }
}

/// Counts the support of each candidate by a linear scan.
///
/// All candidates are typically of equal size `k`, but this back-end does
/// not require it. Transactions are chunked across worker threads; the
/// per-chunk count vectors merge by element-wise sum, which is associative,
/// so the result is identical at any thread count.
pub fn count_linear(transactions: &[Itemset], candidates: &[Itemset]) -> Vec<u64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let partials = ossm_par::map_chunks(transactions.len(), MIN_TX_CHUNK, |r| {
        count_linear_range(&transactions[r], candidates)
    });
    if partials.is_empty() {
        return vec![0u64; candidates.len()];
    }
    ossm_par::sum_counts(partials)
}

/// The serial linear scan over one transaction chunk.
fn count_linear_range(transactions: &[Itemset], candidates: &[Itemset]) -> Vec<u64> {
    let mut counts = vec![0u64; candidates.len()];
    for t in transactions {
        for (i, c) in candidates.iter().enumerate() {
            if c.is_subset_of(t) {
                counts[i] += 1;
            }
        }
    }
    counts
}

/// Counts candidate supports with the configured back-end.
pub fn count_with(
    backend: CountingBackend,
    transactions: &[Itemset],
    candidates: &[Itemset],
) -> Vec<u64> {
    MEM_CANDIDATES.set(candidate_bytes(candidates));
    match backend {
        CountingBackend::LinearScan => {
            let _mem = ossm_obs::alloc_scope("mining.candidates");
            count_linear(transactions, candidates)
        }
        CountingBackend::HashTree => {
            // A batch of pairs counts in a pair table when the size rule
            // admits it; the tree counts every other batch.
            if let Some(counts) = crate::pairs::count_pairs(transactions, candidates) {
                return counts;
            }
            let _mem = ossm_obs::alloc_scope("mining.hashtree");
            crate::hashtree::count_hash_tree(transactions, candidates)
        }
    }
}

/// All frequent patterns of a mining run, with their exact supports.
///
/// Ordered map so iteration, equality, and debugging output are
/// deterministic across miners.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrequentPatterns {
    patterns: BTreeMap<Itemset, u64>,
}

impl FrequentPatterns {
    /// An empty result.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a frequent pattern with its support.
    ///
    /// # Panics
    /// Panics if the pattern was already recorded with a different support
    /// (two code paths disagreeing on a support is always a bug).
    pub fn insert(&mut self, pattern: Itemset, support: u64) {
        if let Some(&prev) = self.patterns.get(&pattern) {
            assert_eq!(prev, support, "conflicting supports recorded for {pattern}");
        }
        self.patterns.insert(pattern, support);
    }

    /// Number of frequent patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether no pattern is frequent.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The support of `pattern`, if frequent.
    pub fn support_of(&self, pattern: &Itemset) -> Option<u64> {
        self.patterns.get(pattern).copied()
    }

    /// Whether `pattern` is among the frequent patterns.
    pub fn contains(&self, pattern: &Itemset) -> bool {
        self.patterns.contains_key(pattern)
    }

    /// Iterates `(pattern, support)` in itemset order.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, u64)> {
        self.patterns.iter().map(|(p, &s)| (p, s))
    }

    /// The frequent patterns of size `k`.
    pub fn of_len(&self, k: usize) -> Vec<&Itemset> {
        self.patterns.keys().filter(|p| p.len() == k).collect()
    }

    /// The size of the longest frequent pattern (0 if none).
    pub fn max_len(&self) -> usize {
        self.patterns.keys().map(Itemset::len).max().unwrap_or(0)
    }

    /// Checks the downward-closure invariant: every non-empty proper subset
    /// of a frequent pattern is frequent with support ≥ the superset's.
    /// Returns the first violating (subset, superset) pair, if any.
    pub fn closure_violation(&self) -> Option<(Itemset, Itemset)> {
        for (p, &sup) in &self.patterns {
            if p.len() < 2 {
                continue;
            }
            for sub in p.proper_subsets() {
                match self.patterns.get(&sub) {
                    Some(&sub_sup) if sub_sup >= sup => {}
                    _ => return Some((sub, p.clone())),
                }
            }
        }
        None
    }
}

impl FromIterator<(Itemset, u64)> for FrequentPatterns {
    fn from_iter<I: IntoIterator<Item = (Itemset, u64)>>(iter: I) -> Self {
        let mut out = FrequentPatterns::new();
        for (p, s) in iter {
            out.insert(p, s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn count_linear_matches_manual_counts() {
        let txs = vec![set(&[0, 1, 2]), set(&[0, 2]), set(&[1]), set(&[0, 1])];
        let cands = vec![set(&[0]), set(&[0, 1]), set(&[0, 1, 2]), set(&[3])];
        assert_eq!(count_linear(&txs, &cands), vec![3, 2, 1, 0]);
        assert_eq!(count_linear(&[], &cands), vec![0, 0, 0, 0]);
        assert_eq!(count_linear(&txs, &[]), Vec::<u64>::new());
    }

    #[test]
    fn frequent_patterns_basic_ops() {
        let mut fp = FrequentPatterns::new();
        fp.insert(set(&[1]), 5);
        fp.insert(set(&[2]), 4);
        fp.insert(set(&[1, 2]), 3);
        assert_eq!(fp.len(), 3);
        assert_eq!(fp.support_of(&set(&[1, 2])), Some(3));
        assert_eq!(fp.support_of(&set(&[9])), None);
        assert_eq!(fp.max_len(), 2);
        assert_eq!(fp.of_len(1).len(), 2);
        assert!(fp.closure_violation().is_none());
    }

    #[test]
    fn closure_violation_detects_missing_subset() {
        let mut fp = FrequentPatterns::new();
        fp.insert(set(&[1, 2]), 3);
        let (sub, sup) = fp.closure_violation().expect("subset {1} missing");
        assert_eq!(sup, set(&[1, 2]));
        assert!(sub == set(&[1]) || sub == set(&[2]));
    }

    #[test]
    fn closure_violation_detects_support_inversion() {
        let mut fp = FrequentPatterns::new();
        fp.insert(set(&[1]), 2);
        fp.insert(set(&[2]), 5);
        fp.insert(set(&[1, 2]), 3); // support exceeds subset {1}'s
        assert!(fp.closure_violation().is_some());
    }

    #[test]
    #[should_panic(expected = "conflicting supports")]
    fn insert_rejects_conflicting_support() {
        let mut fp = FrequentPatterns::new();
        fp.insert(set(&[1]), 5);
        fp.insert(set(&[1]), 6);
    }

    #[test]
    fn iteration_is_ordered() {
        let fp: FrequentPatterns = [(set(&[2]), 1), (set(&[0]), 2), (set(&[0, 2]), 1)]
            .into_iter()
            .collect();
        let keys: Vec<&Itemset> = fp.iter().map(|(p, _)| p).collect();
        assert_eq!(keys, vec![&set(&[0]), &set(&[0, 2]), &set(&[2])]);
    }
}
