//! Frequency-counting back-ends, the one counting pass, and the shared
//! result type.
//!
//! Counting candidate supports against the transaction collection is "one
//! of the key operations in data mining algorithms" — the operation the
//! OSSM exists to reduce. [`count_with`] dispatches on a
//! [`CountingBackend`]:
//!
//! * [`count_linear`] — for each transaction, test every candidate by a
//!   sorted-subset merge: exactly proportional to the candidates counted,
//!   as the paper's C implementation was, and the reference the other
//!   structures are tested against.
//! * the hash-tree back-end, which counts through `count`, the dispatch
//!   of every level-wise count in memory and out of core: a batch of
//!   pairs counts in a pair table over its live items (`crate::pairs`)
//!   when the table's size rule admits it, every other batch on the hash
//!   tree of [`crate::hashtree`].
//!
//! Every such count is one pass of a `PassSource` over a counting state
//! (a `PassState`: pair-table cells, a tree's counts, DHP's buckets). In
//! memory the source is the transaction slice: one state per chunk of at
//! least `MIN_TX_CHUNK` transactions runs on the `ossm_par` workers, and
//! the states add up in chunk order, so the result is the same at any
//! thread count. Out of core it is the page file, walked through the
//! buffer pool under the batch's page mask with one state (`crate::ooc`):
//! the resident case is the pool case with nothing to fetch.
//!
//! [`FrequentPatterns`] is the result type shared by all miners, so the
//! cross-miner agreement tests can compare outputs structurally.

use std::collections::BTreeMap;
use std::io;

use ossm_data::{ItemId, Itemset};

use crate::levelwise::Batch;
use crate::pairs::PairTable;

/// Minimum transactions per parallel counting chunk: below this the merge
/// overhead exceeds the counting work, so the scan stays on one thread.
pub(crate) const MIN_TX_CHUNK: usize = 256;

/// Bytes of candidates resident in the current counting level — the
/// memory half of the speed-vs-space tradeoff among the back-ends, which
/// the paper's counting-cost model ignores. A candidate list costs its
/// itemsets; a level 2 counted in the pair table costs its triangle, one
/// flag byte per pair of L1 and one id per item.
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

/// Counts candidate supports with the configured back-end: on the hash
/// tree through `count`, on the linear scan by [`count_linear`].
pub fn count_with(
    backend: CountingBackend,
    mut transactions: &[Itemset],
    candidates: &[Itemset],
) -> Vec<u64> {
    if backend == CountingBackend::HashTree {
        return count(Batch::Sets(candidates), &mut transactions)
            .expect("in-memory counting does no I/O");
    }
    MEM_CANDIDATES.set(candidate_bytes(candidates));
    let _mem = ossm_obs::alloc_scope("mining.candidates");
    count_linear(transactions, candidates)
}

/// The counting state of one pass, fed transactions a slice at a time.
pub(crate) trait PassState: Send {
    /// Adds `transactions` (sorted item slices) to the state.
    fn feed<'t>(&mut self, transactions: impl IntoIterator<Item = &'t [ItemId]>);
    /// Adds the state of a later part of the same pass.
    fn add(&mut self, later: Self);
}

/// Where a counting pass reads its transactions (see the module docs).
pub(crate) trait PassSource {
    /// The transactions one pass can visit, so at most what a state
    /// counts.
    fn transactions(&self) -> u64;
    /// The pages a pass counting `batch` must read, or `None` for all.
    fn pages_for(&self, _batch: Batch<'_>) -> Option<Vec<bool>> {
        None
    }
    /// One pass over the pages `keep` marks (all when `None`), with
    /// states begun by `start`; returns their sum.
    fn pass<S: PassState>(
        &mut self,
        keep: Option<&[bool]>,
        start: impl Fn() -> S + Sync,
    ) -> io::Result<S>;
}

impl PassSource for &[Itemset] {
    fn transactions(&self) -> u64 {
        self.len() as u64
    }

    fn pass<S: PassState>(
        &mut self,
        _: Option<&[bool]>,
        start: impl Fn() -> S + Sync,
    ) -> io::Result<S> {
        let transactions = *self;
        let states = ossm_par::map_chunks(transactions.len(), MIN_TX_CHUNK, |r| {
            let mut state = start();
            state.feed(transactions[r].iter().map(Itemset::items));
            state
        });
        let mut states = states.into_iter();
        let mut total = states.next().unwrap_or_else(&start);
        states.for_each(|later| total.add(later));
        Ok(total)
    }
}

/// Counts `batch` in one pass of `source` (one per candidate size for a
/// mixed list), in the batch's order. The one place that picks the
/// structure: a batch of pairs counts in a pair table when the table's
/// size rule admits it, in `u32` cells when the source's transactions
/// fit a `u32`; every other batch, and a batch the rule declines, counts
/// on the hash tree.
pub(crate) fn count(batch: Batch<'_>, source: &mut impl PassSource) -> io::Result<Vec<u64>> {
    let keep = source.pages_for(batch);
    let keep = keep.as_deref();
    MEM_CANDIDATES.set(match batch {
        Batch::Pairs(triangle) => triangle.memory_bytes(),
        Batch::Sets(candidates) => candidate_bytes(candidates),
    });
    if let Some(table) = PairTable::for_batch(batch) {
        return Ok(if u32::try_from(source.transactions()).is_ok() {
            table.counts(batch, &source.pass(keep, || table.start_pass::<u32>())?)
        } else {
            table.counts(batch, &source.pass(keep, || table.start_pass::<u64>())?)
        });
    }
    let candidates = batch.list();
    MEM_CANDIDATES.set(candidate_bytes(&candidates));
    let _mem = ossm_obs::alloc_scope("mining.hashtree");
    crate::hashtree::count_groups(&candidates, keep, source)
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

    /// Rank maps built on this thread so far.
    fn built() -> usize {
        crate::pairs::tests::BUILT.with(std::cell::Cell::get)
    }

    #[test]
    fn a_declined_triangle_builds_one_table_and_counts_on_the_tree() {
        // 70 disjoint pairs {2i, 2i + 1}, each in 3 transactions, and a
        // triangle over their 140 items flagging just those pairs:
        // C(140, 2) = 9730 cells break the size rule.
        let txs: Vec<Itemset> = (0..70u32)
            .flat_map(|i| std::iter::repeat(set(&[2 * i, 2 * i + 1])).take(3))
            .collect();
        let items: Vec<ItemId> = (0..140u32).map(ItemId).collect();
        let triangle = crate::pairs::Triangle::with(items, |a, b| a.0 % 2 == 0 && b.0 == a.0 + 1);
        let expected = count_linear(&txs, &triangle.itemsets());
        assert_eq!(expected, [3; 70]);
        for threads in [1, 2, 8] {
            ossm_par::set_threads(Some(threads));
            let before = built();
            let counts = count(Batch::Pairs(&triangle), &mut &txs[..]).expect("no I/O");
            assert_eq!(counts, expected, "{threads} threads");
            assert_eq!(built() - before, 1, "{threads} threads");
        }
        ossm_par::set_threads(None);

        // DHP's buckets admit about those pairs, in memory and out of
        // core: its level 2 is the one pair batch, and it is declined.
        let d = ossm_data::Dataset::new(140, txs);
        let before = built();
        let mem = crate::Dhp::new(1 << 16).mine(&d, 3);
        assert_eq!(built() - before, 1, "in memory");
        let dir = std::env::temp_dir().join("ossm-support-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("declined-{}.pages", std::process::id()));
        ossm_data::disk::write_paged(&path, &d, 256).expect("write");
        let mut store = ossm_data::disk::DiskStore::open(&path, 2).expect("open");
        let before = built();
        let disk = crate::StreamingDhp::new(1 << 16)
            .mine(&mut store, 3, None)
            .expect("mine");
        assert_eq!(built() - before, 1, "out of core");
        std::fs::remove_file(&path).ok();
        assert_eq!(mem.patterns.len(), 140 + 70);
        assert_eq!(disk.patterns, mem.patterns);
        assert_eq!(disk.metrics.levels, mem.metrics.levels);
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
