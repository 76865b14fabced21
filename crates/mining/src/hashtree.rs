//! The classical Apriori hash tree for candidate counting.
//!
//! Candidates of size `k` are stored in a tree whose interior nodes hash
//! the candidate's next item into a fixed fan-out; leaves hold candidate
//! lists and split when they overflow. Counting a transaction walks every
//! hash path its items can form, reaching only leaves that can contain
//! subsets of the transaction — far fewer subset tests than the linear
//! scan when the candidate set is large.
//!
//! A leaf at full depth `k` is reached only after the walk has consumed
//! `k` items of the transaction, so those path items are the one
//! `k`-subset that can match there: full-depth leaves keep their
//! candidates sorted by items and count by an exact lookup of the path,
//! with no subset test. A leaf above full depth (at most
//! `LEAF_CAPACITY` candidates) can be reached through several item
//! positions of one transaction, so its candidates carry a last-seen
//! transaction stamp and are subset-tested at most once per transaction.
//!
//! Once every candidate is inserted the tree is frozen into flat arrays:
//! each leaf becomes a contiguous run of *slots*, and slot `s` holds its
//! candidate's `k` items inline (`keys[s·k..(s+1)·k]`) next to the
//! candidate's index in the caller's slice. A lookup reads only its
//! leaf's own keys, never the caller's itemsets, and a pass counts in
//! slot order, so a leaf's counts sit together like its keys; they are
//! put back in candidate order once, when the pass ends. Full-depth and
//! partial-depth leaves number their slots separately, so a pass keeps
//! stamps for partial-depth slots only — at a typical level 2, none.
//!
//! A walk follows the transaction's items, not the candidates, so an
//! item no candidate holds would still multiply the paths it explores.
//! The tree therefore records which items are *live* (occur in some
//! candidate), and a pass walks each transaction's projection onto them:
//! every item of every candidate survives the projection, a full-depth
//! leaf still matches only its exact path, and a partial-depth leaf's
//! subset test gives the same answer on the projection as on the whole
//! transaction. A transaction left with fewer than `k` live items is not
//! walked at all. Counting work thus shrinks with the candidate set, as
//! eq. (1) pruning intends, though it still follows pairs of live items
//! in a transaction rather than candidates.

use std::ops::Range;

use ossm_data::item::is_sorted_subset;
use ossm_data::{ItemId, Itemset};

/// Fan-out of interior nodes. Sized for the paper's m = 1000 domains: with
/// a fan-out of `f`, the (at most) `k`-deep tree spreads `C_k` candidates
/// over up to `f^k` leaf cells, so pair trees at f = 64 keep collision
/// leaves to a few dozen candidates even for ~100 k candidates.
const FANOUT: usize = 64;
/// A leaf splits when it exceeds this many candidates (unless the tree is
/// already at maximum depth for the candidate size).
const LEAF_CAPACITY: usize = 24;

/// Bytes of the most recently built hash tree (interior fan-out tables,
/// the flat leaf keys and slot indices, and the candidate group it was
/// built from) — the space this back-end trades for fewer subset tests.
static MEM_HASHTREE: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.mining.hashtree");
/// Exact lookups of a hash path in a full-depth leaf.
static PATH_LOOKUPS: ossm_obs::Counter = ossm_obs::Counter::new("mining.hashtree.path_lookups");
/// Subset tests of a candidate in a partial-depth leaf (at most one per
/// candidate and transaction).
static SUBSET_TESTS: ossm_obs::Counter = ossm_obs::Counter::new("mining.hashtree.subset_tests");
/// Transaction items dropped before a walk because no candidate holds
/// them.
static ITEMS_SKIPPED: ossm_obs::Counter = ossm_obs::Counter::new("mining.hashtree.items_skipped");

#[inline]
fn bucket(item: ItemId) -> usize {
    item.index() % FANOUT
}

/// A node while candidates are inserted: leaves list candidate indices.
enum Draft {
    Interior(Vec<Option<Draft>>),
    Leaf(Vec<u32>),
}

impl Draft {
    fn new_leaf() -> Draft {
        Draft::Leaf(Vec::new())
    }
}

/// A frozen node: a leaf is a run of slots in the [`Slots`] of its depth
/// class (full or partial).
enum Node {
    Interior(Box<[Option<Node>]>),
    Leaf(Range<u32>),
}

/// Leaf candidates laid out slot by slot: slot `s` holds the items
/// `keys[s·k..(s+1)·k]` of candidate `index[s]` of the caller's slice.
#[derive(Default)]
struct Slots {
    keys: Vec<ItemId>,
    index: Vec<u32>,
}

impl Slots {
    /// Appends one leaf's candidates and returns its slot range.
    fn push_leaf(&mut self, candidates: &[Itemset], leaf: &[u32]) -> Range<u32> {
        let start = self.index.len() as u32;
        for &c in leaf {
            self.keys.extend_from_slice(candidates[c as usize].items());
        }
        self.index.extend_from_slice(leaf);
        start..self.index.len() as u32
    }

    fn bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<ItemId>()
            + self.index.len() * std::mem::size_of::<u32>()
    }
}

/// A hash tree over candidates of uniform size `k`.
pub struct HashTree {
    k: usize,
    num_candidates: usize,
    root: Node,
    /// Slots of the full-depth leaves, each leaf sorted by items.
    full: Slots,
    /// Slots of the leaves above full depth.
    partial: Slots,
    /// `live[i]`: item `i` occurs in some candidate. Items past the end
    /// occur in none.
    live: Vec<bool>,
}

impl HashTree {
    /// Builds the tree.
    ///
    /// # Panics
    /// Panics if candidates are not all of the same non-zero size, or if
    /// there are 2³² or more of them.
    pub fn build(candidates: &[Itemset]) -> Self {
        let k = candidates.first().map_or(1, Itemset::len);
        assert!(k > 0, "hash tree candidates must be non-empty itemsets");
        assert!(
            candidates.iter().all(|c| c.len() == k),
            "hash tree candidates must share one size"
        );
        let n = u32::try_from(candidates.len()).expect("hash tree candidates must fit u32 indices");
        let mut root = Draft::new_leaf();
        for idx in 0..n {
            Self::insert(&mut root, candidates, k, idx, 0);
        }
        // Nearly every slot of a pair tree is at full depth.
        let mut full = Slots {
            keys: Vec::with_capacity(candidates.len() * k),
            index: Vec::with_capacity(candidates.len()),
        };
        let mut partial = Slots::default();
        let root = Self::freeze(root, candidates, k, 0, &mut full, &mut partial);
        full.keys.shrink_to_fit();
        full.index.shrink_to_fit();
        let mut live = Vec::new();
        for item in candidates.iter().flat_map(Itemset::items) {
            if live.len() <= item.index() {
                live.resize(item.index() + 1, false);
            }
            live[item.index()] = true;
        }
        HashTree {
            k,
            num_candidates: candidates.len(),
            root,
            full,
            partial,
            live,
        }
    }

    /// Estimated resident bytes of the tree structure: fan-out tables of
    /// interior nodes, the flat leaf keys and slot indices, and the
    /// live-item mask.
    /// Deterministic for a given candidate group (insertion order is
    /// fixed).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Node>()
            + Self::node_bytes(&self.root)
            + self.full.bytes()
            + self.partial.bytes()
            + self.live.len()
    }

    fn node_bytes(node: &Node) -> usize {
        match node {
            Node::Interior(children) => {
                children.len() * std::mem::size_of::<Option<Node>>()
                    + children
                        .iter()
                        .flatten()
                        .map(Self::node_bytes)
                        .sum::<usize>()
            }
            Node::Leaf(_) => 0,
        }
    }

    fn insert(node: &mut Draft, candidates: &[Itemset], k: usize, idx: u32, depth: usize) {
        match node {
            Draft::Interior(children) => {
                let b = bucket(candidates[idx as usize].items()[depth]);
                let child = children[b].get_or_insert_with(Draft::new_leaf);
                Self::insert(child, candidates, k, idx, depth + 1);
            }
            Draft::Leaf(list) => {
                list.push(idx);
                // Split an overflowing leaf unless we have consumed all k
                // items already (then collisions must simply share a leaf).
                if list.len() > LEAF_CAPACITY && depth < k {
                    let moved = std::mem::take(list);
                    let mut children: Vec<Option<Draft>> = (0..FANOUT).map(|_| None).collect();
                    for m in moved {
                        let b = bucket(candidates[m as usize].items()[depth]);
                        let child = children[b].get_or_insert_with(Draft::new_leaf);
                        Self::insert(child, candidates, k, m, depth + 1);
                    }
                    *node = Draft::Interior(children);
                }
            }
        }
    }

    /// Lays every leaf below `draft` out in `full` or `partial`, sorting
    /// each full-depth leaf by its candidates' items — the order the path
    /// lookup in [`HashTree::visit`] searches.
    fn freeze(
        draft: Draft,
        candidates: &[Itemset],
        k: usize,
        depth: usize,
        full: &mut Slots,
        partial: &mut Slots,
    ) -> Node {
        match draft {
            Draft::Interior(children) => Node::Interior(
                children
                    .into_iter()
                    .map(|c| c.map(|c| Self::freeze(c, candidates, k, depth + 1, full, partial)))
                    .collect(),
            ),
            Draft::Leaf(mut list) if depth == k => {
                list.sort_by(|&a, &b| {
                    candidates[a as usize]
                        .items()
                        .cmp(candidates[b as usize].items())
                });
                Node::Leaf(full.push_leaf(candidates, &list))
            }
            Draft::Leaf(list) => Node::Leaf(partial.push_leaf(candidates, &list)),
        }
    }

    /// Fresh counting state for one pass of this tree over the data:
    /// zero counts, and no partial-depth slot stamped by any transaction
    /// yet.
    pub fn start_pass(&self) -> TreeCounts<'_> {
        TreeCounts {
            tree: self,
            path: Vec::with_capacity(self.k),
            live_items: Vec::new(),
            tid: 0,
            // Stamps start at u64::MAX ( != any tid).
            last_seen: vec![u64::MAX; self.partial.index.len()],
            counts: vec![0; self.num_candidates],
            path_lookups: 0,
            subset_tests: 0,
            items_skipped: 0,
        }
    }

    /// Adds each candidate's occurrences in `transactions` (sorted item
    /// slices) to `pass`, walking each transaction's live items only (see
    /// the module docs). A pass may be fed in any number of calls — one
    /// per page, say — and pays for its stamp vector only once.
    ///
    /// # Panics
    /// Panics if `pass` was started for a different tree.
    pub fn count<'t>(
        &self,
        transactions: impl IntoIterator<Item = &'t [ItemId]>,
        pass: &mut TreeCounts<'_>,
    ) {
        assert!(
            std::ptr::eq(pass.tree, self),
            "counting pass started for a different hash tree"
        );
        let mut items = std::mem::take(&mut pass.live_items);
        let mut skipped = 0;
        for t in transactions {
            // A fresh id per transaction, across calls, keeps the
            // partial-depth stamps from ever matching a new transaction.
            pass.tid += 1;
            items.clear();
            items.extend(
                t.iter()
                    .filter(|i| self.live.get(i.index()).copied().unwrap_or(false)),
            );
            skipped += (t.len() - items.len()) as u64;
            if items.len() >= self.k {
                self.visit(&self.root, &items, 0, pass);
            }
        }
        pass.live_items = items;
        pass.items_skipped += skipped;
        ITEMS_SKIPPED.add(skipped);
        PATH_LOOKUPS.add(std::mem::take(&mut pass.path_lookups));
        SUBSET_TESTS.add(std::mem::take(&mut pass.subset_tests));
    }

    /// Rearranges counts from slot order (see [`TreeCounts`]) into
    /// candidate order, in place: a second count vector would raise the
    /// pass's peak memory.
    fn candidate_order(&self, mut counts: Vec<u64>) -> Vec<u64> {
        let full = self.full.index.len();
        let candidate = |slot: usize| {
            let index = if slot < full {
                self.full.index[slot]
            } else {
                self.partial.index[slot - full]
            };
            index as usize
        };
        // Follow each cycle of the permutation, carrying the count that
        // every write displaces to its own candidate position.
        let mut moved = vec![false; counts.len()];
        for start in 0..counts.len() {
            let (mut slot, mut carry) = (start, counts[start]);
            while !moved[slot] {
                moved[slot] = true;
                slot = candidate(slot);
                std::mem::swap(&mut carry, &mut counts[slot]);
            }
        }
        counts
    }

    /// Counts the candidates below `node` that `t` contains; `pass.path`
    /// holds the items consumed to reach `node`, the last at `start − 1`.
    fn visit(&self, node: &Node, t: &[ItemId], start: usize, pass: &mut TreeCounts<'_>) {
        let k = self.k;
        match node {
            Node::Leaf(slots) if pass.path.len() == k => {
                pass.path_lookups += 1;
                // Only the path itself can match here; equal candidates
                // (duplicates in the batch) sit next to each other.
                let first = slots.start as usize;
                let keys = &self.full.keys[first * k..slots.end as usize * k];
                let path = pass.path.as_slice();
                let key = |s: usize| &keys[s * k..(s + 1) * k];
                let (mut lo, mut hi) = (0, slots.len());
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if key(mid) < path {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                for s in lo..slots.len() {
                    if key(s) != path {
                        break;
                    }
                    pass.counts[first + s] += 1;
                }
            }
            Node::Leaf(slots) => {
                for s in slots.start as usize..slots.end as usize {
                    if pass.last_seen[s] != pass.tid {
                        pass.last_seen[s] = pass.tid;
                        pass.subset_tests += 1;
                        let key = &self.partial.keys[s * k..(s + 1) * k];
                        if is_sorted_subset(key, t) {
                            pass.counts[self.full.index.len() + s] += 1;
                        }
                    }
                }
            }
            Node::Interior(children) => {
                // Descend once per usable item position: one that leaves
                // the k − depth − 1 items a candidate still needs after it.
                let end = t.len() + pass.path.len() + 1 - k;
                for (j, &item) in t[..end].iter().enumerate().skip(start) {
                    if let Some(child) = &children[bucket(item)] {
                        pass.path.push(item);
                        self.visit(child, t, j + 1, pass);
                        pass.path.pop();
                    }
                }
            }
        }
    }
}

/// The state of one counting pass of a [`HashTree`] (from
/// [`HashTree::start_pass`]): the counts so far, plus what the walks
/// need across transactions — a running transaction id and each
/// partial-depth slot's stamp of the last transaction that tested it, so
/// convergent hash paths count it once.
pub struct TreeCounts<'a> {
    tree: &'a HashTree,
    /// Transaction items consumed on the way to the current node.
    path: Vec<ItemId>,
    /// The live items of the transaction being walked.
    live_items: Vec<ItemId>,
    /// Id of the transaction being walked.
    tid: u64,
    last_seen: Vec<u64>,
    /// Counts in slot order — full-depth slots, then partial-depth ones —
    /// so a leaf's counts sit together like its keys.
    counts: Vec<u64>,
    /// Work done since the last flush into the obs counters.
    path_lookups: u64,
    subset_tests: u64,
    /// Transaction items dropped as dead over the whole pass.
    items_skipped: u64,
}

impl TreeCounts<'_> {
    /// Transaction items this pass dropped because no candidate holds
    /// them (summed into `mining.hashtree.items_skipped` as it goes).
    pub fn items_skipped(&self) -> u64 {
        self.items_skipped
    }

    /// The finished counts, in candidate order.
    pub fn into_counts(self) -> Vec<u64> {
        self.tree.candidate_order(self.counts)
    }
}

/// Counts candidate supports with a hash tree, grouping mixed candidate
/// sizes into one tree per size. The drop-in alternative to
/// [`crate::support::count_linear`].
pub fn count_hash_tree(transactions: &[Itemset], candidates: &[Itemset]) -> Vec<u64> {
    let Some(first) = candidates.first() else {
        return Vec::new();
    };
    // Every Apriori and DHP level is one size: index the caller's slice.
    if !first.is_empty() && candidates.iter().all(|c| c.len() == first.len()) {
        return count_group(transactions, candidates);
    }
    let mut counts = vec![0u64; candidates.len()];
    // Group candidate indices by size.
    let mut by_len: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, c) in candidates.iter().enumerate() {
        by_len.entry(c.len()).or_default().push(i);
    }
    for (len, idxs) in by_len {
        if len == 0 {
            // The empty itemset occurs in every transaction.
            for &i in &idxs {
                counts[i] = transactions.len() as u64;
            }
            continue;
        }
        let group: Vec<Itemset> = idxs.iter().map(|&i| candidates[i].clone()).collect();
        for (&i, c) in idxs.iter().zip(count_group(transactions, &group)) {
            counts[i] = c;
        }
    }
    counts
}

/// Counts a non-empty group of candidates of one non-zero size.
fn count_group(transactions: &[Itemset], group: &[Itemset]) -> Vec<u64> {
    let tree = HashTree::build(group);
    MEM_HASHTREE.set(tree.memory_bytes() as u64 + crate::support::candidate_bytes(group));
    // One shared tree, transaction-chunked counting: each chunk runs a
    // pass of its own, so chunks are independent, and the partial
    // vectors merge by element-wise sum — identical at any thread count.
    // They merge in slot order, so only the sum is rearranged.
    let partials = ossm_par::map_chunks(transactions.len(), crate::support::MIN_TX_CHUNK, |r| {
        let mut pass = tree.start_pass();
        tree.count(transactions[r].iter().map(Itemset::items), &mut pass);
        pass.counts
    });
    if partials.is_empty() {
        vec![0u64; group.len()]
    } else {
        tree.candidate_order(ossm_par::sum_counts(partials))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::count_linear;
    use ossm_data::gen::QuestConfig;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn counts_simple_pairs() {
        let txs = [set(&[0, 1, 2]), set(&[0, 2]), set(&[1, 2]), set(&[0, 1])];
        let cands = vec![set(&[0, 1]), set(&[0, 2]), set(&[1, 2]), set(&[0, 3])];
        let tree = HashTree::build(&cands);
        let mut pass = tree.start_pass();
        tree.count(txs.iter().map(Itemset::items), &mut pass);
        assert_eq!(pass.into_counts(), vec![2, 2, 2, 0]);
    }

    #[test]
    fn matches_linear_scan_on_generated_data() {
        let d = QuestConfig {
            num_transactions: 400,
            num_items: 60,
            ..QuestConfig::small()
        }
        .generate();
        // All pairs among items 0..40 → forces leaf splits and collisions.
        let mut cands = Vec::new();
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                cands.push(set(&[a, b]));
            }
        }
        assert_eq!(
            count_hash_tree(d.transactions(), &cands),
            count_linear(d.transactions(), &cands)
        );
    }

    #[test]
    fn matches_linear_scan_on_triples() {
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 25,
            ..QuestConfig::small()
        }
        .generate();
        let mut cands = Vec::new();
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                for c in (b + 1)..12 {
                    cands.push(set(&[a, b, c]));
                }
            }
        }
        assert_eq!(
            count_hash_tree(d.transactions(), &cands),
            count_linear(d.transactions(), &cands)
        );
    }

    #[test]
    fn handles_mixed_sizes_and_empty_inputs() {
        let txs = vec![set(&[0, 1]), set(&[1, 2])];
        let cands = vec![set(&[1]), set(&[0, 1]), Itemset::empty()];
        assert_eq!(count_hash_tree(&txs, &cands), vec![2, 1, 2]);
        assert_eq!(count_hash_tree(&txs, &[]), Vec::<u64>::new());
        assert_eq!(count_hash_tree(&[], &cands), vec![0, 0, 0]);
    }

    #[test]
    fn short_transactions_are_skipped_cheaply() {
        let txs = vec![set(&[0]), set(&[1])];
        let cands = vec![set(&[0, 1])];
        assert_eq!(count_hash_tree(&txs, &cands), vec![0]);
    }

    #[test]
    fn no_double_counting_on_convergent_paths() {
        // Items 0 and 64 share a bucket (64 % FANOUT == 0): a transaction
        // holding both reaches the same child twice. The stamp must keep
        // the count at 1.
        let txs = vec![set(&[0, 64, 128])];
        let mut cands = vec![set(&[0, 64]), set(&[0, 128]), set(&[64, 128])];
        // Pad to force a split at the root so interior traversal happens.
        for i in 0..40u32 {
            cands.push(set(&[300 + i, 400 + i]));
        }
        let counts = count_hash_tree(&txs, &cands);
        assert_eq!(&counts[..3], &[1, 1, 1]);
    }

    /// Candidates of sizes 1–3 over items 1 + 64·i, which all hash to
    /// bucket 1, so every candidate of one size shares a hash path down
    /// to a crowded full-depth leaf; every seventh candidate appears
    /// twice. The transactions are windows of lengths 0..=5 over those
    /// items, some shorter than the candidates, some holding a
    /// non-colliding item too.
    fn colliding_workload() -> (Vec<Itemset>, Vec<Itemset>) {
        let item = |i: u32| 1 + 64 * i;
        let mut cands: Vec<Itemset> = (0..30).map(|a| set(&[item(a)])).collect();
        for a in 0..10 {
            for b in (a + 1)..10 {
                cands.push(set(&[item(a), item(b)]));
                for c in (b + 1)..10 {
                    cands.push(set(&[item(a), item(b), item(c)]));
                }
            }
        }
        let duplicates: Vec<Itemset> = cands.iter().step_by(7).cloned().collect();
        cands.extend(duplicates);
        let txs: Vec<Itemset> = (0..12u32)
            .flat_map(|s| {
                (0..=5u32).map(move |len| {
                    let extra = (len % 2 == 1).then_some(2 + s);
                    Itemset::new((s..s + len).map(|i| item(i % 12)).chain(extra))
                })
            })
            .collect();
        (cands, txs)
    }

    #[test]
    fn bucket_collisions_match_linear_scan() {
        let (cands, txs) = colliding_workload();
        for k in 1..=3 {
            let group: Vec<Itemset> = cands.iter().filter(|c| c.len() == k).cloned().collect();
            assert_eq!(
                count_hash_tree(&txs, &group),
                count_linear(&txs, &group),
                "k = {k}"
            );
        }
        assert_eq!(count_hash_tree(&txs, &cands), count_linear(&txs, &cands));
    }

    #[test]
    fn a_pass_fed_page_by_page_matches_one_shot_counting() {
        let (cands, txs) = colliding_workload();
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 70,
            ..QuestConfig::small()
        }
        .generate();
        let mut pairs: Vec<Itemset> = (0..30u32)
            .flat_map(|a| ((a + 1)..30).map(move |b| set(&[a, b])))
            .collect();
        pairs.extend(pairs.clone().into_iter().step_by(5));
        for (txs, cands) in [(&txs, &cands), (&d.transactions().to_vec(), &pairs)] {
            for k in 1..=3 {
                let group: Vec<Itemset> = cands.iter().filter(|c| c.len() == k).cloned().collect();
                if group.is_empty() {
                    continue;
                }
                let tree = HashTree::build(&group);
                // Pages of 1, 3, 7 and 64 transactions, plus empty pages:
                // stamps carried across calls must never match a
                // transaction of a later page.
                for page in [1, 3, 7, 64] {
                    let mut pass = tree.start_pass();
                    for chunk in txs.chunks(page) {
                        tree.count(chunk.iter().map(Itemset::items), &mut pass);
                        tree.count(std::iter::empty(), &mut pass);
                    }
                    assert_eq!(
                        pass.into_counts(),
                        count_hash_tree(txs, &group),
                        "k = {k}, {page} transactions per page"
                    );
                }
            }
        }
    }

    /// Pair candidates at level-2 scale: every pair over 460 of 600
    /// items (105,570, about 25 per full-depth cell of the 64 × 64 grid)
    /// plus every eleventh pair again, over transactions of those items.
    fn c2_scale_workload() -> (Vec<Itemset>, Vec<Itemset>) {
        let d = QuestConfig {
            num_transactions: 1500,
            num_items: 600,
            ..QuestConfig::small()
        }
        .generate();
        let mut pairs: Vec<Itemset> = (0..460u32)
            .flat_map(|a| ((a + 1)..460).map(move |b| set(&[a, b])))
            .collect();
        pairs.extend(pairs.clone().into_iter().step_by(11));
        (pairs, d.transactions().to_vec())
    }

    #[test]
    fn c2_scale_pairs_match_the_bitmap_backend() {
        let (pairs, txs) = c2_scale_workload();
        assert!(pairs.len() >= 100_000);
        let tree = HashTree::build(&pairs);
        assert!(tree.partial.index.is_empty(), "every leaf is at full depth");
        let counts = count_hash_tree(&txs, &pairs);
        assert_eq!(counts, crate::bitmap::count_bitmap(&txs, &pairs));
        assert!(counts.iter().any(|&c| c > 0));
    }

    /// Tests that mutate the process-wide thread override must not
    /// interleave.
    fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counts_are_identical_at_any_thread_count() {
        let _guard = override_lock();
        let (pairs, txs) = c2_scale_workload();
        let (mixed, colliding_txs) = colliding_workload();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            ossm_par::set_threads(Some(threads));
            runs.push((
                count_hash_tree(&txs, &pairs),
                count_hash_tree(&colliding_txs, &mixed),
            ));
        }
        ossm_par::set_threads(None);
        assert!(runs[0] == runs[1] && runs[1] == runs[2]);
    }

    #[test]
    fn full_depth_trees_allocate_no_stamps() {
        // All pairs over 0..100: every root bucket holds more than
        // LEAF_CAPACITY pairs, so every leaf sits at depth 2.
        let pairs: Vec<Itemset> = (0..100u32)
            .flat_map(|a| ((a + 1)..100).map(move |b| set(&[a, b])))
            .collect();
        let tree = HashTree::build(&pairs);
        assert!(tree.start_pass().last_seen.is_empty());
        assert_eq!(tree.full.index.len(), pairs.len());
        // A small group stays one partial-depth root leaf, stamped per slot.
        let small = HashTree::build(&pairs[..LEAF_CAPACITY]);
        assert_eq!(small.start_pass().last_seen.len(), LEAF_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "share one size")]
    fn build_rejects_mixed_sizes() {
        HashTree::build(&[set(&[1]), set(&[1, 2])]);
    }
}
