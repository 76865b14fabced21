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
/// leaf lists, and the candidate group it indexes) — the space this back-end
/// trades for fewer subset tests.
static MEM_HASHTREE: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.mining.hashtree");

#[inline]
fn bucket(item: ItemId) -> usize {
    item.index() % FANOUT
}

enum Node {
    Interior(Vec<Option<Node>>),
    Leaf(Vec<usize>),
}

impl Node {
    fn new_leaf() -> Node {
        Node::Leaf(Vec::new())
    }
}

/// A hash tree over candidates of uniform size `k`.
pub struct HashTree<'a> {
    candidates: &'a [Itemset],
    k: usize,
    root: Node,
}

impl<'a> HashTree<'a> {
    /// Builds the tree.
    ///
    /// # Panics
    /// Panics if candidates are not all of the same non-zero size.
    pub fn build(candidates: &'a [Itemset]) -> Self {
        let k = candidates.first().map_or(1, Itemset::len);
        assert!(k > 0, "hash tree candidates must be non-empty itemsets");
        assert!(
            candidates.iter().all(|c| c.len() == k),
            "hash tree candidates must share one size"
        );
        let mut tree = HashTree {
            candidates,
            k,
            root: Node::new_leaf(),
        };
        for idx in 0..candidates.len() {
            Self::insert(&mut tree.root, candidates, k, idx, 0);
        }
        Self::sort_full_leaves(&mut tree.root, candidates, k, 0);
        tree
    }

    /// Estimated resident bytes of the tree structure: fan-out tables of
    /// interior nodes plus leaf candidate lists. Deterministic for a
    /// given candidate group (insertion order is fixed).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Node>() + Self::node_bytes(&self.root)
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
            Node::Leaf(list) => list.len() * std::mem::size_of::<usize>(),
        }
    }

    fn insert(node: &mut Node, candidates: &[Itemset], k: usize, idx: usize, depth: usize) {
        match node {
            Node::Interior(children) => {
                let b = bucket(candidates[idx].items()[depth]);
                let child = children[b].get_or_insert_with(Node::new_leaf);
                Self::insert(child, candidates, k, idx, depth + 1);
            }
            Node::Leaf(list) => {
                list.push(idx);
                // Split an overflowing leaf unless we have consumed all k
                // items already (then collisions must simply share a leaf).
                if list.len() > LEAF_CAPACITY && depth < k {
                    let moved = std::mem::take(list);
                    let mut children: Vec<Option<Node>> = (0..FANOUT).map(|_| None).collect();
                    for m in moved {
                        let b = bucket(candidates[m].items()[depth]);
                        let child = children[b].get_or_insert_with(Node::new_leaf);
                        Self::insert(child, candidates, k, m, depth + 1);
                    }
                    *node = Node::Interior(children);
                }
            }
        }
    }

    /// Sorts every full-depth leaf's list by its candidates' items, the
    /// order the path lookup in [`HashTree::visit`] searches.
    fn sort_full_leaves(node: &mut Node, candidates: &[Itemset], k: usize, depth: usize) {
        match node {
            Node::Interior(children) => {
                for child in children.iter_mut().flatten() {
                    Self::sort_full_leaves(child, candidates, k, depth + 1);
                }
            }
            Node::Leaf(list) if depth == k => {
                list.sort_by(|&a, &b| candidates[a].items().cmp(candidates[b].items()));
            }
            Node::Leaf(_) => {}
        }
    }

    /// Fresh counting state for one pass of this tree over the data:
    /// zero counts, and no candidate stamped by any transaction yet.
    pub fn start_pass(&self) -> TreeCounts {
        TreeCounts {
            path: Vec::with_capacity(self.k),
            tid: 0,
            // Stamps start at u64::MAX ( != any tid).
            last_seen: vec![u64::MAX; self.candidates.len()],
            counts: vec![0; self.candidates.len()],
        }
    }

    /// Adds each candidate's occurrences in `transactions` (sorted item
    /// slices) to `pass`. A pass may be fed in any number of calls — one
    /// per page, say — and pays for its stamp vector only once.
    ///
    /// # Panics
    /// Panics if `pass` was started for a tree over a different number
    /// of candidates.
    pub fn count<'t>(
        &self,
        transactions: impl IntoIterator<Item = &'t [ItemId]>,
        pass: &mut TreeCounts,
    ) {
        assert_eq!(pass.counts.len(), self.candidates.len());
        for t in transactions {
            // A fresh id per transaction, across calls, keeps the
            // partial-depth stamps from ever matching a new transaction.
            pass.tid += 1;
            if t.len() >= self.k {
                self.visit(&self.root, t, 0, pass);
            }
        }
    }

    /// Counts the candidates below `node` that `t` contains; `pass.path`
    /// holds the items consumed to reach `node`, the last at `start − 1`.
    fn visit(&self, node: &Node, t: &[ItemId], start: usize, pass: &mut TreeCounts) {
        match node {
            Node::Leaf(list) if pass.path.len() == self.k => {
                // Only the path itself can match here; equal candidates
                // (duplicates in the batch) sit next to each other.
                let path = pass.path.as_slice();
                let first = list.partition_point(|&idx| self.candidates[idx].items() < path);
                for &idx in &list[first..] {
                    if self.candidates[idx].items() != path {
                        break;
                    }
                    pass.counts[idx] += 1;
                }
            }
            Node::Leaf(list) => {
                for &idx in list {
                    if pass.last_seen[idx] != pass.tid {
                        pass.last_seen[idx] = pass.tid;
                        if self.candidates[idx].is_subset_of_slice(t) {
                            pass.counts[idx] += 1;
                        }
                    }
                }
            }
            Node::Interior(children) => {
                // Descend once per usable item position: one that leaves
                // the k − depth − 1 items a candidate still needs after it.
                let end = t.len() + pass.path.len() + 1 - self.k;
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
/// [`HashTree::start_pass`]): the candidates' counts so far, plus what
/// the walks need across transactions — a running transaction id and
/// each candidate's stamp of the last transaction that tested it in a
/// partial-depth leaf, so convergent hash paths count it once.
pub struct TreeCounts {
    /// Transaction items consumed on the way to the current node.
    path: Vec<ItemId>,
    /// Id of the transaction being walked.
    tid: u64,
    last_seen: Vec<u64>,
    counts: Vec<u64>,
}

impl TreeCounts {
    /// The finished counts, in candidate order.
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
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
    let partials = ossm_par::map_chunks(transactions.len(), crate::support::MIN_TX_CHUNK, |r| {
        let mut pass = tree.start_pass();
        tree.count(transactions[r].iter().map(Itemset::items), &mut pass);
        pass.into_counts()
    });
    if partials.is_empty() {
        vec![0u64; group.len()]
    } else {
        ossm_par::sum_counts(partials)
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

    #[test]
    #[should_panic(expected = "share one size")]
    fn build_rejects_mixed_sizes() {
        HashTree::build(&[set(&[1]), set(&[1, 2])]);
    }
}
