//! Level-2 counting in a table with one counter per pair of live items.
//!
//! Level 2's candidates are pairs of frequent items, so there are at most
//! `C(|L1|, 2)` of them (the tight bound of Geerts, Goethals and Van den
//! Bussche). A table with one cell per pair of the *live* items — those
//! some candidate holds — is therefore never larger than Apriori's own
//! C2, and counting a transaction is `C(n, 2)` increments over its `n`
//! live items, with no hash walk and no subset test.
//!
//! The live items are ranked in item order, so a sorted transaction
//! projects to increasing ranks. The table is upper-triangular: row `r`
//! holds the pairs `(r, s)` with `s > r`, and starts at cell
//! `r·(2L − r − 1)/2` for `L` live items. A candidate's count is read
//! back from its own cell once the pass ends.
//!
//! The item → rank map is built once per batch and shared; each counting
//! pass owns its cells. Out of core one pass is fed a page at a time in
//! `u64` cells. In memory, [`count_pairs`] runs one pass per transaction
//! chunk through `ossm_par` in `u32` cells — a cell counts at most its
//! chunk's transactions — and adds each candidate's cells up in `u64`,
//! so the counts are identical at any thread count.
//!
//! When eq. (1) leaves few candidates over many live items, most cells
//! would count pairs no candidate names; the size rule declines such a
//! batch, and the caller counts it with the hash tree instead.
//!
//! The level-wise miners hand level 2 over as a [`Triangle`]: one flag
//! per pair of the frequent items, in the same upper-triangular row
//! order. A table is built straight from its flags — the live items are
//! the items of flagged pairs, so the size rule and the increments are
//! those of the equivalent candidate list — and the counts are read back
//! in row order, with no [`Itemset`] per pair. [`PairTable::build`] keeps
//! taking a list, for `count_with`'s public entry.

use ossm_data::{ItemId, Itemset};

use crate::filter::CandidateFilter;

/// A batch gets a table when its `C(L, 2)` cells are at most this many
/// per candidate: at 8 B a cell, 4 cells are no more than the ≥ 32 B
/// each candidate [`Itemset`] already occupies.
const CELLS_PER_CANDIDATE: usize = 4;
/// …or at most this many cells in all (64 KiB): small live-item sets,
/// such as those DHP's bucket test admits, count in a table however
/// few candidates they carry.
const MIN_CELLS: usize = 8192;

/// Rank of an item no candidate holds.
const DEAD: u32 = u32::MAX;

/// Bytes of the most recently started pair-table pass: its cells and the
/// batch's item → rank map.
static MEM_PAIR_TABLE: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.mining.pair_table");
/// Cells incremented: one per pair of live items in a counted
/// transaction.
static INCREMENTS: ossm_obs::Counter = ossm_obs::Counter::new("mining.pairs.increments");

/// First cell of row `r` in the upper-triangular table over `live`
/// ranks: rows `0..r` hold `(L−1) + (L−2) + … + (L−r)` cells.
fn row_start(r: usize, live: usize) -> usize {
    r * (2 * live - r - 1) / 2
}

/// The cell of the rank pair `a < b`.
fn cell(a: usize, b: usize, live: usize) -> usize {
    row_start(a, live) + (b - a - 1)
}

/// Level 2 as a triangle over the frequent items: one flag per pair of
/// `items`, in the row order of [`cell`] (the order Apriori's join emits
/// C2 in). Generation sets the flags of the candidate pairs, the filter
/// clears those eq. (1) discharges, and what stays set is counted — no
/// [`Itemset`] per pair.
pub(crate) struct Triangle {
    /// The frequent items, in item order.
    items: Vec<ItemId>,
    /// `flags[cell(x, y, |items|)]`: the pair `(items[x], items[y])` is a
    /// candidate.
    flags: Vec<bool>,
}

impl Triangle {
    /// Every pair of `items` (in item order, distinct): Apriori's C2.
    pub(crate) fn all(items: Vec<ItemId>) -> Self {
        let n = items.len();
        Triangle {
            items,
            flags: vec![true; n * n.saturating_sub(1) / 2],
        }
    }

    /// The pairs `(a, b)` of `items` (in item order, distinct) for which
    /// `keep(a, b)` holds.
    pub(crate) fn with(items: Vec<ItemId>, mut keep: impl FnMut(ItemId, ItemId) -> bool) -> Self {
        let flags = all_pairs(&items).map(|[a, b]| keep(a, b)).collect();
        Triangle { items, flags }
    }

    /// The number of flagged pairs.
    pub(crate) fn len(&self) -> usize {
        self.flags.iter().filter(|&&f| f).count()
    }

    /// The flagged pairs, in row order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = [ItemId; 2]> + '_ {
        all_pairs(&self.items)
            .zip(&self.flags)
            .filter_map(|(pair, &flagged)| flagged.then_some(pair))
    }

    /// Runs `filter` over the flagged pairs in one batch
    /// ([`CandidateFilter::judge_pairs`]), clearing the flag of every pair
    /// it discharges; `bounds` receives the bounds of the pairs it admits
    /// as that method describes.
    pub(crate) fn judge(
        &mut self,
        filter: &dyn CandidateFilter,
        min_support: u64,
        bounds: &mut Vec<u64>,
    ) {
        filter.judge_pairs(&self.items, min_support, &mut self.flags, bounds);
    }

    /// The flagged pairs as a candidate list, for a structure that counts
    /// lists: the linear scan, and the hash tree when the pair table's
    /// size rule declines the batch.
    pub(crate) fn itemsets(&self) -> Vec<Itemset> {
        self.pairs()
            .map(|pair| Itemset::from_sorted(pair.to_vec()))
            .collect()
    }

    /// Bytes of the triangle: a flag per pair and an id per item.
    pub(crate) fn memory_bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.flags[..]) + std::mem::size_of_val(&self.items[..])) as u64
    }
}

/// Every pair of `items`, in row order.
pub(crate) fn all_pairs(items: &[ItemId]) -> impl Iterator<Item = [ItemId; 2]> + '_ {
    items
        .iter()
        .enumerate()
        .flat_map(move |(x, &a)| items[x + 1..].iter().map(move |&b| [a, b]))
}

/// A pair-table cell: a counter wide enough for the transactions of the
/// pass that owns it.
pub(crate) trait Cell: Copy + Default + Into<u64> + Send {
    fn incr(&mut self);
}

impl Cell for u32 {
    #[inline]
    fn incr(&mut self) {
        *self += 1;
    }
}

impl Cell for u64 {
    #[inline]
    fn incr(&mut self) {
        *self += 1;
    }
}

/// The live items of a batch of pair candidates, ranked: the shared half
/// of a pair table.
pub(crate) struct PairTable {
    /// `rank[i]`: item `i`'s rank among the live items, or [`DEAD`].
    /// Items past the end are dead.
    rank: Vec<u32>,
    live: usize,
}

/// One counting pass of a [`PairTable`]: a cell per pair of live items.
pub(crate) struct PairPass<C> {
    cells: Vec<C>,
    /// The live ranks of the transaction being counted.
    ranks: Vec<u32>,
}

impl PairTable {
    /// The table for a batch of pair `candidates`, or `None` when the
    /// batch's live items would need more than
    /// `max(CELLS_PER_CANDIDATE·|candidates|, MIN_CELLS)` cells.
    ///
    /// # Panics
    /// Panics if a candidate is not a pair.
    pub(crate) fn build(candidates: &[Itemset]) -> Option<Self> {
        let pairs = candidates.iter().map(|c| match *c.items() {
            [a, b] => [a, b],
            _ => panic!("a pair table counts pairs"),
        });
        Self::over(pairs, candidates.len())
    }

    /// The table for the flagged pairs of `triangle`, under the same size
    /// rule: its live items are the items of flagged pairs.
    pub(crate) fn for_triangle(triangle: &Triangle) -> Option<Self> {
        Self::over(triangle.pairs(), triangle.len())
    }

    /// The table over the items of `pairs`, a batch of `candidates`
    /// pairs, if the size rule admits it.
    fn over(pairs: impl Iterator<Item = [ItemId; 2]>, candidates: usize) -> Option<Self> {
        let _mem = ossm_obs::alloc_scope("mining.pair_table");
        let mut rank = Vec::new();
        for item in pairs.flatten() {
            if rank.len() <= item.index() {
                rank.resize(item.index() + 1, DEAD);
            }
            rank[item.index()] = 0;
        }
        let mut live = 0;
        for r in rank.iter_mut().filter(|r| **r != DEAD) {
            *r = live;
            live += 1;
        }
        let table = PairTable {
            rank,
            live: live as usize,
        };
        (table.size() <= (CELLS_PER_CANDIDATE * candidates).max(MIN_CELLS)).then_some(table)
    }

    /// Cells per pass: `C(L, 2)`.
    fn size(&self) -> usize {
        self.live * self.live.saturating_sub(1) / 2
    }

    /// A zeroed pass.
    pub(crate) fn start_pass<C: Cell>(&self) -> PairPass<C> {
        let _mem = ossm_obs::alloc_scope("mining.pair_table");
        let cells = vec![C::default(); self.size()];
        MEM_PAIR_TABLE.set(
            (std::mem::size_of_val(&cells[..]) + std::mem::size_of_val(&self.rank[..])) as u64,
        );
        PairPass {
            cells,
            ranks: Vec::new(),
        }
    }

    /// Adds every pair of live items in each of `transactions` (sorted
    /// item slices) to `pass`. A pass may be fed in any number of calls —
    /// one per page, say.
    pub(crate) fn count<'t, C: Cell>(
        &self,
        transactions: impl IntoIterator<Item = &'t [ItemId]>,
        pass: &mut PairPass<C>,
    ) {
        let live = self.live;
        let mut increments = 0u64;
        for t in transactions {
            pass.ranks.clear();
            pass.ranks.extend(
                t.iter()
                    .filter_map(|i| self.rank.get(i.index()).copied())
                    .filter(|&r| r != DEAD),
            );
            let n = pass.ranks.len();
            if n < 2 {
                continue;
            }
            increments += (n * (n - 1) / 2) as u64;
            for (j, &a) in pass.ranks.iter().enumerate() {
                let a = a as usize;
                let start = row_start(a, live);
                let row = &mut pass.cells[start..start + (live - a - 1)];
                for &b in &pass.ranks[j + 1..] {
                    row[b as usize - a - 1].incr();
                }
            }
        }
        INCREMENTS.add(increments);
    }

    /// The counts of `pairs` — pairs of the batch the table was built
    /// for — in their order, each summed over `passes` in `u64`.
    pub(crate) fn counts<C: Cell>(
        &self,
        pairs: impl Iterator<Item = [ItemId; 2]>,
        passes: &[PairPass<C>],
    ) -> Vec<u64> {
        pairs
            .map(|pair| {
                let [a, b] = pair.map(|i| self.rank[i.index()] as usize);
                let at = cell(a, b, self.live);
                passes.iter().map(|p| p.cells[at].into()).sum()
            })
            .collect()
    }

    /// Counts `pairs` of the batch over in-memory `transactions`, one
    /// pass per transaction chunk, in `u32` cells when the transactions
    /// fit a `u32` — a chunk's cell counts at most its chunk's
    /// transactions — and `u64` cells otherwise.
    fn count_in_memory(
        &self,
        transactions: &[Itemset],
        pairs: impl Iterator<Item = [ItemId; 2]>,
    ) -> Vec<u64> {
        if u32::try_from(transactions.len()).is_ok() {
            self.counts(pairs, &self.chunk_passes::<u32>(transactions))
        } else {
            self.counts(pairs, &self.chunk_passes::<u64>(transactions))
        }
    }

    /// One pass per transaction chunk, in cells of type `C`; no chunk may
    /// hold more transactions than a `C` counts.
    fn chunk_passes<C: Cell>(&self, transactions: &[Itemset]) -> Vec<PairPass<C>> {
        ossm_par::map_chunks(transactions.len(), crate::support::MIN_TX_CHUNK, |r| {
            let mut pass = self.start_pass::<C>();
            self.count(transactions[r].iter().map(Itemset::items), &mut pass);
            pass
        })
    }
}

/// The pairs of `candidates`, which must all be pairs.
pub(crate) fn pairs_of(candidates: &[Itemset]) -> impl Iterator<Item = [ItemId; 2]> + '_ {
    candidates.iter().map(|c| [c.items()[0], c.items()[1]])
}

/// Counts a non-empty batch of pair `candidates` over in-memory
/// `transactions` in a pair table, or returns `None` — leaving the batch
/// to the hash tree — when a candidate is not a pair or the size rule
/// declines the batch.
pub(crate) fn count_pairs(transactions: &[Itemset], candidates: &[Itemset]) -> Option<Vec<u64>> {
    if candidates.is_empty() || candidates.iter().any(|c| c.len() != 2) {
        return None;
    }
    let table = PairTable::build(candidates)?;
    Some(table.count_in_memory(transactions, pairs_of(candidates)))
}

/// Counts the flagged pairs of `triangle` over in-memory `transactions`
/// in a pair table, in row order, or returns `None` when the size rule
/// declines the batch.
pub(crate) fn count_triangle(transactions: &[Itemset], triangle: &Triangle) -> Option<Vec<u64>> {
    let table = PairTable::for_triangle(triangle)?;
    Some(table.count_in_memory(transactions, triangle.pairs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn row_offsets_enumerate_every_pair_once_in_order() {
        for live in 1..=70usize {
            let mut expected = 0;
            for a in 0..live {
                assert_eq!(row_start(a, live), expected, "row {a} of {live}");
                for b in a + 1..live {
                    assert_eq!(cell(a, b, live), expected, "({a}, {b}) of {live}");
                    expected += 1;
                }
            }
            assert_eq!(expected, live * (live - 1) / 2);
        }
    }

    #[test]
    fn counts_match_a_naive_pair_map() {
        // Every live-item count from 1 to 70, over items spaced so that
        // ranks and item ids differ, with dead items interleaved.
        for live in 1..=70u32 {
            let items: Vec<u32> = (0..live).map(|i| 3 * i + 1).collect();
            let candidates: Vec<Itemset> = items
                .iter()
                .enumerate()
                .flat_map(|(x, &a)| items[x + 1..].iter().map(move |&b| Itemset::new([a, b])))
                .collect();
            // A single live item forms no pair.
            if candidates.is_empty() {
                continue;
            }
            let transactions: Vec<Itemset> = (0..40u32)
                .map(|t| Itemset::new((0..3 * live + 2).filter(|i| (i * 7 + t) % 5 < 2)))
                .collect();
            let table = PairTable::build(&candidates).expect("all pairs fit");
            assert_eq!(table.size(), candidates.len());
            let mut pass = table.start_pass::<u64>();
            table.count(transactions.iter().map(Itemset::items), &mut pass);
            let counts = table.counts(pairs_of(&candidates), &[pass]);

            let mut naive: BTreeMap<(ItemId, ItemId), u64> = BTreeMap::new();
            for t in &transactions {
                let t = t.items();
                for (x, &a) in t.iter().enumerate() {
                    for &b in &t[x + 1..] {
                        *naive.entry((a, b)).or_default() += 1;
                    }
                }
            }
            for (c, &n) in candidates.iter().zip(&counts) {
                let key = (c.items()[0], c.items()[1]);
                assert_eq!(
                    n,
                    naive.get(&key).copied().unwrap_or(0),
                    "{c:?} at L = {live}"
                );
            }
        }
    }

    #[test]
    fn narrow_and_wide_cells_count_alike_over_chunks() {
        // 700 transactions span several 256-transaction chunks; `u64`
        // cells are what a batch of 2³² or more transactions would use.
        let candidates: Vec<Itemset> = (0..20u32)
            .flat_map(|a| (a + 1..20).map(move |b| Itemset::new([a, 2 * b])))
            .collect();
        let transactions: Vec<Itemset> = (0..700u32)
            .map(|t| Itemset::new((0..40u32).filter(|i| (i * 5 + t) % 3 == 0)))
            .collect();
        let table = PairTable::build(&candidates).expect("fits");
        let narrow = table.counts(
            pairs_of(&candidates),
            &table.chunk_passes::<u32>(&transactions),
        );
        assert_eq!(
            narrow,
            table.counts(
                pairs_of(&candidates),
                &table.chunk_passes::<u64>(&transactions)
            )
        );
        assert_eq!(
            Some(narrow),
            count_pairs(&transactions, &candidates),
            "in-memory counting takes u32 cells"
        );
    }

    #[test]
    fn a_table_larger_than_the_size_rule_is_declined() {
        // 65 disjoint pairs over 130 live items: C(130, 2) = 8385 cells
        // exceed both 4 · 65 and 8192.
        let sparse: Vec<Itemset> = (0..65u32)
            .map(|i| Itemset::new([2 * i, 2 * i + 1]))
            .collect();
        assert!(PairTable::build(&sparse).is_none());
        // 64 pairs over 128 items: C(128, 2) = 8128 cells, within 8192.
        assert!(PairTable::build(&sparse[..64]).is_some());
    }
}
