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
//! chunk through `ossm_par` in `u32` cells when the batch's transactions
//! fit a `u32`, and adds the chunks' cells into one pass — a sum counts
//! at most those transactions — so the counts are identical at any
//! thread count.
//!
//! When eq. (1) leaves few candidates over many live items, most cells
//! would count pairs no candidate names; the size rule declines such a
//! batch, and the caller counts it with the hash tree instead.
//!
//! The level-wise miners hand level 2 over as a [`Triangle`]: one flag
//! per pair of the frequent items, in the same upper-triangular row
//! order, each row one contiguous slice of flags. Everything walks it a
//! row at a time, with no [`Itemset`] per pair. A table is built straight
//! from its flags: item `x` is live if its row holds a flag or an earlier
//! row flags it, so the live items, the size rule and the increments are
//! those of the equivalent candidate list. The counts are read back row
//! by row, from one row base plus each later item's rank — and when every
//! item is live, straight from each flag's own cell. [`PairTable::build`]
//! keeps taking a list, for `count_with`'s public entry.

use std::ops::{AddAssign, Range};

use ossm_data::{ItemId, Itemset};

use crate::filter::CandidateFilter;
use crate::levelwise::Batch;

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
/// [`Itemset`] per pair. Row `x` — the pairs of `items[x]` with each
/// later item — is one contiguous slice of flags, and every consumer
/// walks the triangle a row at a time ([`Triangle::rows`]).
pub(crate) struct Triangle {
    /// The frequent items, in item order.
    items: Vec<ItemId>,
    /// `flags[cell(x, y, |items|)]`: the pair `(items[x], items[y])` is a
    /// candidate.
    flags: Vec<bool>,
    /// The number of set flags.
    flagged: usize,
}

impl Triangle {
    /// Every pair of `items` (in item order, distinct): Apriori's C2.
    pub(crate) fn all(items: Vec<ItemId>) -> Self {
        let n = items.len();
        let cells = n * n.saturating_sub(1) / 2;
        Triangle {
            items,
            flags: vec![true; cells],
            flagged: cells,
        }
    }

    /// The pairs `(a, b)` of `items` (in item order, distinct) for which
    /// `keep(a, b)` holds.
    pub(crate) fn with(items: Vec<ItemId>, mut keep: impl FnMut(ItemId, ItemId) -> bool) -> Self {
        let flags = all_pairs(&items).map(|[a, b]| keep(a, b)).collect();
        let mut triangle = Triangle {
            items,
            flags,
            flagged: 0,
        };
        triangle.recount();
        triangle
    }

    fn recount(&mut self) {
        self.flagged = self.flags.iter().filter(|&&f| f).count();
    }

    /// The number of flagged pairs.
    pub(crate) fn len(&self) -> usize {
        self.flagged
    }

    /// The triangle's items, in item order.
    pub(crate) fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The rows in order: `(x, flags)`, where `flags[k]` marks the pair
    /// `(items[x], items[x + 1 + k])`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (usize, &[bool])> + '_ {
        self.rows_in(0..self.items.len())
    }

    /// [`rows`](Self::rows) `rows.start..rows.end` only.
    pub(crate) fn rows_in(
        &self,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (usize, &[bool])> + '_ {
        let n = self.items.len();
        let mut rest = &self.flags[self.cells(rows.start..n)];
        rows.map(move |x| {
            let (row, tail) = rest.split_at(n - x - 1);
            rest = tail;
            (x, row)
        })
    }

    /// The number of flagged pairs in rows `rows.start..rows.end`.
    pub(crate) fn flagged_in(&self, rows: Range<usize>) -> usize {
        self.flags[self.cells(rows)].iter().filter(|&&f| f).count()
    }

    /// The flag indices of rows `rows.start..rows.end`.
    fn cells(&self, rows: Range<usize>) -> Range<usize> {
        let n = self.items.len();
        let start = |r: usize| {
            if r < n {
                row_start(r, n)
            } else {
                self.flags.len()
            }
        };
        start(rows.start)..start(rows.end)
    }

    /// The flagged pairs, in row order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = [ItemId; 2]> + '_ {
        self.rows().flat_map(move |(x, row)| {
            let a = self.items[x];
            row.iter()
                .zip(&self.items[x + 1..])
                .filter_map(move |(&flagged, &b)| flagged.then_some([a, b]))
        })
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
        self.recount();
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
pub(crate) trait Cell: Copy + Default + From<u8> + Into<u64> + AddAssign + Send {}

impl Cell for u32 {}

impl Cell for u64 {}

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
        let _mem = ossm_obs::alloc_scope("mining.pair_table");
        let mut rank = Vec::new();
        for c in candidates {
            let [a, b] = *c.items() else {
                panic!("a pair table counts pairs");
            };
            for item in [a, b] {
                if rank.len() <= item.index() {
                    rank.resize(item.index() + 1, DEAD);
                }
                rank[item.index()] = 0;
            }
        }
        let mut live = 0;
        for r in rank.iter_mut().filter(|r| **r != DEAD) {
            *r = live;
            live += 1;
        }
        Self::sized(rank, live as usize, candidates.len())
    }

    /// The table for the flagged pairs of `triangle`, under the same size
    /// rule: its live items are the items of flagged pairs. They are
    /// found a row at a time — item `x` is live if row `x` holds a flag,
    /// and OR-ing the row into a mask over `items[x + 1..]` marks the
    /// later items it pairs `x` with.
    pub(crate) fn for_triangle(triangle: &Triangle) -> Option<Self> {
        let _mem = ossm_obs::alloc_scope("mining.pair_table");
        let items = triangle.items();
        let mut mask = vec![false; items.len()];
        for (x, row) in triangle.rows() {
            let (head, later) = mask.split_at_mut(x + 1);
            head[x] |= row.contains(&true);
            for (m, &flagged) in later.iter_mut().zip(row) {
                *m |= flagged;
            }
        }
        let mut rank = Vec::new();
        let mut live = 0;
        for (&item, _) in items.iter().zip(&mask).filter(|&(_, &m)| m) {
            rank.resize(item.index() + 1, DEAD);
            rank[item.index()] = live;
            live += 1;
        }
        Self::sized(rank, live as usize, triangle.len())
    }

    /// The table over `live` ranked items, if the size rule admits it for
    /// a batch of `candidates` pairs.
    fn sized(rank: Vec<u32>, live: usize, candidates: usize) -> Option<Self> {
        let table = PairTable { rank, live };
        (table.size() <= (CELLS_PER_CANDIDATE * candidates).max(MIN_CELLS)).then_some(table)
    }

    /// Cells per pass: `C(L, 2)`.
    fn size(&self) -> usize {
        self.live * self.live.saturating_sub(1) / 2
    }

    /// Bytes of a pass in cells of `C`: its cells and the item → rank
    /// map.
    fn pass_bytes<C: Cell>(&self) -> u64 {
        (self.size() * std::mem::size_of::<C>() + std::mem::size_of_val(&self.rank[..])) as u64
    }

    /// A zeroed pass.
    pub(crate) fn start_pass<C: Cell>(&self) -> PairPass<C> {
        let _mem = ossm_obs::alloc_scope("mining.pair_table");
        let cells = vec![C::default(); self.size()];
        MEM_PAIR_TABLE.set(self.pass_bytes::<C>());
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
                    row[b as usize - a - 1] += C::from(1);
                }
            }
        }
        INCREMENTS.add(increments);
    }

    /// The counts of `pairs` — pairs of the batch the table was built
    /// for — in their order, read from `pass`.
    pub(crate) fn counts<C: Cell>(
        &self,
        pairs: impl Iterator<Item = [ItemId; 2]>,
        pass: &PairPass<C>,
    ) -> Vec<u64> {
        pairs
            .map(|pair| {
                let [a, b] = pair.map(|i| self.rank[i.index()] as usize);
                pass.cells[cell(a, b, self.live)].into()
            })
            .collect()
    }

    /// The counts of the flagged pairs of `triangle` — the batch the
    /// table was built for — in row order, read from `pass` a row at a
    /// time: row `x`'s cells start at one row base, and each later item's
    /// rank is its offset. When every item of the triangle is live, an
    /// item's rank is its index, so a flag's index is its cell's.
    pub(crate) fn triangle_counts<C: Cell>(
        &self,
        triangle: &Triangle,
        pass: &PairPass<C>,
    ) -> Vec<u64> {
        let cells = &pass.cells;
        let items = triangle.items();
        if self.live == items.len() {
            return triangle
                .flags
                .iter()
                .zip(cells)
                .filter(|&(&flagged, _)| flagged)
                .map(|(_, &c)| c.into())
                .collect();
        }
        let ranks: Vec<usize> = items
            .iter()
            .map(|i| self.rank.get(i.index()).copied().unwrap_or(DEAD) as usize)
            .collect();
        let mut counts = Vec::with_capacity(triangle.len());
        for (x, row) in triangle.rows() {
            let a = ranks[x];
            if a == DEAD as usize {
                // A dead item's row holds no flag.
                continue;
            }
            let base = row_start(a, self.live);
            for (&flagged, &b) in row.iter().zip(&ranks[x + 1..]) {
                if flagged {
                    counts.push(cells[base + (b - a - 1)].into());
                }
            }
        }
        counts
    }

    /// Counts `batch` — the batch the table was built for — over
    /// in-memory `transactions`, one pass per transaction chunk, in `u32`
    /// cells when the transactions fit a `u32` and `u64` cells otherwise,
    /// and reads its counts back from the passes' summed cells.
    fn count_in_memory(&self, transactions: &[Itemset], batch: Batch<'_>) -> Vec<u64> {
        if u32::try_from(transactions.len()).is_ok() {
            self.read(batch, &self.summed(self.chunk_passes::<u32>(transactions)))
        } else {
            self.read(batch, &self.summed(self.chunk_passes::<u64>(transactions)))
        }
    }

    /// `batch`'s counts, in its order, from `pass`.
    fn read<C: Cell>(&self, batch: Batch<'_>, pass: &PairPass<C>) -> Vec<u64> {
        match batch {
            Batch::Pairs(triangle) => self.triangle_counts(triangle, pass),
            Batch::Sets(candidates) => self.counts(pairs_of(candidates), pass),
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

    /// The cells of `passes` added into one pass (zeroed if there are
    /// none). The passes count disjoint transactions, so a sum fits a `C`
    /// when their transactions together do.
    fn summed<C: Cell>(&self, passes: Vec<PairPass<C>>) -> PairPass<C> {
        let mut passes = passes.into_iter();
        let Some(mut total) = passes.next() else {
            return PairPass {
                cells: vec![C::default(); self.size()],
                ranks: Vec::new(),
            };
        };
        for pass in passes {
            for (t, c) in total.cells.iter_mut().zip(pass.cells) {
                *t += c;
            }
        }
        total
    }
}

/// The pairs of `candidates`, which must all be pairs.
pub(crate) fn pairs_of(candidates: &[Itemset]) -> impl Iterator<Item = [ItemId; 2]> + '_ {
    candidates.iter().map(|c| [c.items()[0], c.items()[1]])
}

/// Counts a non-empty `batch` of pairs over in-memory `transactions` in a
/// pair table, in the batch's order, or returns `None` — leaving the
/// batch to the hash tree — when a candidate is not a pair or the size
/// rule declines the batch.
pub(crate) fn count_pairs(transactions: &[Itemset], batch: Batch<'_>) -> Option<Vec<u64>> {
    let table = match batch {
        Batch::Pairs(triangle) => PairTable::for_triangle(triangle)?,
        Batch::Sets(candidates) => {
            if candidates.is_empty() || candidates.iter().any(|c| c.len() != 2) {
                return None;
            }
            PairTable::build(candidates)?
        }
    };
    Some(table.count_in_memory(transactions, batch))
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
            let counts = table.counts(pairs_of(&candidates), &pass);

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
            &table.summed(table.chunk_passes::<u32>(&transactions)),
        );
        assert_eq!(
            narrow,
            table.counts(
                pairs_of(&candidates),
                &table.summed(table.chunk_passes::<u64>(&transactions))
            )
        );
        assert_eq!(
            Some(narrow),
            count_pairs(&transactions, Batch::Sets(&candidates)),
            "in-memory counting takes u32 cells"
        );
    }

    /// Which pairs `(x, y)` of a test triangle's item indices are flagged.
    type Keep = fn(u32, u32) -> bool;

    #[test]
    fn a_triangle_walks_its_rows_as_its_pair_list_does() {
        let transactions: Vec<Itemset> = (0..300u32)
            .map(|t| Itemset::new((0..24u32).filter(|i| (i * 7 + t) % 4 < 2)))
            .collect();
        // Items 3x + 1 for x < L, so ranks and ids differ; `keep` names
        // the flagged pairs by index.
        let cases: [(u32, Keep); 9] = [
            (0, |_, _| true),
            (1, |_, _| true),
            (2, |_, _| true),
            (2, |_, _| false),
            (7, |_, _| true),
            // Dead first, middle and last items.
            (7, |x, y| x != 0 && x != 3 && y != 3 && y != 6),
            // Row 2 all cleared while item 2 stays live through (0, 2):
            // every item live, so flag and cell indices agree.
            (7, |x, _| x != 2),
            // Only the last pair.
            (7, |x, y| (x, y) == (5, 6)),
            (7, |_, _| false),
        ];
        for (l, keep) in cases {
            let id = |x: u32| ItemId(3 * x + 1);
            let items: Vec<ItemId> = (0..l).map(id).collect();
            let triangle = Triangle::with(items, |a, b| keep(a.0 / 3, b.0 / 3));
            let list = triangle.itemsets();
            assert_eq!(triangle.len(), list.len(), "L = {l}");
            let from_rows = PairTable::for_triangle(&triangle).expect("small");
            let from_list = PairTable::build(&list).expect("small");
            assert_eq!(from_rows.size(), from_list.size(), "L = {l}");
            assert_eq!(from_rows.rank, from_list.rank, "L = {l}");
            assert_eq!(
                from_rows.pass_bytes::<u64>(),
                from_list.pass_bytes::<u64>(),
                "L = {l}"
            );
            let mut pass = from_rows.start_pass::<u64>();
            from_rows.count(transactions.iter().map(Itemset::items), &mut pass);
            let by_rows = from_rows.triangle_counts(&triangle, &pass);
            assert_eq!(by_rows, from_rows.counts(pairs_of(&list), &pass), "L = {l}");
            let naive: Vec<u64> = list
                .iter()
                .map(|c| transactions.iter().filter(|t| c.is_subset_of(t)).count() as u64)
                .collect();
            assert_eq!(by_rows, naive, "L = {l}");
            assert_eq!(
                count_pairs(&transactions, Batch::Pairs(&triangle)),
                Some(naive),
                "L = {l}"
            );
        }
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
