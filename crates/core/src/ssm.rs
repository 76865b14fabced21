//! The (optimized) segment support map and its support upper bound.
//!
//! An OSSM over `n` segments stores `sup_i({a})` for every segment `i` and
//! every singleton `{a}` (Section 3 of the paper). For an arbitrary itemset
//! `X` it yields the upper bound of equation (1):
//!
//! ```text
//! ub(X, OSSM_n) = Σ_{i=1..n} min_{a ∈ X} sup_i({a})
//! ```
//!
//! A one-segment OSSM degenerates to the classic "min of the global
//! singleton supports" bound — the no-OSSM baseline of the experiments; a
//! one-transaction-per-segment OSSM makes the bound exact. Everything in
//! between trades space for pruning power, which is the whole game of the
//! paper.
//!
//! Level 2 of a level-wise miner bounds every pair of its frequent items
//! at once ([`min_sum_pairs`], [`Ossm::upper_bound_pairs`]). A pair's
//! bound is at most the smaller of its two rows' sums, so the batch runs
//! in the narrowest counter that holds every row's sum — `u16` for any
//! map whose items occur at most 65 535 times, `u32` or `u64` past that.
//! A map's rows are short next to a level's items, so the batch sweeps
//! the rows transposed, a few first items against all later items per
//! column; long rows (a page file's per-page supports) are judged pair by
//! pair. The transposed sweep runs on the `ossm_par` workers in parts of
//! about equal pair counts ([`triangle_parts`]) — row `x` of the triangle
//! holds one pair fewer than row `x − 1` — each part owning its rows'
//! flags, so the flags, the admitted bounds and their order are those of
//! one serial sweep at any thread count.

use std::ops::Range;

use ossm_data::{ItemId, Itemset, PageStore};

use crate::segmentation::{Aggregate, Segmentation};

/// Equation-(1) evaluations through [`Ossm::upper_bound`].
static BOUND_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.bound.evals");
/// [`Ossm::prunes`] calls that pruned (bound below the threshold).
static BOUND_PRUNED: ossm_obs::Counter = ossm_obs::Counter::new("core.bound.pruned");

/// The optimized segment support map (Section 3, Figure 1's `SSM_n`).
///
/// Stored item-major: item `a`'s supports in all `n` segments form one
/// contiguous row, so eq. (1) for `X` is an elementwise min over `|X|`
/// rows followed by a sum ([`min_sum`]) — `|X|` sequential streams
/// instead of `n` scattered gathers per item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ossm {
    num_items: usize,
    /// `rows[a·n + s]` = `sup_s({a})`.
    rows: Vec<u64>,
    /// `transactions[s]` = transactions in segment `s`; `n` entries.
    transactions: Vec<u64>,
}

/// Eq. (1) over rows of one length: `Σ_s min_{a∈items} row(a)[s]`, or 0
/// for no items.
// SOUND: each term is the minimum over every one of `items`' rows at one
// position, and every position is summed — eq. (1) as stated, with
// narrower counters widened to `u64` before the sum.
pub fn min_sum<'r, T>(items: &[ItemId], row: impl Fn(ItemId) -> &'r [T]) -> u64
where
    T: Copy + Default + Ord + Into<u64> + 'r,
{
    /// Positions whose running minima fit one stack buffer.
    const CHUNK: usize = 64;
    match *items {
        [] => 0,
        [a] => row(a).iter().map(|&v| v.into()).sum(),
        [a, b] => row(a)
            .iter()
            .zip(row(b))
            .map(|(&x, &y)| x.min(y).into())
            .sum(),
        [a, ref rest @ ..] => {
            let first = row(a);
            let mut buf = [T::default(); CHUNK];
            let mut total = 0;
            for start in (0..first.len()).step_by(CHUNK) {
                let end = (start + CHUNK).min(first.len());
                let mins = &mut buf[..end - start];
                mins.copy_from_slice(&first[start..end]);
                for &i in rest {
                    for (m, &v) in mins.iter_mut().zip(&row(i)[start..end]) {
                        *m = (*m).min(v);
                    }
                }
                total += mins.iter().map(|&m| m.into()).sum::<u64>();
            }
            total
        }
    }
}

/// Eq. (1) for a batch of pairs: for every pair `(a, b)` of `items`, `a`
/// before `b`, in row order — the pairs of `items[0]`, then those of
/// `items[1]`, … — whose flag in `pairs` is set, calls `judge` with the
/// pair's min-sum `Σ_s min(row(a)[s], row(b)[s])` and stores its answer
/// as the flag. When `admitted` is given, the min-sum of every pair
/// `judge` admits is pushed onto it, in row order. Rows are of one
/// length; a pair past the end of `pairs` is not judged. Returns the
/// number of pairs judged.
///
/// The rows are copied once into the narrowest lane that holds every
/// row's sum — `u16`, else `u32`, else `u64` — and each min-sum is
/// accumulated in that lane, so a `u16` batch takes twice as many
/// positions per vector instruction as a `u32` one. Rows narrower than
/// the batch is long (a map's few segments against a level's many
/// items) are judged column by column, sweeping a few first items
/// against all later items at once (`judge_columns`), in parts of about
/// equal pair counts on the `ossm_par` workers ([`triangle_parts`]);
/// wider rows (a page file's many pages against a few items) pair by
/// pair on the calling thread (`judge_rows`). `judge` is called from the
/// workers in no fixed order, but the flags, the admitted min-sums and
/// the count are the same at any thread count.
// SOUND: each term is the minimum of the two rows at one position and
// every position is summed — `min_sum` for `[a, b]`. The narrow copy
// loses nothing and no accumulator can overflow: each holds the min-sum
// of two rows, which is at most the smaller row's sum, and the lane is
// chosen so that every row sum, and so every value, fits it.
pub fn min_sum_pairs<'r, T>(
    items: &[ItemId],
    row: impl Fn(ItemId) -> &'r [T],
    pairs: &mut [bool],
    judge: impl Fn(u64) -> bool + Sync,
    admitted: Option<&mut Vec<u64>>,
) -> u64
where
    T: Copy + Into<u64> + 'r,
{
    min_sum_pairs_in_parts(items, row, pairs, judge, admitted, MIN_PART_PAIRS)
}

/// [`min_sum_pairs`] with the column layout cut into parts of at least
/// `min_part_pairs` pairs ([`triangle_parts`]).
fn min_sum_pairs_in_parts<'r, T>(
    items: &[ItemId],
    row: impl Fn(ItemId) -> &'r [T],
    pairs: &mut [bool],
    judge: impl Fn(u64) -> bool + Sync,
    admitted: Option<&mut Vec<u64>>,
    min_part_pairs: usize,
) -> u64
where
    T: Copy + Into<u64> + 'r,
{
    let rows: Vec<&[T]> = items.iter().map(|&a| row(a)).collect();
    let widest = rows
        .iter()
        .map(|r| r.iter().fold(0u64, |sum, &v| sum.saturating_add(v.into())))
        .max()
        .unwrap_or(0);
    if widest <= u64::from(u16::MAX) {
        judge_in::<T, u16>(&rows, pairs, &judge, admitted, min_part_pairs)
    } else if widest <= u64::from(u32::MAX) {
        judge_in::<T, u32>(&rows, pairs, &judge, admitted, min_part_pairs)
    } else {
        judge_in::<T, u64>(&rows, pairs, &judge, admitted, min_part_pairs)
    }
}

/// A counter width [`min_sum_pairs`] accumulates min-sums in.
trait Lane: Copy + Default + Ord + std::ops::AddAssign + Into<u64> + Send + Sync {
    /// `v`, which the lane holds, as a lane value.
    fn narrow(v: u64) -> Self;
}

impl Lane for u16 {
    fn narrow(v: u64) -> Self {
        u16::try_from(v).unwrap_or(u16::MAX)
    }
}

impl Lane for u32 {
    fn narrow(v: u64) -> Self {
        u32::try_from(v).unwrap_or(u32::MAX)
    }
}

impl Lane for u64 {
    fn narrow(v: u64) -> Self {
        v
    }
}

/// [`min_sum_pairs`] in lanes of `L`, by columns when the rows are
/// narrower than the batch is long and by rows otherwise; every row's
/// sum must fit `L`.
fn judge_in<T, L>(
    rows: &[&[T]],
    pairs: &mut [bool],
    judge: &(impl Fn(u64) -> bool + Sync),
    admitted: Option<&mut Vec<u64>>,
    min_part_pairs: usize,
) -> u64
where
    T: Copy + Into<u64>,
    L: Lane,
{
    if rows.first().map_or(0, |r| r.len()) < rows.len() {
        judge_columns::<T, L>(rows, pairs, judge, admitted, min_part_pairs)
    } else {
        judge_rows::<T, L>(rows, pairs, judge, admitted)
    }
}

/// [`min_sum_pairs`] pair by pair: `rows` copied into lanes of `L`, and
/// each row of the triangle — one slice of flags — judged against the
/// later rows in turn, each min-sum accumulated in `L`.
// SOUND: `ub` adds the minimum of the two rows at every position — the
// pair's eq. (1) sum — in a lane `min_sum_pairs` chose to hold it.
fn judge_rows<T, L>(
    rows: &[&[T]],
    pairs: &mut [bool],
    judge: impl Fn(u64) -> bool,
    mut admitted: Option<&mut Vec<u64>>,
) -> u64
where
    T: Copy + Into<u64>,
    L: Lane,
{
    let width = rows.first().map_or(0, |r| r.len());
    let lanes: Vec<L> = rows
        .iter()
        .flat_map(|r| r.iter().map(|&v| L::narrow(v.into())))
        .collect();
    let lane_row = |x: usize| &lanes[x * width..(x + 1) * width];
    let mut rest = pairs;
    let mut judged = 0;
    for x in 0..rows.len() {
        let later = (rows.len() - x - 1).min(rest.len());
        let (flags, tail) = std::mem::take(&mut rest).split_at_mut(later);
        rest = tail;
        let a = lane_row(x);
        for (flag, y) in flags.iter_mut().zip(x + 1..) {
            if *flag {
                let mut ub = L::default();
                for (&p, &q) in a.iter().zip(lane_row(y)) {
                    ub += p.min(q);
                }
                *flag = judge(ub.into());
                if *flag {
                    if let Some(bounds) = admitted.as_deref_mut() {
                        bounds.push(ub.into());
                    }
                }
                judged += 1;
            }
        }
    }
    judged
}

/// First items [`judge_columns`] sums against the later items per sweep.
const SWEEP: usize = 4;

/// Pairs below which [`judge_columns`] keeps a part of its triangle on
/// the calling thread: at a few nanoseconds a pair, a smaller part costs
/// less than a worker takes to start. A page file's map (a few hundred
/// items at most) is judged inline.
const MIN_PART_PAIRS: usize = 1 << 15;

/// The pairs in rows `0..x` of a triangle over `items` items:
/// `(items − 1) + (items − 2) + … + (items − x)`.
fn pairs_before(x: usize, items: usize) -> usize {
    x * (2 * items - x).saturating_sub(1) / 2
}

/// The rows of a triangle over `items` items — row `x` holds the pairs
/// of item `x` with each later item — cut into at most
/// [`ossm_par::thread_count`] contiguous ranges of about equal *pair*
/// counts, for [`ossm_par::map_parts`]. Every range starts at a multiple
/// of the column sweep's width, and a triangle of fewer than
/// `2 · min_pairs` pairs stays one range. The cut depends only on
/// `items`, `min_pairs` and the thread count, and the ranges cover
/// `0..items` in order (none for no items).
pub fn triangle_parts(items: usize, min_pairs: usize) -> Vec<Range<usize>> {
    if items == 0 {
        return Vec::new();
    }
    let total = pairs_before(items, items);
    let parts = (total / min_pairs.max(1)).clamp(1, ossm_par::thread_count());
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for x in (SWEEP..items).step_by(SWEEP) {
        if out.len() + 1 == parts {
            break;
        }
        // Cut at the first aligned row past the next equal share.
        if pairs_before(x, items) * parts >= total * (out.len() + 1) {
            out.push(start..x);
            start = x;
        }
    }
    out.push(start..items);
    out
}

/// [`min_sum_pairs`] column by column: `rows` transposed into lanes of
/// `L`, one column per position, shared by every part of the triangle
/// (parts of at least `min_part_pairs` pairs, [`triangle_parts`]); each
/// part owns its rows' flags and judges them sweep by sweep
/// ([`sweep_columns`]). The parts' admitted min-sums are appended in part
/// order, which is row order.
fn judge_columns<T, L>(
    rows: &[&[T]],
    pairs: &mut [bool],
    judge: &(impl Fn(u64) -> bool + Sync),
    admitted: Option<&mut Vec<u64>>,
    min_part_pairs: usize,
) -> u64
where
    T: Copy + Into<u64>,
    L: Lane,
{
    let items = rows.len();
    if items == 0 {
        return 0;
    }
    let width = rows[0].len();
    let mut columns = vec![L::default(); width * items];
    for (y, r) in rows.iter().enumerate() {
        for (column, &v) in columns.chunks_exact_mut(items).zip(r.iter()) {
            column[y] = L::narrow(v.into());
        }
    }
    // Each part owns its rows' flags and, when the admitted min-sums are
    // kept, a window of `admitted` one longer than its flagged pairs,
    // which it fills from the front; the windows are closed up after.
    let keep = admitted.is_some();
    let mut parts = Vec::new();
    let mut rest = pairs;
    for firsts in triangle_parts(items, min_part_pairs) {
        let len =
            (pairs_before(firsts.end, items) - pairs_before(firsts.start, items)).min(rest.len());
        let (flags, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        let window = if keep {
            flags.iter().filter(|&&f| f).count() + 1
        } else {
            0
        };
        parts.push((firsts, flags, window));
    }
    let mut scratch = Vec::new();
    let out = admitted.unwrap_or(&mut scratch);
    let base = out.len();
    out.resize(base + parts.iter().map(|p| p.2).sum::<usize>(), 0);
    let mut windows = &mut out[base..];
    let mut owned = Vec::with_capacity(parts.len());
    for (firsts, flags, window) in parts {
        let (slots, tail) = std::mem::take(&mut windows).split_at_mut(window);
        windows = tail;
        owned.push((firsts, (flags, slots)));
    }
    let results = ossm_par::map_parts(owned, |firsts, (flags, slots)| {
        sweep_columns(&columns, items, firsts, flags, judge, slots)
    });
    let mut judged = 0;
    let (mut from, mut to) = (base, base);
    for (count, window, kept) in results {
        judged += count;
        out.copy_within(from..from + kept, to);
        from += window;
        to += kept;
    }
    out.truncate(to);
    judged
}

/// One part of [`judge_columns`]: the sweeps of the first items
/// `firsts` (starting at a multiple of [`SWEEP`]) over `columns`, one
/// column of `items` lanes per position, judging `flags` — the part's
/// rows of flags, possibly cut short. A sweep takes [`SWEEP`] consecutive
/// first items `x` and, column by column, adds `min(column[x],
/// column[y])` to the sum of every pair `(x, y)` with `y` past the
/// sweep's first item — one pass over contiguous lanes per column, with
/// no reduction per pair. The sweep's rows of flags are then judged in
/// order against their sums. When `slots` is not empty — one longer than
/// the flagged pairs — the min-sums of the admitted pairs fill it from
/// the front, in row order. Returns the pairs judged, the length of
/// `slots`, and the min-sums kept.
// SOUND: the sum of pair `(x, y)` gains `min(column[x], column[y])` from
// every column, once — the pair's eq. (1) sum — and is judged at offset
// `y − x − 1` of row `x`, the flag of exactly that pair; a part's flags
// start at its first row's first pair.
fn sweep_columns<L: Lane>(
    columns: &[L],
    items: usize,
    firsts: Range<usize>,
    flags: &mut [bool],
    judge: impl Fn(u64) -> bool,
    slots: &mut [u64],
) -> (u64, usize, usize) {
    let keep = !slots.is_empty();
    let mut kept = 0;
    let mut sums = vec![L::default(); SWEEP * (items - firsts.start - 1)];
    let mut rest = flags;
    let mut judged = 0;
    for x in firsts.step_by(SWEEP) {
        if rest.is_empty() {
            break;
        }
        // `sums[k·later + j]` is the min-sum of items `x + k` and
        // `x + 1 + j`. A sweep past the last item repeats it; those sums
        // are never read.
        let later = items - x - 1;
        let sums = &mut sums[..SWEEP * later];
        sums.fill(L::default());
        let (s0, tail) = sums.split_at_mut(later);
        let (s1, tail) = tail.split_at_mut(later);
        let (s2, s3) = tail.split_at_mut(later);
        for column in columns.chunks_exact(items) {
            let first = |k: usize| column[(x + k).min(items - 1)];
            let (v0, v1, v2, v3) = (first(0), first(1), first(2), first(3));
            for ((((&c, a0), a1), a2), a3) in column[x + 1..]
                .iter()
                .zip(s0.iter_mut())
                .zip(s1.iter_mut())
                .zip(s2.iter_mut())
                .zip(s3.iter_mut())
            {
                *a0 += v0.min(c);
                *a1 += v1.min(c);
                *a2 += v2.min(c);
                *a3 += v3.min(c);
            }
        }
        for k in 0..SWEEP.min(items - x) {
            let len = (later - k).min(rest.len());
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            let sums = &sums[k * later + k..];
            for (flag, &ub) in row.iter_mut().zip(sums) {
                if *flag {
                    *flag = judge(ub.into());
                    judged += 1;
                }
            }
            if keep {
                // A set flag now marks an admitted pair. Every pair's
                // min-sum is written at the next free slot, which only an
                // admitted pair keeps: no branch per pair.
                for (&flag, &ub) in row.iter().zip(sums) {
                    slots[kept] = ub.into();
                    kept += usize::from(flag);
                }
            }
        }
    }
    (judged, slots.len(), kept)
}

impl Ossm {
    /// Builds an OSSM directly from per-segment aggregates.
    ///
    /// # Panics
    /// Panics if the aggregates disagree on the item domain or if there are
    /// no segments.
    // SOUND: stores the given per-segment supports verbatim (transposed
    // by `from_segments`) — eq. (1) is an upper bound whenever each input
    // support dominates the true item frequency of its segment, which
    // callers establish (exact aggregation or explicit widening; see
    // `recover`).
    pub fn from_aggregates(segments: Vec<Aggregate>) -> Self {
        Self::from_segments(&segments)
    }

    /// [`Ossm::from_aggregates`] without taking ownership: the one
    /// segment-major to item-major pass, so a caller that keeps its
    /// segments (the incremental map's snapshot) copies them only once.
    ///
    /// # Panics
    /// As [`Ossm::from_aggregates`].
    // SOUND: copies every `sup_s({a})` to `rows[a·n + s]` and every
    // transaction count to its segment — a transpose, no value changes.
    // INFALLIBLE: `segments[0]` sits behind the documented non-empty
    // assert — the only panic here is the advertised contract check.
    pub(crate) fn from_segments(segments: &[Aggregate]) -> Self {
        assert!(!segments.is_empty(), "an OSSM needs at least one segment");
        let num_items = segments[0].num_items();
        assert!(
            segments.iter().all(|s| s.num_items() == num_items),
            "all segments must share the item domain"
        );
        let mut rows = Vec::with_capacity(num_items * segments.len());
        for a in 0..num_items {
            rows.extend(segments.iter().map(|s| s.supports()[a]));
        }
        Ossm {
            num_items,
            rows,
            transactions: segments.iter().map(Aggregate::transactions).collect(),
        }
    }

    /// Builds an OSSM from a page store and a segmentation of its pages.
    pub fn from_pages(store: &PageStore, segmentation: &Segmentation) -> Self {
        assert_eq!(
            segmentation.num_inputs(),
            store.num_pages(),
            "segmentation must cover every page"
        );
        Self::from_aggregates(segmentation.merge_aggregates(&Aggregate::from_pages(store)))
    }

    /// The degenerate one-segment OSSM over the whole store — the bound a
    /// miner has with no OSSM at all (global singleton supports only).
    pub fn single_segment(store: &PageStore) -> Self {
        // With n = 1 each item's row is its global support.
        Ossm {
            num_items: store.num_items(),
            rows: store.total_supports(),
            transactions: vec![store.dataset().len() as u64],
        }
    }

    /// Builds an OSSM at *transaction* granularity from an assignment of
    /// each transaction to a segment. Used by the segment-minimization
    /// construction of Section 4, which operates below page granularity.
    ///
    /// # Panics
    /// Panics if `assignment.len()` differs from the dataset size, or if
    /// segment ids are not dense in `0..num_segments`.
    pub fn from_transaction_assignment(
        dataset: &ossm_data::Dataset,
        assignment: &[usize],
        num_segments: usize,
    ) -> Self {
        assert_eq!(
            assignment.len(),
            dataset.len(),
            "assignment must cover every transaction"
        );
        assert!(num_segments > 0, "an OSSM needs at least one segment");
        let m = dataset.num_items();
        // SOUND: counts every transaction exactly once in the segment
        // the assignment names, so each support is exact for its
        // segment and eq. (1) holds with equality per item.
        let mut rows = vec![0u64; m * num_segments];
        let mut transactions = vec![0u64; num_segments];
        for (t, &s) in dataset.transactions().iter().zip(assignment) {
            assert!(
                s < num_segments,
                "segment id {s} out of range 0..{num_segments}"
            );
            transactions[s] += 1;
            for item in t.items() {
                rows[item.index() * num_segments + s] += 1;
            }
        }
        Ossm {
            num_items: m,
            rows,
            transactions,
        }
    }

    /// Number of segments, `n`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.transactions.len()
    }

    /// Size of the item domain, `m`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// `item`'s support in every segment, in segment order.
    ///
    /// # Panics
    /// Panics if `item` lies outside the map's domain.
    #[inline]
    pub(crate) fn item_supports(&self, item: ItemId) -> &[u64] {
        let n = self.num_segments();
        &self.rows[item.index() * n..(item.index() + 1) * n]
    }

    /// The number of transactions in every segment, in segment order.
    #[inline]
    pub(crate) fn segment_transactions(&self) -> &[u64] {
        &self.transactions
    }

    /// The per-segment aggregates, materialized from the item-major rows
    /// (one pass over the map) for callers that work segment by segment.
    pub fn segments(&self) -> Box<[Aggregate]> {
        let n = self.num_segments();
        self.transactions
            .iter()
            .enumerate()
            .map(|(s, &count)| {
                Aggregate::new(
                    self.rows.iter().skip(s).step_by(n).copied().collect(),
                    count,
                )
            })
            .collect()
    }

    /// Total number of transactions covered.
    pub fn num_transactions(&self) -> u64 {
        self.transactions.iter().sum()
    }

    /// Global support of a singleton (sum across segments). Total over
    /// the whole id space: an item outside the map's domain was never
    /// observed, so its support is 0 — request handlers may pass ids
    /// straight from the wire without a bounds check.
    pub fn singleton_support(&self, item: ItemId) -> u64 {
        let n = self.num_segments();
        self.rows
            .get(item.index() * n..(item.index() + 1) * n)
            .map_or(0, |row| row.iter().sum())
    }

    /// Equation (1): the OSSM upper bound on `sup(X)`.
    ///
    /// For the empty itemset the bound is the number of transactions (the
    /// empty pattern holds everywhere), keeping the bound exact and
    /// monotone for all inputs.
    ///
    /// # Panics
    /// Panics if an item of `pattern` lies outside the map's domain.
    // SOUND: computes Σ_i min_{a∈X} sup_i({a}) exactly as eq. (1)
    // states it, through `min_sum` over every item's full row, so each
    // term is the defined minimum and the sum is the paper's bound.
    pub fn upper_bound(&self, pattern: &Itemset) -> u64 {
        BOUND_EVALS.incr();
        if pattern.is_empty() {
            return self.num_transactions();
        }
        min_sum(pattern.items(), |a| self.item_supports(a))
    }

    /// Equation (1) for a batch of pairs: every pair of `items` flagged
    /// in `pairs`, judged by `judge(ub)` as [`min_sum_pairs`] describes —
    /// with the bound of every admitted pair pushed onto `admitted`, in
    /// row order, when given — and the number judged added to
    /// `core.bound.evals` once. Returns that number.
    ///
    /// # Panics
    /// Panics if an item of `items` lies outside the map's domain.
    // SOUND: `min_sum_pairs` over every item's full row is the min-sum
    // of `upper_bound` for each pair {a, b}, in a lane that holds every
    // row's sum.
    pub fn upper_bound_pairs(
        &self,
        items: &[ItemId],
        pairs: &mut [bool],
        judge: impl Fn(u64) -> bool + Sync,
        admitted: Option<&mut Vec<u64>>,
    ) -> u64 {
        let judged = min_sum_pairs(items, |a| self.item_supports(a), pairs, judge, admitted);
        BOUND_EVALS.add(judged);
        judged
    }

    /// Whether `pattern` can be pruned at `min_support`: its upper bound is
    /// already below the threshold, so it cannot be frequent.
    #[inline]
    pub fn prunes(&self, pattern: &Itemset, min_support: u64) -> bool {
        let pruned = self.upper_bound(pattern) < min_support;
        if pruned {
            BOUND_PRUNED.incr();
        }
        pruned
    }

    /// Approximate in-memory size of the structure, in bytes: the `n × m`
    /// support counters, stored once as one item-major `u64` row per item
    /// (the per-segment transaction counts are not counted). The paper
    /// quotes ~0.2 MB for 100 segments × 1000 items (16-bit counters in
    /// their C implementation); `u64` keeps a long-running service's
    /// per-segment supports from ever overflowing.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossm_data::Dataset;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    /// Example 1 from the paper: 4 segments, items a=0, b=1, c=2.
    ///
    /// | item | S1 | S2 | S3 | S4 | total |
    /// |------|----|----|----|----|-------|
    /// | a    | 20 | 10 | 40 | 40 | 110   |
    /// | b    | 40 | 40 | 40 | 10 | 130   |
    /// | c    | 40 | 20 | 20 | 20 | 100   |
    fn example_1() -> Ossm {
        let seg = |a: u64, b: u64, c: u64| Aggregate::new(vec![a, b, c], a.max(b).max(c));
        Ossm::from_aggregates(vec![
            seg(20, 40, 40),
            seg(10, 40, 20),
            seg(40, 40, 20),
            seg(40, 10, 20),
        ])
    }

    #[test]
    fn example_1_from_paper() {
        let ossm = example_1();
        // ub({a,b}) = min(20,40)+min(10,40)+min(40,40)+min(40,10) = 20+10+40+10 = 80.
        assert_eq!(ossm.upper_bound(&set(&[0, 1])), 80);
        // ub({a,b,c}) = 20+10+20+10 = 60.
        assert_eq!(ossm.upper_bound(&set(&[0, 1, 2])), 60);
        // Without the OSSM (single segment): min(110,130) = 110 and min(110,130,100) = 100.
        let single = Ossm::from_aggregates(vec![Aggregate::new(vec![110, 130, 100], 200)]);
        assert_eq!(single.upper_bound(&set(&[0, 1])), 110);
        assert_eq!(single.upper_bound(&set(&[0, 1, 2])), 100);
        // The paper's point: 80 < 110 and 60 < 100, so a threshold below 100
        // prunes {a,b,c} with the OSSM but not without it.
        assert!(ossm.prunes(&set(&[0, 1, 2]), 80));
        assert!(!single.prunes(&set(&[0, 1, 2]), 80));
    }

    #[test]
    fn singleton_bound_is_global_support() {
        let ossm = example_1();
        assert_eq!(ossm.upper_bound(&set(&[0])), 110);
        assert_eq!(ossm.singleton_support(ItemId(1)), 130);
        assert_eq!(ossm.upper_bound(&set(&[2])), 100);
    }

    #[test]
    fn empty_pattern_bound_is_transaction_count() {
        let ossm = example_1();
        assert_eq!(ossm.upper_bound(&Itemset::empty()), ossm.num_transactions());
    }

    #[test]
    fn from_transaction_assignment_counts_per_segment() {
        let d = Dataset::new(2, vec![set(&[0]), set(&[0, 1]), set(&[1]), set(&[1])]);
        let ossm = Ossm::from_transaction_assignment(&d, &[0, 0, 1, 1], 2);
        assert_eq!(ossm.segments()[0].supports(), &[2, 1]);
        assert_eq!(ossm.segments()[1].supports(), &[0, 2]);
        assert_eq!(ossm.num_transactions(), 4);
    }

    #[test]
    fn bound_tightens_with_more_segments() {
        // The same data seen as 1 vs 2 segments: the 2-segment bound is
        // never looser (Section 3: more segments → tighter bound).
        let d = Dataset::new(2, vec![set(&[0]), set(&[0]), set(&[1]), set(&[1])]);
        let one = Ossm::from_transaction_assignment(&d, &[0, 0, 0, 0], 1);
        let two = Ossm::from_transaction_assignment(&d, &[0, 0, 1, 1], 2);
        let x = set(&[0, 1]);
        assert!(two.upper_bound(&x) <= one.upper_bound(&x));
        assert_eq!(
            two.upper_bound(&x),
            0,
            "perfect split gives the exact support"
        );
        assert_eq!(one.upper_bound(&x), 2);
    }

    #[test]
    fn bound_is_sound_against_actual_support() {
        let d = ossm_data::gen::QuestConfig {
            num_transactions: 300,
            ..ossm_data::gen::QuestConfig::small()
        }
        .generate();
        let store = PageStore::with_page_count(d, 10);
        let ossm = Ossm::from_pages(&store, &Segmentation::identity(10));
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                let x = set(&[a, b]);
                assert!(
                    ossm.upper_bound(&x) >= store.dataset().support(&x),
                    "bound violated for {x}"
                );
            }
        }
    }

    #[test]
    fn batched_pair_bounds_equal_upper_bound_at_the_u32_edge() {
        let max = u64::from(u32::MAX);
        // Item rows over three segments: items 0–2 sum to exactly
        // u32::MAX, items 3 and 6 to one past it (so their pair's bound
        // is u32::MAX + 1), item 4 to zero, and item 5 holds a single
        // value past u32::MAX.
        let rows: [[u64; 3]; 7] = [
            [max - 10, 6, 4],
            [max - 10, 10, 0],
            [5, max - 20, 15],
            [max - 10, 6, 5],
            [0, 0, 0],
            [max + 5, 1, 1],
            [max - 10, 6, 5],
        ];
        let segments = (0..3)
            .map(|s| Aggregate::new(rows.iter().map(|r| r[s]).collect(), max + 5))
            .collect();
        let ossm = Ossm::from_aggregates(segments);
        // The narrow path (every row sum fits u32), the wide path by a
        // sum and by a value, and items out of item order.
        for ids in [
            vec![0u32, 1, 2, 4],
            vec![0, 1, 2, 3, 4],
            vec![4, 2, 5, 0],
            vec![3, 6, 0],
            vec![1],
            vec![],
        ] {
            let items: Vec<ItemId> = ids.iter().copied().map(ItemId).collect();
            let n = items.len();
            let mut flags = vec![true; n * n.saturating_sub(1) / 2];
            // One unflagged pair is skipped.
            if let Some(f) = flags.get_mut(1) {
                *f = false;
            }
            let mut expected = Vec::new();
            let mut expected_flags = Vec::new();
            for (x, &a) in ids.iter().enumerate() {
                for &b in &ids[x + 1..] {
                    if expected_flags.len() == 1 {
                        expected_flags.push(false);
                    } else {
                        let ub = ossm.upper_bound(&set(&[a, b]));
                        expected.push(ub);
                        expected_flags.push(ub % 2 == 0);
                    }
                }
            }
            let mut seen = Vec::new();
            let mut every = flags.clone();
            let judged = ossm.upper_bound_pairs(&items, &mut every, |_| true, Some(&mut seen));
            assert_eq!(seen, expected, "items {ids:?}");
            assert_eq!(judged, expected.len() as u64);
            let mut admitted = Vec::new();
            ossm.upper_bound_pairs(&items, &mut flags, |ub| ub % 2 == 0, Some(&mut admitted));
            expected.retain(|ub| ub % 2 == 0);
            assert_eq!(admitted, expected, "items {ids:?}");
            assert_eq!(flags, expected_flags, "items {ids:?}");
        }
        assert_eq!(ossm.upper_bound(&set(&[0, 1])), max - 4);
        assert_eq!(ossm.upper_bound(&set(&[3, 6])), max + 1);
    }

    /// Judges `flags` (possibly shorter than the triangle) over the
    /// pairs of `ids` in one batch and checks every bound, answer and
    /// count against `upper_bound` pair by pair — through
    /// `upper_bound_pairs`, and in parts of one pair or more at 1, 2 and
    /// 8 threads.
    fn check_batch(ossm: &Ossm, ids: &[u32], flags: Vec<bool>) {
        let judge = |ub: u64| ub % 3 != 0;
        let mut bounds = Vec::new();
        let mut expected_flags = flags.clone();
        let mut at = 0;
        for (x, &a) in ids.iter().enumerate() {
            for &b in &ids[x + 1..] {
                if flags.get(at) == Some(&true) {
                    let ub = ossm.upper_bound(&set(&[a, b]));
                    bounds.push(ub);
                    expected_flags[at] = judge(ub);
                }
                at += 1;
            }
        }
        let admitted_bounds: Vec<u64> = bounds.iter().copied().filter(|&ub| judge(ub)).collect();
        let items: Vec<ItemId> = ids.iter().copied().map(ItemId).collect();
        let mut seen = Vec::new();
        let mut every = flags.clone();
        let judged = ossm.upper_bound_pairs(&items, &mut every, |_| true, Some(&mut seen));
        assert_eq!(seen, bounds, "items {ids:?}");
        assert_eq!(judged, bounds.len() as u64, "items {ids:?}");
        let _guard = threads_lock();
        for (threads, min_part_pairs) in [(1, MIN_PART_PAIRS), (1, 1), (2, 1), (8, 1), (8, 5)] {
            ossm_par::set_threads(Some(threads));
            let mut judged_flags = flags.clone();
            let mut admitted = Vec::new();
            let judged = min_sum_pairs_in_parts(
                &items,
                |a| ossm.item_supports(a),
                &mut judged_flags,
                judge,
                Some(&mut admitted),
                min_part_pairs,
            );
            let at = format!("items {ids:?}, {threads} threads, parts of {min_part_pairs}+");
            assert_eq!(admitted, admitted_bounds, "{at}");
            assert_eq!(judged, bounds.len() as u64, "{at}");
            assert_eq!(judged_flags, expected_flags, "{at}");
            // Without `admitted`, the flags and the count are the same.
            let mut unkept = flags.clone();
            let unkept_judged = min_sum_pairs_in_parts(
                &items,
                |a| ossm.item_supports(a),
                &mut unkept,
                judge,
                None,
                min_part_pairs,
            );
            assert_eq!((unkept, unkept_judged), (judged_flags, judged), "{at}");
        }
        ossm_par::set_threads(None);
    }

    /// Tests that set the process-wide thread count must not interleave.
    fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A xorshift step: the next value of `state`, below `below`.
    fn next(state: &mut u64, below: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % below
    }

    /// `width` small values, the last of them making the row sum to
    /// `sum` when one is given.
    fn test_row(state: &mut u64, width: usize, sum: Option<u64>) -> Vec<u64> {
        let mut row: Vec<u64> = (0..width).map(|_| next(state, 20)).collect();
        if let Some(sum) = sum {
            row.pop();
            row.push(sum - row.iter().sum::<u64>());
        }
        row
    }

    #[test]
    fn batched_pair_bounds_equal_upper_bound_in_every_lane_and_layout() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let max16 = u64::from(u16::MAX);
        // One segment puts every batch of two or more items in columns,
        // three a batch of four or more (and a smaller one in rows), and
        // twelve put every batch here in rows. `check_batch` cuts the
        // column layout into parts down to one pair: at 8 threads the
        // ten-item batches part as rows 0..4, 4..8 and 8..10, the last
        // part one sweep.
        for width in [1usize, 3, 12] {
            let mut row = |sum| test_row(&mut state, width, sum);
            // Items 0–6: small rows, two equal rows at exactly u16::MAX
            // (1 and 3, whose pair's bound is u16::MAX), another at
            // u16::MAX (5) and a zero row (4). Items 7 and 8: equal rows
            // at u16::MAX + 1, whose pair's bound is u16::MAX + 1 — a
            // batch holding one runs in u32. Item 9: a row past u32::MAX,
            // which forces u64.
            let at_max = row(Some(max16));
            let past_max = row(Some(max16 + 1));
            let rows = [
                row(None),
                at_max.clone(),
                row(None),
                at_max,
                vec![0; width],
                row(Some(max16)),
                row(None),
                past_max.clone(),
                past_max,
                row(Some(u64::from(u32::MAX) + 2)),
            ];
            let segments = (0..width)
                .map(|s| Aggregate::new(rows.iter().map(|r| r[s]).collect(), 1 << 40))
                .collect();
            let ossm = Ossm::from_aggregates(segments);
            assert_eq!(ossm.upper_bound(&set(&[1, 3])), max16);
            assert_eq!(ossm.upper_bound(&set(&[7, 8])), max16 + 1);
            for ids in [
                (0..7).collect::<Vec<u32>>(),
                vec![0, 2, 4, 6, 7],
                (0..9).collect(),
                vec![1, 3, 7, 8],
                (0..10).collect(),
                vec![9, 2, 5],
                vec![1, 3],
                vec![4],
                vec![],
            ] {
                let n = ids.len() * ids.len().saturating_sub(1) / 2;
                // Every pair, a random three quarters, and the same
                // flags cut short: pairs past the end stay unjudged.
                let all = vec![true; n];
                let some: Vec<bool> = (0..n).map(|_| next(&mut state, 4) != 0).collect();
                for flags in [all, some.clone(), some[..n / 2].to_vec(), Vec::new()] {
                    check_batch(&ossm, &ids, flags);
                }
                if n > 1 {
                    check_batch(&ossm, &ids, some[..n - 1].to_vec());
                }
            }
        }
    }

    #[test]
    fn triangle_parts_cut_aligned_rows_of_about_equal_pairs() {
        let _guard = threads_lock();
        for threads in [1usize, 2, 3, 8] {
            ossm_par::set_threads(Some(threads));
            for items in [0usize, 1, 2, 3, 4, 5, 9, 10, 13, 64, 400, 771] {
                for min_pairs in [1usize, 7, 1000, MIN_PART_PAIRS] {
                    let parts = triangle_parts(items, min_pairs);
                    let total = pairs_before(items, items);
                    let at = format!("{items} items, {threads} threads, {min_pairs}+ pairs");
                    assert!(parts.len() <= threads.max(1), "{at}");
                    let mut next = 0;
                    for r in &parts {
                        assert_eq!(r.start, next, "{at}: contiguous");
                        assert!(r.start < r.end, "{at}: no empty range");
                        assert_eq!(r.start % SWEEP, 0, "{at}: aligned");
                        next = r.end;
                    }
                    assert_eq!(next, items, "{at}: covers every row");
                    if total < 2 * min_pairs {
                        assert!(parts.len() <= 1, "{at}: too few pairs to part");
                    }
                    if items >= 400 && parts.len() > 1 {
                        // Within a sweep's pairs of an equal share.
                        let share = total / parts.len();
                        for r in &parts {
                            let pairs = pairs_before(r.end, items) - pairs_before(r.start, items);
                            assert!(pairs.abs_diff(share) <= SWEEP * items, "{at}: {r:?}");
                        }
                    }
                }
            }
        }
        ossm_par::set_threads(Some(8));
        assert_eq!(triangle_parts(10, 1), [0..4, 4..8, 8..10]);
        ossm_par::set_threads(Some(2));
        assert_eq!(triangle_parts(771, MIN_PART_PAIRS), [0..228, 228..771]);
        ossm_par::set_threads(None);
    }

    #[test]
    fn memory_bytes_scales_with_segments() {
        let ossm = example_1();
        assert_eq!(ossm.memory_bytes(), 4 * 3 * 8);
    }

    #[test]
    #[should_panic(expected = "share the item domain")]
    fn rejects_mismatched_domains() {
        Ossm::from_aggregates(vec![Aggregate::zero(2), Aggregate::zero(3)]);
    }
}
