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

use ossm_data::{ItemId, Itemset, PageStore};

use crate::segmentation::{Aggregate, Segmentation};

/// Equation-(1) evaluations through [`Ossm::upper_bound`].
static BOUND_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.bound.evals");
/// Evaluations through the pair-specialized [`Ossm::upper_bound_pair`].
static BOUND_PAIR_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.bound.pair_evals");
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
/// as the flag. Rows are of one length; a pair past the end of `pairs`
/// is not judged. Returns the number of pairs judged.
///
/// When every row sums to at most `u32::MAX`, the rows are copied to
/// `u32` and each min-sum is accumulated in `u32`, which the x86-64
/// baseline vectorizes; otherwise they are judged as given, in `u64`.
// SOUND: each term is the minimum of the two rows at one position and
// every position is summed — `min_sum` for `[a, b]`. The `u32`
// accumulator cannot overflow: a min-sum is at most the smaller row's
// sum, and the narrow path runs only when every row sum fits `u32`.
pub fn min_sum_pairs<'r, T>(
    items: &[ItemId],
    row: impl Fn(ItemId) -> &'r [T],
    pairs: &mut [bool],
    judge: impl FnMut(u64) -> bool,
) -> u64
where
    T: Copy + Ord + Into<u64> + 'r,
{
    let rows: Vec<&[T]> = items.iter().map(|&a| row(a)).collect();
    let narrow = rows.iter().all(|r| {
        r.iter()
            .try_fold(0u32, |sum, &v| {
                sum.checked_add(u32::try_from(v.into()).ok()?)
            })
            .is_some()
    });
    if !narrow {
        return judge_rows::<T, u64>(&rows, pairs, judge);
    }
    let width = rows.first().map_or(0, |r| r.len());
    let copy: Vec<u32> = rows
        .iter()
        .flat_map(|r| {
            r.iter()
                .map(|&v| u32::try_from(v.into()).unwrap_or(u32::MAX))
        })
        .collect();
    let narrow_rows: Vec<&[u32]> = if width == 0 {
        vec![&[]; rows.len()]
    } else {
        copy.chunks_exact(width).collect()
    };
    judge_rows::<u32, u32>(&narrow_rows, pairs, judge)
}

/// [`min_sum_pairs`] over rows of `T`, each min-sum accumulated in `A`.
fn judge_rows<T, A>(rows: &[&[T]], pairs: &mut [bool], mut judge: impl FnMut(u64) -> bool) -> u64
where
    T: Copy + Ord + Into<A>,
    A: Copy + Default + std::ops::Add<Output = A> + Into<u64>,
{
    let mut flags = pairs.iter_mut();
    let mut judged = 0;
    for (x, a) in rows.iter().enumerate() {
        for b in rows.iter().skip(x + 1) {
            let Some(flag) = flags.next() else {
                return judged;
            };
            if *flag {
                let ub = a
                    .iter()
                    .zip(b.iter())
                    .fold(A::default(), |sum, (&p, &q)| sum + p.min(q).into());
                *flag = judge(ub.into());
                judged += 1;
            }
        }
    }
    judged
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

    /// Equation (1) specialized to a pair of items — the hot path of
    /// candidate-2-itemset filtering.
    // SOUND: identical to `upper_bound` for X = {a, b}: the min-sum of
    // the two items' rows is exactly the eq. (1) sum.
    pub fn upper_bound_pair(&self, a: ItemId, b: ItemId) -> u64 {
        BOUND_PAIR_EVALS.incr();
        min_sum(&[a, b], |i| self.item_supports(i))
    }

    /// Equation (1) for a batch of pairs: every pair of `items` flagged
    /// in `pairs`, judged by `judge(ub)` as [`min_sum_pairs`] describes,
    /// with the number judged added to `core.bound.evals` once. Returns
    /// that number.
    ///
    /// # Panics
    /// Panics if an item of `items` lies outside the map's domain.
    // SOUND: `min_sum_pairs` over every item's full row is the min-sum
    // of `upper_bound` for each pair {a, b}, in `u32` only when no row
    // sum exceeds it.
    pub fn upper_bound_pairs(
        &self,
        items: &[ItemId],
        pairs: &mut [bool],
        judge: impl FnMut(u64) -> bool,
    ) -> u64 {
        let judged = min_sum_pairs(items, |a| self.item_supports(a), pairs, judge);
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
        assert_eq!(ossm.upper_bound_pair(ItemId(0), ItemId(1)), 80);
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
            let judged = ossm.upper_bound_pairs(&items, &mut flags, |ub| {
                seen.push(ub);
                ub % 2 == 0
            });
            assert_eq!(seen, expected, "items {ids:?}");
            assert_eq!(judged, expected.len() as u64);
            assert_eq!(flags, expected_flags, "items {ids:?}");
        }
        assert_eq!(ossm.upper_bound(&set(&[0, 1])), max - 4);
        assert_eq!(ossm.upper_bound(&set(&[3, 6])), max + 1);
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
