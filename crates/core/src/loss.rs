//! The accuracy-loss quantity of equation (2) (Section 5.1 of the paper).
//!
//! For a set `S = {S_1, …, S_k}` of segments,
//!
//! ```text
//! loss(S) = Σ_{pairs {x,y}} [ ub({x,y}, merged(S)) − ub({x,y}, S kept apart) ]
//!         = Σ_{x<y} min(W_x, W_y)  −  Σ_s Σ_{x<y} min(u_s[x], u_s[y])
//! ```
//!
//! where `W = Σ_s u_s`. Writing `f(w) = Σ_{x<y} min(w_x, w_y)`, the loss is
//! `f(W) − Σ_s f(u_s)` — so everything reduces to evaluating `f`.
//!
//! The paper evaluates `f` by the obvious O(m²) pair loop, which makes `m²`
//! the dominant factor in Greedy's and RC's complexity (Section 5.3). This
//! module evaluates it in linear time instead. A zero entry is the minimum
//! of its pairs but adds nothing to them, so `f(w)` equals `f` of the `k`
//! nonzero values of `w`, and one of two exact identities finishes the
//! job:
//!
//! * **Layer cake.** `min(a, b) = Σ_{t≥1} [a ≥ t][b ≥ t]`, so
//!   `f(w) = Σ_{t≥1} C(c_t, 2)` with `c_t = #{x : w_x ≥ t}`. A histogram
//!   of the values and one descending suffix pass over `1..=max` give
//!   every `c_t`: O(m + max), no sort, no scatter. This is the path for
//!   page-scale supports, where `max` is at most a small multiple of `k`.
//! * **Sorted ranks.** Sort the values ascending; the value at sorted
//!   position `i` is the minimum of exactly `k − 1 − i` pairs, so
//!   `f(w) = Σ_i sorted(w)[i] · (k − 1 − i)`. The sort is an LSD byte
//!   radix sort with one pass per byte of the largest value,
//!   O(m + k·⌈log₂₅₆ max⌉). This is the fallback for large values, where
//!   the layer cake's suffix pass would be longer than the sort.
//!
//! Both are integer sums of the same quantity, so the choice changes no
//! value; `core.loss.{hist,radix}_evals` count how often each ran.
//!
//! The segmentation loops never recompute `f` of a segment they hold:
//! RC, Greedy and [`crate::IncrementalOssm`] cache `f(u_s)` per live
//! segment, so a merge loss `f(a + b) − f(a) − f(b)` costs one pass over
//! `a + b` into reused buffers, and a merged segment's `f` is
//! `loss + f(a) + f(b)` for free. The naive and fast evaluations are
//! verified equal by unit and property tests, and compared in the `loss`
//! ablation bench.
//!
//! The *bubble list* optimization (Section 5.3) restricts the pair sum to a
//! chosen subset of items; [`LossCalculator`] carries that scope.

use crate::segmentation::Aggregate;

/// `f(w) = Σ_{x<y} min(w_x, w_y)` by the paper's O(m²) pair loop.
pub fn pair_min_sum_naive(w: &[u64]) -> u64 {
    let mut total = 0u64;
    let mut rest = w;
    while let Some((&x, tail)) = rest.split_first() {
        total += tail.iter().map(|&y| x.min(y)).sum::<u64>();
        rest = tail;
    }
    total
}

/// `f(w)` without the pair loop (see module docs for the two identities).
pub fn pair_min_sum(w: &[u64]) -> u64 {
    Scratch::default().pair_min_sum(w.iter().copied())
}

/// Evaluations by the layer-cake identity.
static HIST_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.loss.hist_evals");
/// Evaluations by the radix-sorted identity (large values).
static RADIX_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.loss.radix_evals");

/// The layer-cake identity runs when the largest value is at most this
/// many times the number of nonzero values. Its cost is one histogram
/// increment per value plus one suffix step per possible value, while the
/// radix sort pays a count and a scatter per value and byte. Timed on
/// both sides of the choice, the two cost the same near a span of 4 at
/// m = 1000 and near 8 at m = 240; ablation A1 times both paths.
const HIST_SPAN: u64 = 4;

/// Reusable buffers for evaluating `f`. A segmentation scan owns one and
/// passes it to every evaluation, so the steady state allocates nothing.
///
/// It also tallies which identity each evaluation took and adds the
/// tallies to `core.loss.{hist,radix}_evals` when flushed or dropped, so
/// a scan pays two counter updates rather than one per evaluation.
#[derive(Default)]
pub(crate) struct Scratch {
    keys: Vec<u64>,
    spare: Vec<u64>,
    /// `hist[t]` = how many values equal `t`; all zero between
    /// evaluations.
    hist: Vec<u32>,
    hist_evals: u64,
    radix_evals: u64,
}

impl Drop for Scratch {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A clone starts empty: the buffers are scratch space, and the tallies
/// belong to the evaluations the original made, which it flushes itself.
impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch").finish_non_exhaustive()
    }
}

impl Scratch {
    /// Adds the tallies so far to `core.loss.{hist,radix}_evals` and
    /// zeroes them, for an owner that outlives many scans.
    pub(crate) fn flush(&mut self) {
        HIST_EVALS.add(std::mem::take(&mut self.hist_evals));
        RADIX_EVALS.add(std::mem::take(&mut self.radix_evals));
    }

    /// `f` of `values`, zeros dropped first.
    // INFALLIBLE: `keys` is first resized to `values.len()`, which is exact
    // for the slice-based iterators every caller passes, and the write
    // cursor `k` never passes the number of values written so far.
    fn pair_min_sum(&mut self, values: impl ExactSizeIterator<Item = u64>) -> u64 {
        // Branch-free compaction: every value is written, but the cursor
        // only moves past nonzero ones.
        self.keys.resize(values.len(), 0);
        let (mut k, mut max) = (0, 0);
        for v in values {
            self.keys[k] = v;
            k += usize::from(v != 0);
            max = max.max(v);
        }
        self.keys.truncate(k);
        if max <= HIST_SPAN.saturating_mul(k as u64) && u32::try_from(k).is_ok() {
            self.hist_evals += 1;
            // `max ≤ 4·k` fits `usize`: `keys` already holds `k` values of
            // 8 bytes each.
            self.layer_cake(max as usize)
        } else {
            self.radix_evals += 1;
            radix_sort(&mut self.keys, &mut self.spare, max);
            let k = k as u64;
            self.keys
                .iter()
                .zip((0..k).rev())
                .map(|(&v, r)| v * r)
                .sum()
        }
    }

    /// `f` of the nonzero `keys`, all at most `max`, as `Σ_t C(c_t, 2)`
    /// with `c_t` the number of keys ≥ `t`. Leaves `hist` all zero.
    // INFALLIBLE: `hist` is grown to `max + 1` entries before the fill and
    // every key is at most `max`, which is a key itself when nonzero, so
    // `c ≥ 1` inside the suffix pass. A count cannot overflow `u32`
    // because the caller checked that the number of keys fits one.
    fn layer_cake(&mut self, max: usize) -> u64 {
        if self.hist.len() <= max {
            self.hist.resize(max + 1, 0);
        }
        for &v in &self.keys {
            self.hist[v as usize] += 1;
        }
        // Descending suffix pass: `c` is `c_t`, at least 1 from `t = max`
        // on, and taking each count restores the all-zero invariant.
        let (mut c, mut total) = (0u64, 0u64);
        for count in self.hist[1..=max].iter_mut().rev() {
            c += u64::from(std::mem::take(count));
            total += c * (c - 1) / 2;
        }
        total
    }

    /// `f` of `values` by the O(m²) pair loop, zeros kept.
    fn pair_min_sum_naive(&mut self, values: impl Iterator<Item = u64>) -> u64 {
        self.keys.clear();
        self.keys.extend(values);
        pair_min_sum_naive(&self.keys)
    }
}

/// Sorts `keys` ascending by least-significant-byte-first radix passes,
/// one per byte of `max`, the largest key; `spare` is the scatter buffer.
///
/// All histograms come from one read of the keys, and a pass whose byte
/// is the same for every key is skipped (it would copy the keys
/// unchanged).
// INFALLIBLE: every histogram index is a byte (`as u8`, < 256) into a
// 256-entry array, and every scatter slot `next[b]` stays below the
// prefix sum of buckets `0..=b`, which is at most
// `keys.len() == spare.len()`.
fn radix_sort(keys: &mut Vec<u64>, spare: &mut Vec<u64>, max: u64) {
    let passes = (u64::BITS - max.leading_zeros()).div_ceil(8) as usize;
    let mut counts = [[0usize; 256]; 8];
    for &v in keys.iter() {
        for (p, count) in counts.iter_mut().take(passes).enumerate() {
            count[(v >> (8 * p)) as u8 as usize] += 1;
        }
    }
    spare.resize(keys.len(), 0);
    for (p, count) in counts.iter().take(passes).enumerate() {
        if count.contains(&keys.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = start;
            start += c;
        }
        for &v in keys.iter() {
            let b = (v >> (8 * p)) as u8 as usize;
            spare[next[b]] = v;
            next[b] += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// Support of `item` in `w`; an item past the end of `w` has none.
fn support(w: &[u64], item: u32) -> u64 {
    w.get(item as usize).copied().unwrap_or(0)
}

/// Evaluates `f` and merge losses, optionally restricted to a bubble list.
#[derive(Clone, Debug, Default)]
pub struct LossCalculator {
    /// `None` = all items; `Some(items)` = only pairs within these item ids.
    scope: Option<Vec<u32>>,
    /// Use the O(m²) evaluation instead of the linear one (the reference
    /// for the ablation bench and cross-validation).
    naive: bool,
}

impl LossCalculator {
    /// A calculator summing over all item pairs (no bubble list).
    pub fn all_items() -> Self {
        LossCalculator {
            scope: None,
            naive: false,
        }
    }

    /// A calculator restricted to the given item ids (the bubble list).
    pub fn scoped(items: Vec<u32>) -> Self {
        LossCalculator {
            scope: Some(items),
            naive: false,
        }
    }

    /// Switches to the paper's O(m²) evaluation. Same results, slower; kept
    /// for the ablation bench.
    pub fn with_naive_evaluation(mut self) -> Self {
        self.naive = true;
        self
    }

    /// `f` of `values` under the calculator's evaluation mode.
    fn eval(&self, values: impl ExactSizeIterator<Item = u64>, scratch: &mut Scratch) -> u64 {
        if self.naive {
            scratch.pair_min_sum_naive(values)
        } else {
            scratch.pair_min_sum(values)
        }
    }

    /// `f(w)` over the calculator's scope, reusing `scratch`.
    pub(crate) fn pair_min_sum_with(&self, supports: &[u64], scratch: &mut Scratch) -> u64 {
        match &self.scope {
            None => self.eval(supports.iter().copied(), scratch),
            Some(items) => self.eval(items.iter().map(|&i| support(supports, i)), scratch),
        }
    }

    /// `f` of every input, in input order: the cache a segmentation loop
    /// starts from.
    pub(crate) fn pair_min_sums(&self, inputs: &[Aggregate]) -> Vec<u64> {
        let mut scratch = Scratch::default();
        inputs
            .iter()
            .map(|a| self.pair_min_sum_with(a.supports(), &mut scratch))
            .collect()
    }

    /// `f(w)` over the calculator's scope.
    pub fn pair_min_sum(&self, supports: &[u64]) -> u64 {
        self.pair_min_sum_with(supports, &mut Scratch::default())
    }

    /// Equation (2) for a pair of segments:
    /// `loss({a, b}) = f(a + b) − f(a) − f(b)`. Always ≥ 0 (Lemma 2), and 0
    /// when the two segments share a configuration (Lemma 1).
    pub fn merge_loss(&self, a: &Aggregate, b: &Aggregate) -> u64 {
        let mut scratch = Scratch::default();
        let fa = self.pair_min_sum_with(a.supports(), &mut scratch);
        let fb = self.pair_min_sum_with(b.supports(), &mut scratch);
        self.merge_loss_with(a, fa, b, fb, &mut scratch)
    }

    /// [`Self::merge_loss`] given the cached `fa = f(a)` and `fb = f(b)`:
    /// one evaluation of `f(a + b)`, with no allocation once `scratch` has
    /// grown to the scope size.
    pub(crate) fn merge_loss_with(
        &self,
        a: &Aggregate,
        fa: u64,
        b: &Aggregate,
        fb: u64,
        scratch: &mut Scratch,
    ) -> u64 {
        let (a, b) = (a.supports(), b.supports());
        let fsum = match &self.scope {
            None => self.eval(a.iter().zip(b).map(|(x, y)| x + y), scratch),
            Some(items) => self.eval(
                items.iter().map(|&i| support(a, i) + support(b, i)),
                scratch,
            ),
        };
        fsum - fa - fb
    }

    /// Equation (2) for an arbitrary set of segments:
    /// `loss(S) = f(Σ_s u_s) − Σ_s f(u_s)`.
    pub fn set_loss<'a, I>(&self, segments: I) -> u64
    where
        I: IntoIterator<Item = &'a Aggregate>,
    {
        let mut scratch = Scratch::default();
        let mut total_f = 0u64;
        let mut sum: Option<Vec<u64>> = None;
        for seg in segments {
            total_f += self.pair_min_sum_with(seg.supports(), &mut scratch);
            match &mut sum {
                None => sum = Some(seg.supports().to_vec()),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(seg.supports()) {
                        *a += b;
                    }
                }
            }
        }
        match sum {
            None => 0,
            Some(total) => self.pair_min_sum_with(&total, &mut scratch) - total_f,
        }
    }

    /// Every pairwise merge loss among `inputs`, as `(loss, a, b)` triples
    /// ordered by `(a, b)` — the O(p²·m) matrix Greedy's initialization
    /// consumes.
    pub fn pairwise_merge_losses(&self, inputs: &[Aggregate]) -> Vec<(u64, usize, usize)> {
        self.pairwise_merge_losses_with(inputs, &self.pair_min_sums(inputs))
    }

    /// [`Self::pairwise_merge_losses`] given `fs[i] = f(inputs[i])`.
    ///
    /// Rows are chunked across worker threads (row `a` covers the pairs
    /// `(a, b)` for all `b > a`), each chunk with its own scratch;
    /// per-chunk results concatenate in row order, so the output is
    /// identical at any thread count.
    pub(crate) fn pairwise_merge_losses_with(
        &self,
        inputs: &[Aggregate],
        fs: &[u64],
    ) -> Vec<(u64, usize, usize)> {
        /// Rows per chunk floor: early rows are the longest, so small
        /// chunks would leave the tail workers idle on trivial rows.
        const MIN_ROWS: usize = 4;
        let n = inputs.len();
        ossm_par::map_chunks(n, MIN_ROWS, |r| {
            let mut scratch = Scratch::default();
            let mut out = Vec::new();
            for a in r {
                for b in (a + 1)..n {
                    let loss =
                        self.merge_loss_with(&inputs[a], fs[a], &inputs[b], fs[b], &mut scratch);
                    out.push((loss, a, b));
                }
            }
            out
        })
        .concat()
    }

    /// Total loss of a segmentation relative to its inputs: the sum of
    /// [`Self::set_loss`] over every group. This is the objective the
    /// constrained segmentation problem minimizes.
    pub fn segmentation_loss(
        &self,
        inputs: &[Aggregate],
        segmentation: &crate::segmentation::Segmentation,
    ) -> u64 {
        segmentation
            .groups()
            .iter()
            .map(|g| self.set_loss(g.iter().map(|&i| &inputs[i])))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(counts: &[u64]) -> Aggregate {
        Aggregate::new(counts.to_vec(), counts.iter().sum())
    }

    #[test]
    fn pair_min_sum_small_cases() {
        assert_eq!(pair_min_sum_naive(&[]), 0);
        assert_eq!(pair_min_sum_naive(&[7]), 0);
        assert_eq!(pair_min_sum_naive(&[3, 5]), 3);
        assert_eq!(pair_min_sum_naive(&[3, 5, 1]), 1 + 1 + 3);
        for w in [
            &[][..],
            &[7][..],
            &[3, 5][..],
            &[3, 5, 1][..],
            &[4, 4, 4][..],
        ] {
            assert_eq!(pair_min_sum(w), pair_min_sum_naive(w), "w = {w:?}");
        }
    }

    #[test]
    fn fast_equals_naive_on_random_vectors() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // One value of the given shape: small, mostly zero, ≥ 2³² (five
        // or more radix passes), or sharing its high bytes with every
        // other value of the shape (constant-byte passes are skipped).
        let value = |rng: &mut StdRng, shape: usize| -> u64 {
            match shape {
                0 => rng.gen_range(0..100),
                1 if rng.gen_bool(0.85) => 0,
                1 => rng.gen_range(1..1000),
                2 if rng.gen_bool(0.2) => 0,
                2 => rng.gen_range(1u64 << 32..1 << 44),
                _ => (1 << 40) + rng.gen_range(0..300),
            }
        };
        let naive = LossCalculator::all_items().with_naive_evaluation();
        let fast = LossCalculator::all_items();
        // One scratch across every case, so buffers left over from a
        // longer vector must not leak into a shorter one.
        let mut scratch = Scratch::default();
        for case in 0..500 {
            let len = if case < 10 {
                case % 2
            } else {
                rng.gen_range(0..40)
            };
            let shape = case % 5;
            let vector = |rng: &mut StdRng| -> Vec<u64> {
                if shape == 4 {
                    // All equal, zero and large values included.
                    let shape = rng.gen_range(0..4);
                    let v = value(rng, shape);
                    vec![v; len]
                } else {
                    (0..len).map(|_| value(rng, shape)).collect()
                }
            };
            let (w, v) = (vector(&mut rng), vector(&mut rng));
            assert_eq!(pair_min_sum(&w), pair_min_sum_naive(&w), "w = {w:?}");
            let (a, b) = (agg(&w), agg(&v));
            let mut scope: Vec<u32> = (0..len as u32).filter(|_| rng.gen_bool(0.5)).collect();
            scope.shuffle(&mut rng);
            let scoped = LossCalculator::scoped(scope.clone());
            let scoped_naive = LossCalculator::scoped(scope).with_naive_evaluation();
            for (calc, reference) in [(&fast, &naive), (&scoped, &scoped_naive)] {
                assert_eq!(
                    calc.pair_min_sum(&w),
                    reference.pair_min_sum(&w),
                    "w = {w:?}"
                );
                let loss = reference.merge_loss(&a, &b);
                assert_eq!(calc.merge_loss(&a, &b), loss, "a = {w:?}, b = {v:?}");
                let fa = calc.pair_min_sum_with(&w, &mut scratch);
                let fb = calc.pair_min_sum_with(&v, &mut scratch);
                assert_eq!(
                    calc.merge_loss_with(&a, fa, &b, fb, &mut scratch),
                    loss,
                    "a = {w:?}, b = {v:?}"
                );
            }
        }
    }

    /// A vector of `len` values in one of the shapes that straddle the
    /// choice between the two identities; `None` where the shape needs
    /// more values than `len`.
    fn straddling(rng: &mut rand::rngs::StdRng, len: usize, shape: usize) -> Option<Vec<u64>> {
        use rand::Rng;
        // `k` nonzero values at random positions, the largest `max`.
        fn place(rng: &mut rand::rngs::StdRng, w: &mut [u64], k: usize, max: u64) {
            for (i, v) in w.iter_mut().enumerate().take(k) {
                *v = if i == 0 { max } else { rng.gen_range(1..=max) };
            }
            rand::seq::SliceRandom::shuffle(w, rng);
        }
        let mut w = vec![0u64; len];
        let k = rng.gen_range(1..=len.max(1));
        match shape {
            0 => {} // all zeros
            1 if len > 0 => {
                let max = rng.gen_range(1..1 << 40);
                place(rng, &mut w, 1, max);
            }
            2 if len > 0 => w.fill(rng.gen_range(1..1 << 40)),
            // `max` exactly at the histogram's limit, then one above it.
            3 if len > 0 => place(rng, &mut w, k, HIST_SPAN * k as u64),
            4 if len > 0 => place(rng, &mut w, k, HIST_SPAN * k as u64 + 1),
            5 if len > 0 => {
                for v in &mut w {
                    *v = if rng.gen_bool(0.2) {
                        0
                    } else {
                        rng.gen_range(1 << 32..1 << 44)
                    };
                }
                w[rng.gen_range(0..len)] = 1 << 32;
            }
            6 => {
                for v in &mut w {
                    *v = rng.gen_range(0..100);
                }
            }
            _ => return None,
        }
        Some(w)
    }

    #[test]
    fn flushed_and_cloned_scratch_hold_no_tallies() {
        let mut scratch = Scratch::default();
        scratch.pair_min_sum([3u64, 1, 2].into_iter());
        scratch.pair_min_sum([1u64 << 40, 1].into_iter());
        assert_eq!((scratch.hist_evals, scratch.radix_evals), (1, 1));
        // A clone must not add the original's evaluations a second time.
        let copy = scratch.clone();
        assert_eq!((copy.hist_evals, copy.radix_evals), (0, 0));
        scratch.flush();
        assert_eq!((scratch.hist_evals, scratch.radix_evals), (0, 0));
        assert!(scratch.keys.capacity() > 0, "flushing keeps the buffers");
    }

    #[test]
    fn both_identities_match_the_pair_loop_around_the_threshold() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20);
        let naive = LossCalculator::all_items().with_naive_evaluation();
        let fast = LossCalculator::all_items();
        // One scratch for every case, first filled by a long vector with a
        // large histogram, so nothing it leaves may leak into later ones.
        let mut scratch = Scratch::default();
        let long: Vec<u64> = (1..=1000).map(|v| v * HIST_SPAN).collect();
        assert_eq!(
            scratch.pair_min_sum(long.iter().copied()),
            pair_min_sum_naive(&long)
        );
        assert_eq!(scratch.hist_evals, 1);
        for len in (0..=64).chain([1000]) {
            for shape in 0..7 {
                let Some(w) = straddling(&mut rng, len, shape) else {
                    continue;
                };
                let Some(v) = straddling(&mut rng, len, shape) else {
                    continue;
                };
                let expected = pair_min_sum_naive(&w);
                let before = (scratch.hist_evals, scratch.radix_evals);
                assert_eq!(
                    scratch.pair_min_sum(w.iter().copied()),
                    expected,
                    "w = {w:?}"
                );
                assert!(scratch.hist.iter().all(|&c| c == 0), "histogram left dirty");
                let took_hist = scratch.hist_evals > before.0;
                assert_ne!(took_hist, scratch.radix_evals > before.1);
                match shape {
                    0 | 3 => assert!(took_hist, "shape {shape}, w = {w:?}"),
                    4 | 5 => assert!(!took_hist, "shape {shape}, w = {w:?}"),
                    _ => {}
                }
                let mut scope: Vec<u32> = (0..len as u32).filter(|_| rng.gen_bool(0.5)).collect();
                scope.shuffle(&mut rng);
                let scoped = LossCalculator::scoped(scope.clone());
                let scoped_naive = LossCalculator::scoped(scope).with_naive_evaluation();
                let (a, b) = (agg(&w), agg(&v));
                for (calc, reference) in [(&fast, &naive), (&scoped, &scoped_naive)] {
                    let fa = calc.pair_min_sum_with(&w, &mut scratch);
                    let fb = calc.pair_min_sum_with(&v, &mut scratch);
                    assert_eq!(fa, reference.pair_min_sum(&w), "w = {w:?}");
                    assert_eq!(
                        calc.merge_loss_with(&a, fa, &b, fb, &mut scratch),
                        reference.merge_loss(&a, &b),
                        "a = {w:?}, b = {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_loss_matches_papers_swap_analysis() {
        // Section 4.2: segments (x ≥ y) with (3,1) and (y ≥ x) with (1,3):
        // merged min = min(4,4) = 4; separate = min(3,1) + min(1,3) = 2.
        let calc = LossCalculator::all_items();
        assert_eq!(calc.merge_loss(&agg(&[3, 1]), &agg(&[1, 3])), 2);
    }

    #[test]
    fn lemma_2a_same_configuration_zero_loss() {
        let calc = LossCalculator::all_items();
        assert_eq!(calc.merge_loss(&agg(&[5, 3, 1]), &agg(&[8, 6, 2])), 0);
        assert_eq!(
            calc.set_loss([&agg(&[5, 3, 1]), &agg(&[8, 6, 2]), &agg(&[2, 1, 0])]),
            0
        );
    }

    #[test]
    fn lemma_2b_strictly_differing_configurations_positive_loss() {
        let calc = LossCalculator::all_items();
        assert!(calc.merge_loss(&agg(&[5, 1]), &agg(&[1, 5])) > 0);
        assert!(calc.set_loss([&agg(&[5, 3, 1]), &agg(&[1, 3, 5])]) > 0);
    }

    #[test]
    fn lemma_2c_loss_is_monotone_in_the_set() {
        let calc = LossCalculator::all_items();
        let a = agg(&[5, 1, 2]);
        let b = agg(&[1, 5, 0]);
        let c = agg(&[2, 2, 9]);
        let two = calc.set_loss([&a, &b]);
        let three = calc.set_loss([&a, &b, &c]);
        assert!(two <= three, "loss must not decrease when the set grows");
    }

    #[test]
    fn set_loss_of_pair_equals_merge_loss() {
        let calc = LossCalculator::all_items();
        let a = agg(&[9, 4, 0, 2]);
        let b = agg(&[1, 6, 3, 3]);
        assert_eq!(calc.set_loss([&a, &b]), calc.merge_loss(&a, &b));
        assert_eq!(calc.set_loss([&a]), 0, "single segment loses nothing");
        assert_eq!(calc.set_loss(std::iter::empty()), 0);
    }

    #[test]
    fn scoped_calculator_restricts_the_pair_sum() {
        // Items 0 and 2 disagree in ranking; item 1 is the only bubble item
        // → scoped loss must be 0 (no pair inside the scope).
        let a = agg(&[5, 2, 1]);
        let b = agg(&[1, 2, 5]);
        let all = LossCalculator::all_items();
        let bubble = LossCalculator::scoped(vec![1]);
        assert!(all.merge_loss(&a, &b) > 0);
        assert_eq!(bubble.merge_loss(&a, &b), 0);
        // Scope {0, 2} sees exactly the disagreeing pair.
        let pair_scope = LossCalculator::scoped(vec![0, 2]);
        assert_eq!(pair_scope.merge_loss(&a, &b), 4); // min(6,6) − min(5,1) − min(1,5) = 4
    }

    #[test]
    fn naive_mode_gives_identical_losses() {
        let a = agg(&[9, 4, 0, 2, 7]);
        let b = agg(&[1, 6, 3, 3, 2]);
        let fast = LossCalculator::all_items();
        let naive = LossCalculator::all_items().with_naive_evaluation();
        assert_eq!(fast.merge_loss(&a, &b), naive.merge_loss(&a, &b));
    }

    #[test]
    fn segmentation_loss_sums_groups() {
        use crate::segmentation::Segmentation;
        let inputs = vec![agg(&[5, 1]), agg(&[1, 5]), agg(&[4, 1])];
        let calc = LossCalculator::all_items();
        // Group {0,1}: f([6,6]) − f([5,1]) − f([1,5]) = 6 − 1 − 1 = 4; group {2} loses 0.
        let seg = Segmentation::from_groups(vec![vec![0, 1], vec![2]], 3);
        assert_eq!(calc.segmentation_loss(&inputs, &seg), 4);
        // Identity loses nothing.
        assert_eq!(
            calc.segmentation_loss(&inputs, &Segmentation::identity(3)),
            0
        );
        // Grouping the two same-configuration segments loses nothing.
        let good = Segmentation::from_groups(vec![vec![0, 2], vec![1]], 3);
        assert_eq!(calc.segmentation_loss(&inputs, &good), 0);
    }
}
