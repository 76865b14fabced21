//! Incremental OSSM maintenance — appending data without resegmenting.
//!
//! The OSSM's precursor, the SSM, was built for *online* mining (the Carma
//! case study \[10\] in the paper's related work), where transactions keep
//! arriving. This module extends the OSSM the same way: new pages are
//! folded into an existing map without re-running segmentation from
//! scratch. Each arriving aggregate either
//!
//! 1. opens a fresh segment, if the map is below its segment budget, or
//! 2. merges into the live segment with the smallest equation-(2) merge
//!    loss — the same criterion RC/Greedy optimize at build time.
//!
//! The result is never better than a full rebuild (the builder can always
//! reshuffle history), but it is sound by construction — bounds stay upper
//! bounds because aggregates only ever add — and the maintenance cost per
//! page is one loss scan: each live segment caches its `f(u_s)`, so the
//! scan is `n` linear passes over the page plus a segment, O(n · k) for a
//! loss scope of `k` items.

use ossm_data::{Itemset, PageStore};

use crate::loss::{LossCalculator, Scratch};
use crate::segmentation::Aggregate;
use crate::ssm::Ossm;

/// Error from [`IncrementalOssm::new`]: a segment budget of zero cannot
/// hold any aggregate, so no sound map could ever be snapshotted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZeroSegmentBudget;

impl std::fmt::Display for ZeroSegmentBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("an OSSM needs a segment budget of at least one")
    }
}

impl std::error::Error for ZeroSegmentBudget {}

/// An OSSM that accepts appended pages.
#[derive(Clone, Debug)]
pub struct IncrementalOssm {
    segments: Vec<Aggregate>,
    /// `fs[s] = f(segments[s])` under `calc`: the eq. (2) term each merge
    /// loss would otherwise recompute.
    fs: Vec<u64>,
    max_segments: usize,
    calc: LossCalculator,
    appended_pages: u64,
    /// Loss-scan buffers kept across appends; its tallies are flushed at
    /// the end of each append, and a clone of the map starts a fresh one.
    scratch: Scratch,
}

impl IncrementalOssm {
    /// Starts an empty map with a segment budget. Errors if the budget is
    /// zero.
    pub fn new(max_segments: usize, calc: LossCalculator) -> Result<Self, ZeroSegmentBudget> {
        if max_segments == 0 {
            return Err(ZeroSegmentBudget);
        }
        Ok(IncrementalOssm {
            segments: Vec::new(),
            fs: Vec::new(),
            max_segments,
            calc,
            appended_pages: 0,
            scratch: Scratch::default(),
        })
    }

    /// Seeds the map from an already-built OSSM (e.g. from
    /// [`crate::builder::OssmBuilder`]); subsequent appends fold into its
    /// segments.
    pub fn from_ossm(ossm: &Ossm, max_segments: usize, calc: LossCalculator) -> Self {
        assert!(
            max_segments >= ossm.num_segments(),
            "budget must cover the seed OSSM's segments"
        );
        let segments = ossm.segments().into_vec();
        IncrementalOssm {
            fs: calc.pair_min_sums(&segments),
            segments,
            max_segments,
            calc,
            appended_pages: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of live segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Pages appended since construction/seeding.
    pub fn appended_pages(&self) -> u64 {
        self.appended_pages
    }

    /// Appends one page-aggregate.
    // SOUND: either grows a fresh segment with the exact page aggregate
    // or folds it into a live one via `merge_in` (pointwise sum) — the
    // loss heuristic only picks *which* segment absorbs the page, never
    // alters a support.
    pub fn append_aggregate(&mut self, aggregate: Aggregate) {
        self.appended_pages += 1;
        let scratch = &mut self.scratch;
        let f = self.calc.pair_min_sum_with(aggregate.supports(), scratch);
        if self.segments.len() < self.max_segments {
            self.segments.push(aggregate);
            self.fs.push(f);
        } else {
            // Merge into the closest live segment (smallest eq. 2 loss,
            // ties to the lowest index for determinism).
            let mut best = (u64::MAX, 0usize);
            for (i, (seg, &f_seg)) in self.segments.iter().zip(&self.fs).enumerate() {
                let loss = self
                    .calc
                    .merge_loss_with(seg, f_seg, &aggregate, f, scratch);
                if loss < best.0 {
                    best = (loss, i);
                }
            }
            self.segments[best.1].merge_in(&aggregate);
            self.fs[best.1] += best.0 + f;
        }
        scratch.flush();
    }

    /// Appends a batch of transactions as one aggregate (one logical page).
    pub fn append_transactions<'a>(
        &mut self,
        num_items: usize,
        transactions: impl IntoIterator<Item = &'a Itemset>,
    ) {
        // SOUND: exact aggregation — each transaction increments its
        // items' supports exactly once, so the page aggregate is exact.
        let mut supports = vec![0u64; num_items];
        let mut count = 0u64;
        for t in transactions {
            count += 1;
            for item in t.items() {
                supports[item.index()] += 1;
            }
        }
        self.append_aggregate(Aggregate::new(supports, count));
    }

    /// Appends every page of a store.
    pub fn append_store(&mut self, store: &PageStore) {
        for agg in Aggregate::from_pages(store) {
            self.append_aggregate(agg);
        }
    }

    /// Snapshots the current map for querying/filtering: one pass that
    /// lays the live segments out item-major, with no intermediate copy.
    ///
    /// # Panics
    /// Panics if nothing has been appended yet.
    pub fn snapshot(&self) -> Ossm {
        Ossm::from_segments(&self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossm_data::gen::SkewedConfig;
    use ossm_data::Dataset;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn fills_budget_before_merging() {
        let mut inc = IncrementalOssm::new(3, LossCalculator::all_items()).expect("budget > 0");
        for i in 0..3u64 {
            inc.append_aggregate(Aggregate::new(vec![i, 3 - i], 3));
            assert_eq!(inc.num_segments(), i as usize + 1);
        }
        inc.append_aggregate(Aggregate::new(vec![5, 0], 5));
        assert_eq!(inc.num_segments(), 3, "budget caps segment growth");
        assert_eq!(inc.appended_pages(), 4);
    }

    #[test]
    fn merges_into_the_matching_configuration() {
        let mut inc = IncrementalOssm::new(2, LossCalculator::all_items()).expect("budget > 0");
        inc.append_aggregate(Aggregate::new(vec![10, 1], 10)); // config (0,1)
        inc.append_aggregate(Aggregate::new(vec![1, 10], 10)); // config (1,0)
                                                               // A new (0,1)-shaped page must fold into segment 0 (zero loss).
        inc.append_aggregate(Aggregate::new(vec![6, 2], 6));
        let snap = inc.snapshot();
        assert_eq!(snap.segments()[0].supports(), &[16, 3]);
        assert_eq!(snap.segments()[1].supports(), &[1, 10]);
    }

    #[test]
    fn snapshot_bounds_stay_sound_under_streaming() {
        // Stream a seasonal dataset page by page; at every checkpoint the
        // snapshot's bound must dominate the true support of the data seen
        // so far.
        let d = SkewedConfig {
            num_transactions: 600,
            num_items: 12,
            ..SkewedConfig::small()
        }
        .generate();
        let mut inc = IncrementalOssm::new(5, LossCalculator::all_items()).expect("budget > 0");
        let chunk = 50;
        let probe = set(&[0, 1]);
        let probe2 = set(&[2, 5, 7]);
        for (i, chunk_tx) in d.transactions().chunks(chunk).enumerate() {
            inc.append_transactions(12, chunk_tx);
            let seen = Dataset::new(
                12,
                d.transactions()[..(i + 1) * chunk.min(d.len())].to_vec(),
            );
            let snap = inc.snapshot();
            assert!(snap.upper_bound(&probe) >= seen.support(&probe));
            assert!(snap.upper_bound(&probe2) >= seen.support(&probe2));
            assert_eq!(snap.num_transactions(), seen.len() as u64);
        }
    }

    #[test]
    fn seeding_from_built_ossm_extends_it() {
        let d = SkewedConfig {
            num_transactions: 400,
            num_items: 10,
            ..SkewedConfig::small()
        }
        .generate();
        let store = ossm_data::PageStore::with_page_count(d, 8);
        let (ossm, _) = crate::builder::OssmBuilder::new(4).build(&store);
        let mut inc = IncrementalOssm::from_ossm(&ossm, 4, LossCalculator::all_items());
        assert_eq!(inc.num_segments(), 4);
        inc.append_aggregate(Aggregate::new(vec![1; 10], 1));
        let snap = inc.snapshot();
        assert_eq!(snap.num_transactions(), ossm.num_transactions() + 1);
        assert_eq!(snap.num_segments(), 4);
    }

    #[test]
    fn cached_pair_min_sums_track_every_append() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const M: usize = 24;
        let mut rng = StdRng::seed_from_u64(0x1c);
        let mut random_aggregate = || {
            let supports: Vec<u64> = (0..M)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        0
                    } else {
                        rng.gen_range(1..400)
                    }
                })
                .collect();
            let n = supports.iter().copied().max().unwrap_or(0);
            Aggregate::new(supports, n)
        };
        let seed: Vec<Aggregate> = (0..4).map(|_| random_aggregate()).collect();
        let stream: Vec<Aggregate> = (0..200).map(|_| random_aggregate()).collect();
        let calcs = [
            LossCalculator::all_items(),
            LossCalculator::scoped(vec![1, 3, 4, 8, 13, 21]),
        ];
        for calc in calcs {
            let seeded =
                IncrementalOssm::from_ossm(&Ossm::from_aggregates(seed.clone()), 6, calc.clone());
            let fresh = IncrementalOssm::new(6, calc.clone()).expect("budget > 0");
            for (mut inc, mut reference) in [(seeded, seed.clone()), (fresh, Vec::new())] {
                for agg in &stream {
                    inc.append_aggregate(agg.clone());
                    // The reference fold: uncached merge losses, ties to
                    // the lowest index.
                    if reference.len() < 6 {
                        reference.push(agg.clone());
                    } else {
                        let losses = reference.iter().map(|seg| calc.merge_loss(seg, agg));
                        let (_, best) = losses.enumerate().map(|(i, l)| (l, i)).min().unwrap();
                        reference[best].merge_in(agg);
                    }
                    let expected: Vec<u64> = inc
                        .segments
                        .iter()
                        .map(|seg| calc.pair_min_sum(seg.supports()))
                        .collect();
                    assert_eq!(inc.fs, expected, "cache drifted from f(segment)");
                    assert_eq!(*inc.snapshot().segments(), *reference);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "budget must cover")]
    fn seed_larger_than_budget_is_rejected() {
        let segs = vec![Aggregate::new(vec![1], 1), Aggregate::new(vec![2], 2)];
        let ossm = Ossm::from_aggregates(segs);
        IncrementalOssm::from_ossm(&ossm, 1, LossCalculator::all_items());
    }

    #[test]
    fn incremental_quality_close_to_rebuild() {
        // Streaming assignment loses at most what the Random builder loses
        // is not guaranteed — but it should never be catastrophically worse
        // than putting everything in one segment.
        let d = SkewedConfig {
            num_transactions: 800,
            num_items: 15,
            ..SkewedConfig::small()
        }
        .generate();
        let store = ossm_data::PageStore::with_page_count(d, 16);
        let calc = LossCalculator::all_items();
        let mut inc = IncrementalOssm::new(4, calc).expect("budget > 0");
        inc.append_store(&store);
        // Compare bound tightness against the degenerate one-segment map:
        // streaming with a 4-segment budget must never be looser.
        let aggs = Aggregate::from_pages(&store);
        let snap = inc.snapshot();
        let single = Ossm::from_aggregates(vec![aggs
            .iter()
            .skip(1)
            .fold(aggs[0].clone(), |acc, a| acc.merged(a))]);
        let probe = set(&[0, 1]);
        assert!(snap.upper_bound(&probe) <= single.upper_bound(&probe));
    }
}
