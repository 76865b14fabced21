//! Out-of-core Apriori, DHP, and FP-growth: every pass runs through
//! [`DiskStore`] page guards under a bounded frame budget, with physical
//! I/O accounting.
//!
//! The paper measures "all CPU and I/O costs". Level-wise miners read the
//! whole collection once per level; the OSSM cuts I/O three ways:
//!
//! 1. a level whose every candidate is discharged by equation (1) makes
//!    **no pass at all** (and ends the run if nothing survives);
//! 2. the singleton pass disappears — the OSSM's singleton supports are
//!    exact by construction, so `L1` is read straight out of the map;
//! 3. within a pass, equation (1) applied at *page* granularity (the page
//!    partition refines every segmentation, so the bound holds there too)
//!    skips the fault for any page that provably cannot matter — see
//!    `PageBounds` and `DESIGN.md` §13 for the soundness argument.
//!
//! All three miners share one preamble (`OocRun::start`) and one page
//! pass (`OocRun::pass`); they differ in which pages a pass may skip:
//!
//! * [`StreamingApriori`] — level counting skips pages whose bound is zero
//!   for every surviving candidate.
//! * [`StreamingDhp`] — Apriori plus DHP's bucket pass, which skips pages
//!   carrying fewer than two frequent items (such a page contributes no
//!   pair of frequent items, and losing its collision noise only sharpens
//!   the bucket counts, which stay upper bounds on pair supports). DHP's
//!   trimming runs as it does in memory, without rewriting the page file:
//!   the pair table counts only the live items of each transaction, and
//!   the hash tree walks only those at every later level.
//! * [`StreamingFpGrowth`] — the global-tree pass skips pages with no
//!   frequent item at all (their transactions rank-encode to empty paths
//!   and would not touch the tree).
//!
//! Apriori and DHP count level 2 in a pair table over the batch's live
//! items (`crate::pairs`): one `u64` cell per pair of items some candidate
//! holds, so a transaction costs `C(n, 2)` increments over its `n` live
//! items and no hash-tree walk. A batch whose table would be large next
//! to its candidate count, and every level `k ≥ 3`, is counted by the
//! [`HashTree`]. Either way a page the pass skips holds no candidate, so
//! every candidate's count stays exact.
//!
//! Each `mine` reports the patterns plus pass, page-read, and page-skip
//! counts, so the disk-oriented experiments can show the I/O effect the
//! in-memory miners cannot.

use std::io;

use ossm_core::ssm::min_sum;
use ossm_core::Ossm;
use ossm_data::disk::{DiskStore, FlatPage, PageSummary};
use ossm_data::{ItemId, Itemset};
use ossm_obs::SpanGuard;

use crate::dhp::{admitted_pairs, hash_pairs};
use crate::filter::{CandidateFilter, NoFilter};
use crate::fpgrowth::GlobalTreeMiner;
use crate::hashtree::HashTree;
use crate::levelwise::{collect_singletons, LevelLoop, Trace};
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::pairs::PairTable;
use crate::support::FrequentPatterns;

/// Result of a disk-resident mining run.
#[derive(Clone, Debug)]
pub struct StreamingOutcome {
    /// All frequent patterns with exact supports.
    pub patterns: FrequentPatterns,
    /// Candidate bookkeeping.
    pub metrics: MiningMetrics,
    /// Full passes over the page file.
    pub passes: u64,
    /// Physical page reads (buffer-pool misses) during the run.
    pub page_reads: u64,
    /// Page faults avoided by the page-level eq. (1) bound (with an
    /// OSSM only; 0 otherwise).
    pub skipped_pages: u64,
}

/// Bytes of the most recently built out-of-core page index (the item-major
/// page rows and presence bitsets of `PageBounds`) — page-derived memory
/// that lives outside the buffer pool's frame budget.
static MEM_PAGE_BOUNDS: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.mining.page_bounds");

/// Page-granular equation (1) over an OSSM-described store. The page
/// partition is a refinement of any segmentation, so the
/// physical-maximum bound holds per page; it is used two ways:
///
/// * as the level loop's [`CandidateFilter`] — `Σ_p min_{i∈X} sup_p(i)`
///   is an exact upper bound on `sup(X)`, checked after the OSSM's own
///   bound, so a candidate below `min_support` on either is never counted;
/// * as a page-skip test — a page where that minimum is **zero** for every
///   surviving candidate cannot contain any of them, so its fault is
///   skipped outright without changing a single exact count.
///
/// Only the zero-bound rule may skip a counting page: supports accumulate
/// across pages, so skipping at any nonzero threshold would undercount
/// (the caveat in `DESIGN.md` §13).
///
/// Both are laid out item-major, like the [`Ossm`]: item `i`'s supports
/// on all `P` pages form one row, and which pages it occurs on one
/// bitset, so a page sum is a min-sum of rows and a pass's page mask is
/// a few word-wide ANDs per candidate.
struct PageBounds<'a> {
    ossm: &'a Ossm,
    pages: usize,
    /// `rows[i·P + p]` = `sup_p({i})`; page supports are `u32` by format.
    rows: Vec<u32>,
    /// Bit `p` of `present[i·W..(i+1)·W]` (`W = ⌈P/64⌉`): `sup_p({i}) > 0`.
    present: Vec<u64>,
}

impl<'a> PageBounds<'a> {
    /// Built from a store's aggregate index (`summaries` over an
    /// `m`-item domain): no data-page I/O. A summary entry naming an item
    /// outside the domain (a damaged index) is ignored, so the bounds
    /// stay total.
    fn new(ossm: &'a Ossm, m: usize, summaries: &[PageSummary]) -> Self {
        let _mem = ossm_obs::alloc_scope("mining.page_bounds");
        let pages = summaries.len();
        let words = pages.div_ceil(64);
        let mut rows = vec![0u32; m * pages];
        let mut present = vec![0u64; m * words];
        MEM_PAGE_BOUNDS
            .set((std::mem::size_of_val(&rows[..]) + std::mem::size_of_val(&present[..])) as u64);
        for (p, summary) in summaries.iter().enumerate() {
            for &(item, count) in &summary.supports {
                let i = item as usize;
                if i < m && count > 0 {
                    rows[i * pages + p] = count;
                    present[i * words + p / 64] |= 1 << (p % 64);
                }
            }
        }
        PageBounds {
            ossm,
            pages,
            rows,
            present,
        }
    }

    fn row(&self, item: ItemId) -> &[u32] {
        &self.rows[item.index() * self.pages..(item.index() + 1) * self.pages]
    }

    fn present(&self, item: usize) -> &[u64] {
        let words = self.pages.div_ceil(64);
        &self.present[item * words..(item + 1) * words]
    }

    /// The pages a counting pass must read: those where some candidate's
    /// page bound is nonzero, i.e. all of its items occur.
    fn pages_holding_any(&self, candidates: &[Itemset]) -> Vec<bool> {
        let mut any = vec![0u64; self.pages.div_ceil(64)];
        let mut all = any.clone();
        for c in candidates {
            all.fill(u64::MAX);
            for item in c.items() {
                for (a, &w) in all.iter_mut().zip(self.present(item.index())) {
                    *a &= w;
                }
            }
            for (a, &w) in any.iter_mut().zip(&all) {
                *a |= w;
            }
        }
        self.unpack(&any)
    }

    /// The pages on which at least `at_least` (1 or 2) frequent items
    /// occur.
    fn pages_with_frequent(&self, singles: &[u64], min_support: u64, at_least: usize) -> Vec<bool> {
        let mut once = vec![0u64; self.pages.div_ceil(64)];
        let mut twice = once.clone();
        for (i, _) in singles
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s >= min_support)
        {
            for ((o, t), &w) in once.iter_mut().zip(&mut twice).zip(self.present(i)) {
                *t |= *o & w;
                *o |= w;
            }
        }
        self.unpack(if at_least >= 2 { &twice } else { &once })
    }

    fn unpack(&self, bits: &[u64]) -> Vec<bool> {
        (0..self.pages)
            .map(|p| bits[p / 64] >> (p % 64) & 1 == 1)
            .collect()
    }
}

impl CandidateFilter for PageBounds<'_> {
    fn may_be_frequent(&self, candidate: &Itemset, min_support: u64) -> bool {
        // The page sum is eq. (1) again, over the finer page partition —
        // both discharges are exact.
        self.ossm.upper_bound(candidate) >= min_support
            && min_sum(candidate.items(), |i| self.row(i)) >= min_support
    }

    fn name(&self) -> &str {
        "OSSM + pages"
    }
}

/// One out-of-core run: the page file and what the run has paid in I/O.
struct OocRun<'s> {
    store: &'s mut DiskStore,
    start_reads: u64,
    passes: u64,
    skipped_pages: u64,
    _span: SpanGuard,
}

impl<'s> OocRun<'s> {
    /// The shared preamble, run under the miner's top-level `span`: the
    /// run, the page bounds, and the exact singleton supports. The page
    /// bounds come with the OSSM only, so the unfiltered run stays the
    /// paper's I/O baseline. Both are returned apart from the run so a
    /// pass's predicates can read them while the pass borrows the run.
    ///
    /// # Panics
    /// Panics if `min_support == 0` or if the OSSM's transaction count
    /// disagrees with the store's.
    fn start<'a>(
        span: SpanGuard,
        store: &'s mut DiskStore,
        min_support: u64,
        ossm: Option<&'a Ossm>,
    ) -> io::Result<(Self, Option<PageBounds<'a>>, Vec<u64>)> {
        assert!(min_support > 0, "support threshold must be at least 1");
        if let Some(map) = ossm {
            assert_eq!(
                map.num_transactions(),
                store.num_transactions(),
                "the OSSM does not describe this store"
            );
        }
        let bounds = ossm.map(|ossm| PageBounds::new(ossm, store.num_items(), store.summaries()));
        let mut run = OocRun {
            start_reads: store.io_stats().page_reads,
            passes: 0,
            skipped_pages: 0,
            store,
            _span: span,
        };
        let m = run.store.num_items();
        let singles = match ossm {
            // The map's singleton supports are exact: zero I/O.
            Some(map) => (0..m as u32)
                .map(|i| map.singleton_support(ItemId(i)))
                .collect(),
            None => {
                // One pass to count singletons. (The page index would also
                // do, but a miner without the OSSM is our I/O baseline, so
                // it pays the pass the paper's Apriori paid.)
                run.passes += 1;
                let mut counts = vec![0u64; m];
                run.store.scan(|t| {
                    for item in t {
                        counts[item.index()] += 1;
                    }
                })?;
                counts
            }
        };
        Ok((run, bounds, singles))
    }

    /// One pass over the page file. A page that `keep` (computed once
    /// per pass, from the page bounds) marks `false` is skipped — fault
    /// and all — and recorded; every other page is fetched through its
    /// pool guard and handed to `visit` in place, with no copy out of the
    /// frame arena.
    fn pass(&mut self, keep: Option<&[bool]>, mut visit: impl FnMut(&FlatPage)) -> io::Result<()> {
        self.passes += 1;
        let slot_bytes = self.store.slot_bytes();
        for p in 0..self.store.num_pages() {
            if keep.is_some_and(|k| k.get(p) == Some(&false)) {
                self.skipped_pages += 1;
                ossm_data::buffer::record_page_skip(slot_bytes);
                continue;
            }
            let guard = self.store.fetch_page(p)?;
            visit(&guard);
        }
        Ok(())
    }

    /// The run's outcome, with the page reads it caused.
    fn finish(self, patterns: FrequentPatterns, metrics: MiningMetrics) -> StreamingOutcome {
        StreamingOutcome {
            patterns,
            metrics,
            passes: self.passes,
            page_reads: self.store.io_stats().page_reads - self.start_reads,
            skipped_pages: self.skipped_pages,
        }
    }
}

/// Level-wise mining over the page file: Apriori, or DHP when `buckets`
/// sizes the pair-bucket table for level 2.
fn mine_levels(
    (mut run, bounds, singles): (OocRun<'_>, Option<PageBounds<'_>>, Vec<u64>),
    min_support: u64,
    buckets: Option<usize>,
) -> io::Result<StreamingOutcome> {
    let mut patterns = FrequentPatterns::new();
    let mut metrics = MiningMetrics::default();
    let m = singles.len();
    let l1 = collect_singletons(
        (0..m as u32).map(ItemId),
        &singles,
        min_support,
        &[],
        &mut patterns,
    );
    metrics.push_level(LevelMetrics {
        level: 1,
        generated: m as u64,
        filtered_out: 0,
        // Supports read out of the OSSM were not counted against the data.
        counted: if bounds.is_some() { 0 } else { m as u64 },
        frequent: l1.len() as u64,
    });

    let level2 = match buckets {
        Some(n) => {
            // A page with fewer than two frequent items holds no pair of
            // frequent items; its bucket contributions are pure collision
            // noise, and dropping noise keeps every bucket count an upper
            // bound on its pairs' supports.
            let mut table = vec![0u64; n];
            let keep = bounds
                .as_ref()
                .map(|b| b.pages_with_frequent(&singles, min_support, 2));
            run.pass(keep.as_deref(), |page| {
                page.iter().for_each(|t| hash_pairs(t, &mut table));
            })?;
            Some(admitted_pairs(&l1, &table, min_support))
        }
        None => None,
    };

    let filter: &dyn CandidateFilter = match &bounds {
        Some(b) => b,
        None => &NoFilter,
    };
    let levels = LevelLoop {
        min_support,
        filter,
        trace: Trace::Off,
    };
    levels.run(l1, level2, &mut patterns, &mut metrics, |k, candidates| {
        // A skipped page holds no candidate, so every candidate's count
        // is still exact whichever structure counts the pass.
        let keep = bounds.as_ref().map(|b| b.pages_holding_any(candidates));
        // Pairs go to a table over the live items when it is small
        // enough, fed a page at a time.
        if k == 2 {
            if let Some(table) = PairTable::build(candidates) {
                let mut pass = table.start_pass::<u64>();
                run.pass(keep.as_deref(), |page| table.count(page, &mut pass))?;
                return Ok(table.counts(candidates, &[pass]));
            }
        }
        // Otherwise one tree and one counting state for the whole pass.
        let tree = HashTree::build(candidates);
        let mut counts = tree.start_pass();
        run.pass(keep.as_deref(), |page| tree.count(page, &mut counts))?;
        Ok(counts.into_counts())
    })?;
    Ok(run.finish(patterns, metrics))
}

/// Apriori over a [`DiskStore`], with an optional OSSM.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamingApriori;

impl StreamingApriori {
    /// Creates the miner.
    pub fn new() -> Self {
        StreamingApriori
    }

    /// Mines all frequent itemsets from the page file.
    ///
    /// With `ossm: Some(_)`, candidates are filtered by equation (1)
    /// before each counting pass and the level-1 pass is skipped entirely
    /// (see module docs). The OSSM must describe exactly this store's
    /// data; this is asserted via the transaction count.
    ///
    /// # Panics
    /// Panics if `min_support == 0` or if the OSSM's transaction count
    /// disagrees with the store's.
    pub fn mine(
        &self,
        store: &mut DiskStore,
        min_support: u64,
        ossm: Option<&Ossm>,
    ) -> io::Result<StreamingOutcome> {
        let span = ossm_obs::span("mining.ooc.apriori");
        mine_levels(
            OocRun::start(span, store, min_support, ossm)?,
            min_support,
            None,
        )
    }
}

/// Out-of-core DHP over a [`DiskStore`], with an optional OSSM.
#[derive(Clone, Copy, Debug)]
pub struct StreamingDhp {
    /// Number of hash buckets for the pair table.
    pub num_buckets: usize,
}

impl Default for StreamingDhp {
    fn default() -> Self {
        StreamingDhp {
            num_buckets: 32_768,
        }
    }
}

impl StreamingDhp {
    /// DHP with `num_buckets` hash buckets.
    ///
    /// # Panics
    /// Panics if `num_buckets == 0`.
    pub fn new(num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one hash bucket");
        StreamingDhp { num_buckets }
    }

    /// Mines all frequent itemsets from the page file. Output equals
    /// in-memory [`crate::Dhp`] (and Apriori) exactly; only the I/O
    /// profile differs.
    ///
    /// # Panics
    /// Panics if `min_support == 0` or if the OSSM's transaction count
    /// disagrees with the store's.
    pub fn mine(
        &self,
        store: &mut DiskStore,
        min_support: u64,
        ossm: Option<&Ossm>,
    ) -> io::Result<StreamingOutcome> {
        let span = ossm_obs::span("mining.ooc.dhp");
        let run = OocRun::start(span, store, min_support, ossm)?;
        mine_levels(run, min_support, Some(self.num_buckets))
    }
}

/// Out-of-core FP-growth over a [`DiskStore`], with an optional OSSM.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamingFpGrowth;

impl StreamingFpGrowth {
    /// Creates the miner.
    pub fn new() -> Self {
        StreamingFpGrowth
    }

    /// Mines all frequent itemsets from the page file: one pass for
    /// singleton supports (skipped entirely with an OSSM), one guarded
    /// pass to build the global FP-tree, then in-memory recursion over
    /// the tree. Output equals in-memory [`crate::FpGrowth`] exactly.
    ///
    /// # Panics
    /// Panics if `min_support == 0` or if the OSSM's transaction count
    /// disagrees with the store's.
    pub fn mine(
        &self,
        store: &mut DiskStore,
        min_support: u64,
        ossm: Option<&Ossm>,
    ) -> io::Result<StreamingOutcome> {
        let span = ossm_obs::span("mining.ooc.fpgrowth");
        let (mut run, bounds, singles) = OocRun::start(span, store, min_support, ossm)?;
        let mut miner = GlobalTreeMiner::new(&singles, min_support);
        // A page with no frequent item contributes only empty rank-encoded
        // paths — skip its fault.
        let keep = bounds
            .as_ref()
            .map(|b| b.pages_with_frequent(&singles, min_support, 1));
        run.pass(keep.as_deref(), |page| {
            page.iter().for_each(|t| miner.insert(t));
        })?;
        let mut patterns = FrequentPatterns::new();
        miner.finish(min_support, &mut patterns);
        Ok(run.finish(patterns, MiningMetrics::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpgrowth::FpGrowth;
    use ossm_core::{OssmBuilder, Strategy};
    use ossm_data::disk::write_paged;
    use ossm_data::gen::QuestConfig;
    use ossm_data::{Dataset, PageStore};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ossm-ooc-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn workload() -> Dataset {
        QuestConfig {
            num_transactions: 600,
            num_items: 40,
            ..QuestConfig::small()
        }
        .generate()
    }

    #[test]
    fn ossm_skips_the_level_1_pass_and_preserves_results() {
        let d = workload();
        let path = tmp("skip.pages");
        write_paged(&path, &d, 1024).expect("write");
        let pages = PageStore::pack(d.clone(), 1024);
        let (ossm, _) = OssmBuilder::new(8).strategy(Strategy::Greedy).build(&pages);

        let mut store = DiskStore::open(&path, 4).expect("open");
        let plain = StreamingApriori::new()
            .mine(&mut store, 12, None)
            .expect("mine");
        let mut store = DiskStore::open(&path, 4).expect("open");
        let filtered = StreamingApriori::new()
            .mine(&mut store, 12, Some(&ossm))
            .expect("mine");

        assert_eq!(plain.patterns, filtered.patterns);
        assert!(filtered.passes < plain.passes, "L1 pass must disappear");
        assert!(filtered.page_reads < plain.page_reads);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fully_pruned_level_costs_no_pass() {
        // Two items that never co-occur: with the exact OSSM, level 2 is
        // fully discharged and the only I/O is... none at all (L1 comes
        // from the map).
        let d = Dataset::new(
            2,
            vec![
                Itemset::new([0u32]),
                Itemset::new([0u32]),
                Itemset::new([1u32]),
                Itemset::new([1u32]),
            ],
        );
        let path = tmp("pruned.pages");
        write_paged(&path, &d, 4096).expect("write");
        let min = ossm_core::minimize_segments(&d);
        let mut store = DiskStore::open(&path, 2).expect("open");
        let out = StreamingApriori::new()
            .mine(&mut store, 2, Some(&min.ossm))
            .expect("mine");
        assert_eq!(out.passes, 0);
        assert_eq!(out.page_reads, 0);
        assert_eq!(out.patterns.len(), 2, "both singletons frequent");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn passes_count_one_per_counted_level() {
        let d = workload();
        let path = tmp("passes.pages");
        write_paged(&path, &d, 1024).expect("write");
        let mut store = DiskStore::open(&path, 4).expect("open");
        let out = StreamingApriori::new()
            .mine(&mut store, 12, None)
            .expect("mine");
        let counted_levels = out
            .metrics
            .levels
            .iter()
            .filter(|l| l.level >= 2 && l.counted > 0)
            .count() as u64;
        assert_eq!(
            out.passes,
            1 + counted_levels,
            "L1 pass + one per counted level"
        );
        assert_eq!(out.page_reads, out.passes * store.num_pages() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_bounds_stay_total_over_out_of_domain_summaries() {
        // Page 0 names item 7 of a 2-item domain, as a damaged index
        // might: the entry is ignored and every bound still evaluates.
        let summaries = [
            PageSummary {
                transactions: 4,
                supports: vec![(0, 3), (1, 2), (7, 5)],
            },
            PageSummary {
                transactions: 4,
                supports: vec![(1, 4)],
            },
        ];
        let ossm = Ossm::from_aggregates(vec![ossm_core::Aggregate::new(vec![3, 6], 8)]);
        let bounds = PageBounds::new(&ossm, 2, &summaries);
        let pair = Itemset::new([0u32, 1]);
        // Σ_p min(sup_p(0), sup_p(1)) = min(3, 2) + min(0, 4) = 2.
        assert!(bounds.may_be_frequent(&pair, 2));
        assert!(!bounds.may_be_frequent(&pair, 3));
        assert_eq!(bounds.pages_holding_any(&[pair]), [true, false]);
        assert_eq!(bounds.pages_with_frequent(&[3, 6], 3, 2), [true, false]);
        // At 4 only item 1 is frequent: on both pages, but alone.
        assert_eq!(bounds.pages_with_frequent(&[3, 6], 4, 1), [true, true]);
        assert_eq!(bounds.pages_with_frequent(&[3, 6], 4, 2), [false, false]);
    }

    #[test]
    #[should_panic(expected = "does not describe")]
    fn mismatched_ossm_is_rejected() {
        let d = workload();
        let path = tmp("mismatch.pages");
        write_paged(&path, &d, 1024).expect("write");
        let other = QuestConfig {
            num_transactions: 100,
            num_items: 40,
            ..QuestConfig::small()
        }
        .generate();
        let pages = PageStore::with_page_count(other, 4);
        let (ossm, _) = OssmBuilder::new(2).build(&pages);
        let mut store = DiskStore::open(&path, 4).expect("open");
        let _ = StreamingApriori::new().mine(&mut store, 12, Some(&ossm));
    }

    #[test]
    fn streaming_fpgrowth_matches_in_memory_miner() {
        let d = workload();
        let path = tmp("fp-match.pages");
        write_paged(&path, &d, 1024).expect("write");
        let mem = FpGrowth::new().mine(&d, 12);
        let mut store = DiskStore::open(&path, 4).expect("open");
        let disk = StreamingFpGrowth::new()
            .mine(&mut store, 12, None)
            .expect("mine");
        assert_eq!(disk.patterns, mem.patterns);
        assert_eq!(disk.passes, 2, "singleton pass + tree pass");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ossm_preserves_results_and_cuts_io_for_both_miners() {
        let d = workload();
        let path = tmp("ooc-ossm.pages");
        write_paged(&path, &d, 1024).expect("write");
        let pages = PageStore::pack(d.clone(), 1024);
        let (ossm, _) = OssmBuilder::new(8).strategy(Strategy::Greedy).build(&pages);

        let mut store = DiskStore::open(&path, 4).expect("open");
        let plain_dhp = StreamingDhp::default()
            .mine(&mut store, 12, None)
            .expect("mine");
        let mut store = DiskStore::open(&path, 4).expect("open");
        let ossm_dhp = StreamingDhp::default()
            .mine(&mut store, 12, Some(&ossm))
            .expect("mine");
        assert_eq!(plain_dhp.patterns, ossm_dhp.patterns);
        assert!(ossm_dhp.page_reads < plain_dhp.page_reads, "L1 pass gone");

        let mut store = DiskStore::open(&path, 4).expect("open");
        let plain_fp = StreamingFpGrowth::new()
            .mine(&mut store, 12, None)
            .expect("mine");
        let mut store = DiskStore::open(&path, 4).expect("open");
        let ossm_fp = StreamingFpGrowth::new()
            .mine(&mut store, 12, Some(&ossm))
            .expect("mine");
        assert_eq!(plain_fp.patterns, ossm_fp.patterns);
        assert!(ossm_fp.page_reads < plain_fp.page_reads, "L1 pass gone");
        std::fs::remove_file(&path).ok();
    }
}
