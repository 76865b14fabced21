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
//!   trimming is omitted: trimming rewrites the collection, which a pass
//!   over an immutable page file cannot do.
//! * [`StreamingFpGrowth`] — the global-tree pass skips pages with no
//!   frequent item at all (their transactions rank-encode to empty paths
//!   and would not touch the tree).
//!
//! Each `mine` reports the patterns plus pass, page-read, and page-skip
//! counts, so the disk-oriented experiments can show the I/O effect the
//! in-memory miners cannot.

use std::io;

use ossm_core::Ossm;
use ossm_data::disk::DiskStore;
use ossm_data::{ItemId, Itemset};
use ossm_obs::SpanGuard;

use crate::dhp::{admitted_pairs, hash_pairs};
use crate::filter::{CandidateFilter, NoFilter};
use crate::fpgrowth::GlobalTreeMiner;
use crate::hashtree::HashTree;
use crate::levelwise::{collect_singletons, LevelLoop, Trace};
use crate::metrics::{LevelMetrics, MiningMetrics};
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
struct PageBounds<'a> {
    ossm: &'a Ossm,
    /// Per-page dense support vectors from the store's aggregate index.
    vectors: Vec<Vec<u64>>,
    slot_bytes: u64,
}

/// Page vector `v`'s eq. (1) bound on `c`: the least support of any of
/// its items on that page.
fn page_bound(v: &[u64], c: &Itemset) -> u64 {
    c.items()
        .iter()
        .map(|i| v.get(i.index()).copied().unwrap_or(0))
        .min()
        .unwrap_or(0)
}

impl CandidateFilter for PageBounds<'_> {
    fn may_be_frequent(&self, candidate: &Itemset, min_support: u64) -> bool {
        // Each ub(X) probe is one served query: time it so the live
        // req.ub.latency quantiles reflect the paper's time-for-memory
        // trade under load. The page-sum bound is eq. (1) again, over the
        // finer page partition — both discharges are exact.
        let _timer = ossm_core::durable::REQ_UB_LATENCY.time();
        self.ossm.upper_bound(candidate) >= min_support
            && self
                .vectors
                .iter()
                .map(|v| page_bound(v, candidate))
                .sum::<u64>()
                >= min_support
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
        // Built from the store's aggregate index: no data-page I/O.
        let bounds = ossm.map(|ossm| PageBounds {
            ossm,
            vectors: store
                .page_aggregate_vectors()
                .into_iter()
                .map(|(v, _)| v)
                .collect(),
            slot_bytes: store.slot_bytes(),
        });
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
                    for item in t.items() {
                        counts[item.index()] += 1;
                    }
                })?;
                counts
            }
        };
        Ok((run, bounds, singles))
    }

    /// One pass over the page file. With `bounds`, a page whose aggregate
    /// vector `relevant` rejects is skipped — fault and all — and
    /// recorded; every other page is fetched through its pool guard and
    /// its transactions handed to `visit` in place, with no copy out of
    /// the frame arena.
    fn pass(
        &mut self,
        bounds: Option<&PageBounds<'_>>,
        relevant: impl Fn(&[u64]) -> bool,
        mut visit: impl FnMut(&[Itemset]),
    ) -> io::Result<()> {
        self.passes += 1;
        for p in 0..self.store.num_pages() {
            if let Some(b) = bounds {
                if b.vectors.get(p).is_some_and(|v| !relevant(v)) {
                    self.skipped_pages += 1;
                    ossm_data::buffer::record_page_skip(b.slot_bytes);
                    continue;
                }
            }
            let guard = self.store.fetch_page(p)?;
            visit(guard.transactions());
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

/// How many items with a nonzero support in page vector `v` are frequent.
fn frequent_on_page(v: &[u64], singles: &[u64], min_support: u64) -> usize {
    v.iter()
        .zip(singles)
        .filter(|&(&s, &sup)| s > 0 && sup >= min_support)
        .count()
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
            run.pass(
                bounds.as_ref(),
                |v| frequent_on_page(v, &singles, min_support) >= 2,
                |txs| txs.iter().for_each(|t| hash_pairs(t, &mut table)),
            )?;
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
        max_len: None,
        trace: Trace::Off,
    };
    levels.run(l1, level2, &mut patterns, &mut metrics, |_, candidates| {
        let tree = HashTree::build(candidates);
        let mut counts = vec![0u64; candidates.len()];
        run.pass(
            bounds.as_ref(),
            |v| candidates.iter().any(|c| page_bound(v, c) > 0),
            |txs| tree.count(txs, &mut counts),
        )?;
        Ok(counts)
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
        run.pass(
            bounds.as_ref(),
            |v| frequent_on_page(v, &singles, min_support) > 0,
            |txs| txs.iter().for_each(|t| miner.insert(t)),
        )?;
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
