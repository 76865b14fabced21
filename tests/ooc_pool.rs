//! End-to-end out-of-core mining through the buffer pool.
//!
//! Every streaming miner (Apriori, DHP, FP-growth) runs off a paged
//! file through a frame-bounded [`DiskStore`] pool; this suite pins the
//! contract that the frame budget is *invisible in the answer*: results
//! are bit-identical to the in-memory miners at every pool size, with
//! and without an OSSM page filter, while the I/O profile (page reads,
//! OSSM page skips) is the only thing allowed to move.

mod testkit;

use std::path::{Path, PathBuf};

use rand::Rng;
use testkit::{case_rng, random_dataset};

use ossm_core::{Ossm, OssmBuilder, Strategy};
use ossm_data::disk::{write_paged, DiskStore};
use ossm_data::{Dataset, Itemset, PageStore};
use ossm_mining::{
    Apriori, Dhp, StreamingApriori, StreamingDhp, StreamingFpGrowth, StreamingOutcome,
};

/// Frame budgets to sweep: pathological (2), small (8), and unbounded.
const BUDGETS: [usize; 3] = [2, 8, usize::MAX];

fn tmp_pages(name: &str, dataset: &Dataset, page_bytes: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("ossm-ooc-pool-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.pages", std::process::id()));
    write_paged(&path, dataset, page_bytes).expect("writing page file");
    path
}

fn greedy_ossm(dataset: &Dataset, segments: usize) -> Ossm {
    let store = PageStore::pack(dataset.clone(), 256);
    OssmBuilder::new(segments)
        .strategy(Strategy::Greedy)
        .build(&store)
        .0
}

/// Runs one miner at one budget against a fresh store.
fn run(
    path: &Path,
    frames: usize,
    miner: &str,
    min_support: u64,
    ossm: Option<&Ossm>,
) -> StreamingOutcome {
    let mut store = DiskStore::open(path, frames).expect("opening page file");
    match miner {
        "apriori" => StreamingApriori::new().mine(&mut store, min_support, ossm),
        "dhp" => StreamingDhp::new(512).mine(&mut store, min_support, ossm),
        "fpgrowth" => StreamingFpGrowth.mine(&mut store, min_support, ossm),
        other => unreachable!("unknown miner {other}"),
    }
    .expect("out-of-core mining")
}

#[test]
fn every_budget_reproduces_the_in_memory_oracle() {
    for case in 0..24u64 {
        let mut rng = case_rng(0x00C_9001, case);
        let d = random_dataset(&mut rng, 3, 10, 20, 120, false);
        let min_support = rng.gen_range(1..=(d.len() as u64 / 4).max(1));
        let oracle = Apriori::new().mine(&d, min_support).patterns;
        let ossm = greedy_ossm(&d, 4);
        let path = tmp_pages(&format!("oracle-{case}"), &d, 128);
        for miner in ["apriori", "dhp", "fpgrowth"] {
            for frames in BUDGETS {
                for map in [None, Some(&ossm)] {
                    let out = run(&path, frames, miner, min_support, map);
                    assert_eq!(
                        out.patterns,
                        oracle,
                        "case {case}: {miner} diverged at {frames} frames \
                         (ossm: {})",
                        map.is_some()
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn unfiltered_level_metrics_match_the_in_memory_miners() {
    // Without an OSSM the page file changes only where transactions come
    // from: every level must generate, count, and keep exactly what the
    // in-memory miner does.
    for case in 0..24u64 {
        let mut rng = case_rng(0x00C_9001, case);
        let d = random_dataset(&mut rng, 3, 10, 20, 120, false);
        let min_support = rng.gen_range(1..=(d.len() as u64 / 4).max(1));
        let path = tmp_pages(&format!("levels-{case}"), &d, 128);
        for (miner, mem) in [
            ("apriori", Apriori::new().mine(&d, min_support)),
            ("dhp", Dhp::new(512).mine(&d, min_support)),
        ] {
            let out = run(&path, 8, miner, min_support, None);
            assert_eq!(
                out.metrics.levels, mem.metrics.levels,
                "case {case}: {miner} level metrics diverged"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn unfiltered_apriori_faults_every_page_every_pass() {
    // Without an OSSM there is nothing to skip: a two-frame pool cannot
    // retain anything across a pass, so the read count must be exactly
    // passes × pages — the baseline the skip numbers are measured from.
    let d = random_dataset(&mut case_rng(0x00C_9002, 0), 6, 8, 80, 120, false);
    let path = tmp_pages("baseline", &d, 128);
    let num_pages = DiskStore::open(&path, 1).expect("open").num_pages() as u64;
    let out = run(&path, 2, "apriori", (d.len() as u64 / 10).max(1), None);
    assert_eq!(out.skipped_pages, 0);
    assert_eq!(out.page_reads, out.passes * num_pages);
    std::fs::remove_file(&path).ok();
}

#[test]
fn noise_pages_are_skipped_not_read_and_the_answer_stands() {
    // Dense head (items 0..4 co-occur) then a noise tail of singleton
    // pages: the OSSM's page aggregate proves the tail irrelevant to
    // every candidate, so the filtered run must read strictly fewer
    // pages at every frame budget — without moving a single support.
    let mut txs = Vec::new();
    for i in 0..150u32 {
        txs.push(Itemset::new([0, 1 + (i % 2), 3 + (i % 2)]));
    }
    for i in 0..150u32 {
        txs.push(Itemset::new([5 + (i % 15)]));
    }
    let d = Dataset::new(20, txs);
    let min_support = 30;
    let oracle = Apriori::new().mine(&d, min_support).patterns;
    let ossm = greedy_ossm(&d, 4);
    let path = tmp_pages("noise", &d, 256);
    for miner in ["apriori", "dhp", "fpgrowth"] {
        for frames in BUDGETS {
            let plain = run(&path, frames, miner, min_support, None);
            let filtered = run(&path, frames, miner, min_support, Some(&ossm));
            assert_eq!(plain.patterns, oracle, "{miner}@{frames} plain");
            assert_eq!(filtered.patterns, oracle, "{miner}@{frames} filtered");
            assert_eq!(plain.skipped_pages, 0, "{miner}@{frames}");
            assert!(filtered.skipped_pages > 0, "{miner}@{frames} never skipped");
            assert!(
                filtered.page_reads < plain.page_reads,
                "{miner}@{frames}: filtered read {} pages, plain {}",
                filtered.page_reads,
                plain.page_reads
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn noise_fixture_io_is_pinned_per_miner() {
    // The noise fixture's I/O, per miner and frame budget, with the
    // OSSM: (passes, page reads, skipped pages). How the page bounds are
    // laid out in memory may change; which pages a pass reads may not.
    let mut txs = Vec::new();
    for i in 0..150u32 {
        txs.push(Itemset::new([0, 1 + (i % 2), 3 + (i % 2)]));
    }
    for i in 0..150u32 {
        txs.push(Itemset::new([5 + (i % 15)]));
    }
    let d = Dataset::new(20, txs);
    let ossm = greedy_ossm(&d, 4);
    let path = tmp_pages("pinned", &d, 256);
    let mut seen = Vec::new();
    for miner in ["apriori", "dhp", "fpgrowth"] {
        for frames in [2, 8] {
            let out = run(&path, frames, miner, 30, Some(&ossm));
            seen.push((miner, frames, out.passes, out.page_reads, out.skipped_pages));
        }
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(
        seen,
        [
            ("apriori", 2, 2, 20, 10),
            ("apriori", 8, 2, 20, 10),
            ("dhp", 2, 3, 30, 15),
            ("dhp", 8, 3, 30, 15),
            ("fpgrowth", 2, 1, 10, 5),
            ("fpgrowth", 8, 1, 10, 5),
        ]
    );
}
