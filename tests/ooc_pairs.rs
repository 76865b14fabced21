//! Out-of-core level 2 is counted in a table with one cell per pair of
//! live items, or — when that table would be large next to its batch —
//! in the hash tree. Either way, streaming Apriori and DHP, with and
//! without an OSSM and at any frame budget, must mine exactly the
//! patterns in-memory Apriori mines.
//!
//! The work counters that show which structure counted live in the
//! process-wide registry, so every test here holds one lock: no test can
//! move them between another's snapshots.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use ossm_core::{Ossm, OssmBuilder, Strategy};
use ossm_data::disk::{write_paged, DiskStore};
use ossm_data::gen::{QuestConfig, SkewedConfig};
use ossm_data::{Dataset, Itemset, PageStore};
use ossm_mining::{Apriori, StreamingApriori, StreamingDhp, StreamingOutcome};

/// Frame budgets: pathological and unbounded.
const BUDGETS: [usize; 2] = [2, usize::MAX];

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    ossm_obs::registry().snapshot().counter(name)
}

/// Cells the pair table incremented, and hash-tree lookups plus subset
/// tests, so far.
fn work() -> (u64, u64) {
    (
        counter("mining.pairs.increments"),
        counter("mining.hashtree.path_lookups") + counter("mining.hashtree.subset_tests"),
    )
}

fn tmp_pages(name: &str, dataset: &Dataset, page_bytes: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("ossm-ooc-pairs-tests");
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
        "dhp" => StreamingDhp::new(1 << 16).mine(&mut store, min_support, ossm),
        other => unreachable!("unknown miner {other}"),
    }
    .expect("out-of-core mining")
}

/// Streaming Apriori and DHP, with and without `dataset`'s Greedy OSSM,
/// at every budget and each of `min_supports`, against in-memory Apriori.
fn check_against_oracle(name: &str, dataset: &Dataset, min_supports: &[u64]) {
    let ossm = greedy_ossm(dataset, 4);
    let path = tmp_pages(name, dataset, 256);
    for &min_support in min_supports {
        let oracle = Apriori::new().mine(dataset, min_support).patterns;
        for miner in ["apriori", "dhp"] {
            for frames in BUDGETS {
                for map in [None, Some(&ossm)] {
                    let out = run(&path, frames, miner, min_support, map);
                    assert_eq!(
                        out.patterns,
                        oracle,
                        "{name}: {miner} diverged at minsup {min_support}, {frames} frames \
                         (ossm: {})",
                        map.is_some()
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn quest_and_skewed_stores_match_the_in_memory_oracle() {
    let _serial = serial();
    let before = work();
    for seed in 0..2u64 {
        let quest = QuestConfig {
            num_transactions: 400,
            num_items: 50,
            num_patterns: 60,
            seed,
            ..QuestConfig::small()
        }
        .generate();
        check_against_oracle(&format!("quest-{seed}"), &quest, &[8, 20, 40]);
        let skewed = SkewedConfig {
            num_transactions: 400,
            num_items: 60,
            avg_transaction_len: 6.0,
            seed,
            ..SkewedConfig::small()
        }
        .generate();
        check_against_oracle(&format!("skewed-{seed}"), &skewed, &[8, 20, 40]);
    }
    if ossm_obs::ENABLED {
        assert!(
            work().0 > before.0,
            "no level 2 was counted in a pair table"
        );
    }
}

#[test]
fn tiny_l1_and_a_transaction_holding_every_item() {
    let _serial = serial();
    // Supports: item 0 → 10, item 1 → 8, item 2 → 3, items 3–5 → 1;
    // {0, 1} → 6. The first transaction holds every item.
    let mut txs = vec![Itemset::new(0..6u32)];
    txs.extend(std::iter::repeat(Itemset::new([0u32, 1])).take(5));
    txs.extend(std::iter::repeat(Itemset::new([0u32, 2])).take(2));
    txs.extend(std::iter::repeat(Itemset::new([0u32])).take(2));
    txs.extend(std::iter::repeat(Itemset::new([1u32])).take(2));
    let d = Dataset::new(6, txs);
    for (min_support, l1) in [(11, 0), (9, 1), (8, 2), (6, 2), (1, 6)] {
        let frequent_singletons = Apriori::new()
            .mine(&d, min_support)
            .patterns
            .iter()
            .filter(|(set, _)| set.len() == 1)
            .count();
        assert_eq!(frequent_singletons, l1, "minsup {min_support}");
    }
    let before = work();
    check_against_oracle("tiny", &d, &[11, 9, 8, 6, 1]);
    if ossm_obs::ENABLED {
        assert!(
            work().0 > before.0,
            "no level 2 was counted in a pair table"
        );
    }
}

#[test]
fn a_sparse_dhp_level_falls_back_to_the_hash_tree() {
    let _serial = serial();
    // 70 disjoint pairs {2i, 2i + 1}, each in 3 transactions: every one
    // of the 140 items is frequent at 3. Apriori's C2 is all C(140, 2)
    // = 9730 pairs, which the table counts in as many cells. DHP's
    // buckets admit the 70 real pairs and a few colliding ones, over the
    // same 140 live items: 9730 cells break the size rule, so the hash
    // tree counts them.
    let txs: Vec<Itemset> = (0..70u32)
        .flat_map(|i| std::iter::repeat(Itemset::new([2 * i, 2 * i + 1])).take(3))
        .collect();
    let d = Dataset::new(140, txs);
    let oracle = Apriori::new().mine(&d, 3).patterns;
    assert_eq!(oracle.len(), 140 + 70);
    let path = tmp_pages("sparse", &d, 256);

    let before = work();
    let dhp = run(&path, 2, "dhp", 3, None);
    let after_dhp = work();
    let apriori = run(&path, 2, "apriori", 3, None);
    let after_apriori = work();
    std::fs::remove_file(&path).ok();

    assert_eq!(dhp.patterns, oracle);
    assert_eq!(apriori.patterns, oracle);
    let dhp_c2 = dhp.metrics.levels[1].counted;
    assert!((70..2048).contains(&dhp_c2), "DHP counted {dhp_c2} pairs");
    if ossm_obs::ENABLED {
        assert_eq!(after_dhp.0, before.0, "DHP's sparse level used the table");
        assert!(
            after_dhp.1 > before.1,
            "DHP's level 2 never reached the tree"
        );
        assert_eq!(
            after_apriori.0 - after_dhp.0,
            70 * 3,
            "one cell per transaction"
        );
        assert_eq!(
            after_apriori.1, after_dhp.1,
            "Apriori's level 2 reached the tree"
        );
    }
}
