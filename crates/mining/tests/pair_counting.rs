//! In-memory level 2 in the pair table: `count_with(HashTree, ..)` counts
//! a batch of pairs in a table over the live items whenever the size rule
//! admits it, and on the hash tree otherwise.
//!
//! Every count must equal the linear scan's at any thread count, and the
//! work counters say which structure counted: `mining.pairs.increments`
//! for the table, `mining.hashtree.*` for the tree. The counters live in
//! the process-wide registry and the thread count is a process-wide
//! override, so the tests here share one lock.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ossm_data::gen::{QuestConfig, SkewedConfig};
use ossm_data::{Dataset, Itemset};
use ossm_mining::support::{count_linear, count_with, CountingBackend};

static LOCK: Mutex<()> = Mutex::new(());

const THREADS: [usize; 3] = [1, 2, 8];

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `mining.pairs.increments`, and the sum of the hash tree's work
/// counters.
fn work() -> [u64; 2] {
    let snap = ossm_obs::registry().snapshot();
    let tree = [
        "mining.hashtree.path_lookups",
        "mining.hashtree.subset_tests",
        "mining.hashtree.items_skipped",
    ];
    [
        snap.counter("mining.pairs.increments"),
        tree.iter().map(|name| snap.counter(name)).sum(),
    ]
}

/// Counts `candidates` on the hash-tree back-end at one thread count and
/// returns the counts with the work the counting did.
fn count_at(
    threads: usize,
    transactions: &[Itemset],
    candidates: &[Itemset],
) -> (Vec<u64>, [u64; 2]) {
    ossm_par::set_threads(Some(threads));
    let before = work();
    let counts = count_with(CountingBackend::HashTree, transactions, candidates);
    let after = work();
    ossm_par::set_threads(None);
    (counts, [after[0] - before[0], after[1] - before[1]])
}

/// Level 2 as Apriori generates it: every pair of items whose support
/// reaches `min_support`.
fn c2(dataset: &Dataset, min_support: u64) -> Vec<Itemset> {
    let l1: Vec<u32> = (0u32..)
        .zip(dataset.singleton_supports())
        .filter(|&(_, s)| s >= min_support)
        .map(|(i, _)| i)
        .collect();
    l1.iter()
        .enumerate()
        .flat_map(|(x, &a)| l1[x + 1..].iter().map(move |&b| Itemset::new([a, b])))
        .collect()
}

#[test]
fn pair_batches_equal_the_linear_scan_at_any_thread_count() {
    let _guard = lock();
    let quest = QuestConfig {
        num_transactions: 3000,
        num_items: 120,
        ..QuestConfig::small()
    }
    .generate();
    let skewed = SkewedConfig {
        num_transactions: 3000,
        num_items: 150,
        seed: 7,
        ..SkewedConfig::small()
    }
    .generate();
    for (name, dataset) in [("quest", &quest), ("skewed", &skewed)] {
        let candidates = c2(dataset, dataset.absolute_threshold(0.02));
        assert!(
            candidates.len() > 100,
            "{name}: C2 has {}",
            candidates.len()
        );
        let expected = count_linear(dataset.transactions(), &candidates);
        let runs: Vec<_> = THREADS
            .iter()
            .map(|&t| count_at(t, dataset.transactions(), &candidates))
            .collect();
        for ((counts, _), threads) in runs.iter().zip(THREADS) {
            assert_eq!(counts, &expected, "{name} at {threads} threads");
        }
        if cfg!(feature = "obs") {
            let (_, [increments, tree]) = runs[0];
            assert!(increments > 0, "{name}: the table counted");
            assert_eq!(tree, 0, "{name}: the tree did not");
            assert!(
                runs.iter().all(|(_, w)| w == &runs[0].1),
                "{name}: work differs across thread counts"
            );
        }
    }
}

#[test]
fn a_batch_the_size_rule_declines_counts_on_the_tree() {
    let _guard = lock();
    // 65 disjoint pairs over 130 live items: C(130, 2) = 8385 cells
    // exceed both 4 · 65 and 8192.
    let candidates: Vec<Itemset> = (0..65u32)
        .map(|i| Itemset::new([2 * i, 2 * i + 1]))
        .collect();
    let transactions: Vec<Itemset> = (0..1500u32)
        .map(|t| Itemset::new((0..140u32).filter(|i| (i * 13 + t) % 7 < 3)))
        .collect();
    let expected = count_linear(&transactions, &candidates);
    for threads in THREADS {
        let (counts, [increments, tree]) = count_at(threads, &transactions, &candidates);
        assert_eq!(counts, expected, "at {threads} threads");
        if cfg!(feature = "obs") {
            assert_eq!(increments, 0, "the table did not count");
            assert!(tree > 0, "the tree counted");
        }
    }
    // One pair fewer fits: C(128, 2) = 8128 cells.
    let (counts, [increments, tree]) = count_at(2, &transactions, &candidates[..64]);
    assert_eq!(counts, expected[..64]);
    if cfg!(feature = "obs") {
        assert!(increments > 0 && tree == 0, "the table counted");
    }
}

#[test]
fn edge_transactions_and_mixed_batches_are_exact() {
    let _guard = lock();
    let live: Vec<u32> = (0..30u32).map(|i| 3 * i + 1).collect();
    let mut candidates: Vec<Itemset> = live
        .iter()
        .enumerate()
        .flat_map(|(x, &a)| live[x + 1..].iter().map(move |&b| Itemset::new([a, b])))
        .collect();
    // A duplicate, and a pair outside every transaction's domain.
    candidates.push(candidates[5].clone());
    candidates.push(Itemset::new([1, 5000]));
    // Transactions with no item, one live item, only dead items, two live
    // items among dead ones, every live item, and every live item among
    // dead ones, repeated past one parallel chunk.
    let all_live = Itemset::new(live.iter().copied());
    let shapes = [
        Itemset::empty(),
        Itemset::new([4]),
        Itemset::new([0, 2, 3]),
        Itemset::new([1, 2, 4]),
        all_live.clone(),
        Itemset::new(0..3 * 30 + 2),
    ];
    let transactions: Vec<Itemset> = (0..1320)
        .map(|t| shapes[t % shapes.len()].clone())
        .collect();
    let expected = count_linear(&transactions, &candidates);
    assert_eq!(
        expected[0],
        3 * 1320 / 6,
        "{{1, 4}} is in the pair, all-live and superset shapes"
    );
    for threads in THREADS {
        assert_eq!(count_at(threads, &transactions, &candidates).0, expected);
        // An empty transaction slice counts zero everywhere.
        assert_eq!(
            count_at(threads, &[], &candidates).0,
            vec![0; candidates.len()]
        );
    }
    // No candidates, no counts.
    assert!(count_at(2, &transactions, &[]).0.is_empty());

    // Partition's phase 2 counts every size in one batch: it goes to the
    // tree, exact.
    let mut mixed = candidates[..40].to_vec();
    mixed.extend([
        Itemset::new([1]),
        Itemset::new([1, 4, 7]),
        Itemset::new([4, 7, 10, 13]),
        Itemset::empty(),
    ]);
    let expected = count_linear(&transactions, &mixed);
    for threads in THREADS {
        let (counts, [increments, ..]) = count_at(threads, &transactions, &mixed);
        assert_eq!(counts, expected, "mixed batch at {threads} threads");
        if cfg!(feature = "obs") {
            assert_eq!(increments, 0, "a mixed batch is not all pairs");
        }
    }
}
