//! Cross-backend and cross-thread-count consistency of candidate counting.
//!
//! The parallel decomposition in `ossm-par` promises bit-identical results
//! at any thread count, and the two counting back-ends (linear scan and
//! hash tree) plus the vertical tidset index all implement the same
//! support function. This suite pins both claims against a naive
//! serial oracle on seeded data, including the awkward inputs: empty
//! transactions, empty candidates, singleton items, and candidate items
//! outside the build domain. It also runs a whole miner, Partition, at
//! several thread counts.

use std::sync::Mutex;

use ossm_data::gen::QuestConfig;
use ossm_data::{Dataset, ItemId, Itemset};
use ossm_mining::support::{count_with, CountingBackend};
use ossm_mining::vertical::{intersect, VerticalIndex};
use ossm_mining::{Apriori, Partition};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Serializes tests that set the global ossm-par thread override.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// An item domain wider than the hash tree's fan-out of 64, so distinct
/// items share hash buckets.
const WIDE_DOMAIN: u32 = 300;

const BACKENDS: [CountingBackend; 2] = [CountingBackend::LinearScan, CountingBackend::HashTree];

fn set(ids: &[u32]) -> Itemset {
    Itemset::new(ids.iter().copied())
}

/// Seeded transactions over `m` items, including deliberate empties.
fn random_transactions(rng: &mut StdRng, n: usize, m: u32) -> Vec<Itemset> {
    (0..n)
        .map(|t| {
            if t % 97 == 0 {
                // Sprinkle empty transactions through the stream.
                Itemset::empty()
            } else {
                let len = rng.gen_range(1..8usize);
                Itemset::new((0..len).map(|_| rng.gen_range(0..m)))
            }
        })
        .collect()
}

/// Seeded candidates of sizes 1..=3 over `0..domain`.
fn random_candidates(rng: &mut StdRng, n: usize, domain: u32) -> Vec<Itemset> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..4usize);
            Itemset::new((0..len).map(|_| rng.gen_range(0..domain)))
        })
        .collect()
}

/// The trusted oracle: a naive subset scan with no chunking and no trees.
fn oracle(transactions: &[Itemset], candidates: &[Itemset]) -> Vec<u64> {
    candidates
        .iter()
        .map(|c| transactions.iter().filter(|t| c.is_subset_of(t)).count() as u64)
        .collect()
}

/// Candidate support from the vertical tidset index, by successive sorted
/// intersection. Only valid for candidates inside the dataset's domain.
fn vertical_support(index: &VerticalIndex, candidate: &Itemset) -> u64 {
    let mut items = candidate.items().iter();
    let Some(first) = items.next() else {
        return index.num_transactions();
    };
    let mut tids = index.tidset(*first).to_vec();
    for item in items {
        tids = intersect(&tids, index.tidset(*item));
    }
    tids.len() as u64
}

#[test]
fn every_backend_is_thread_count_invariant() {
    let _guard = THREADS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(0x0551);
    // Enough transactions for several 256-transaction chunks; the domain
    // past the hash tree's fan-out makes items share buckets.
    for m in [40, WIDE_DOMAIN] {
        let txs = random_transactions(&mut rng, 1500, m);
        let cands = random_candidates(&mut rng, 220, m);
        let expected = oracle(&txs, &cands);
        for backend in BACKENDS {
            for threads in [1usize, 2, 8] {
                ossm_par::set_threads(Some(threads));
                assert_eq!(
                    count_with(backend, &txs, &cands),
                    expected,
                    "{backend:?} at {threads} threads, m = {m}"
                );
            }
        }
    }
    ossm_par::set_threads(None);
}

#[test]
fn partition_is_thread_count_invariant() {
    let _guard = THREADS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // 1200 transactions: a pass over one of two partitions, and phase 2
    // over all of them, spans several 256-transaction counting chunks.
    let d = QuestConfig {
        num_transactions: 1200,
        num_items: 40,
        ..QuestConfig::small()
    }
    .generate();
    let mine = |parts, min_support| {
        let plain = Partition::new(parts).mine(&d, min_support);
        let with = Partition::new(parts).mine_with_ossms(&d, min_support, 3);
        (
            plain.patterns,
            plain.metrics.levels,
            with.patterns,
            with.metrics.levels,
        )
    };
    for (parts, min_support) in [(2, 84), (4, 84), (8, 96)] {
        let reference = Apriori::new().mine(&d, min_support).patterns;
        assert!(reference.max_len() >= 2, "want pairs to count");
        ossm_par::set_threads(Some(1));
        let serial = mine(parts, min_support);
        assert_eq!(serial.0, reference, "{parts} partitions");
        assert_eq!(serial.2, reference, "{parts} partitions, with OSSMs");
        for threads in [2, 8] {
            ossm_par::set_threads(Some(threads));
            let at = format!("{parts} partitions, {threads} threads");
            assert_eq!(mine(parts, min_support), serial, "{at}");
        }
    }
    ossm_par::set_threads(None);
}

#[test]
fn linear_hashtree_and_vertical_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xB17_0002);
    for m in [32, WIDE_DOMAIN] {
        let txs = random_transactions(&mut rng, 700, m);
        // In-domain candidates only: the vertical index cannot answer for
        // items it never saw.
        let cands = random_candidates(&mut rng, 180, m);
        let expected = oracle(&txs, &cands);
        for backend in BACKENDS {
            assert_eq!(
                count_with(backend, &txs, &cands),
                expected,
                "{backend:?}, m = {m}"
            );
        }
        let index = VerticalIndex::build(&Dataset::new(m as usize, txs));
        let vertical: Vec<u64> = cands.iter().map(|c| vertical_support(&index, c)).collect();
        assert_eq!(vertical, expected, "vertical tidset oracle, m = {m}");
    }
}

#[test]
fn out_of_domain_candidate_items_count_zero_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xD0_0D);
    let m = 20u32;
    let txs = random_transactions(&mut rng, 400, m);
    // Candidates drawn from a wider domain than the data, so some contain
    // items no transaction has.
    let cands = random_candidates(&mut rng, 120, m + 5);
    let expected = oracle(&txs, &cands);
    for backend in BACKENDS {
        assert_eq!(count_with(backend, &txs, &cands), expected, "{backend:?}");
    }
}

#[test]
fn edge_cases_agree_across_backends() {
    let all_empty: Vec<Itemset> = vec![Itemset::empty(); 300];
    let singletons: Vec<Itemset> = (0..10).map(|i| Itemset::singleton(ItemId(i))).collect();
    let cases: [(&str, Vec<Itemset>, Vec<Itemset>); 4] = [
        ("no transactions", Vec::new(), singletons.clone()),
        ("all transactions empty", all_empty, singletons.clone()),
        (
            "empty candidate counts every transaction",
            vec![set(&[0, 1]), Itemset::empty(), set(&[2])],
            vec![Itemset::empty(), set(&[0]), set(&[0, 1])],
        ),
        (
            "singleton transactions, singleton candidates",
            (0..500)
                .map(|t| Itemset::singleton(ItemId(t % 7)))
                .collect(),
            singletons,
        ),
    ];
    for (name, txs, cands) in &cases {
        let expected = oracle(txs, cands);
        for backend in BACKENDS {
            assert_eq!(
                count_with(backend, txs, cands),
                expected,
                "{name}: {backend:?}"
            );
            assert_eq!(
                count_with(backend, txs, &[]),
                Vec::<u64>::new(),
                "{name}: {backend:?}, empty candidate list"
            );
        }
    }
}
