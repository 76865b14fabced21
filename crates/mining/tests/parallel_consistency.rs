//! Cross-backend and cross-thread-count consistency of candidate counting.
//!
//! The parallel decomposition in `ossm-par` promises bit-identical results
//! at any thread count, and the two counting back-ends (linear scan and
//! hash tree) plus the vertical tidset index all implement the same
//! support function. This suite pins both claims against a naive
//! serial oracle on seeded data, including the awkward inputs: empty
//! transactions, empty candidates, singleton items, and candidate items
//! outside the build domain. It also runs whole miners at several thread
//! counts — Partition, and Apriori with an OSSM filter, whose level 2
//! judges and collects its pairs on the workers — and level 1's
//! singleton count.

use std::sync::Mutex;

use ossm_core::{Ossm, Segmentation};
use ossm_data::gen::QuestConfig;
use ossm_data::{Dataset, ItemId, Itemset, PageStore};
use ossm_mining::apriori::generate_candidates;
use ossm_mining::support::{count_with, CountingBackend};
use ossm_mining::vertical::{intersect, VerticalIndex};
use ossm_mining::{Apriori, OssmFilter, Partition};
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
    let mut cases: Vec<(String, Vec<Itemset>, Vec<Itemset>)> = [40, WIDE_DOMAIN]
        .into_iter()
        .map(|m| {
            let txs = random_transactions(&mut rng, 1500, m);
            (format!("m = {m}"), txs, random_candidates(&mut rng, 220, m))
        })
        .collect();
    // A level-2 batch the pair table's size rule declines: 70 disjoint
    // pairs over 140 live items need C(140, 2) = 9730 cells, more than
    // max(4 · 70, 8192), so the hash tree counts them.
    let declined: Vec<Itemset> = (0..70u32).map(|i| set(&[2 * i, 2 * i + 1])).collect();
    cases.push((
        "a declined pair batch".to_owned(),
        random_transactions(&mut rng, 1500, 140),
        declined,
    ));
    for (name, txs, cands) in &cases {
        let expected = oracle(txs, cands);
        for backend in BACKENDS {
            for threads in [1usize, 2, 8] {
                ossm_par::set_threads(Some(threads));
                assert_eq!(
                    count_with(backend, txs, cands),
                    expected,
                    "{backend:?} at {threads} threads, {name}"
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

/// `core.bound.evals`, `mining.bound.{true_pos,false_pos}`,
/// `mining.pairs.increments`, and the count and sum of the
/// `mining.bound.slack` histogram now.
fn work_counters() -> [u64; 6] {
    let snap = ossm_obs::registry().snapshot();
    let slack = snap
        .histograms
        .get("mining.bound.slack")
        .cloned()
        .unwrap_or_default();
    [
        snap.counter("core.bound.evals"),
        snap.counter("mining.bound.true_pos"),
        snap.counter("mining.bound.false_pos"),
        snap.counter("mining.pairs.increments"),
        slack.count,
        slack.sum,
    ]
}

/// The number and the sum of the slacks `ub(X) − sup(X)` of the
/// candidates Apriori with an OSSM filter counts, from a level loop that
/// bounds and counts one candidate list at a time.
fn slack_oracle(d: &Dataset, ossm: &Ossm, min_support: u64) -> [u64; 2] {
    let mut slack = [0, 0];
    let mut candidates: Vec<Itemset> = (0..d.num_items() as u32)
        .map(|i| Itemset::singleton(ItemId(i)))
        .collect();
    while !candidates.is_empty() {
        candidates.retain(|c| ossm.upper_bound(c) >= min_support);
        let counts = count_with(CountingBackend::HashTree, d.transactions(), &candidates);
        let mut frequent = Vec::new();
        for (c, sup) in candidates.into_iter().zip(counts) {
            slack[0] += 1;
            slack[1] += ossm.upper_bound(&c) - sup;
            if sup >= min_support {
                frequent.push(c);
            }
        }
        candidates = generate_candidates(&frequent);
    }
    slack
}

#[test]
fn filtered_apriori_is_thread_count_invariant() {
    let _guard = THREADS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // About 460 frequent items: level 2's triangle holds over 100 000
    // pairs, so eq. (1) and the collect run in two parts at 2 threads and
    // three at 8, and the map prunes some of them.
    let d = QuestConfig {
        num_transactions: 3000,
        num_items: 500,
        num_patterns: 1000,
        ..QuestConfig::default()
    }
    .generate();
    let store = PageStore::with_page_count(d, 20);
    let ossm = Ossm::from_pages(&store, &Segmentation::identity(20));
    let min_support = store.dataset().absolute_threshold(0.004);
    let apriori = Apriori::new().with_backend(CountingBackend::HashTree);
    // The patterns, the level rows, the counters' deltas, and the bytes
    // of level 2's pair-table pass (the last pass started).
    let mine = || {
        let before = work_counters();
        let out = apriori.mine_filtered(store.dataset(), min_support, &OssmFilter::new(&ossm));
        let after = work_counters();
        let deltas: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        let table = ossm_obs::registry()
            .snapshot()
            .gauge("mem.mining.pair_table")
            .current;
        (out.patterns, out.metrics.levels, deltas, table)
    };
    ossm_par::set_threads(Some(1));
    let serial = mine();
    let level2 = &serial.1[1];
    assert!(
        level2.generated > 100_000 && level2.filtered_out > 0,
        "{level2:?}"
    );
    let unfiltered = apriori.mine(store.dataset(), min_support).patterns;
    assert_eq!(serial.0, unfiltered, "eq. (1) is sound");
    if ossm_obs::ENABLED {
        let counted: u64 = serial.1.iter().map(|l| l.counted).sum();
        let generated: u64 = serial.1.iter().map(|l| l.generated).sum();
        let frequent = serial.0.len() as u64;
        assert_eq!(serial.2[..3], [generated, frequent, counted - frequent]);
        assert!(
            serial.2[3] > 0 && serial.3 > 0,
            "level 2 counts in the pair table"
        );
        assert_eq!(
            serial.2[4..],
            slack_oracle(store.dataset(), &ossm, min_support),
            "one slack per counted candidate, from its own bound"
        );
    }
    for threads in [2, 8] {
        ossm_par::set_threads(Some(threads));
        assert_eq!(mine(), serial, "{threads} threads");
    }
    ossm_par::set_threads(None);
}

#[test]
fn singleton_supports_are_thread_count_invariant() {
    let _guard = THREADS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // 20 000 transactions: several counting chunks at 2 and 8 threads.
    let d = QuestConfig {
        num_transactions: 20_000,
        ..QuestConfig::small()
    }
    .generate();
    let naive: Vec<u64> = (0..d.num_items() as u32)
        .map(|i| d.support(&Itemset::singleton(ItemId(i))))
        .collect();
    for threads in [1, 2, 8] {
        ossm_par::set_threads(Some(threads));
        assert_eq!(d.singleton_supports(), naive, "{threads} threads");
    }
    ossm_par::set_threads(None);
    let empty = Dataset::new(4, Vec::new());
    assert_eq!(empty.singleton_supports(), [0; 4]);
}
