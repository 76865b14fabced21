//! The hash tree's work counters are deterministic: the same candidates
//! over the same transactions record the same `mining.hashtree.*` totals
//! at any thread count, because each transaction's walk is fixed and
//! the chunk passes' totals simply add.
//!
//! The counters live in the process-wide registry, so this binary holds
//! a single test: no other test can add to them between snapshots.
#![cfg(feature = "obs")]

use ossm_data::Itemset;
use ossm_mining::hashtree::count_hash_tree;
use rand::{rngs::StdRng, Rng, SeedableRng};

const COUNTERS: [&str; 2] = [
    "mining.hashtree.path_lookups",
    "mining.hashtree.subset_tests",
];

fn totals() -> [u64; 2] {
    let snap = ossm_obs::registry().snapshot();
    COUNTERS.map(|name| snap.counter(name))
}

#[test]
fn work_counters_are_identical_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(0x7EE);
    let txs: Vec<Itemset> = (0..2000)
        .map(|_| {
            let len = rng.gen_range(0..12usize);
            Itemset::new((0..len).map(|_| rng.gen_range(0..300u32)))
        })
        .collect();
    // Pairs crowd full-depth leaves; the few triples stay in one
    // partial-depth root leaf, so both counters move.
    let pairs: Vec<Itemset> = (0..150u32)
        .flat_map(|a| ((a + 1)..150).map(move |b| Itemset::new([a, 2 * b])))
        .collect();
    let triples: Vec<Itemset> = (0..20u32)
        .map(|a| Itemset::new([a, a + 64, a + 128]))
        .collect();

    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        ossm_par::set_threads(Some(threads));
        let before = totals();
        let counts = (
            count_hash_tree(&txs, &pairs),
            count_hash_tree(&txs, &triples),
        );
        let after = totals();
        runs.push((counts, [0, 1].map(|i| after[i] - before[i])));
    }
    ossm_par::set_threads(None);

    let (_, work) = &runs[0];
    assert!(work.iter().all(|&w| w > 0), "both counters move: {work:?}");
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "counts and work differ across thread counts"
    );
}
