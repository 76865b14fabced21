//! Additional property tests: counting back-ends, persistence codecs,
//! and the generators' structural invariants.

mod testkit;

use rand::rngs::StdRng;
use rand::Rng;
use testkit::{case_rng, random_dataset};

use ossm_data::{Dataset, Itemset};

const CASES: u64 = 64;

fn dataset(rng: &mut StdRng) -> Dataset {
    random_dataset(rng, 2, 10, 0, 50, true)
}

#[test]
fn hash_tree_always_matches_linear_counting() {
    for case in 0..CASES {
        let mut rng = case_rng(0x5051, case);
        let d = dataset(&mut rng);
        let m = d.num_items();
        let num_cands = rng.gen_range(1usize..30);
        let candidates: Vec<Itemset> = (0..num_cands)
            .map(|_| {
                let mask = rng.gen_range(1u32..1024);
                Itemset::new((0..m as u32).filter(|&i| mask & (1 << i) != 0))
            })
            .filter(|c| !c.is_empty())
            .collect();
        if candidates.is_empty() {
            continue;
        }
        assert_eq!(
            ossm_mining::hashtree::count_hash_tree(d.transactions(), &candidates),
            ossm_mining::support::count_linear(d.transactions(), &candidates),
            "case {case}"
        );
    }
}

/// Transactions over a wider domain than the candidates: the hash tree
/// walks only the items some candidate holds, and must still count
/// exactly what the linear scan counts — for k = 1…4, with leaves at
/// partial and full depth (items 64 apart share a bucket), duplicate
/// candidates, transactions left shorter than `k` once dead items go,
/// and one pass fed a page of 1–7 transactions per call. The pass's
/// `items_skipped` equals a brute-force count of the dead items.
#[test]
fn hash_tree_skips_dead_items_without_changing_counts() {
    use ossm_mining::hashtree::HashTree;
    use ossm_mining::support::count_linear;
    for case in 0..CASES {
        let mut rng = case_rng(0x5055, case);
        let k = rng.gen_range(1usize..=4);
        // Live items are drawn from a pool of ids spread over 0..256.
        let pool: Vec<u32> = (0..rng.gen_range(k..=12))
            .map(|_| rng.gen_range(0u32..256))
            .collect();
        let mut candidates: Vec<Itemset> = (0..rng.gen_range(1usize..80))
            .map(|_| Itemset::new((0..k).map(|_| pool[rng.gen_range(0..pool.len())])))
            .filter(|c| c.len() == k)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let duplicates: Vec<Itemset> = candidates.iter().step_by(5).cloned().collect();
        candidates.extend(duplicates);
        let transactions: Vec<Itemset> = (0..rng.gen_range(0usize..60))
            .map(|_| {
                let len = rng.gen_range(0usize..10);
                Itemset::new((0..len).map(|_| {
                    if rng.gen_bool(0.5) {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(0u32..300)
                    }
                }))
            })
            .collect();
        let tree = HashTree::build(&candidates);
        let mut pass = tree.start_pass();
        let mut rest = transactions.as_slice();
        while !rest.is_empty() {
            let (page, tail) = rest.split_at(rng.gen_range(1usize..8).min(rest.len()));
            tree.count(page.iter().map(Itemset::items), &mut pass);
            rest = tail;
        }
        let dead: u64 = transactions
            .iter()
            .flat_map(Itemset::items)
            .filter(|&&i| !candidates.iter().any(|c| c.contains(i)))
            .count() as u64;
        assert_eq!(pass.items_skipped(), dead, "case {case}");
        assert_eq!(
            pass.into_counts(),
            count_linear(&transactions, &candidates),
            "case {case}, k = {k}"
        );
    }
}

#[test]
fn flat_codec_roundtrips() {
    for case in 0..CASES {
        let d = dataset(&mut case_rng(0x5052, case));
        let mut buf = Vec::new();
        ossm_data::io::write_dataset(&mut buf, &d).expect("write");
        let back = ossm_data::io::read_dataset(&mut buf.as_slice()).expect("read");
        assert_eq!(back, d, "case {case}");
    }
}

#[test]
fn paged_codec_roundtrips_and_indexes_correctly() {
    let dir = std::env::temp_dir().join("ossm-proptest-pages");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for case in 0..CASES {
        let d = dataset(&mut case_rng(0x5053, case));
        let path = dir.join(format!("pt-{}-{case}.pages", std::process::id()));
        ossm_data::disk::write_paged(&path, &d, 256).expect("write");
        let mut store = ossm_data::disk::DiskStore::open(&path, 3).expect("open");
        assert_eq!(store.num_transactions(), d.len() as u64, "case {case}");
        // The sparse index must reproduce the dataset's singleton supports.
        let mut totals = vec![0u64; d.num_items()];
        for s in store.summaries() {
            for &(item, count) in &s.supports {
                totals[item as usize] += u64::from(count);
            }
        }
        assert_eq!(totals, d.singleton_supports(), "case {case}");
        assert_eq!(store.to_dataset().expect("read"), d, "case {case}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn ossm_persistence_roundtrips() {
    for case in 0..CASES {
        let d = dataset(&mut case_rng(0x5054, case));
        if d.is_empty() {
            continue;
        }
        let min = ossm_core::minimize_segments(&d);
        let mut buf = Vec::new();
        ossm_core::persist::write_ossm(&mut buf, &min.ossm).expect("write");
        let back = ossm_core::persist::read_ossm(&mut buf.as_slice()).expect("read");
        assert_eq!(back, min.ossm, "case {case}");
    }
}

#[test]
fn generator_outputs_always_fit_their_domain() {
    for seed in 0u64..50 {
        use ossm_data::gen::{AlarmConfig, QuestConfig, SkewedConfig};
        let q = QuestConfig {
            num_transactions: 60,
            num_items: 15,
            seed,
            ..QuestConfig::small()
        }
        .generate();
        assert_eq!(q.num_items(), 15);
        assert!(
            q.transactions().iter().all(|t| !t.is_empty()),
            "seed {seed}"
        );
        let s = SkewedConfig {
            num_transactions: 60,
            num_items: 15,
            seed,
            ..SkewedConfig::small()
        }
        .generate();
        assert_eq!(s.len(), 60);
        let a = AlarmConfig {
            num_windows: 60,
            num_alarm_types: 15,
            seed,
            ..AlarmConfig::small()
        }
        .generate();
        assert_eq!(a.len(), 60);
    }
}

#[test]
fn closed_and_maximal_are_consistent() {
    for case in 0..CASES {
        let d = dataset(&mut case_rng(0x5058, case));
        if d.is_empty() {
            continue;
        }
        let min_support = (d.len() as u64 / 4).max(1);
        let full = ossm_mining::Apriori::new().mine(&d, min_support).patterns;
        let closed = ossm_mining::patterns::closed(&full);
        let maximal = ossm_mining::patterns::maximal(&full);
        // maximal ⊆ closed ⊆ full, and closed reconstructs every support.
        for p in &maximal {
            assert!(closed.contains(p), "case {case}");
        }
        for (p, s) in full.iter() {
            assert_eq!(
                ossm_mining::patterns::support_from_closed(&closed, p),
                Some(s),
                "case {case}"
            );
        }
    }
}
