//! Soundness and monotonicity of the equation-(1) upper bound.
//!
//! Whatever the segmentation — random, adversarial, or degenerate — the
//! OSSM bound must never undercount any itemset's support (that is what
//! makes OSSM filtering lossless), and refining a segmentation must never
//! loosen the bound.

mod testkit;

use rand::rngs::StdRng;
use rand::Rng;
use testkit::{case_rng, mask_itemset};

use ossm_core::{Aggregate, Ossm, Segmentation};
use ossm_data::{Dataset, ItemId, Itemset, PageStore};

const CASES: u64 = 64;

/// Random dataset + random transaction-to-segment assignment.
fn assigned_dataset(rng: &mut StdRng) -> (Dataset, Vec<usize>, usize) {
    let m = rng.gen_range(2usize..=8);
    let segs = rng.gen_range(1usize..=5);
    let n = rng.gen_range(1usize..40);
    let mut transactions = Vec::with_capacity(n);
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        transactions.push(mask_itemset(m, rng.gen_range(1u32..(1 << m))));
        assignment.push(rng.gen_range(0..segs));
    }
    (Dataset::new(m, transactions), assignment, segs)
}

#[test]
fn bound_never_undercounts() {
    for case in 0..CASES {
        let (d, assignment, segs) = assigned_dataset(&mut case_rng(0xB0B1, case));
        let ossm = Ossm::from_transaction_assignment(&d, &assignment, segs);
        let m = d.num_items();
        for mask in 1u32..(1u32 << m) {
            let x = mask_itemset(m, mask);
            assert!(
                ossm.upper_bound(&x) >= d.support(&x),
                "case {case}: bound {} < support {} for {}",
                ossm.upper_bound(&x),
                d.support(&x),
                x
            );
        }
    }
}

#[test]
fn refining_a_segmentation_tightens_bounds() {
    for case in 0..CASES {
        let (d, assignment, segs) = assigned_dataset(&mut case_rng(0xB0B2, case));
        // Coarse = everything in one segment; fine = the random assignment.
        let coarse = Ossm::from_transaction_assignment(&d, &vec![0; d.len()], 1);
        let fine = Ossm::from_transaction_assignment(&d, &assignment, segs);
        let m = d.num_items();
        for mask in 1u32..(1u32 << m) {
            let x = mask_itemset(m, mask);
            assert!(
                fine.upper_bound(&x) <= coarse.upper_bound(&x),
                "case {case}: refinement loosened the bound for {x}"
            );
        }
    }
}

#[test]
fn singleton_bounds_are_exact() {
    for case in 0..CASES {
        let (d, assignment, segs) = assigned_dataset(&mut case_rng(0xB0B3, case));
        let ossm = Ossm::from_transaction_assignment(&d, &assignment, segs);
        for i in 0..d.num_items() as u32 {
            let item = ItemId(i);
            assert_eq!(
                ossm.upper_bound(&Itemset::singleton(item)),
                d.support(&Itemset::singleton(item)),
                "case {case}"
            );
            assert_eq!(
                ossm.singleton_support(item),
                d.support(&Itemset::singleton(item)),
                "case {case}"
            );
        }
    }
}

/// Level 2's batched pair bound, over every pair of the domain with a
/// random set of pairs unflagged, equals eq. (1) pair by pair, in row
/// order, and leaves unflagged pairs unjudged.
#[test]
fn pair_specialization_matches_general_bound() {
    for case in 0..CASES {
        let mut rng = case_rng(0xB0B4, case);
        let (d, assignment, segs) = assigned_dataset(&mut rng);
        let ossm = Ossm::from_transaction_assignment(&d, &assignment, segs);
        let m = d.num_items() as u32;
        let items: Vec<ItemId> = (0..m).map(ItemId).collect();
        let mut flags: Vec<bool> = (0..m * (m - 1) / 2).map(|_| rng.gen_bool(0.8)).collect();
        let mut expected = Vec::new();
        let mut pair = 0;
        for a in 0..m {
            for b in (a + 1)..m {
                if flags[pair] {
                    expected.push(ossm.upper_bound(&Itemset::new([a, b])));
                }
                pair += 1;
            }
        }
        let before = flags.clone();
        let mut seen = Vec::new();
        let judged = ossm.upper_bound_pairs(&items, &mut flags, |_| true, Some(&mut seen));
        assert_eq!(seen, expected, "case {case}");
        assert_eq!(judged, expected.len() as u64, "case {case}");
        assert_eq!(flags, before, "case {case}: every judged pair admitted");
    }
}

/// Per-transaction segments give the exact support for every itemset — the
/// paper's "hypothetical extreme case" where `n = |T|`.
#[test]
fn one_transaction_per_segment_is_exact() {
    let d = Dataset::new(
        4,
        vec![
            Itemset::new([0, 1]),
            Itemset::new([1, 2, 3]),
            Itemset::new([0, 3]),
            Itemset::new([2]),
        ],
    );
    let assignment: Vec<usize> = (0..d.len()).collect();
    let ossm = Ossm::from_transaction_assignment(&d, &assignment, d.len());
    for mask in 1u32..16 {
        let x = mask_itemset(4, mask);
        assert_eq!(ossm.upper_bound(&x), d.support(&x), "itemset {x}");
    }
}

/// The page-store construction and the aggregate construction agree.
#[test]
fn page_and_aggregate_constructions_agree() {
    let d = ossm_data::gen::QuestConfig {
        num_transactions: 300,
        num_items: 20,
        ..ossm_data::gen::QuestConfig::small()
    }
    .generate();
    let store = PageStore::with_page_count(d, 12);
    let seg = Segmentation::from_groups(
        vec![vec![0, 3, 6, 9], vec![1, 4, 7, 10], vec![2, 5, 8, 11]],
        12,
    );
    let via_pages = Ossm::from_pages(&store, &seg);
    let via_aggregates =
        Ossm::from_aggregates(seg.merge_aggregates(&Aggregate::from_pages(&store)));
    assert_eq!(via_pages, via_aggregates);
    assert_eq!(via_pages.num_transactions(), store.dataset().len() as u64);
}

/// The map stores one row per item; eq. (1), its batched pair form and the
/// singleton supports must read exactly what a segment-major table of
/// the same aggregates gives, for 1–120 segments (so the min-sum crosses
/// its internal chunk boundaries), patterns of 0–4 items, and supports
/// above `u32::MAX`.
#[test]
fn item_major_bounds_match_a_segment_major_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(0xB0B5, case);
        let m = rng.gen_range(1usize..=12);
        let n = rng.gen_range(1usize..=120);
        let support = |rng: &mut StdRng| {
            if rng.gen_bool(0.3) {
                u64::from(u32::MAX) + rng.gen_range(0u64..1 << 40)
            } else {
                rng.gen_range(0u64..50)
            }
        };
        let segments: Vec<Aggregate> = (0..n)
            .map(|_| {
                let supports: Vec<u64> = (0..m).map(|_| support(&mut rng)).collect();
                let transactions = supports.iter().copied().max().unwrap_or(0);
                Aggregate::new(supports, transactions)
            })
            .collect();
        let ossm = Ossm::from_aggregates(segments.clone());
        assert_eq!(*ossm.segments(), *segments, "case {case}: round trip");
        let reference = |x: &Itemset| -> u64 {
            if x.is_empty() {
                return segments.iter().map(Aggregate::transactions).sum();
            }
            segments
                .iter()
                .map(|s| x.items().iter().map(|i| s.supports()[i.index()]).min())
                .map(|min| min.expect("non-empty pattern"))
                .sum()
        };
        for _ in 0..40 {
            let len = rng.gen_range(0usize..=4.min(m));
            let x = Itemset::new((0..len).map(|_| rng.gen_range(0..m as u32)));
            assert_eq!(ossm.upper_bound(&x), reference(&x), "case {case}: {x}");
            if let [a, b] = *x.items() {
                let mut batched = Vec::new();
                ossm.upper_bound_pairs(&[a, b], &mut [true], |_| true, Some(&mut batched));
                assert_eq!(batched, [reference(&x)], "case {case}");
            }
        }
        for i in 0..=m as u32 {
            let x = Itemset::singleton(ItemId(i));
            let expected = if (i as usize) < m { reference(&x) } else { 0 };
            assert_eq!(ossm.singleton_support(ItemId(i)), expected, "case {case}");
        }
    }
}
