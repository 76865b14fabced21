//! Property tests for the equation-(2) loss quantity (Lemma 2) and the
//! linear evaluation's equivalence to the paper's O(m²) pair loop.

mod testkit;

use rand::rngs::StdRng;
use rand::Rng;
use testkit::case_rng;

use ossm_core::loss::{pair_min_sum, pair_min_sum_naive};
use ossm_core::{Aggregate, LossCalculator, Segmentation};

const CASES: u64 = 128;

fn random_aggregate(rng: &mut StdRng, m: usize) -> Aggregate {
    let v: Vec<u64> = (0..m).map(|_| rng.gen_range(0u64..500)).collect();
    let n = v.iter().copied().max().unwrap_or(0);
    Aggregate::new(v, n)
}

/// 2–5 aggregates over a common random item count `1..=12`.
fn random_aggregates(rng: &mut StdRng) -> Vec<Aggregate> {
    let m = rng.gen_range(1usize..=12);
    let k = rng.gen_range(2usize..6);
    (0..k).map(|_| random_aggregate(rng, m)).collect()
}

#[test]
fn sorted_pair_min_sum_equals_naive() {
    for case in 0..CASES {
        let mut rng = case_rng(0x1051, case);
        let len = rng.gen_range(0usize..40);
        let w: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..10_000)).collect();
        assert_eq!(pair_min_sum(&w), pair_min_sum_naive(&w), "case {case}");
    }
}

#[test]
fn fast_and_naive_losses_agree() {
    for case in 0..CASES {
        let segs = random_aggregates(&mut case_rng(0x1052, case));
        let fast = LossCalculator::all_items();
        let naive = LossCalculator::all_items().with_naive_evaluation();
        assert_eq!(
            fast.merge_loss(&segs[0], &segs[1]),
            naive.merge_loss(&segs[0], &segs[1]),
            "case {case}"
        );
        assert_eq!(
            fast.set_loss(segs.iter()),
            naive.set_loss(segs.iter()),
            "case {case}"
        );
    }
}

#[test]
fn loss_is_nonnegative_and_zero_for_identical_configs() {
    for case in 0..CASES {
        let segs = random_aggregates(&mut case_rng(0x1053, case));
        let calc = LossCalculator::all_items();
        // Lemma 2(a/b): loss ≥ 0 always (we can't easily synthesize equal
        // configurations here, so test the scaled-copy case below
        // deterministically); merge_loss of a segment with a scaled copy
        // of itself is 0 (same configuration).
        assert!(calc.set_loss(segs.iter()) < u64::MAX);
        let a = &segs[0];
        let doubled = Aggregate::new(
            a.supports().iter().map(|&v| v * 2).collect(),
            a.transactions() * 2,
        );
        assert_eq!(
            calc.merge_loss(a, &doubled),
            0,
            "case {case}: same configuration must cost 0"
        );
    }
}

#[test]
fn loss_is_monotone_under_set_growth() {
    for case in 0..CASES {
        // Lemma 2(c): S ⊆ S' ⇒ loss(S) ≤ loss(S').
        let segs = random_aggregates(&mut case_rng(0x1054, case));
        let calc = LossCalculator::all_items();
        for k in 2..=segs.len() {
            let smaller = calc.set_loss(segs[..k - 1].iter());
            let larger = calc.set_loss(segs[..k].iter());
            assert!(
                smaller <= larger,
                "case {case}: loss shrank when adding segment {}",
                k - 1
            );
        }
    }
}

#[test]
fn scoped_loss_never_exceeds_full_loss() {
    for case in 0..CASES {
        let segs = random_aggregates(&mut case_rng(0x1055, case));
        let m = segs[0].num_items();
        let full = LossCalculator::all_items();
        // Every-other-item bubble list.
        let scope: Vec<u32> = (0..m as u32).step_by(2).collect();
        if scope.is_empty() {
            continue;
        }
        let scoped = LossCalculator::scoped(scope);
        assert!(
            scoped.merge_loss(&segs[0], &segs[1]) <= full.merge_loss(&segs[0], &segs[1]),
            "case {case}"
        );
        assert!(
            scoped.set_loss(segs.iter()) <= full.set_loss(segs.iter()),
            "case {case}"
        );
    }
}

#[test]
fn segmentation_loss_decomposes_over_groups() {
    for case in 0..CASES {
        let segs = random_aggregates(&mut case_rng(0x1056, case));
        let calc = LossCalculator::all_items();
        let n = segs.len();
        // Split into two groups: first half, second half.
        let cut = n / 2;
        if cut == 0 || cut == n {
            continue;
        }
        let seg = Segmentation::from_groups(vec![(0..cut).collect(), (cut..n).collect()], n);
        let total = calc.segmentation_loss(&segs, &seg);
        let by_hand = calc.set_loss(segs[..cut].iter()) + calc.set_loss(segs[cut..].iter());
        assert_eq!(total, by_hand, "case {case}");
        // The identity segmentation always costs zero.
        assert_eq!(
            calc.segmentation_loss(&segs, &Segmentation::identity(n)),
            0,
            "case {case}"
        );
    }
}

#[test]
fn loss_equals_sum_of_pairwise_bound_slack() {
    for case in 0..CASES {
        // Direct check of equation (2): loss(S) is exactly the total
        // increase, over all item pairs, of the merged bound vs the
        // separated bound.
        use ossm_core::Ossm;
        use ossm_data::Itemset;
        let segs = random_aggregates(&mut case_rng(0x1057, case));
        let calc = LossCalculator::all_items();
        let m = segs[0].num_items();
        let separate = Ossm::from_aggregates(segs.clone());
        let merged_agg = segs[1..]
            .iter()
            .fold(segs[0].clone(), |acc, s| acc.merged(s));
        let merged = Ossm::from_aggregates(vec![merged_agg]);
        let mut expected = 0u64;
        for x in 0..m as u32 {
            for y in (x + 1)..m as u32 {
                let pair = Itemset::new([x, y]);
                expected += merged.upper_bound(&pair) - separate.upper_bound(&pair);
            }
        }
        assert_eq!(calc.set_loss(segs.iter()), expected, "case {case}");
    }
}

/// Deterministic: strictly opposite configurations must cost a positive
/// loss (Lemma 2(b)).
#[test]
fn opposite_configurations_cost() {
    let calc = LossCalculator::all_items();
    let a = Aggregate::new(vec![10, 5, 1], 10);
    let b = Aggregate::new(vec![1, 5, 10], 10);
    assert!(calc.merge_loss(&a, &b) > 0);
}

/// 24 aggregates over 48 items on which eq. (2) takes both of its
/// evaluation identities: even inputs hold page-scale supports (below
/// 40, about 30 % of them zero), which the support histogram evaluates, and
/// odd inputs add one support past 2²⁰, which sends every evaluation that
/// involves them to the radix sort. Input `i` covers `2^(24 + i)`
/// transactions, so bits 24.. of a merged segment's count name its
/// members.
fn two_path_inputs() -> Vec<Aggregate> {
    let mut rng = case_rng(0x2020, 0);
    (0..24)
        .map(|i| {
            let mut v: Vec<u64> = (0..48)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        0
                    } else {
                        rng.gen_range(1u64..40)
                    }
                })
                .collect();
            if i % 2 == 1 {
                let j = rng.gen_range(0usize..48);
                v[j] = (1 << 20) + rng.gen_range(0u64..1000);
            }
            Aggregate::new(v, 1 << (24 + i))
        })
        .collect()
}

/// Groups with members ascending, groups ordered by first member.
fn canonical(seg: &Segmentation) -> Vec<Vec<usize>> {
    let mut groups = seg.groups().to_vec();
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

/// The segmentations and eq. (2) losses every strategy produced before
/// the support-histogram evaluation existed, on inputs whose evaluations
/// take both identities: the evaluation changed, no result did.
#[test]
fn segmentations_are_pinned_across_both_evaluation_paths() {
    use ossm_core::seg::{hybrid::random_greedy, Greedy, RandomClosest, SegmentationAlgorithm};
    let inputs = two_path_inputs();
    let calc = LossCalculator::all_items();
    let counter = |name| ossm_obs::registry().snapshot().counter(name);
    let (hist_before, radix_before) = (
        counter("core.loss.hist_evals"),
        counter("core.loss.radix_evals"),
    );
    let check = |algo: &dyn SegmentationAlgorithm, groups: &[&[usize]], loss: u64| {
        let seg = algo.segment(&inputs, 6);
        assert_eq!(canonical(&seg), groups, "{}", algo.name());
        assert_eq!(
            calc.segmentation_loss(&inputs, &seg),
            loss,
            "{}",
            algo.name()
        );
    };
    check(
        &RandomClosest::new(calc.clone(), 5),
        &[
            &[0, 5, 9, 10, 11, 16, 22, 23],
            &[1, 7],
            &[2, 3, 8, 12, 21],
            &[4, 19],
            &[6, 13, 20],
            &[14, 15, 17, 18],
        ],
        7_436_055,
    );
    check(
        &Greedy::new(calc.clone()),
        &[
            &[0, 2, 9, 16],
            &[1, 6, 7, 17, 18],
            &[3, 8, 21],
            &[4, 13, 19, 20],
            &[5, 12, 22, 23],
            &[10, 11, 14, 15],
        ],
        4_280_069,
    );
    check(
        &random_greedy(calc.clone(), 12, 5),
        &[
            &[0, 2, 6, 11, 18, 20],
            &[1, 7, 13, 22],
            &[3, 4, 21, 23],
            &[5, 14, 16, 19],
            &[8, 9, 10, 12],
            &[15, 17],
        ],
        4_295_132,
    );
    let mut inc = ossm_core::IncrementalOssm::new(6, calc.clone()).expect("budget > 0");
    for a in &inputs {
        inc.append_aggregate(a.clone());
    }
    let members: Vec<u64> = inc
        .snapshot()
        .segments()
        .iter()
        .map(|s| s.transactions() >> 24)
        .collect();
    assert_eq!(
        members,
        [17_921, 12_587_010, 589_956, 3_154_184, 34_832, 393_312]
    );
    if ossm_obs::ENABLED {
        assert!(counter("core.loss.hist_evals") > hist_before);
        assert!(counter("core.loss.radix_evals") > radix_before);
    }
}
