//! Cross-miner agreement: Apriori (all three counting back-ends), DHP,
//! Partition, DepthProject, Eclat, and FP-growth must return identical
//! frequent patterns on any input — and plugging in an OSSM filter must
//! never change any of their answers.
//!
//! FP-growth shares no candidate-generation code with the others, which
//! makes this the strongest correctness oracle in the repository.

mod testkit;

use rand::Rng;
use testkit::{case_rng, random_dataset};

use ossm_core::{minimize_segments, OssmBuilder, Strategy as SegStrategy};
use ossm_data::{Dataset, PageStore};
use ossm_mining::{Apriori, CountingBackend, DepthProject, Dhp, FpGrowth, OssmFilter, Partition};

const CASES: u64 = 48;

fn dataset(case: u64, salt: u64) -> Dataset {
    random_dataset(&mut case_rng(salt, case), 2, 10, 1, 60, false)
}

#[test]
fn all_miners_agree() {
    for case in 0..CASES {
        let mut rng = case_rng(0x3141, case);
        let d = random_dataset(&mut rng, 2, 10, 1, 60, false);
        let min_support = rng.gen_range(1..=(d.len() as u64).max(1));
        let reference = Apriori::new().mine(&d, min_support).patterns;
        for backend in [CountingBackend::HashTree, CountingBackend::Bitmap] {
            let other = Apriori::new()
                .with_backend(backend)
                .mine(&d, min_support)
                .patterns;
            assert_eq!(
                reference, other,
                "case {case}: {backend:?} backend diverged"
            );
        }
        let dhp = Dhp::new(64).mine(&d, min_support).patterns;
        assert_eq!(reference, dhp, "case {case}: DHP diverged");
        let partition = Partition::new(3).mine(&d, min_support).patterns;
        assert_eq!(reference, partition, "case {case}: Partition diverged");
        let depth = DepthProject::new().mine(&d, min_support).patterns;
        assert_eq!(reference, depth, "case {case}: DepthProject diverged");
        let fp = FpGrowth::new().mine(&d, min_support).patterns;
        assert_eq!(reference, fp, "case {case}: FP-growth diverged");
        let eclat = ossm_mining::Eclat::new().mine(&d, min_support).patterns;
        assert_eq!(reference, eclat, "case {case}: Eclat diverged");
        // The condensed miners must agree with post-hoc condensation.
        let charm = ossm_mining::Charm::new().mine(&d, min_support).patterns;
        assert_eq!(
            charm,
            ossm_mining::patterns::closed(&reference),
            "case {case}: CHARM diverged"
        );
        // Downward closure must hold for whatever was produced.
        assert!(reference.closure_violation().is_none(), "case {case}");
    }
}

#[test]
fn ossm_filter_never_changes_any_miner() {
    for case in 0..CASES {
        let d = dataset(case, 0x3142);
        let min_support = (d.len() as u64 / 5).max(2);
        // Two OSSMs: the exact minimized one and a deliberately coarse one.
        let exact = minimize_segments(&d).ossm;
        let store = PageStore::with_page_count(d.clone(), 4);
        let coarse = OssmBuilder::new(2)
            .strategy(SegStrategy::Random)
            .build(&store)
            .0;

        let plain = Apriori::new().mine(&d, min_support);
        for ossm in [&exact, &coarse] {
            let filter = OssmFilter::new(ossm);
            let a = Apriori::new().mine_filtered(&d, min_support, &filter);
            assert_eq!(
                plain.patterns, a.patterns,
                "case {case}: Apriori+OSSM diverged"
            );
            assert!(a.metrics.total_counted() <= plain.metrics.total_counted());
            let h = Dhp::new(64).mine_filtered(&d, min_support, &filter);
            assert_eq!(plain.patterns, h.patterns, "case {case}: DHP+OSSM diverged");
            let dp = DepthProject::new().mine_filtered(&d, min_support, &filter);
            assert_eq!(
                plain.patterns, dp.patterns,
                "case {case}: DepthProject+OSSM diverged"
            );
            let e = ossm_mining::Eclat::new().mine_filtered(&d, min_support, &filter);
            assert_eq!(
                plain.patterns, e.patterns,
                "case {case}: Eclat+OSSM diverged"
            );
        }
        let pm = Partition::new(3).mine_with_ossms(&d, min_support, 2);
        assert_eq!(
            plain.patterns, pm.patterns,
            "case {case}: Partition+OSSMs diverged"
        );
    }
}

#[test]
fn reported_supports_are_true_supports() {
    for case in 0..CASES {
        let d = dataset(case, 0x3143);
        let min_support = (d.len() as u64 / 4).max(1);
        let out = FpGrowth::new().mine(&d, min_support);
        for (pattern, support) in out.patterns.iter() {
            assert_eq!(
                support,
                d.support(pattern),
                "case {case}: wrong support for {pattern}"
            );
            assert!(support >= min_support, "case {case}");
        }
    }
}

/// Deterministic check on realistic generated data (bigger than the
/// randomized inputs, one fixed seed per generator).
#[test]
fn agreement_on_all_three_paper_workloads() {
    use ossm_data::gen::{AlarmConfig, QuestConfig, SkewedConfig};
    let workloads: Vec<(Dataset, u64)> = vec![
        (
            QuestConfig {
                num_transactions: 500,
                num_items: 40,
                ..QuestConfig::small()
            }
            .generate(),
            10,
        ),
        (
            SkewedConfig {
                num_transactions: 500,
                num_items: 30,
                ..SkewedConfig::small()
            }
            .generate(),
            15,
        ),
        (
            AlarmConfig {
                num_windows: 400,
                num_alarm_types: 25,
                ..AlarmConfig::small()
            }
            .generate(),
            25,
        ),
    ];
    for (d, min_support) in workloads {
        let reference = Apriori::new().mine(&d, min_support).patterns;
        for backend in [CountingBackend::HashTree, CountingBackend::Bitmap] {
            let other = Apriori::new().with_backend(backend).mine(&d, min_support);
            assert_eq!(reference, other.patterns, "{backend:?}");
        }
        assert_eq!(reference, Dhp::default().mine(&d, min_support).patterns);
        assert_eq!(reference, Partition::new(4).mine(&d, min_support).patterns);
        assert_eq!(
            reference,
            DepthProject::new().mine(&d, min_support).patterns
        );
        assert_eq!(reference, FpGrowth::new().mine(&d, min_support).patterns);
        assert_eq!(
            reference,
            ossm_mining::Eclat::new().mine(&d, min_support).patterns
        );
        assert!(
            !reference.is_empty(),
            "workload should produce some patterns"
        );
    }
}
