//! RC's closest-segment scan and Greedy's loss matrix are chunked across
//! worker threads, the caller running the last chunk itself; the
//! segmentations must not depend on the thread count.

use ossm_core::seg::{Greedy, RandomClosest, SegmentationAlgorithm};
use ossm_core::{Aggregate, LossCalculator};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// 160 aggregates over 64 items, enough live segments for eight 16-segment
/// RC scan chunks. Every fifth input carries one support past 2²⁰, so the
/// losses take both evaluation identities.
fn inputs() -> Vec<Aggregate> {
    let mut rng = StdRng::seed_from_u64(0x7_4EAD);
    (0..160)
        .map(|i| {
            let mut v: Vec<u64> = (0..64).map(|_| rng.gen_range(0u64..60)).collect();
            if i % 5 == 0 {
                let j = rng.gen_range(0usize..64);
                v[j] = (1 << 20) + rng.gen_range(0u64..1000);
            }
            let n = v.iter().sum();
            Aggregate::new(v, n)
        })
        .collect()
}

#[test]
fn rc_and_greedy_segmentations_do_not_depend_on_the_thread_count() {
    let inputs = inputs();
    let calc = LossCalculator::all_items();
    let algos: [Box<dyn SegmentationAlgorithm>; 2] = [
        Box::new(RandomClosest::new(calc.clone(), 3)),
        Box::new(Greedy::new(calc)),
    ];
    for algo in &algos {
        let runs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                ossm_par::set_threads(Some(threads));
                algo.segment(&inputs, 10)
            })
            .collect();
        ossm_par::set_threads(None);
        assert_eq!(runs[0], runs[1], "{} at 1 vs 2 threads", algo.name());
        assert_eq!(runs[0], runs[2], "{} at 1 vs 8 threads", algo.name());
    }
}
