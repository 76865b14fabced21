//! The RC (Random Closest) segmentation algorithm (Figure 3 of the paper).
//!
//! Each iteration picks a *random* remaining segment and merges it with the
//! segment *closest* to it — the one minimizing the pairwise merge loss of
//! equation (2). Relative to Greedy, RC gives up finding the globally
//! minimal pair (and with it the priority queue); each of the `p − n_user`
//! iterations costs one scan over the remaining segments, for the paper's
//! O(p²·m²) total. Here each live segment carries its cached `f(u_s)`, so
//! every loss in a scan is one linear pass over the scope of the merged
//! pair (O(p²·k) in all, with `k` the loss scope size).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loss::{LossCalculator, Scratch};
use crate::segmentation::{Aggregate, Segmentation};

use super::{trivial, validate, SegmentationAlgorithm};

/// Merges performed by RC.
static MERGES: ossm_obs::Counter = ossm_obs::Counter::new("core.seg.rc.merges");
/// Equation-(2) merge-loss evaluations in the closest-segment scans.
static LOSS_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.seg.rc.loss_evals");

/// Minimum live segments per parallel closest-scan chunk.
const MIN_SCAN: usize = 16;

/// Random-Closest segmentation. Deterministic for a fixed seed.
#[derive(Clone, Debug)]
pub struct RandomClosest {
    calc: LossCalculator,
    seed: u64,
}

impl RandomClosest {
    /// Creates the algorithm with a loss calculator (full or bubble-scoped)
    /// and an RNG seed.
    pub fn new(calc: LossCalculator, seed: u64) -> Self {
        RandomClosest { calc, seed }
    }
}

impl Default for RandomClosest {
    fn default() -> Self {
        RandomClosest::new(LossCalculator::all_items(), 0)
    }
}

impl SegmentationAlgorithm for RandomClosest {
    fn name(&self) -> String {
        "RC".to_owned()
    }

    fn segment(&self, inputs: &[Aggregate], n_user: usize) -> Segmentation {
        validate(inputs, n_user);
        if let Some(t) = trivial(inputs, n_user) {
            return t;
        }
        let _seg_span = ossm_obs::span("core.seg.rc");
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Working set of live segments: (aggregate, its cached `f`,
        // original input indices).
        let fs = self.calc.pair_min_sums(inputs);
        let mut live: Vec<(Aggregate, u64, Vec<usize>)> = inputs
            .iter()
            .zip(fs)
            .enumerate()
            .map(|(i, (a, f))| (a.clone(), f, vec![i]))
            .collect();
        while live.len() > n_user {
            let mut round = ossm_obs::detail_span("core.seg.rc.round");
            round.watch(&LOSS_EVALS);
            // Step 2: pick a random segment S1.
            let i = rng.gen_range(0..live.len());
            let (agg_i, f_i, _) = &live[i];
            // Step 3: find the closest segment S2 (min merge loss; ties to
            // the lowest index so runs are reproducible). The scan chunks
            // across worker threads, each with its own scratch; each chunk
            // reports its local best and the `(loss, j)` tuple min over
            // chunk results reproduces the serial tie-break exactly, at any
            // thread count.
            let best = ossm_par::map_chunks(live.len(), MIN_SCAN, |r| {
                let mut scratch = Scratch::default();
                let mut local: Option<(u64, usize)> = None;
                for (j, (agg, f, _)) in live[r.clone()].iter().enumerate() {
                    let j = r.start + j;
                    if j == i {
                        continue;
                    }
                    let loss = self
                        .calc
                        .merge_loss_with(agg_i, *f_i, agg, *f, &mut scratch);
                    if local.map_or(true, |(bl, bj)| (loss, j) < (bl, bj)) {
                        local = Some((loss, j));
                    }
                }
                local
            })
            .into_iter()
            .flatten()
            .min();
            LOSS_EVALS.add(live.len() as u64 - 1);
            let (loss, j) = best.expect("at least two live segments");
            // Step 4: merge S1 and S2, whose `f` is `loss + f(S1) + f(S2)`.
            // Remove the higher index first so the lower one stays valid
            // under swap_remove.
            let (agg_removed, f_removed, mut grp_removed) = live.swap_remove(j.max(i));
            let (agg_kept, f_kept, grp_kept) = &mut live[j.min(i)];
            agg_kept.merge_in(&agg_removed);
            *f_kept += loss + f_removed;
            debug_assert_eq!(*f_kept, self.calc.pair_min_sum(agg_kept.supports()));
            grp_kept.append(&mut grp_removed);
            MERGES.incr();
        }
        Segmentation::from_groups(live.into_iter().map(|(_, _, g)| g).collect(), inputs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::testutil;

    #[test]
    fn satisfies_the_algorithm_contract() {
        testutil::check_contract(&RandomClosest::default());
    }

    #[test]
    fn single_merge_is_always_lossless_when_a_partner_exists() {
        // Whatever segment RC's random pick lands on, its *closest*
        // neighbour is its zero-loss same-configuration partner — so one
        // merge (n_user = 3 on 4 inputs) never loses accuracy.
        let inputs = testutil::two_config_inputs();
        let calc = LossCalculator::all_items();
        for seed in 0..10 {
            let algo = RandomClosest::new(calc.clone(), seed);
            let seg = algo.segment(&inputs, 3);
            assert_eq!(calc.segmentation_loss(&inputs, &seg), 0, "seed {seed}");
        }
    }

    #[test]
    fn some_seed_finds_the_lossless_two_way_split() {
        // Down to 2 segments RC is not guaranteed optimal (the random pick
        // may select the freshly merged segment), but some seeds find the
        // zero-loss split — and no seed should be worse than merging all
        // four inputs into one segment.
        let inputs = testutil::two_config_inputs();
        let calc = LossCalculator::all_items();
        let everything = calc.set_loss(inputs.iter());
        let losses: Vec<u64> = (0..10)
            .map(|seed| {
                let algo = RandomClosest::new(calc.clone(), seed);
                calc.segmentation_loss(&inputs, &algo.segment(&inputs, 2))
            })
            .collect();
        assert!(
            losses.contains(&0),
            "no seed found the lossless split: {losses:?}"
        );
        assert!(
            losses.iter().all(|&l| l <= everything),
            "worse than one segment: {losses:?}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let inputs = testutil::two_config_inputs();
        let algo = RandomClosest::new(LossCalculator::all_items(), 3);
        assert_eq!(algo.segment(&inputs, 2), algo.segment(&inputs, 2));
    }

    #[test]
    fn respects_bubble_scope() {
        // With the loss scoped to item 1 (identical everywhere), every merge
        // costs zero and RC still produces a valid segmentation.
        let algo = RandomClosest::new(LossCalculator::scoped(vec![1]), 0);
        let inputs = testutil::two_config_inputs();
        let seg = algo.segment(&inputs, 2);
        assert_eq!(seg.num_segments(), 2);
    }
}
