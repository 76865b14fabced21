//! The Greedy segmentation algorithm (Figure 2 of the paper).
//!
//! Maintains a priority queue of all pairwise merge losses; each iteration
//! pops the globally minimal pair, merges it, and inserts the losses of the
//! new segment against every survivor. Because the merged segment may have
//! a *different configuration* than either parent (Example 3 of the paper),
//! the fresh losses genuinely must be recomputed. Each live segment
//! carries its cached `f(u_s)`, so a fresh loss is one pass over the merged
//! pair, and the merged segment's own `f` is the popped loss plus its
//! parents' `f`s.
//!
//! Instead of Figure 2's step 5 ("remove all pairs in the priority queue
//! involving S_i or S_j") — a linear scan of the heap — we use lazy
//! deletion: every segment gets a fresh id when created, and entries whose
//! segments have since died are skipped at pop time. The complexities
//! match the paper's analysis: O(p²) loss computations and O(p² log p)
//! heap traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::loss::{LossCalculator, Scratch};
use crate::segmentation::{Aggregate, Segmentation};

use super::{trivial, validate, SegmentationAlgorithm};

/// Pair merges performed by Greedy.
static MERGES: ossm_obs::Counter = ossm_obs::Counter::new("core.seg.greedy.merges");
/// Equation-(2) merge-loss evaluations (initial pairs + recomputations).
static LOSS_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.seg.greedy.loss_evals");
/// Entries pushed into the priority queue.
static HEAP_PUSHES: ossm_obs::Counter = ossm_obs::Counter::new("core.seg.greedy.heap_pushes");
/// Lazily-deleted (stale) entries skipped at pop time.
static STALE_POPS: ossm_obs::Counter = ossm_obs::Counter::new("core.seg.greedy.stale_pops");

/// Greedy minimal-loss-pair segmentation.
#[derive(Clone, Debug)]
pub struct Greedy {
    calc: LossCalculator,
}

impl Greedy {
    /// Creates the algorithm with a loss calculator (full or bubble-scoped).
    pub fn new(calc: LossCalculator) -> Self {
        Greedy { calc }
    }
}

impl Default for Greedy {
    fn default() -> Self {
        Greedy::new(LossCalculator::all_items())
    }
}

impl SegmentationAlgorithm for Greedy {
    fn name(&self) -> String {
        "Greedy".to_owned()
    }

    fn segment(&self, inputs: &[Aggregate], n_user: usize) -> Segmentation {
        validate(inputs, n_user);
        if let Some(t) = trivial(inputs, n_user) {
            return t;
        }
        let _seg_span = ossm_obs::span("core.seg.greedy");
        // Slab of segments by id, each with its cached `f`; `None` = merged
        // away. Ids only grow, so a heap entry is stale iff either of its
        // ids is dead.
        let fs = self.calc.pair_min_sums(inputs);
        let mut slab: Vec<Option<(Aggregate, u64, Vec<usize>)>> = inputs
            .iter()
            .zip(&fs)
            .enumerate()
            .map(|(i, (a, &f))| Some((a.clone(), f, vec![i])))
            .collect();
        let mut alive = slab.len();

        // Step 1: all initial pairwise losses. Min-heap via Reverse; ties
        // resolve to the smallest (a, b) ids for determinism.
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
        {
            let mut s = ossm_obs::detail_span("core.seg.greedy.init_losses");
            s.watch(&LOSS_EVALS);
            // The full pairwise matrix, computed row-chunked in parallel and
            // returned in (a, b) order; pushes stay on this thread so the
            // heap's insertion order is independent of the thread count.
            let pairs = self.calc.pairwise_merge_losses_with(inputs, &fs);
            LOSS_EVALS.add(pairs.len() as u64);
            HEAP_PUSHES.add(pairs.len() as u64);
            for (loss, a, b) in pairs {
                heap.push(Reverse((loss, a, b)));
            }
        }

        // Step 2: repeatedly merge the globally closest pair.
        let mut scratch = Scratch::default();
        while alive > n_user {
            let mut round = ossm_obs::detail_span("core.seg.greedy.round");
            round.watch(&LOSS_EVALS);
            round.watch(&STALE_POPS);
            let Reverse((loss, a, b)) = heap.pop().expect("heap cannot drain before n_user");
            if slab[a].is_none() || slab[b].is_none() {
                STALE_POPS.incr();
                continue; // lazy deletion: a stale pair
            }
            // Steps 4–5: merge S_a and S_b into a fresh segment.
            let (agg_a, f_a, mut grp_a) = slab[a].take().expect("checked alive");
            let (agg_b, f_b, mut grp_b) = slab[b].take().expect("checked alive");
            let mut merged = agg_a;
            merged.merge_in(&agg_b);
            let f_merged = loss + f_a + f_b;
            debug_assert_eq!(f_merged, self.calc.pair_min_sum(merged.supports()));
            grp_a.append(&mut grp_b);
            let new_id = slab.len();
            alive -= 1; // two died, one born
            MERGES.incr();
            // Step 6: losses of the new segment against all survivors.
            if alive > n_user {
                // (No point pushing pairs we will never pop once the target
                // count is reached.)
                for (id, entry) in slab.iter().enumerate() {
                    if let Some((agg, f, _)) = entry {
                        let loss =
                            self.calc
                                .merge_loss_with(&merged, f_merged, agg, *f, &mut scratch);
                        LOSS_EVALS.incr();
                        heap.push(Reverse((loss, id, new_id)));
                        HEAP_PUSHES.incr();
                    }
                }
            }
            slab.push(Some((merged, f_merged, grp_a)));
        }

        let groups: Vec<Vec<usize>> = slab.into_iter().flatten().map(|(_, _, g)| g).collect();
        Segmentation::from_groups(groups, inputs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::testutil;

    #[test]
    fn satisfies_the_algorithm_contract() {
        testutil::check_contract(&Greedy::default());
    }

    #[test]
    fn finds_the_lossless_two_way_split() {
        assert_eq!(testutil::two_config_loss(&Greedy::default()), 0);
    }

    #[test]
    fn merges_cheapest_pair_first() {
        // Segments: two nearly identical configs (cheap merge) and one
        // opposite config (expensive). With n_user = 2 Greedy must merge
        // the cheap pair and leave the expensive segment alone.
        let inputs = vec![
            Aggregate::new(vec![10, 5, 1], 10),
            Aggregate::new(vec![9, 5, 1], 9),
            Aggregate::new(vec![1, 5, 10], 10),
        ];
        let seg = Greedy::default().segment(&inputs, 2);
        let mut groups: Vec<Vec<usize>> = seg.groups().to_vec();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort();
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn greedy_never_loses_more_than_rc_on_structured_inputs() {
        use crate::loss::LossCalculator;
        use crate::seg::rc::RandomClosest;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // Random inputs drawn from 3 latent configurations.
        let protos: [&[u64]; 3] = [&[30, 20, 10, 5], &[5, 10, 20, 30], &[20, 30, 5, 10]];
        let inputs: Vec<Aggregate> = (0..12)
            .map(|_| {
                let proto = protos[rng.gen_range(0..3)];
                let scale = rng.gen_range(1..4u64);
                Aggregate::new(proto.iter().map(|&v| v * scale).collect(), 30 * scale)
            })
            .collect();
        let calc = LossCalculator::all_items();
        let g_loss = calc.segmentation_loss(&inputs, &Greedy::default().segment(&inputs, 3));
        assert_eq!(
            g_loss, 0,
            "three latent configurations should split losslessly"
        );
        let rc_loss =
            calc.segmentation_loss(&inputs, &RandomClosest::default().segment(&inputs, 3));
        assert!(g_loss <= rc_loss);
    }
}
