//! The Random segmentation algorithm (Section 5.2 of the paper).
//!
//! "Similar to the construction of the SSM structure \[10\], the Random
//! algorithm constructs the OSSM by arbitrarily/randomly partitioning pages
//! of transactions into segments." It computes no loss values at all, which
//! is why its complexity is O(p) — and why it is the workhorse first phase
//! of the hybrid strategies for very large `p`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::segmentation::{Aggregate, Segmentation};

use super::{trivial, validate, SegmentationAlgorithm};

/// Random segmentation: shuffle the inputs, cut into `n_user` near-equal
/// runs. Deterministic for a fixed seed.
#[derive(Clone, Debug)]
pub struct Random {
    seed: u64,
}

impl Random {
    /// Creates the algorithm with an RNG seed.
    pub fn new(seed: u64) -> Self {
        Random { seed }
    }
}

impl Default for Random {
    fn default() -> Self {
        Random::new(0)
    }
}

impl SegmentationAlgorithm for Random {
    fn name(&self) -> String {
        "Random".to_owned()
    }

    fn segment(&self, inputs: &[Aggregate], n_user: usize) -> Segmentation {
        validate(inputs, n_user);
        if let Some(t) = trivial(inputs, n_user) {
            return t;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.shuffle(&mut rng);
        let p = inputs.len();
        let base = p / n_user;
        let extra = p % n_user;
        let mut groups = Vec::with_capacity(n_user);
        let mut start = 0;
        for s in 0..n_user {
            let size = base + usize::from(s < extra);
            groups.push(order[start..start + size].to_vec());
            start += size;
        }
        Segmentation::from_groups(groups, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::testutil;

    #[test]
    fn satisfies_the_algorithm_contract() {
        testutil::check_contract(&Random::new(42));
    }

    #[test]
    fn deterministic_per_seed() {
        let inputs = testutil::two_config_inputs();
        let a = Random::new(7).segment(&inputs, 2);
        let b = Random::new(7).segment(&inputs, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn group_sizes_are_balanced() {
        let inputs: Vec<Aggregate> = (0..10).map(|i| Aggregate::new(vec![i as u64], 1)).collect();
        let seg = Random::new(1).segment(&inputs, 3);
        let mut sizes: Vec<usize> = seg.groups().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3, 4]);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let inputs: Vec<Aggregate> = (0..12)
            .map(|i| Aggregate::new(vec![i as u64, 12 - i as u64], 1))
            .collect();
        let a = Random::new(1).segment(&inputs, 3);
        let b = Random::new(2).segment(&inputs, 3);
        assert_ne!(
            a, b,
            "two seeds should give different shuffles on 12 inputs"
        );
    }
}
