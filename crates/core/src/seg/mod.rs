//! Heuristic algorithms for the constrained segmentation problem
//! (Section 5.2 of the paper).
//!
//! Each algorithm consumes the `p` initial aggregates (pages, or the output
//! of a previous stage) and produces a [`Segmentation`] with `n_user`
//! segments that tries to minimize the total accuracy loss of
//! equation (2):
//!
//! | Algorithm | Figure | Complexity (paper) | Module |
//! |---|---|---|---|
//! | Greedy    | Fig. 2 | O(p²m² + p² log p) | [`greedy`] |
//! | RC        | Fig. 3 | O(p²m²)            | [`rc`] |
//! | Random    | —      | O(p)               | [`random`] |
//! | hybrids   | §5.4   | Random to `n_mid`, then RC/Greedy | [`hybrid`] |
//!
//! The `m²` factor is tamed two ways: the bubble list (Section 5.3,
//! [`crate::bubble`]) shrinks the item scope, and our loss evaluation
//! ([`crate::loss`]) turns each `m²` into one linear pass over the merged
//! pair's supports (a support histogram, or a radix sort for large
//! values); RC and Greedy cache `f` of every live segment, so that pass is
//! the whole cost of a merge loss.

use crate::segmentation::{Aggregate, Segmentation};

pub mod greedy;
pub mod hybrid;
pub mod optimal;
pub mod random;
pub mod rc;

pub use greedy::Greedy;
pub use hybrid::Hybrid;
pub use optimal::Optimal;
pub use random::Random;
pub use rc::RandomClosest;

/// A constrained-segmentation heuristic: partitions `inputs` into at most
/// `n_user` segments.
pub trait SegmentationAlgorithm {
    /// Short display name used in experiment tables ("Greedy", "RC", …).
    fn name(&self) -> String;

    /// Produces a segmentation with `min(n_user, inputs.len())` segments.
    ///
    /// # Panics
    /// Implementations panic if `n_user == 0` or `inputs` is empty.
    fn segment(&self, inputs: &[Aggregate], n_user: usize) -> Segmentation;
}

/// Shared argument validation for all algorithms.
pub(crate) fn validate(inputs: &[Aggregate], n_user: usize) {
    assert!(n_user > 0, "cannot segment into zero segments");
    assert!(!inputs.is_empty(), "cannot segment zero inputs");
}

/// When `n_user >= p` no merging is needed: the identity segmentation is
/// optimal (zero loss).
pub(crate) fn trivial(inputs: &[Aggregate], n_user: usize) -> Option<Segmentation> {
    (n_user >= inputs.len()).then(|| Segmentation::identity(inputs.len()))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::loss::LossCalculator;

    /// Aggregates with two clearly distinct configurations; any sensible
    /// algorithm asked for two segments should separate them losslessly.
    pub fn two_config_inputs() -> Vec<Aggregate> {
        vec![
            Aggregate::new(vec![10, 5, 1], 10),
            Aggregate::new(vec![1, 5, 10], 10),
            Aggregate::new(vec![20, 10, 2], 20),
            Aggregate::new(vec![2, 10, 20], 20),
        ]
    }

    /// Checks an algorithm against shared contract properties.
    pub fn check_contract<A: SegmentationAlgorithm>(algo: &A) {
        let inputs = two_config_inputs();
        // Requesting more segments than inputs yields the identity.
        let id = algo.segment(&inputs, 100);
        assert_eq!(id.num_segments(), inputs.len());
        // Requesting one segment puts everything together.
        let one = algo.segment(&inputs, 1);
        assert_eq!(one.num_segments(), 1);
        assert_eq!(one.groups()[0].len(), inputs.len());
        // Exact request is honoured.
        for n in 1..=inputs.len() {
            let seg = algo.segment(&inputs, n);
            assert_eq!(seg.num_segments(), n, "requested {n}");
            assert_eq!(seg.num_inputs(), inputs.len());
        }
    }

    /// The loss of a segmentation produced by `algo` at `n_user = 2` on the
    /// two-configuration inputs. Zero means the algorithm found the
    /// lossless split.
    pub fn two_config_loss<A: SegmentationAlgorithm>(algo: &A) -> u64 {
        let inputs = two_config_inputs();
        let seg = algo.segment(&inputs, 2);
        LossCalculator::all_items().segmentation_loss(&inputs, &seg)
    }
}
