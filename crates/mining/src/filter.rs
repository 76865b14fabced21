//! Candidate filters: the hook through which the OSSM plugs into miners.
//!
//! The OSSM's pruning is sound — equation (1) never *under*estimates a
//! support — so filtering with it can only remove candidates that are
//! certainly infrequent. Every in-memory miner that generates candidates
//! (Apriori, DHP, DepthProject, and Eclat) takes a `&dyn`
//! [`CandidateFilter`], which makes "Apriori with the OSSM" vs "Apriori
//! without" a one-argument difference, exactly how the paper frames its
//! experiments (and likewise for DHP and DepthProject in Section 7).
//! The level-wise miners judge level 2 — every pair of frequent items —
//! in one [`CandidateFilter::judge_pairs`] call: [`NoFilter`] admits the
//! batch without looking, [`OssmFilter`] runs eq. (1) over it in one
//! `ossm_core` kernel, and any other filter is asked pair by pair.
//! Partition builds its own per-partition maps instead, and the
//! out-of-core miners take the map itself, because they also use it to
//! skip pages.

use ossm_core::Ossm;
use ossm_data::{ItemId, Itemset};

use crate::levelwise::admit;
use crate::pairs::all_pairs;

/// Decides, before counting, whether a candidate can still be frequent.
pub trait CandidateFilter {
    /// Returns `true` if `candidate` might reach `min_support` and must be
    /// counted; `false` prunes it.
    fn may_be_frequent(&self, candidate: &Itemset, min_support: u64) -> bool;

    /// The numeric support upper bound this filter judged `candidate` by,
    /// if it has one. Instrumentation compares it with the true support to
    /// measure bound tightness; filters without a bound (like [`NoFilter`])
    /// keep the default `None`.
    ///
    /// A filter returns `Some` for every candidate or for none, and a
    /// filter returning `Some(ub)` decides
    /// `may_be_frequent(candidate, min_support) == (ub >= min_support)`:
    /// the miners judge such a candidate by its bound alone, so eq. (1)
    /// is evaluated once per candidate. [`OssmFilter`] is such a filter.
    fn bound(&self, _candidate: &Itemset) -> Option<u64> {
        None
    }

    /// Judges a batch of pairs — level 2 of a level-wise miner: every
    /// pair `(a, b)` of `items` (in item order, distinct), `a` before
    /// `b`, in row order — the pairs of `items[0]`, then those of
    /// `items[1]`, … — whose flag in `pairs` is set. The flag of a pair
    /// the filter discharges is cleared. A filter with a
    /// [`bound`](Self::bound) pushes the bound of every pair it admits
    /// onto `bounds`, in row order, when instrumentation is on.
    ///
    /// The answer for each pair must equal the one-pair path: its bound
    /// against `min_support` for a filter with a bound,
    /// [`may_be_frequent`](Self::may_be_frequent) otherwise. The default
    /// judges pair by pair that way; a filter overrides it to judge the
    /// batch at once.
    fn judge_pairs(
        &self,
        items: &[ItemId],
        min_support: u64,
        pairs: &mut [bool],
        bounds: &mut Vec<u64>,
    ) {
        for (pair, flag) in all_pairs(items).zip(pairs) {
            if *flag {
                let pair = Itemset::from_sorted(pair.to_vec());
                *flag = admit(self, &pair, min_support, bounds);
            }
        }
    }

    /// Display name for experiment tables.
    fn name(&self) -> &str;
}

/// The no-op filter: every candidate is counted (the paper's "without the
/// OSSM" baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFilter;

impl CandidateFilter for NoFilter {
    #[inline]
    fn may_be_frequent(&self, _candidate: &Itemset, _min_support: u64) -> bool {
        true
    }

    /// Admits every pair without looking at one.
    fn judge_pairs(&self, _: &[ItemId], _: u64, _: &mut [bool], _: &mut Vec<u64>) {}

    fn name(&self) -> &str {
        "none"
    }
}

/// Filters through an OSSM's equation-(1) upper bound.
#[derive(Clone, Debug)]
pub struct OssmFilter<'a> {
    ossm: &'a Ossm,
}

impl<'a> OssmFilter<'a> {
    /// Wraps an OSSM as a filter.
    pub fn new(ossm: &'a Ossm) -> Self {
        OssmFilter { ossm }
    }

    /// The wrapped map.
    pub fn ossm(&self) -> &Ossm {
        self.ossm
    }
}

impl CandidateFilter for OssmFilter<'_> {
    #[inline]
    fn may_be_frequent(&self, candidate: &Itemset, min_support: u64) -> bool {
        self.ossm.upper_bound(candidate) >= min_support
    }

    fn bound(&self, candidate: &Itemset) -> Option<u64> {
        Some(self.ossm.upper_bound(candidate))
    }

    /// Eq. (1) for the whole batch through [`Ossm::upper_bound_pairs`].
    fn judge_pairs(
        &self,
        items: &[ItemId],
        min_support: u64,
        pairs: &mut [bool],
        bounds: &mut Vec<u64>,
    ) {
        self.ossm.upper_bound_pairs(
            items,
            pairs,
            |ub| ub >= min_support,
            ossm_obs::ENABLED.then_some(bounds),
        );
    }

    fn name(&self) -> &str {
        "OSSM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossm_core::Aggregate;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn no_filter_keeps_everything() {
        assert!(NoFilter.may_be_frequent(&set(&[1, 2, 3]), u64::MAX));
        assert_eq!(NoFilter.name(), "none");
        assert_eq!(NoFilter.bound(&set(&[1, 2, 3])), None, "no bound to report");
    }

    #[test]
    fn ossm_filter_prunes_by_upper_bound() {
        // Example 1's OSSM: ub({0,1}) = 80, ub({0,1,2}) = 60.
        let seg = |a: u64, b: u64, c: u64| Aggregate::new(vec![a, b, c], a.max(b).max(c));
        let ossm = Ossm::from_aggregates(vec![
            seg(20, 40, 40),
            seg(10, 40, 20),
            seg(40, 40, 20),
            seg(40, 10, 20),
        ]);
        let f = OssmFilter::new(&ossm);
        assert!(f.may_be_frequent(&set(&[0, 1]), 80));
        assert!(!f.may_be_frequent(&set(&[0, 1]), 81));
        assert!(!f.may_be_frequent(&set(&[0, 1, 2]), 61));
        assert!(f.may_be_frequent(&set(&[0, 1, 2]), 60));
        assert_eq!(f.bound(&set(&[0, 1])), Some(80));
        assert_eq!(f.bound(&set(&[0, 1, 2])), Some(60));
        assert_eq!(f.name(), "OSSM");
    }
}
