//! Condensed pattern representations: maximal and closed frequent sets.
//!
//! The paper's introduction lists *long patterns* [1, 5] and *closed
//! sets* \[16\] among the pattern classes whose counting the OSSM serves.
//! This module derives both condensed forms from a full
//! [`FrequentPatterns`] result:
//!
//! * a frequent itemset is **maximal** if no proper superset is frequent;
//! * it is **closed** if no proper superset has the same support.
//!
//! Every maximal set is closed; the closed sets plus their supports
//! losslessly determine the support of *every* frequent itemset (the
//! support of `X` is the maximum support among closed supersets of `X`),
//! which [`support_from_closed`] implements and the tests verify.

use ossm_data::Itemset;

use crate::support::FrequentPatterns;

/// The maximal frequent itemsets: those with no frequent proper superset.
pub fn maximal(patterns: &FrequentPatterns) -> Vec<Itemset> {
    patterns
        .iter()
        .filter(|(p, _)| {
            !patterns
                .iter()
                .any(|(q, _)| q.len() > p.len() && p.is_subset_of(q))
        })
        .map(|(p, _)| p.clone())
        .collect()
}

/// The closed frequent itemsets with their supports: those no proper
/// superset matches in support.
pub fn closed(patterns: &FrequentPatterns) -> FrequentPatterns {
    patterns
        .iter()
        .filter(|(p, s)| {
            !patterns
                .iter()
                .any(|(q, t)| q.len() > p.len() && p.is_subset_of(q) && t == *s)
        })
        .map(|(p, s)| (p.clone(), s))
        .collect()
}

/// Reconstructs the support of an arbitrary frequent itemset from the
/// closed sets: `sup(X) = max { sup(C) : C closed, X ⊆ C }`. Returns
/// `None` if `X` is not frequent (no closed superset).
pub fn support_from_closed(closed: &FrequentPatterns, pattern: &Itemset) -> Option<u64> {
    closed
        .iter()
        .filter(|(c, _)| pattern.is_subset_of(c))
        .map(|(_, s)| s)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use ossm_data::gen::QuestConfig;
    use ossm_data::Dataset;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    /// T = {ab, abc, abc, abd}: sup(a)=sup(b)=sup(ab)=4, sup(abc)=2, …
    fn lattice_dataset() -> Dataset {
        Dataset::new(
            4,
            vec![
                set(&[0, 1]),
                set(&[0, 1, 2]),
                set(&[0, 1, 2]),
                set(&[0, 1, 3]),
            ],
        )
    }

    #[test]
    fn maximal_sets_of_the_lattice() {
        let out = Apriori::new().mine(&lattice_dataset(), 1);
        let mut max = maximal(&out.patterns);
        max.sort();
        assert_eq!(max, vec![set(&[0, 1, 2]), set(&[0, 1, 3])]);
    }

    #[test]
    fn closed_sets_of_the_lattice() {
        let out = Apriori::new().mine(&lattice_dataset(), 1);
        let closed = closed(&out.patterns);
        // {a}, {b} are subsumed by {a,b} (same support 4): not closed.
        assert!(!closed.contains(&set(&[0])));
        assert!(!closed.contains(&set(&[1])));
        assert!(closed.contains(&set(&[0, 1])));
        assert_eq!(closed.support_of(&set(&[0, 1])), Some(4));
        assert!(closed.contains(&set(&[0, 1, 2])));
        assert!(closed.contains(&set(&[0, 1, 3])));
        // {c} alone: sup 2, but {a,b,c} also 2 → subsumed.
        assert!(!closed.contains(&set(&[2])));
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn maximal_is_a_subset_of_closed() {
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 20,
            ..QuestConfig::small()
        }
        .generate();
        let out = Apriori::new().mine(&d, 8);
        let closed = closed(&out.patterns);
        for m in maximal(&out.patterns) {
            assert!(closed.contains(&m), "maximal {m} must be closed");
        }
    }

    #[test]
    fn closed_sets_losslessly_reconstruct_all_supports() {
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 18,
            ..QuestConfig::small()
        }
        .generate();
        let out = Apriori::new().mine(&d, 6);
        let closed = closed(&out.patterns);
        assert!(closed.len() <= out.patterns.len());
        for (p, s) in out.patterns.iter() {
            assert_eq!(
                support_from_closed(&closed, p),
                Some(s),
                "closed sets lost the support of {p}"
            );
        }
        // A non-frequent probe has no closed superset.
        assert_eq!(
            support_from_closed(&closed, &set(&[0, 1, 2, 3, 4, 5, 6])),
            None
        );
    }

    #[test]
    fn empty_input_yields_empty_outputs() {
        let empty = FrequentPatterns::new();
        assert!(maximal(&empty).is_empty());
        assert!(closed(&empty).is_empty());
        assert_eq!(support_from_closed(&empty, &set(&[0])), None);
    }
}
