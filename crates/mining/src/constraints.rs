//! Constrained frequent-set mining.
//!
//! The paper's introduction lists *constrained frequent sets* [11, 14, 19]
//! among the pattern classes the OSSM serves: "the patterns, whose
//! frequencies are needed, are conjunctions of atomic patterns". This
//! module implements the anti-monotone constraint classes of that line of
//! work and pushes them into the Apriori loop next to the OSSM filter —
//! a candidate that violates an anti-monotone constraint is dropped
//! *before counting*, exactly like a candidate whose equation-(1) bound
//! misses the threshold.
//!
//! Anti-monotonicity is what makes the push sound: if an itemset violates
//! the constraint, so does every superset, so pruning a candidate can
//! never lose a valid pattern. Each variant's docs state why it
//! qualifies.

use ossm_data::{Dataset, Itemset};

use crate::apriori::{Apriori, MiningOutcome};
use crate::filter::{CandidateFilter, NoFilter};
use crate::support::{CountingBackend, FrequentPatterns};

/// An anti-monotone constraint on itemsets.
#[derive(Clone, Debug)]
pub enum Constraint {
    /// `|X| ≤ k`. Anti-monotone: supersets are never shorter.
    MaxLen(usize),
    /// `X ⊆ allowed`. Anti-monotone: a superset of a violator still
    /// contains the offending item.
    ItemsFrom(Itemset),
    /// `X ∩ forbidden = ∅`. Anti-monotone for the same reason.
    Excludes(Itemset),
    /// `Σ_{a ∈ X} value[a] ≤ bound`, with non-negative per-item values
    /// (e.g. total price ≤ budget). Anti-monotone because adding items
    /// can only grow the sum.
    MaxSum {
        /// Per-item non-negative value, indexed by item id.
        values: Vec<u64>,
        /// Inclusive upper bound on the sum.
        bound: u64,
    },
    /// `min_{a ∈ X} value[a] ≥ bound` (e.g. every item's rating at least
    /// r). Anti-monotone: adding items can only lower the minimum. The
    /// empty itemset vacuously satisfies it.
    MinValueAtLeast {
        /// Per-item value, indexed by item id.
        values: Vec<u64>,
        /// Inclusive lower bound every member must meet.
        bound: u64,
    },
}

impl Constraint {
    /// Whether `itemset` satisfies the constraint.
    ///
    /// # Panics
    /// Panics if a value-based constraint's table is too short for an item.
    pub fn satisfied_by(&self, itemset: &Itemset) -> bool {
        match self {
            Constraint::MaxLen(k) => itemset.len() <= *k,
            Constraint::ItemsFrom(allowed) => itemset.is_subset_of(allowed),
            Constraint::Excludes(forbidden) => {
                itemset.items().iter().all(|i| !forbidden.contains(*i))
            }
            Constraint::MaxSum { values, bound } => {
                let sum: u64 = itemset.items().iter().map(|i| values[i.index()]).sum();
                sum <= *bound
            }
            Constraint::MinValueAtLeast { values, bound } => {
                itemset.items().iter().all(|i| values[i.index()] >= *bound)
            }
        }
    }
}

/// Apriori with anti-monotone constraints pushed into candidate
/// generation, plus the usual [`CandidateFilter`] hook.
#[derive(Clone, Debug, Default)]
pub struct ConstrainedApriori {
    constraints: Vec<Constraint>,
    backend: CountingBackend,
}

impl ConstrainedApriori {
    /// A miner with no constraints (plain Apriori).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint (conjunction with any already added).
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Selects the counting back-end.
    pub fn with_backend(mut self, backend: CountingBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Mines all frequent itemsets satisfying every constraint.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        self.mine_filtered(dataset, min_support, &NoFilter)
    }

    /// Mines with an additional candidate filter (the OSSM). This is
    /// Apriori with the constraints pushed into its filter, so its spans
    /// and level counters are Apriori's.
    ///
    /// # Panics
    /// Panics if `min_support == 0`.
    pub fn mine_filtered(
        &self,
        dataset: &Dataset,
        min_support: u64,
        filter: &dyn CandidateFilter,
    ) -> MiningOutcome {
        let pushed = Pushed {
            constraints: &self.constraints,
            filter,
        };
        Apriori::new()
            .with_backend(self.backend)
            .mine_filtered(dataset, min_support, &pushed)
    }
}

/// The constraints and the caller's filter as one [`CandidateFilter`]: a
/// candidate survives only if it satisfies every constraint and passes the
/// filter, so both discharge it before counting, singletons included.
struct Pushed<'a> {
    constraints: &'a [Constraint],
    filter: &'a dyn CandidateFilter,
}

impl CandidateFilter for Pushed<'_> {
    fn may_be_frequent(&self, candidate: &Itemset, min_support: u64) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(candidate))
            && self.filter.may_be_frequent(candidate, min_support)
    }

    fn name(&self) -> &str {
        self.filter.name()
    }
}

/// Post-hoc reference semantics: filter an unconstrained result by the
/// constraints. `ConstrainedApriori` must always equal this (tested), it
/// just gets there with less counting.
pub fn filter_patterns(
    patterns: &FrequentPatterns,
    constraints: &[Constraint],
) -> FrequentPatterns {
    patterns
        .iter()
        .filter(|(p, _)| constraints.iter().all(|c| c.satisfied_by(p)))
        .map(|(p, s)| (p.clone(), s))
        .collect()
}

/// Convenience: builds an [`Constraint::Excludes`] from raw ids.
pub fn excludes(ids: impl IntoIterator<Item = u32>) -> Constraint {
    Constraint::Excludes(Itemset::new(ids))
}

/// Convenience: builds an [`Constraint::ItemsFrom`] from raw ids.
pub fn items_from(ids: impl IntoIterator<Item = u32>) -> Constraint {
    Constraint::ItemsFrom(Itemset::new(ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::Apriori;
    use crate::filter::OssmFilter;
    use ossm_core::minimize_segments;
    use ossm_data::gen::QuestConfig;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    fn workload() -> Dataset {
        QuestConfig {
            num_transactions: 400,
            num_items: 25,
            ..QuestConfig::small()
        }
        .generate()
    }

    #[test]
    fn constraint_satisfaction_basics() {
        let s = set(&[1, 3, 5]);
        assert!(Constraint::MaxLen(3).satisfied_by(&s));
        assert!(!Constraint::MaxLen(2).satisfied_by(&s));
        assert!(items_from([1, 3, 5, 7]).satisfied_by(&s));
        assert!(!items_from([1, 3]).satisfied_by(&s));
        assert!(excludes([0, 2]).satisfied_by(&s));
        assert!(!excludes([3]).satisfied_by(&s));
        let values = vec![0, 10, 0, 20, 0, 30];
        assert!(Constraint::MaxSum {
            values: values.clone(),
            bound: 60
        }
        .satisfied_by(&s));
        assert!(!Constraint::MaxSum {
            values: values.clone(),
            bound: 59
        }
        .satisfied_by(&s));
        assert!(Constraint::MinValueAtLeast {
            values: values.clone(),
            bound: 10
        }
        .satisfied_by(&s));
        assert!(!Constraint::MinValueAtLeast { values, bound: 11 }.satisfied_by(&s));
    }

    #[test]
    fn matches_post_hoc_filtering_for_every_constraint_kind() {
        let d = workload();
        let min_support = 8;
        let unconstrained = Apriori::new().mine(&d, min_support).patterns;
        let constraints: Vec<Constraint> = vec![
            Constraint::MaxLen(2),
            items_from((0..15u32).collect::<Vec<_>>()),
            excludes([3, 7, 11]),
            Constraint::MaxSum {
                values: (0..25u64).collect(),
                bound: 30,
            },
            Constraint::MinValueAtLeast {
                values: (0..25u64).rev().collect(),
                bound: 5,
            },
        ];
        for c in &constraints {
            let mined = ConstrainedApriori::new()
                .with_constraint(c.clone())
                .mine(&d, min_support)
                .patterns;
            let reference = filter_patterns(&unconstrained, std::slice::from_ref(c));
            assert_eq!(mined, reference, "constraint {c:?}");
        }
        // Conjunction of all.
        let mut miner = ConstrainedApriori::new();
        for c in &constraints {
            miner = miner.with_constraint(c.clone());
        }
        assert_eq!(
            miner.mine(&d, min_support).patterns,
            filter_patterns(&unconstrained, &constraints)
        );
    }

    #[test]
    fn constraints_reduce_counting_work() {
        let d = workload();
        let plain = Apriori::new().mine(&d, 8);
        let constrained = ConstrainedApriori::new()
            .with_constraint(items_from((0..10u32).collect::<Vec<_>>()))
            .mine(&d, 8);
        assert!(constrained.metrics.total_counted() < plain.metrics.total_counted());
    }

    #[test]
    fn composes_with_the_ossm_filter() {
        let d = workload();
        let min = minimize_segments(&d);
        let c = excludes([0, 1]);
        let plain = ConstrainedApriori::new()
            .with_constraint(c.clone())
            .mine(&d, 8);
        let both = ConstrainedApriori::new().with_constraint(c).mine_filtered(
            &d,
            8,
            &OssmFilter::new(&min.ossm),
        );
        assert_eq!(plain.patterns, both.patterns);
        assert!(both.metrics.total_counted() <= plain.metrics.total_counted());
    }

    #[test]
    fn no_constraints_degenerates_to_apriori() {
        let d = workload();
        assert_eq!(
            ConstrainedApriori::new().mine(&d, 10).patterns,
            Apriori::new().mine(&d, 10).patterns
        );
    }
}
