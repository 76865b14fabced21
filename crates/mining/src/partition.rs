//! The Partition algorithm of Savasere, Omiecinski, and Navathe [17].
//!
//! Two passes over the data: (1) split the collection into partitions that
//! fit in memory and mine each *locally* — any globally frequent itemset is
//! locally frequent in at least one partition, so the union of local
//! results is a superset of the answer; (2) count the union's supports
//! globally and keep the truly frequent ones.
//!
//! Section 7 of the paper proposes two OSSM enhancements, both implemented
//! here:
//!
//! * a per-partition OSSM prunes *local* candidates during phase 1;
//! * summing the per-partition OSSM bounds gives a *global* upper bound,
//!   pruning global candidates before the phase-2 counting pass.
//!
//! Both phases count on the hash tree. Partitions are mined one after
//! another; the parallelism is inside each counting pass, which chunks
//! the transactions over `ossm_par`'s workers, so a run never uses more
//! than the configured thread count.

use std::time::Instant;

use ossm_core::{Ossm, OssmBuilder, Strategy};
use ossm_data::{Dataset, Itemset, PageStore};

use crate::apriori::{Apriori, MiningOutcome};
use crate::filter::OssmFilter;
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::support::{count_with, CountingBackend, FrequentPatterns};

/// Partition-algorithm configuration.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// Number of partitions the collection is split into.
    pub num_partitions: usize,
}

impl Partition {
    /// Partition mining with `num_partitions` parts.
    ///
    /// # Panics
    /// Panics if `num_partitions == 0`.
    pub fn new(num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        Partition { num_partitions }
    }

    /// Mines without any OSSM.
    pub fn mine(&self, dataset: &Dataset, min_support: u64) -> MiningOutcome {
        self.mine_impl(dataset, min_support, None)
    }

    /// Mines with one OSSM per partition (Section 7's enhancement): local
    /// candidates are pruned by the partition's own map, and global
    /// candidates by the sum of all partition bounds.
    ///
    /// `segments_per_partition` controls each partition OSSM's size.
    pub fn mine_with_ossms(
        &self,
        dataset: &Dataset,
        min_support: u64,
        segments_per_partition: usize,
    ) -> MiningOutcome {
        self.mine_impl(dataset, min_support, Some(segments_per_partition))
    }

    fn mine_impl(
        &self,
        dataset: &Dataset,
        min_support: u64,
        ossm_segments: Option<usize>,
    ) -> MiningOutcome {
        assert!(min_support > 0, "support threshold must be at least 1");
        let start = Instant::now();
        let n = dataset.len() as u64;
        let k = self.num_partitions.min(dataset.len().max(1));

        // Phase 1: local mining, one partition after another. Local
        // threshold ⌈min_support · |part| / N⌉ (at least 1) guarantees no
        // globally frequent itemset is missed.
        let apriori = Apriori::new().with_backend(CountingBackend::HashTree);
        let mut global_candidates: std::collections::BTreeSet<Itemset> = Default::default();
        let mut partition_ossms: Vec<Ossm> = Vec::new();
        let mut metrics = MiningMetrics::default();
        for range in dataset.partition_ranges(k) {
            let part = Dataset::new(dataset.num_items(), dataset.transactions()[range].to_vec());
            if part.is_empty() {
                continue;
            }
            let local_min = ((min_support * part.len() as u64).div_ceil(n.max(1))).max(1);
            let ossm = ossm_segments.map(|segs| {
                let pages = PageStore::with_page_count(part.clone(), (segs * 4).max(1));
                OssmBuilder::new(segs)
                    .strategy(Strategy::Rc)
                    .build(&pages)
                    .0
            });
            let outcome = match &ossm {
                Some(map) => apriori.mine_filtered(&part, local_min, &OssmFilter::new(map)),
                None => apriori.mine(&part, local_min),
            };
            for l in outcome.metrics.levels {
                metrics.push_level(l);
            }
            for (p, _) in outcome.patterns.iter() {
                global_candidates.insert(p.clone());
            }
            partition_ossms.extend(ossm);
        }

        // Section 7's global pruning: a candidate whose summed per-partition
        // bound misses the global threshold cannot be globally frequent.
        let generated = global_candidates.len() as u64;
        let candidates: Vec<Itemset> = global_candidates
            .into_iter()
            .filter(|c| {
                if partition_ossms.is_empty() {
                    return true;
                }
                let bound: u64 = partition_ossms.iter().map(|o| o.upper_bound(c)).sum();
                bound >= min_support
            })
            .collect();
        let globally_pruned = generated - candidates.len() as u64;

        // Phase 2: one global counting pass over the surviving candidates.
        let counts = count_with(
            CountingBackend::HashTree,
            dataset.transactions(),
            &candidates,
        );
        let mut patterns = FrequentPatterns::new();
        for (c, sup) in candidates.iter().zip(&counts) {
            if *sup >= min_support {
                patterns.insert(c.clone(), *sup);
            }
        }

        // Metrics: phase-1 rows first, then one synthetic "global pass" row
        // per candidate size so candidate-2 reporting still works.
        let mut by_len: std::collections::BTreeMap<usize, LevelMetrics> = Default::default();
        for (c, sup) in candidates.iter().zip(&counts) {
            let row = by_len.entry(c.len()).or_insert_with(|| LevelMetrics {
                level: c.len(),
                ..Default::default()
            });
            row.generated += 1;
            row.counted += 1;
            if *sup >= min_support {
                row.frequent += 1;
            }
        }
        if let Some(first) = by_len.values_mut().next() {
            first.filtered_out = globally_pruned; // attribute global pruning once
        }
        for (_, row) in by_len {
            metrics.push_level(row);
        }
        metrics.elapsed = start.elapsed();
        MiningOutcome { patterns, metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossm_data::gen::{QuestConfig, SkewedConfig};

    fn quest(n: usize, m: usize) -> Dataset {
        QuestConfig {
            num_transactions: n,
            num_items: m,
            ..QuestConfig::small()
        }
        .generate()
    }

    #[test]
    fn agrees_with_apriori() {
        let d = quest(300, 25);
        let a = Apriori::new().mine(&d, 8);
        for parts in [1, 2, 3, 7] {
            let p = Partition::new(parts).mine(&d, 8);
            assert_eq!(a.patterns, p.patterns, "partitions {parts}");
        }
    }

    #[test]
    fn agrees_on_skewed_data() {
        // Skew is the adversarial case for Partition: locally frequent
        // itemsets abound in their season. Results must still be exact.
        let d = SkewedConfig {
            num_transactions: 400,
            num_items: 20,
            ..SkewedConfig::small()
        }
        .generate();
        let a = Apriori::new().mine(&d, 12);
        let p = Partition::new(4).mine(&d, 12);
        assert_eq!(a.patterns, p.patterns);
    }

    #[test]
    fn ossm_enhanced_partition_is_exact() {
        let d = quest(300, 25);
        let a = Apriori::new().mine(&d, 8);
        let p = Partition::new(3).mine_with_ossms(&d, 8, 5);
        assert_eq!(a.patterns, p.patterns, "OSSM pruning must be lossless");
    }

    #[test]
    fn more_partitions_than_transactions_is_fine() {
        let d = quest(10, 8);
        let p = Partition::new(50).mine(&d, 2);
        let a = Apriori::new().mine(&d, 2);
        assert_eq!(a.patterns, p.patterns);
    }

    #[test]
    fn single_partition_degenerates_to_apriori() {
        let d = quest(150, 15);
        let a = Apriori::new().mine(&d, 5);
        let p = Partition::new(1).mine(&d, 5);
        assert_eq!(a.patterns, p.patterns);
    }
}
