//! IBM Quest-style synthetic transaction generator.
//!
//! The paper's "regular-synthetic" data set is produced by "the program
//! developed at IBM Almaden Research Center" \[3\] — the Agrawal–Srikant
//! generator behind the classic `T10.I4.D100K`-style workloads. That binary
//! is not redistributable, so we reimplement the published process:
//!
//! 1. Draw `num_patterns` *potentially large itemsets*. Their sizes are
//!    Poisson-distributed around `avg_pattern_len`; each pattern reuses an
//!    exponentially-distributed fraction of the previous pattern's items
//!    (cross-pattern correlation) and fills the rest uniformly.
//! 2. Each pattern gets a weight drawn from an exponential distribution
//!    (normalized), and a *corruption level* drawn from N(0.5, 0.1): when a
//!    pattern is inserted into a transaction, items are dropped with that
//!    probability, modelling partial purchases.
//! 3. Each transaction draws a Poisson size around `avg_transaction_len`
//!    and is filled with weighted-random (possibly corrupted) patterns; an
//!    overflowing pattern is kept anyway in half the cases and deferred to
//!    the next transaction otherwise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::dist::{exponential, normal, poisson, CumulativeTable};
use crate::item::Itemset;
use crate::transaction::Dataset;

/// Parameters of the Quest-style generator, with the defaults the paper's
/// experiments imply (`m = 1000` items; `T10.I4`-style basket shape).
#[derive(Clone, Debug)]
pub struct QuestConfig {
    /// Number of transactions to generate (`D`).
    pub num_transactions: usize,
    /// Size of the item domain (`N` in Quest notation, `m` in the paper).
    pub num_items: usize,
    /// Average transaction length (`|T|`), e.g. 10.
    pub avg_transaction_len: f64,
    /// Average potentially-large-itemset length (`|I|`), e.g. 4.
    pub avg_pattern_len: f64,
    /// Number of potentially large itemsets (`|L|`), e.g. 2000.
    pub num_patterns: usize,
    /// Mean fraction of a pattern inherited from its predecessor.
    pub correlation: f64,
    /// Mean of the per-pattern corruption level.
    pub corruption_mean: f64,
    /// Standard deviation of the per-pattern corruption level.
    pub corruption_sd: f64,
    /// RNG seed; the same seed always yields the same dataset.
    pub seed: u64,
}

impl Default for QuestConfig {
    fn default() -> Self {
        QuestConfig {
            num_transactions: 10_000,
            num_items: 1000,
            avg_transaction_len: 10.0,
            avg_pattern_len: 4.0,
            num_patterns: 2000,
            correlation: 0.5,
            corruption_mean: 0.5,
            corruption_sd: 0.1,
            seed: 0x0551_2002,
        }
    }
}

impl QuestConfig {
    /// A small configuration for unit tests and examples (fast to generate).
    pub fn small() -> Self {
        QuestConfig {
            num_transactions: 1000,
            num_items: 100,
            num_patterns: 200,
            ..QuestConfig::default()
        }
    }

    /// Generates the dataset described by this configuration.
    pub fn generate(&self) -> Dataset {
        generate(self)
    }
}

/// A potentially large itemset with its sampling weight and corruption level.
struct Pattern {
    items: Vec<u32>,
    corruption: f64,
}

fn draw_patterns(cfg: &QuestConfig, rng: &mut StdRng) -> (Vec<Pattern>, Vec<f64>) {
    let mut patterns: Vec<Pattern> = Vec::with_capacity(cfg.num_patterns);
    let mut weights = Vec::with_capacity(cfg.num_patterns);
    for i in 0..cfg.num_patterns {
        // Size ≥ 1, Poisson around the configured mean.
        let len = poisson(rng, (cfg.avg_pattern_len - 1.0).max(0.0)) as usize + 1;
        let len = len.min(cfg.num_items);
        let mut items: Vec<u32> = Vec::with_capacity(len);
        if i > 0 {
            // Inherit an exponentially-distributed fraction from the
            // previous pattern (Quest's cross-pattern correlation).
            let prev = &patterns[i - 1].items;
            let frac = exponential(rng, cfg.correlation).min(1.0);
            let inherit = ((prev.len() as f64) * frac).round() as usize;
            let inherit = inherit.min(prev.len()).min(len);
            // Take a random prefix-free subset of the previous pattern.
            let mut pool = prev.clone();
            for k in 0..inherit {
                let j = rng.gen_range(k..pool.len());
                pool.swap(k, j);
            }
            items.extend_from_slice(&pool[..inherit]);
        }
        while items.len() < len {
            let candidate = rng.gen_range(0..cfg.num_items as u32);
            if !items.contains(&candidate) {
                items.push(candidate);
            }
        }
        let corruption = normal(rng, cfg.corruption_mean, cfg.corruption_sd).clamp(0.0, 1.0);
        patterns.push(Pattern { items, corruption });
        weights.push(exponential(rng, 1.0));
    }
    (patterns, weights)
}

/// Runs the generator. Prefer [`QuestConfig::generate`].
pub fn generate(cfg: &QuestConfig) -> Dataset {
    assert!(cfg.num_items > 0, "item domain must be non-empty");
    assert!(cfg.num_patterns > 0, "need at least one pattern");
    assert!(
        cfg.avg_transaction_len >= 1.0,
        "transactions must average at least one item"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (patterns, weights) = draw_patterns(cfg, &mut rng);
    let table = CumulativeTable::new(&weights);

    let mut transactions = Vec::with_capacity(cfg.num_transactions);
    // A pattern that overflowed the previous transaction and was deferred.
    let mut carry: Option<Vec<u32>> = None;
    while transactions.len() < cfg.num_transactions {
        let target = (poisson(&mut rng, cfg.avg_transaction_len - 1.0) + 1) as usize;
        let mut items: Vec<u32> = Vec::with_capacity(target + 4);
        if let Some(c) = carry.take() {
            items.extend(c);
        }
        while items.len() < target {
            let pat = &patterns[table.sample(&mut rng)];
            // Corrupt: drop items with the pattern's corruption probability.
            let mut picked: Vec<u32> = pat
                .items
                .iter()
                .copied()
                .filter(|_| rng.gen::<f64>() >= pat.corruption)
                .collect();
            if picked.is_empty() {
                // Ensure progress: keep one random item of the pattern.
                picked.push(pat.items[rng.gen_range(0..pat.items.len())]);
            }
            if items.len() + picked.len() > target && !items.is_empty() && rng.gen::<bool>() {
                // Overflow: defer the pattern to the next transaction half
                // the time, as in the published process.
                carry = Some(picked);
                break;
            }
            items.extend(picked);
        }
        transactions.push(Itemset::new(items));
    }
    Dataset::new(cfg.num_items, transactions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = QuestConfig {
            num_transactions: 200,
            ..QuestConfig::small()
        };
        assert_eq!(cfg.generate(), cfg.generate());
        let other = QuestConfig { seed: 99, ..cfg };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn shape_matches_configuration() {
        let cfg = QuestConfig::small();
        let d = cfg.generate();
        assert_eq!(d.len(), cfg.num_transactions);
        assert_eq!(d.num_items(), cfg.num_items);
        let avg: f64 =
            d.transactions().iter().map(Itemset::len).sum::<usize>() as f64 / d.len() as f64;
        assert!(
            (avg - cfg.avg_transaction_len).abs() < 2.5,
            "average basket size {avg} far from configured {}",
            cfg.avg_transaction_len
        );
        assert!(d.transactions().iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn data_is_correlated_not_uniform() {
        // Quest data has "potentially large itemsets": some pairs co-occur
        // far more often than independence predicts. Check that the maximal
        // pair support exceeds the independence estimate by a wide margin.
        let d = QuestConfig {
            num_transactions: 2000,
            ..QuestConfig::small()
        }
        .generate();
        let singles = d.singleton_supports();
        let n = d.len() as f64;
        let mut best_ratio = 0.0f64;
        // Scan pairs among the 20 most frequent items only (enough to find
        // one pattern pair, cheap to run).
        let mut top: Vec<usize> = (0..d.num_items()).collect();
        top.sort_by_key(|&i| std::cmp::Reverse(singles[i]));
        top.truncate(20);
        for (ai, &a) in top.iter().enumerate() {
            for &b in &top[ai + 1..] {
                let pair = Itemset::new([a as u32, b as u32]);
                let obs = d.support(&pair) as f64 / n;
                let exp = (singles[a] as f64 / n) * (singles[b] as f64 / n);
                if exp > 0.0 {
                    best_ratio = best_ratio.max(obs / exp);
                }
            }
        }
        assert!(
            best_ratio > 2.0,
            "expected correlated pairs, best lift {best_ratio}"
        );
    }
}
