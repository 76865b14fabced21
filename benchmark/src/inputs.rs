//! Workload inputs, owned by the benchmark.
//!
//! Every generator field is set here explicitly instead of inheriting a
//! library default, and the out-of-core stream is a copy of the
//! experiment harness's `Huge` workload rather than a call into it. Later
//! edits to library defaults or to the experiment harness therefore cannot
//! shift what the benchmark measures; the input-CRC gate catches a
//! generator whose output moved anyway.

use ossm_data::checksum::Crc32c;
use ossm_data::gen::{QuestConfig, SkewedConfig};
use ossm_data::{Dataset, Itemset};

use crate::Scale;

/// The seed the pinned input checksums were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// The [`input_crc`] of each workload's input at [`DEFAULT_SEED`]. A
/// mismatch means a generator's output moved, which would silently change
/// what every later comparison measures.
pub fn pinned_crc(workload: &str, scale: Scale) -> u32 {
    match (workload, scale) {
        ("mine-skewed", Scale::Full) => 0x6ecc_3091,
        ("mine-regular", Scale::Full) => 0x72ed_0c55,
        ("ooc-huge", Scale::Full) => 0xcbb6_0fd8,
        ("serve-mixed", Scale::Full) => 0xccd5_cf56,
        ("mine-skewed", Scale::Smoke) => 0x528d_ca73,
        ("mine-regular", Scale::Smoke) => 0xaadc_0e62,
        ("ooc-huge", Scale::Smoke) => 0xe945_d19c,
        ("serve-mixed", Scale::Smoke) => 0x5dbb_5ba3,
        _ => 0,
    }
}

/// Derives one generator's seed from the run seed, so `--seed` moves every
/// generator while different generators of one run stay independent.
pub fn mix_seed(seed: u64, tag: u64) -> u64 {
    // splitmix64 finalizer.
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's seasonal skewed-synthetic data (§6.1, data set 3): half the
/// items are 8× likelier in the first half of the collection, the other
/// half in the second.
pub fn skewed(num_transactions: usize, num_items: usize, seed: u64) -> Dataset {
    SkewedConfig {
        num_transactions,
        num_items,
        avg_transaction_len: 10.0,
        season_boost: 8.0,
        num_seasons: 2,
        seed,
    }
    .generate()
}

/// IBM-Quest-style regular data (§6.1, data set 2), `T10.I4` shape with
/// two potentially large itemsets per item.
pub fn regular(num_transactions: usize, num_items: usize, seed: u64) -> Dataset {
    QuestConfig {
        num_transactions,
        num_items,
        avg_transaction_len: 10.0,
        avg_pattern_len: 4.0,
        num_patterns: 2 * num_items,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_sd: 0.1,
        seed,
    }
    .generate()
}

/// Out-of-core stress data: the first quarter of the transactions share a
/// small cluster of frequent items, the rest are singleton noise spread
/// thinly over the remainder of the domain, so tail pages hold no frequent
/// item and an OSSM-guided pass can prove them irrelevant before reading
/// them. Built by hand so that page structure is exact at any seed: head
/// and tail transactions have fixed sizes, so the page count does not
/// depend on the seed either.
pub fn huge(num_transactions: usize, num_items: usize, seed: u64) -> Dataset {
    let head = num_transactions / 4;
    let cluster = (num_items / 10).clamp(2, 16) as u32;
    let noise_lo = 2 * cluster;
    let noise_domain = (num_items as u32).saturating_sub(noise_lo).max(1);
    let mut state = seed | 1;
    let mut step = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as u32
    };
    let mut txs = Vec::with_capacity(num_transactions);
    for i in 0..num_transactions {
        let r = step();
        if i < head {
            // Item 0, a rotating second cluster item, and one random item
            // from the upper half of the cluster.
            let second = 1 + (i as u32 % (cluster - 1).max(1));
            let extra = cluster + r % cluster;
            txs.push(Itemset::new([0, second, extra]));
        } else {
            txs.push(Itemset::new([noise_lo + r % noise_domain]));
        }
    }
    Dataset::new(num_items, txs)
}

/// CRC32C of a transaction stream: the item-domain size, then each
/// transaction as its length followed by its item ids, all `u32`
/// little-endian.
pub fn input_crc<'a>(num_items: usize, transactions: impl IntoIterator<Item = &'a Itemset>) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(&(num_items as u32).to_le_bytes());
    for t in transactions {
        crc.update(&(t.len() as u32).to_le_bytes());
        for item in t.items() {
            crc.update(&item.0.to_le_bytes());
        }
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc(d: &Dataset) -> u32 {
        input_crc(d.num_items(), d.transactions())
    }

    #[test]
    fn same_seed_same_crc_other_seed_other_crc() {
        type Gen = fn(usize, usize, u64) -> Dataset;
        for (name, gen) in [
            ("skewed", skewed as Gen),
            ("regular", regular as Gen),
            ("huge", huge as Gen),
        ] {
            let a = crc(&gen(400, 60, mix_seed(1, 7)));
            let b = crc(&gen(400, 60, mix_seed(1, 7)));
            let c = crc(&gen(400, 60, mix_seed(2, 7)));
            assert_eq!(a, b, "{name}: one seed must give one input");
            assert_ne!(a, c, "{name}: another seed must give another input");
        }
    }

    #[test]
    fn crc_covers_domain_and_boundaries() {
        let a = [Itemset::new([1, 2]), Itemset::new([3])];
        let b = [Itemset::new([1]), Itemset::new([2, 3])];
        assert_ne!(input_crc(10, &a), input_crc(10, &b), "split point matters");
        assert_ne!(input_crc(10, &a), input_crc(11, &a), "domain matters");
    }

    #[test]
    fn mixed_seeds_differ_per_tag_and_seed() {
        assert_ne!(mix_seed(1, 1), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 1), mix_seed(2, 1));
        assert_eq!(mix_seed(5, 3), mix_seed(5, 3));
    }

    #[test]
    fn huge_page_structure_does_not_depend_on_the_seed() {
        let a = huge(1000, 240, 1);
        let b = huge(1000, 240, 99);
        let sizes = |d: &Dataset| {
            d.transactions()
                .iter()
                .map(Itemset::len)
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&a), sizes(&b));
        assert_ne!(crc(&a), crc(&b));
    }
}
