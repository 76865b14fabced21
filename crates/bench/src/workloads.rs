//! Standard experiment workloads, paper-shaped but scalable.
//!
//! The paper's regular-synthetic experiments fix `m = 1000` items and vary
//! the page count `p` from 200 to 50 000 (one 4 KB page ≈ 100
//! transactions). Experiments here take `p` and derive the transaction
//! count as `p × 100`, so `--pages` scales a run exactly the way the
//! paper's key parameter does. Defaults are chosen so the full suite runs
//! in minutes on a laptop; pass larger `--pages` to approach paper scale.

use ossm_data::gen::{AlarmConfig, QuestConfig, SkewedConfig};
use ossm_data::{Dataset, Itemset, PageStore};

/// Transactions per page, matching the paper's "roughly 100 transactions"
/// per 4 KB page.
pub const TX_PER_PAGE: usize = 100;

/// Which of the paper's three data sets to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// IBM-Quest-style regular-synthetic data (Section 6.1, data set 2).
    Regular,
    /// Seasonal skewed-synthetic data (Section 6.1, data set 3).
    Skewed,
    /// Alarm-window data standing in for the Nokia set (Section 6.1,
    /// data set 1).
    Alarm,
    /// Dense Quest-style data: long transactions over the same domain
    /// (high item density), so many pairs and triples are frequent. Not
    /// one of the paper's three sets; added for baseline coverage of
    /// deep levels on the hash tree.
    Dense,
    /// Out-of-core stress data: a dense head whose transactions share a
    /// small cluster of frequent items, followed by a long noise tail of
    /// singletons spread thinly over the rest of the domain. Tail pages
    /// contain no frequent item, so an OSSM-guided out-of-core pass can
    /// prove them irrelevant and skip the page read outright — the regime
    /// the buffer-pool experiments measure.
    Huge,
}

impl std::str::FromStr for WorkloadKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "regular" => Ok(WorkloadKind::Regular),
            "skewed" => Ok(WorkloadKind::Skewed),
            "alarm" | "nokia" => Ok(WorkloadKind::Alarm),
            "dense" => Ok(WorkloadKind::Dense),
            "huge" => Ok(WorkloadKind::Huge),
            other => Err(format!(
                "unknown workload {other:?} (regular|skewed|alarm|dense|huge)"
            )),
        }
    }
}

/// A fully specified experiment workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which generator to run.
    pub kind: WorkloadKind,
    /// Number of pages `p` (transactions = `p × TX_PER_PAGE`).
    pub pages: usize,
    /// Item domain size `m`.
    pub items: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Workload {
    /// A workload of the given kind, with the kind's default seed.
    pub fn new(kind: WorkloadKind, pages: usize, items: usize) -> Self {
        match kind {
            WorkloadKind::Regular => Self::regular(pages, items),
            WorkloadKind::Skewed => Self::skewed(pages, items),
            WorkloadKind::Alarm => Self::alarm(pages, items),
            WorkloadKind::Dense => Self::dense(pages, items),
            WorkloadKind::Huge => Self::huge(pages, items),
        }
    }

    /// The paper-shaped regular-synthetic workload at a given page count.
    pub fn regular(pages: usize, items: usize) -> Self {
        Workload {
            kind: WorkloadKind::Regular,
            pages,
            items,
            seed: 0x0551_2002,
        }
    }

    /// The skewed-synthetic workload.
    pub fn skewed(pages: usize, items: usize) -> Self {
        Workload {
            kind: WorkloadKind::Skewed,
            pages,
            items,
            seed: 0x5EA5,
        }
    }

    /// The alarm (Nokia-substitute) workload. The paper's set is ~5000
    /// transactions over ~200 alarm types; `pages = 50`, `items = 200`
    /// matches it.
    pub fn alarm(pages: usize, items: usize) -> Self {
        Workload {
            kind: WorkloadKind::Alarm,
            pages,
            items,
            seed: 0xA1A2_2002,
        }
    }

    /// The dense workload: Quest baskets at 2.5× the regular transaction
    /// length, so each item occurs in a large share of the transactions.
    pub fn dense(pages: usize, items: usize) -> Self {
        Workload {
            kind: WorkloadKind::Dense,
            pages,
            items,
            seed: 0xDE45_E001,
        }
    }

    /// The out-of-core stress workload: dense head, noise tail.
    pub fn huge(pages: usize, items: usize) -> Self {
        Workload {
            kind: WorkloadKind::Huge,
            pages,
            items,
            seed: 0x0B16_0001,
        }
    }

    /// Number of transactions this workload generates.
    pub fn num_transactions(&self) -> usize {
        self.pages * TX_PER_PAGE
    }

    /// Generates the dataset.
    pub fn dataset(&self) -> Dataset {
        let n = self.num_transactions();
        match self.kind {
            WorkloadKind::Regular => QuestConfig {
                num_transactions: n,
                num_items: self.items,
                num_patterns: (self.items * 2).max(10),
                seed: self.seed,
                ..QuestConfig::default()
            }
            .generate(),
            WorkloadKind::Skewed => SkewedConfig {
                num_transactions: n,
                num_items: self.items,
                seed: self.seed,
                ..SkewedConfig::default()
            }
            .generate(),
            WorkloadKind::Alarm => AlarmConfig {
                num_windows: n,
                num_alarm_types: self.items,
                seed: self.seed,
                ..AlarmConfig::default()
            }
            .generate(),
            WorkloadKind::Dense => QuestConfig {
                num_transactions: n,
                num_items: self.items,
                num_patterns: (self.items * 2).max(10),
                avg_transaction_len: 25.0,
                avg_pattern_len: 8.0,
                seed: self.seed,
                ..QuestConfig::default()
            }
            .generate(),
            WorkloadKind::Huge => self.huge_dataset(n),
        }
    }

    /// Builds the [`WorkloadKind::Huge`] stream directly (no generator
    /// config): the first quarter of the transactions share a small
    /// cluster of co-occurring frequent items, the rest are singleton
    /// noise spread thinly over the remainder of the domain. Built by
    /// hand so the page-level structure — dense head pages, frequent-free
    /// tail pages — is exact rather than a property of a generator seed.
    fn huge_dataset(&self, n: usize) -> Dataset {
        let head = n / 4;
        let cluster = (self.items / 10).clamp(2, 16) as u32;
        let noise_lo = 2 * cluster;
        let noise_domain = (self.items as u32).saturating_sub(noise_lo).max(1);
        let mut state = self.seed | 1;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32
        };
        let mut txs = Vec::with_capacity(n);
        for i in 0..n {
            let r = step();
            if i < head {
                // Item 0 plus a rotating second cluster item plus one
                // random item from the upper half of the cluster: every
                // head transaction hits the frequent cluster.
                let second = 1 + (i as u32 % (cluster - 1).max(1));
                let extra = cluster + r % cluster;
                txs.push(Itemset::new([0, second, extra]));
            } else {
                txs.push(Itemset::new([noise_lo + r % noise_domain]));
            }
        }
        Dataset::new(self.items, txs)
    }

    /// Generates the dataset and pages it at exactly `self.pages` pages.
    pub fn store(&self) -> PageStore {
        PageStore::with_page_count(self.dataset(), self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossm_data::Itemset;

    #[test]
    fn page_count_is_exact() {
        let w = Workload::regular(20, 100);
        let s = w.store();
        assert_eq!(s.num_pages(), 20);
        assert_eq!(s.dataset().len(), 2000);
        assert_eq!(s.num_items(), 100);
    }

    #[test]
    fn kinds_parse() {
        assert_eq!(
            "regular".parse::<WorkloadKind>().unwrap(),
            WorkloadKind::Regular
        );
        assert_eq!(
            "nokia".parse::<WorkloadKind>().unwrap(),
            WorkloadKind::Alarm
        );
        assert_eq!(
            "dense".parse::<WorkloadKind>().unwrap(),
            WorkloadKind::Dense
        );
        assert_eq!("huge".parse::<WorkloadKind>().unwrap(), WorkloadKind::Huge);
        assert!("bogus".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn all_kinds_generate() {
        for kind in [
            WorkloadKind::Regular,
            WorkloadKind::Skewed,
            WorkloadKind::Alarm,
            WorkloadKind::Dense,
            WorkloadKind::Huge,
        ] {
            let w = Workload {
                kind,
                pages: 3,
                items: 30,
                seed: 1,
            };
            let s = w.store();
            assert_eq!(s.num_pages(), 3);
            assert!(s.dataset().len() == 300);
        }
    }

    #[test]
    fn huge_tail_holds_no_frequent_item() {
        let w = Workload::huge(8, 100);
        let d = w.dataset();
        let head = d.len() / 4;
        let singles = d.singleton_supports();
        // Every head transaction contains item 0; every tail item's
        // support stays far below the head cluster's.
        assert_eq!(singles[0] as usize, head);
        let tail_max = (20..d.num_items()).map(|i| singles[i]).max().unwrap_or(0);
        assert!(tail_max < head as u64 / 4, "tail item support {tail_max}");
        for t in &d.transactions()[head..] {
            let all_noise = t.items().iter().all(|&i| i >= ossm_data::ItemId(20));
            assert!(all_noise, "noise tx {t} in tail");
        }
    }

    #[test]
    fn dense_is_denser_than_regular() {
        let avg_len = |d: &Dataset| {
            let total: usize = d.transactions().iter().map(Itemset::len).sum();
            total as f64 / d.len() as f64
        };
        let regular = Workload::regular(3, 60).dataset();
        let dense = Workload::dense(3, 60).dataset();
        assert!(avg_len(&dense) > 1.5 * avg_len(&regular));
    }
}
