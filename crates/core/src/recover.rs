//! Rebuilding sound aggregates from a damaged page store.
//!
//! [`ossm_data::repair::scan_store`] classifies each page of an
//! `OSSMPAGE` file as intact or corrupt. This module turns that triage
//! into OSSM inputs without ever under-counting:
//!
//! * a page with intact data, or with an intact index summary, yields its
//!   **exact** aggregate;
//! * a page with neither is **quarantined**: its aggregate is widened to
//!   the physical maximum a page of that size can hold
//!   ([`ossm_data::repair::widened_summary`]), so any segment containing
//!   it over-estimates.
//!
//! Per eq. (1), an itemset's bound is `Σ_i min_{a∈X} sup_i({a})` — it is
//! monotone in every segment support, so replacing a lost page's unknown
//! true aggregate with a dominating one can only raise bounds. Pruning
//! stays correct (no frequent itemset is ever pruned); it merely prunes
//! less until the data is re-ingested. Quarantined pages are counted on
//! `core.recover.pages_quarantined`.

use ossm_data::repair::{widened_summary, StoreScan};

use crate::segmentation::Aggregate;
use crate::ssm::Ossm;

/// Pages whose aggregate had to be widened because neither their data
/// nor their index summary survived.
static PAGES_QUARANTINED: ossm_obs::Counter =
    ossm_obs::Counter::new("core.recover.pages_quarantined");

/// Aggregates recovered from a (possibly damaged) store scan.
#[derive(Debug)]
pub struct Recovery {
    /// One aggregate per page, in page order. Sound inputs for any
    /// segmentation or incremental append.
    pub aggregates: Vec<Aggregate>,
    /// Pages whose exact aggregate survived (from data or index).
    pub exact_pages: usize,
    /// Pages replaced by a widened, sound over-estimate.
    pub widened_pages: usize,
}

impl Recovery {
    /// Whether every page recovered exactly (bounds are as tight as an
    /// undamaged store's).
    pub fn is_exact(&self) -> bool {
        self.widened_pages == 0
    }

    /// Builds a one-segment-per-page OSSM from the recovered aggregates,
    /// or `None` for an empty store.
    pub fn into_ossm(self) -> Option<Ossm> {
        if self.aggregates.is_empty() {
            return None;
        }
        Some(Ossm::from_aggregates(self.aggregates))
    }
}

/// Extracts one sound aggregate per page from `scan`, widening where
/// corruption destroyed the exact value (see the module docs).
// SOUND: every arm dominates the page's true supports — checksummed
// index summaries and recounts from intact data are exact, and a lost
// page takes `widened_summary`'s physical maxima, which over-estimate
// every support. Eq. (1) is monotone in each segment support, so the
// recovered map's bounds dominate the uncorrupted map's.
// ENTRYPOINT: recovery path — fed by whatever a crashed process left.
pub fn aggregates_from_scan(scan: &StoreScan) -> Recovery {
    let mut recovery = Recovery {
        aggregates: Vec::with_capacity(scan.pages.len()),
        exact_pages: 0,
        widened_pages: 0,
    };
    for page in &scan.pages {
        // An "intact" region that mentions an item outside the header's
        // declared domain contradicts its own file (checksum collision,
        // cross-file splice): trust neither and quarantine the page like
        // any other corruption instead of panicking mid-recovery.
        let exact = if let Some(summary) = &page.index_summary {
            summary
                .supports
                .iter()
                .all(|&(item, _)| (item as usize) < scan.m)
                .then(|| (summary.dense(scan.m), u64::from(summary.transactions)))
        } else if let Some(txs) = &page.data {
            // Index lost, data intact: recompute the aggregate directly.
            recount(txs, scan.m)
        } else {
            None
        };
        match exact {
            Some((supports, transactions)) => {
                recovery.exact_pages += 1;
                recovery
                    .aggregates
                    .push(Aggregate::new(supports, transactions));
            }
            None => {
                recovery.widened_pages += 1;
                PAGES_QUARANTINED.incr();
                let w = widened_summary(scan.m, scan.page_bytes);
                recovery
                    .aggregates
                    .push(Aggregate::new(w.dense(scan.m), u64::from(w.transactions)));
            }
        }
    }
    recovery
}

/// Recounts a page's supports from its intact transaction data, or
/// `None` when an item id falls outside the store's declared domain —
/// the caller quarantines such a page.
fn recount(txs: &ossm_data::disk::FlatPage, m: usize) -> Option<(Vec<u64>, u64)> {
    let mut supports = vec![0u64; m];
    for item in txs.items() {
        *supports.get_mut(item.index())? += 1;
    }
    Some((supports, txs.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossm_data::disk::write_paged;
    use ossm_data::gen::QuestConfig;
    use ossm_data::repair::scan_store;
    use ossm_data::{Dataset, Itemset};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ossm-recover-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample() -> Dataset {
        QuestConfig {
            num_transactions: 300,
            num_items: 20,
            ..QuestConfig::small()
        }
        .generate()
    }

    #[test]
    fn clean_scan_recovers_exactly() {
        let d = sample();
        let path = tmp("clean.pages");
        write_paged(&path, &d, 1024).expect("write");
        let recovery = aggregates_from_scan(&scan_store(&path).expect("scan"));
        assert!(recovery.is_exact());
        let ossm = recovery.into_ossm().expect("non-empty");
        assert_eq!(ossm.num_transactions(), d.len() as u64);
        for a in 0..5u32 {
            for b in (a + 1)..5u32 {
                let probe = Itemset::new([a, b]);
                assert!(ossm.upper_bound(&probe) >= d.support(&probe));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn total_corruption_of_a_page_widens_but_stays_sound() {
        let d = sample();
        let path = tmp("widened.pages");
        write_paged(&path, &d, 1024).expect("write");
        // Destroy page 0's data and the whole index region.
        let mut bytes = std::fs::read(&path).expect("read");
        let hdr = 44usize;
        for b in bytes.iter_mut().skip(hdr).take(50) {
            *b ^= 0xFF;
        }
        let tail = bytes.len() - 10;
        for b in bytes.iter_mut().skip(tail) {
            *b ^= 0xFF;
        }
        std::fs::write(&path, &bytes).expect("rewrite");

        let scan = scan_store(&path).expect("scan");
        assert!(!scan.index_intact);
        let recovery = aggregates_from_scan(&scan);
        assert!(!recovery.is_exact());
        assert!(recovery.widened_pages >= 1);
        let ossm = recovery.into_ossm().expect("non-empty");
        // Every pair bound still dominates the true support of the full
        // original dataset — the widened page over-covers its share.
        for a in 0..6u32 {
            for b in (a + 1)..6u32 {
                let probe = Itemset::new([a, b]);
                assert!(
                    ossm.upper_bound(&probe) >= d.support(&probe),
                    "bound for {{{a},{b}}} under-counts after recovery"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
