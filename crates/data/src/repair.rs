//! Corruption triage and best-effort repair for `OSSMPAGE` stores.
//!
//! [`crate::disk::DiskStore`] is deliberately strict: a checksum failure
//! anywhere is an error, because the OSSM derived from the store must be
//! a sound upper-bound oracle (eq. (1) of the paper). This module is the
//! other half of that bargain — when strict reading fails, [`scan_store`]
//! parses the same bytes *leniently*, classifying each page as intact or
//! corrupt, and [`repair_store`] writes a fresh, fully-checksummed v2
//! store from whatever the intact parts still determine:
//!
//! * an intact data page is carried over verbatim (**restored**);
//! * a corrupt data page whose index summary survives keeps that summary
//!   — exact aggregates, no transactions (**quarantined**);
//! * a page corrupt in both places gets a **widened** summary: every item
//!   support and the transaction count are set to the maximum a page of
//!   this size could physically hold, so any segment containing the page
//!   over-estimates — bounds stay sound upper bounds, just looser.
//!
//! The repaired file is written `tmp + fsync + rename`, so a crash during
//! repair never damages the source. `ossm verify` / `ossm repair` in the
//! CLI are thin wrappers over this module.

use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

use crate::checksum::crc32c;
use crate::disk::{FlatPage, PageSummary};
use crate::fault;
use crate::format;

/// Triage verdict for one page of a scanned store.
#[derive(Debug)]
pub struct PageScan {
    /// Whether the page slot's checksum and structure verified.
    pub data_intact: bool,
    /// The page's aggregate from the index, when the index survived.
    pub index_summary: Option<PageSummary>,
    /// The decoded transactions, when the data survived.
    pub data: Option<FlatPage>,
}

impl PageScan {
    /// Whether *some* exact aggregate survives for this page (from data
    /// or from the checksummed index).
    // SOUND: a query only — when it returns false, recovery must widen
    // this page (`widened_summary`) instead of trusting any field.
    pub fn has_exact_aggregate(&self) -> bool {
        self.data_intact || self.index_summary.is_some()
    }
}

/// The result of leniently scanning a (possibly damaged) store.
#[derive(Debug)]
pub struct StoreScan {
    /// Item-domain size.
    pub m: usize,
    /// Logical page size.
    pub page_bytes: u32,
    /// Whether the header's own checksum verified.
    pub header_intact: bool,
    /// Whether the index region's checksum and structure verified.
    pub index_intact: bool,
    /// One verdict per declared page.
    pub pages: Vec<PageScan>,
}

impl StoreScan {
    /// A store with nothing wrong: strict readers will accept it as-is.
    pub fn is_clean(&self) -> bool {
        self.header_intact && self.index_intact && self.pages.iter().all(|p| p.data_intact)
    }

    /// Number of pages whose data did not verify.
    pub fn corrupt_pages(&self) -> usize {
        self.pages.iter().filter(|p| !p.data_intact).count()
    }

    /// One-line human summary, used by `ossm verify`.
    pub fn describe(&self) -> String {
        if self.is_clean() {
            format!(
                "clean: v{} store, {} pages, all checksums verified",
                format::V2,
                self.pages.len()
            )
        } else {
            format!(
                "corrupt: header {}, index {}, {}/{} pages damaged",
                if self.header_intact { "ok" } else { "BAD" },
                if self.index_intact { "ok" } else { "BAD" },
                self.corrupt_pages(),
                self.pages.len()
            )
        }
    }
}

/// What [`repair_store`] managed to salvage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Pages carried over intact.
    pub restored: usize,
    /// Pages whose data was lost but whose exact index aggregate was kept.
    pub quarantined: usize,
    /// Pages replaced by a maximal (sound but loose) aggregate.
    pub widened: usize,
    /// Whether the index had to be rebuilt rather than carried over.
    pub index_rebuilt: bool,
}

/// Leniently scans the store at `path`, classifying every page. Errors
/// only when the file cannot be located at all, declares a format
/// version other than 2, or has a header too damaged to even locate the
/// pages (wrong magic, implausible geometry).
pub fn scan_store(path: &Path) -> io::Result<StoreScan> {
    let mut file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let header = format::read_header(&mut file, file_len)?;

    // Index first: it is tiny and, when its checksum holds, gives an
    // exact aggregate even for pages whose data is gone.
    file.seek(SeekFrom::Start(header.index_offset))?;
    let mut index_bytes = Vec::new();
    file.read_to_end(&mut index_bytes)?;
    let index = if crc32c(&index_bytes) == header.index_crc {
        format::parse_index(&index_bytes, header.m, header.num_pages).ok()
    } else {
        None
    };

    let slot = header.slot_bytes() as usize;
    let payload = header.page_bytes as usize;
    let mut pages = Vec::with_capacity(header.num_pages as usize);
    let mut buf = vec![0u8; slot];
    for p in 0..header.num_pages {
        file.seek(SeekFrom::Start(header.page_offset(p)))?;
        let mut page = PageScan {
            data_intact: false,
            index_summary: index.as_ref().map(|idx| idx[p as usize].clone()),
            data: None,
        };
        if file.read_exact(&mut buf).is_ok() {
            let stored = u32::from_le_bytes(
                buf[payload..]
                    .try_into()
                    .expect("slot ends in a 4-byte CRC"),
            );
            if crc32c(&buf[..payload]) == stored {
                if let Ok(txs) = format::decode_page(&buf[..payload], header.m) {
                    page.data_intact = true;
                    page.data = Some(txs);
                }
            }
        }
        pages.push(page);
    }
    Ok(StoreScan {
        m: header.m,
        page_bytes: header.page_bytes,
        header_intact: header.header_ok,
        index_intact: index.is_some(),
        pages,
    })
}

/// The widest aggregate a page of `page_bytes` can physically represent:
/// a transaction costs ≥ 4 payload bytes, one carrying a given item ≥ 8,
/// and 4 bytes go to the page's own count. Using these maxima for a lost
/// page over-estimates every support, so eq. (1) stays an upper bound.
// SOUND: widening — the returned supports are the physical maxima a
// page of this size can hold, so they dominate whatever the lost page
// truly contained; eq. (1) is monotone in each support, hence the bound
// can only grow.
pub fn widened_summary(m: usize, page_bytes: u32) -> PageSummary {
    let budget = page_bytes.saturating_sub(4);
    let max_support = budget / 8;
    PageSummary {
        transactions: budget / 4,
        supports: (0..m as u32).map(|item| (item, max_support)).collect(),
    }
}

/// Rewrites the store at `src` as a clean, fully-checksummed v2 store at
/// `dst` (which may equal `src`), salvaging per the module docs. The
/// output is written to a temporary sibling, fsynced, and renamed into
/// place, so failure at any point leaves `src` untouched.
pub fn repair_store(src: &Path, dst: &Path) -> io::Result<RepairOutcome> {
    let scan = scan_store(src)?;
    let mut outcome = RepairOutcome {
        index_rebuilt: !scan.index_intact,
        ..RepairOutcome::default()
    };
    let payload_bytes = scan.page_bytes as usize;
    let mut slots: Vec<Vec<u8>> = Vec::with_capacity(scan.pages.len());
    let mut summaries: Vec<PageSummary> = Vec::with_capacity(scan.pages.len());
    let empty_payload = format::encode_page_payload(&FlatPage::default(), payload_bytes)
        .expect("empty page always fits");
    for page in &scan.pages {
        let (payload, summary) = if let Some(txs) = &page.data {
            outcome.restored += 1;
            let payload = format::encode_page_payload(txs, payload_bytes)
                .expect("re-encoding decoded transactions cannot overflow the page");
            (payload, format::summarize(txs))
        } else if let Some(summary) = &page.index_summary {
            outcome.quarantined += 1;
            (empty_payload.clone(), summary.clone())
        } else {
            outcome.widened += 1;
            (
                empty_payload.clone(),
                widened_summary(scan.m, scan.page_bytes),
            )
        };
        let crc = crc32c(&payload);
        let mut slot = payload;
        slot.extend_from_slice(&crc.to_le_bytes());
        slots.push(slot);
        summaries.push(summary);
    }

    let tmp = dst.with_extension("repair-tmp");
    {
        let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
        let num_pages = slots.len() as u64;
        let slot_bytes = u64::from(scan.page_bytes) + format::PAGE_TRAILER;
        let index_offset = format::HEADER_V2 + num_pages * slot_bytes;
        let index = format::encode_index(&summaries);
        let header = format::encode_header_v2(
            scan.m as u32,
            scan.page_bytes,
            num_pages,
            index_offset,
            crc32c(&index),
        );
        fault::write_all_tagged(&mut out, "data.disk.write_header", &header)?;
        for slot in &slots {
            fault::write_all_tagged(&mut out, "data.disk.write_page", slot)?;
        }
        fault::write_all_tagged(&mut out, "data.disk.write_index", &index)?;
        out.into_inner()?.sync_all()?;
    }
    std::fs::rename(&tmp, dst)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{write_paged, DiskStore};
    use crate::gen::QuestConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ossm-repair-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn sample() -> crate::Dataset {
        QuestConfig {
            num_transactions: 400,
            num_items: 40,
            ..QuestConfig::small()
        }
        .generate()
    }

    fn flip_page_byte(path: &Path, page: usize, page_bytes: usize) {
        let mut bytes = std::fs::read(path).expect("read");
        let slot = page_bytes + format::PAGE_TRAILER as usize;
        let at = format::HEADER_V2 as usize + page * slot + 64;
        bytes[at] ^= 0x20;
        std::fs::write(path, &bytes).expect("rewrite");
    }

    #[test]
    fn clean_stores_scan_clean() {
        let path = tmp("clean.pages");
        write_paged(&path, &sample(), 1024).expect("write");
        let scan = scan_store(&path).expect("scan");
        assert!(scan.is_clean(), "{}", scan.describe());
        assert!(scan.describe().starts_with("clean: v2 store, "));
        assert_eq!(scan.corrupt_pages(), 0);
        assert!(scan.pages.iter().all(super::PageScan::has_exact_aggregate));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_refused_by_the_scan_and_repair() {
        // A v1 header (no checksums) over zero pages and an empty index.
        let mut bytes = format::MAGIC.to_vec();
        for word in [1u32, 40, 1024] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&36u64.to_le_bytes());
        let path = tmp("v1.pages");
        std::fs::write(&path, &bytes).expect("write");
        let err = scan_store(&path).map(|_| ()).expect_err("v1 is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported page-file version 1");
        let fixed = tmp("v1.fixed.pages");
        let err = repair_store(&path, &fixed).expect_err("v1 is refused");
        assert_eq!(err.to_string(), "unsupported page-file version 1");
        assert!(!fixed.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repair_restores_from_intact_pages_and_keeps_exact_aggregates() {
        let d = sample();
        let path = tmp("restore.pages");
        write_paged(&path, &d, 1024).expect("write");
        let before = scan_store(&path).expect("scan");
        let damaged_summary = before.pages[1].index_summary.clone().expect("index");
        flip_page_byte(&path, 1, 1024);

        let scan = scan_store(&path).expect("scan");
        assert!(!scan.is_clean());
        assert_eq!(scan.corrupt_pages(), 1);
        assert!(!scan.pages[1].data_intact);
        assert!(scan.pages[1].has_exact_aggregate(), "index survives");

        let fixed = tmp("restore.fixed.pages");
        let outcome = repair_store(&path, &fixed).expect("repair");
        assert_eq!(outcome.quarantined, 1);
        assert_eq!(outcome.widened, 0);
        assert_eq!(outcome.restored, scan.pages.len() - 1);

        // The repaired store is strictly readable, and the quarantined
        // page's aggregate is byte-for-byte the exact original.
        let store = DiskStore::open(&fixed, 2).expect("open repaired");
        assert_eq!(store.summaries()[1], damaged_summary);
        assert!(scan_store(&fixed).expect("rescan").is_clean());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&fixed).ok();
    }

    #[test]
    fn double_damage_widens_to_a_sound_over_estimate() {
        let d = sample();
        let path = tmp("widen.pages");
        write_paged(&path, &d, 1024).expect("write");
        let before = scan_store(&path).expect("scan");
        let true_summary = before.pages[0].index_summary.clone().expect("index");
        flip_page_byte(&path, 0, 1024);
        // Also corrupt the index region so no exact aggregate survives.
        let mut bytes = std::fs::read(&path).expect("read");
        let at = bytes.len() - 2;
        bytes[at] ^= 0x08;
        std::fs::write(&path, &bytes).expect("rewrite");

        let scan = scan_store(&path).expect("scan");
        assert!(!scan.index_intact);
        assert!(!scan.pages[0].has_exact_aggregate());

        let fixed = tmp("widen.fixed.pages");
        let outcome = repair_store(&path, &fixed).expect("repair");
        assert_eq!(outcome.widened, 1);
        assert!(outcome.index_rebuilt);

        // Widened supports dominate the true page aggregate: soundness.
        let store = DiskStore::open(&fixed, 2).expect("open repaired");
        let widened = store.summaries()[0].dense(store.num_items());
        let truth = true_summary.dense(store.num_items());
        for (w, t) in widened.iter().zip(&truth) {
            assert!(w >= t, "widened {w} < true {t}");
        }
        assert!(
            u64::from(store.summaries()[0].transactions) >= u64::from(true_summary.transactions)
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&fixed).ok();
    }

    #[test]
    fn repair_is_atomic_over_the_destination() {
        let d = sample();
        let path = tmp("atomic.pages");
        write_paged(&path, &d, 1024).expect("write");
        // In-place repair of a clean store is an identity.
        let outcome = repair_store(&path, &path).expect("repair");
        assert_eq!(outcome.quarantined + outcome.widened, 0);
        let mut store = DiskStore::open(&path, 2).expect("open");
        assert_eq!(store.to_dataset().expect("read"), d);
        std::fs::remove_file(&path).ok();
    }
}
