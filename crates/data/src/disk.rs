//! Read-only disk-backed page storage with a buffer pool, I/O
//! accounting, and end-to-end checksums.
//!
//! The paper's cost model is page-oriented: transactions live in 4 KB disk
//! pages, segmentation operates on per-page aggregates, and the reported
//! runtimes "include all CPU and I/O costs". This module provides the
//! matching substrate:
//!
//! * [`DiskStoreWriter`] packs a stream of transactions into fixed-size
//!   pages of a data file and appends a sparse per-page aggregate index,
//!   so a later segmentation pass can run **without touching the data
//!   pages at all** — exactly the "higher granularity level" premise of
//!   the page version of segment minimization (Section 4.3);
//! * [`DiskStore`] reads pages back through a fixed-frame
//!   [`BufferPoolManager`] (LRU-K replacement, RAII [`PageGuard`] pins),
//!   counting physical page reads and pool hits, which lets experiments
//!   report I/O work the way the paper's time-sharing measurements folded
//!   it into runtime.
//!
//! A store is written once by the writer and only opened read-only
//! afterwards, so decoded pages are immutable and an evicted frame is
//! simply dropped.
//!
//! # Integrity
//!
//! The OSSM is "computed once at pre-processing" (Section 3) and reused
//! across support thresholds, so the page file it derives from is a
//! long-lived artifact: a silently corrupt page would poison every future
//! map. Format **v2** therefore checksums everything with CRC32C — each
//! page slot carries a 4-byte trailer over its payload (verified on every
//! buffer-pool miss), the aggregate index carries a file-level CRC, and
//! the header checksums its own fields. Legacy v1 files (no integrity
//! metadata) are still readable; the writer always emits v2. A page whose
//! checksum fails is quarantined (see [`DiskStore::quarantined_pages`])
//! and the read errors instead of returning garbage; `ossm repair`
//! rebuilds what the intact parts of the file still determine
//! ([`crate::repair`]). See `DESIGN.md` §9 for the full failure model.
//!
//! File layout: see the private `format` module. All integers little-endian.

use std::collections::BTreeSet;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::buffer::{BufferPoolManager, PageGuard, PoolStats};
use crate::checksum::crc32c;
use crate::fault;
use crate::format::{self, Header, MAX_ITEMS, MAX_PAGE_BYTES};
use crate::item::{ItemId, Itemset};
use crate::page::transaction_bytes;

pub use crate::format::{decode_page, encode_page_payload, FlatPage, Transactions};

/// Physical page reads (buffer-pool misses), all [`DiskStore`]s combined.
static PAGE_READS: ossm_obs::Counter = ossm_obs::Counter::new("data.disk.page_reads");
/// Checksum verification failures (pages, index, or header), all stores.
static CHECKSUM_FAILURES: ossm_obs::Counter = ossm_obs::Counter::new("data.disk.checksum_failures");

/// Counts a checksum failure and stamps it into the flight recorder so a
/// postmortem dump shows *which* verification tripped (`value` is the
/// page index, or 0 for header/index failures).
fn checksum_failure(value: u64) {
    CHECKSUM_FAILURES.incr();
    ossm_obs::recorder::record_event(
        "data.disk.checksum_failures",
        ossm_obs::recorder::EventKind::Checksum,
        value,
    );
}

/// Sparse per-page aggregate: transaction count plus (item, support) pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSummary {
    /// Number of transactions on the page.
    pub transactions: u32,
    /// `(item, support-on-page)` pairs, ascending by item.
    pub supports: Vec<(u32, u32)>,
}

impl PageSummary {
    /// Densifies into a full support vector over `m` items. Entries
    /// outside the domain are ignored — a summary read back from a
    /// damaged file may disagree with the header it was stored under,
    /// and densifying must stay total on such input.
    pub fn dense(&self, m: usize) -> Vec<u64> {
        let mut v = vec![0u64; m];
        for &(item, count) in &self.supports {
            if let Some(slot) = v.get_mut(item as usize) {
                *slot = u64::from(count);
            }
        }
        v
    }
}

/// Writes transactions into a paged data file (format v2, checksummed).
pub struct DiskStoreWriter {
    file: io::BufWriter<std::fs::File>,
    m: u32,
    page_bytes: u32,
    /// Current page under construction.
    current: FlatPage,
    summaries: Vec<PageSummary>,
}

impl DiskStoreWriter {
    /// Creates the file at `path` for a domain of `m` items and the given
    /// *logical* page size (4096 matches the paper; the physical slot adds
    /// a 4-byte checksum trailer). Errors if `page_bytes` cannot hold even
    /// an empty transaction, is implausibly large, or `m` exceeds the
    /// format's domain cap.
    pub fn create(path: &Path, m: usize, page_bytes: usize) -> io::Result<Self> {
        if page_bytes < 16 {
            return Err(invalid_input("page size too small to hold any transaction"));
        }
        if page_bytes > MAX_PAGE_BYTES as usize {
            return Err(invalid_input(format!(
                "page size {page_bytes} exceeds the format cap {MAX_PAGE_BYTES}"
            )));
        }
        if m > MAX_ITEMS {
            return Err(invalid_input(format!(
                "item domain {m} exceeds the format cap {MAX_ITEMS}"
            )));
        }
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        // Header placeholder; finalize() rewrites it with real counts.
        file.write_all(&[0u8; format::HEADER_V2 as usize])?;
        Ok(DiskStoreWriter {
            file,
            m: m as u32,
            page_bytes: page_bytes as u32,
            current: FlatPage::default(),
            summaries: Vec::new(),
        })
    }

    /// Appends one transaction, starting a new page when the current page
    /// is full. Errors if the transaction references items outside the
    /// domain or cannot fit on a page by itself (callers pick
    /// `page_bytes` ≥ the largest transaction).
    pub fn append(&mut self, t: &Itemset) -> io::Result<()> {
        if let Some(max) = t.items().last() {
            if max.0 >= self.m {
                return Err(invalid_input(format!(
                    "item {max} outside domain 0..{}",
                    self.m
                )));
            }
        }
        let cost = transaction_bytes(t);
        if cost + 4 > self.page_bytes as usize {
            return Err(invalid_input(format!(
                "transaction of {cost} bytes exceeds the {}-byte page",
                self.page_bytes
            )));
        }
        if !self.current.is_empty()
            && self.current.payload_bytes() + cost > self.page_bytes as usize
        {
            self.flush_page()?;
        }
        if !self.current.push(t.items()) {
            return Err(invalid_input("page overflow"));
        }
        Ok(())
    }

    fn flush_page(&mut self) -> io::Result<()> {
        // `append` already rejected anything that cannot fit.
        let mut slot = format::encode_page_payload(&self.current, self.page_bytes as usize)
            .ok_or_else(|| invalid_input("page overflow"))?;
        let crc = crc32c(&slot);
        slot.extend_from_slice(&crc.to_le_bytes());
        fault::write_all_tagged(&mut self.file, "data.disk.write_page", &slot)?;
        self.summaries.push(format::summarize(&self.current));
        self.current.clear();
        Ok(())
    }

    /// Flushes the final page, writes the checksummed aggregate index and
    /// the real header, and syncs the file to disk.
    pub fn finalize(mut self) -> io::Result<()> {
        if !self.current.is_empty() {
            self.flush_page()?;
        }
        let num_pages = self.summaries.len() as u64;
        let slot = u64::from(self.page_bytes) + format::PAGE_TRAILER;
        let index_offset = format::HEADER_V2 + num_pages * slot;
        let index = format::encode_index(&self.summaries);
        let index_crc = crc32c(&index);
        fault::write_all_tagged(&mut self.file, "data.disk.write_index", &index)?;
        let mut file = self.file.into_inner()?;
        file.seek(SeekFrom::Start(0))?;
        let header =
            format::encode_header_v2(self.m, self.page_bytes, num_pages, index_offset, index_crc);
        fault::write_all_tagged(&mut file, "data.disk.write_header", &header)?;
        file.sync_all()
    }
}

/// Physical-I/O counters of a [`DiskStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from disk (buffer-pool misses). Hits are counted
    /// once, by the pool ([`DiskStore::pool_stats`]).
    pub page_reads: u64,
}

/// A read-only handle on a paged data file, opened with
/// [`DiskStore::open`]. All page access goes through a fixed-frame
/// [`BufferPoolManager`].
pub struct DiskStore {
    file: std::fs::File,
    header: Header,
    summaries: Vec<PageSummary>,
    pool: BufferPoolManager,
    stats: IoStats,
    /// Pages whose checksum failed on read — their data is not trusted.
    quarantined: BTreeSet<usize>,
    /// One page slot's bytes, reused by every buffer-pool miss.
    slot: Vec<u8>,
}

impl DiskStore {
    /// Opens a store written by [`DiskStoreWriter`] (or a legacy v1 file),
    /// with a buffer pool of `pool_pages` frames. Verifies the header and
    /// index checksums up front; data-page checksums are verified lazily
    /// on every buffer-pool miss.
    pub fn open(path: &Path, pool_pages: usize) -> io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let header = format::read_header(&mut file, file_len)?;
        if !header.header_ok {
            checksum_failure(0);
            return Err(format::bad("page-file header checksum mismatch"));
        }
        // Load the aggregate index (summaries only — no data pages).
        file.seek(SeekFrom::Start(header.index_offset))?;
        let mut index = Vec::with_capacity((file_len - header.index_offset) as usize);
        file.read_to_end(&mut index)?;
        if header.version >= format::V2 && crc32c(&index) != header.index_crc {
            checksum_failure(0);
            return Err(format::bad("page-file index checksum mismatch"));
        }
        let summaries = format::parse_index(&index, header.m, header.num_pages)?;
        Ok(DiskStore {
            file,
            header,
            summaries,
            pool: BufferPoolManager::new(pool_pages),
            stats: IoStats::default(),
            quarantined: BTreeSet::new(),
            slot: Vec::new(),
        })
    }

    /// Size of the item domain.
    pub fn num_items(&self) -> usize {
        self.header.m
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.summaries.len()
    }

    /// Format version of the underlying file (2 = checksummed).
    pub fn format_version(&self) -> u32 {
        self.header.version
    }

    /// Total transactions across all pages (from the index).
    pub fn num_transactions(&self) -> u64 {
        self.summaries
            .iter()
            .map(|s| u64::from(s.transactions))
            .sum()
    }

    /// The per-page aggregate index — everything segmentation needs,
    /// loaded without a single data-page read.
    pub fn summaries(&self) -> &[PageSummary] {
        &self.summaries
    }

    /// Dense per-page aggregates for the segmentation algorithms.
    pub fn page_aggregate_vectors(&self) -> Vec<(Vec<u64>, u64)> {
        self.summaries
            .iter()
            .map(|s| (s.dense(self.header.m), u64::from(s.transactions)))
            .collect()
    }

    /// Physical-I/O counters so far.
    pub fn io_stats(&self) -> IoStats {
        self.stats
    }

    /// Buffer-pool counters so far (hits, misses, evictions, pins).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Frame budget of the store's buffer pool.
    pub fn pool_frames(&self) -> usize {
        self.pool.capacity()
    }

    /// Physical bytes of one page slot (payload + checksum trailer) —
    /// the I/O a skipped page fault avoids.
    pub fn slot_bytes(&self) -> u64 {
        self.header.slot_bytes()
    }

    /// Pages whose checksum verification failed on a read so far. Their
    /// index summaries remain trustworthy (the index has its own CRC),
    /// so bounds built from [`Self::summaries`] stay sound even when the
    /// page data is lost; see [`crate::repair`] for recovery.
    pub fn quarantined_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.quarantined.iter().copied()
    }

    /// Requests page `p` through the buffer pool and returns a pinned
    /// [`PageGuard`] on it — the frame stays resident until the guard
    /// drops, and the caller iterates the transactions in place. On a
    /// pool miss the page is read from disk, checksum-verified, and
    /// admitted (possibly evicting the LRU-K victim). Errors if `p` is
    /// out of range
    /// or the page is corrupt (the page is then quarantined rather than
    /// returned as garbage).
    pub fn fetch_page(&mut self, p: usize) -> io::Result<PageGuard> {
        if p >= self.summaries.len() {
            return Err(invalid_input(format!(
                "page {p} out of range 0..{}",
                self.summaries.len()
            )));
        }
        if let Some(guard) = self.pool.get(p as u64) {
            return Ok(guard);
        }
        self.stats.page_reads += 1;
        PAGE_READS.incr();
        // Pool-resident page buffers are data.page memory. The scope spans
        // the admit too, so the victim it evicts is freed where it was
        // charged and the scope's current value falls with each eviction.
        let _mem = ossm_obs::alloc_scope("data.page");
        let decoded = {
            let mut span = ossm_obs::detail_span("data.disk.read_page");
            span.attach("page", p as u64);
            let payload_bytes = self.header.page_bytes as usize;
            self.slot.resize(self.header.slot_bytes() as usize, 0);
            self.file
                .seek(SeekFrom::Start(self.header.page_offset(p as u64)))?;
            fault::read_exact_tagged(&mut self.file, "data.disk.read_page", &mut self.slot)?;
            let (payload, trailer) = self.slot.split_at(payload_bytes.min(self.slot.len()));
            if self.header.version >= format::V2 {
                // The slot ends in a 4-byte CRC by construction; a short
                // trailer decodes to a mismatching checksum, not a panic.
                if crc32c(payload) != format::le_u32(trailer) {
                    checksum_failure(p as u64);
                    self.quarantined.insert(p);
                    return Err(format::bad(format!("page {p} checksum mismatch")));
                }
            }
            format::decode_page(payload, self.header.m)?
        };
        let bytes = self.header.slot_bytes();
        self.pool.admit(p as u64, decoded, bytes)
    }

    /// Reads page `p` as owned itemsets (a copy out of the pool). Most
    /// callers should prefer [`DiskStore::fetch_page`] and iterate the
    /// guard in place.
    pub fn read_page(&mut self, p: usize) -> io::Result<Vec<Itemset>> {
        Ok(self.fetch_page(p)?.to_vec())
    }

    /// Streams every transaction through `visit`, page by page, as a
    /// sorted item slice borrowed from the pinned frame. Returns the
    /// number of pages read for the pass.
    pub fn scan(&mut self, mut visit: impl FnMut(&[ItemId])) -> io::Result<u64> {
        let mut scan_span = ossm_obs::span("data.disk.scan");
        scan_span.watch(&PAGE_READS);
        let pages = self.num_pages();
        for p in 0..pages {
            let guard = self.fetch_page(p)?;
            for t in guard.iter() {
                visit(t);
            }
        }
        Ok(pages as u64)
    }

    /// Materializes the whole store as an in-memory [`crate::Dataset`].
    pub fn to_dataset(&mut self) -> io::Result<crate::Dataset> {
        let n = usize::try_from(self.num_transactions()).unwrap_or(usize::MAX);
        let mut transactions = Vec::with_capacity(n.min(1 << 24));
        self.scan(|t| transactions.push(Itemset::from_sorted(t.to_vec())))?;
        Ok(crate::Dataset::new(self.header.m, transactions))
    }
}

fn invalid_input(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// Writes an entire dataset to a paged file (convenience wrapper).
pub fn write_paged(path: &Path, dataset: &crate::Dataset, page_bytes: usize) -> io::Result<()> {
    let mut w = DiskStoreWriter::create(path, dataset.num_items(), page_bytes)?;
    for t in dataset.transactions() {
        w.append(t)?;
    }
    w.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::QuestConfig;
    use crate::page::PageStore;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ossm-disk-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn flat(txs: &[Itemset]) -> FlatPage {
        let mut page = FlatPage::default();
        for t in txs {
            assert!(page.push(t.items()));
        }
        page
    }

    fn sample_dataset() -> crate::Dataset {
        QuestConfig {
            num_transactions: 500,
            num_items: 50,
            ..QuestConfig::small()
        }
        .generate()
    }

    /// Serializes a dataset in the legacy v1 layout (36-byte header, raw
    /// page slots, no checksums) so compatibility stays tested after the
    /// writer moved to v2.
    pub(crate) fn write_paged_v1(path: &Path, dataset: &crate::Dataset, page_bytes: usize) {
        let mem = PageStore::pack(dataset.clone(), page_bytes);
        let mut pages: Vec<Vec<u8>> = Vec::new();
        let mut summaries = Vec::new();
        for page in mem.pages() {
            let txs = flat(&dataset.transactions()[page.range()]);
            let payload = format::encode_page_payload(&txs, page_bytes).expect("fits");
            summaries.push(format::summarize(&txs));
            pages.push(payload);
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(format::MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(dataset.num_items() as u32).to_le_bytes());
        bytes.extend_from_slice(&(page_bytes as u32).to_le_bytes());
        bytes.extend_from_slice(&(pages.len() as u64).to_le_bytes());
        let index_offset = format::HEADER_V1 + pages.len() as u64 * page_bytes as u64;
        bytes.extend_from_slice(&index_offset.to_le_bytes());
        for p in &pages {
            bytes.extend_from_slice(p);
        }
        bytes.extend_from_slice(&format::encode_index(&summaries));
        std::fs::write(path, bytes).expect("write v1 file");
    }

    #[test]
    fn roundtrip_preserves_every_transaction() {
        let d = sample_dataset();
        let path = tmp("roundtrip.pages");
        write_paged(&path, &d, 4096).expect("write");
        let mut store = DiskStore::open(&path, 4).expect("open");
        assert_eq!(store.num_items(), 50);
        assert_eq!(store.num_transactions(), 500);
        assert_eq!(store.format_version(), 2);
        assert_eq!(store.to_dataset().expect("read"), d);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_v1_files_still_read() {
        let d = sample_dataset();
        let path = tmp("legacy.pages");
        write_paged_v1(&path, &d, 1024);
        let mut store = DiskStore::open(&path, 4).expect("open v1");
        assert_eq!(store.format_version(), 1);
        assert_eq!(store.num_transactions(), 500);
        assert_eq!(store.to_dataset().expect("read"), d);
        // v1 page boundaries agree with the in-memory packer, like v2's.
        let mem = PageStore::pack(d, 1024);
        assert_eq!(store.num_pages(), mem.num_pages());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_matches_in_memory_page_aggregates() {
        let d = sample_dataset();
        let path = tmp("index.pages");
        write_paged(&path, &d, 1024).expect("write");
        let store = DiskStore::open(&path, 2).expect("open");
        // The same packing in memory must agree page by page: the v2
        // checksum trailer lives outside the logical page, so packing
        // decisions are unchanged.
        let mem = PageStore::pack(d, 1024);
        assert_eq!(store.num_pages(), mem.num_pages());
        for (summary, page) in store.summaries().iter().zip(mem.pages()) {
            assert_eq!(summary.transactions as usize, page.len());
            assert_eq!(summary.dense(50), page.supports());
        }
        // Reading the index costs zero data-page I/O.
        assert_eq!(store.io_stats(), IoStats::default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn buffer_pool_counts_hits_and_misses() {
        let d = sample_dataset();
        let path = tmp("pool.pages");
        write_paged(&path, &d, 1024).expect("write");
        let mut store = DiskStore::open(&path, 2).expect("open");
        store.read_page(0).expect("read");
        store.read_page(0).expect("read");
        assert_eq!(store.io_stats().page_reads, 1);
        assert_eq!(store.pool_stats().hits, 1);
        // LRU-K scan resistance: page 0 has two accesses, so the
        // once-touched page 1 (infinite backward K-distance) is the
        // eviction victim when page 2 arrives — and re-reading page 0
        // is a pool hit, not a fourth physical read.
        store.read_page(1).expect("read");
        store.read_page(2).expect("read");
        store.read_page(0).expect("read");
        assert_eq!(store.io_stats().page_reads, 3);
        assert_eq!(
            store.pool_stats().hits,
            2,
            "LRU-K kept the twice-touched page resident"
        );
        assert_eq!(store.pool_stats().evictions, 1);
    }

    #[test]
    fn full_scans_cost_one_read_per_page_when_pool_is_small() {
        let d = sample_dataset();
        let path = tmp("scan.pages");
        write_paged(&path, &d, 1024).expect("write");
        let mut store = DiskStore::open(&path, 1).expect("open");
        let p = store.num_pages() as u64;
        let mut seen = 0u64;
        store.scan(|_| seen += 1).expect("scan");
        store.scan(|_| ()).expect("scan");
        assert_eq!(seen, 500);
        assert_eq!(
            store.io_stats().page_reads,
            2 * p,
            "tiny pool → every pass hits disk"
        );
        // A pool bigger than the file caches the second pass entirely.
        let mut cached = DiskStore::open(&path, p as usize + 1).expect("open");
        cached.scan(|_| ()).expect("scan");
        cached.scan(|_| ()).expect("scan");
        assert_eq!(cached.io_stats().page_reads, p);
        assert_eq!(cached.pool_stats().hits, p);
    }

    #[test]
    fn rejects_corrupt_files() {
        let path = tmp("corrupt.pages");
        std::fs::write(&path, b"garbage that is long enough to be a header maybe").expect("write");
        assert!(DiskStore::open(&path, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_transaction_is_rejected() {
        let path = tmp("oversize.pages");
        let mut w = DiskStoreWriter::create(&path, 100, 16).expect("create");
        let t = Itemset::new(0..50u32);
        let err = w.append(&t).expect_err("does not fit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("exceeds the"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_domain_items_and_bad_page_sizes_are_errors_not_panics() {
        let path = tmp("domain.pages");
        assert!(DiskStoreWriter::create(&path, 10, 4).is_err());
        let mut w = DiskStoreWriter::create(&path, 10, 4096).expect("create");
        let err = w
            .append(&Itemset::new([3, 99]))
            .expect_err("item 99 ∉ 0..10");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reading_out_of_range_pages_is_an_error() {
        let d = sample_dataset();
        let path = tmp("range.pages");
        write_paged(&path, &d, 4096).expect("write");
        let mut store = DiskStore::open(&path, 1).expect("open");
        let past_end = store.num_pages();
        assert!(store.read_page(past_end).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_a_page_is_detected_and_quarantined() {
        let d = sample_dataset();
        let path = tmp("flip.pages");
        write_paged(&path, &d, 1024).expect("write");
        let mut bytes = std::fs::read(&path).expect("read file");
        // Flip one bit in the middle of page 1's payload.
        let slot = 1024 + 4;
        let offset = format::HEADER_V2 as usize + slot + 100;
        bytes[offset] ^= 0x10;
        std::fs::write(&path, &bytes).expect("rewrite");
        let mut store = DiskStore::open(&path, 4).expect("header+index intact");
        store.read_page(0).expect("page 0 clean");
        let err = store.read_page(1).expect_err("page 1 corrupt");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(store.quarantined_pages().collect::<Vec<_>>(), vec![1]);
        // The index summary for the quarantined page is still served.
        assert!(store.summaries()[1].transactions > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_header_or_index_is_detected_at_open() {
        let d = sample_dataset();
        let path = tmp("flip-meta.pages");
        write_paged(&path, &d, 1024).expect("write");
        let clean = std::fs::read(&path).expect("read file");
        // Header: flip a bit inside the checksummed fixed fields.
        let mut bytes = clean.clone();
        bytes[21] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(DiskStore::open(&path, 1).is_err(), "header flip detected");
        // Index: flip a bit in the trailing index region.
        let mut bytes = clean.clone();
        let at = clean.len() - 3;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = DiskStore::open(&path, 1)
            .map(|_| ())
            .expect_err("index flip detected");
        assert!(err.to_string().contains("index checksum"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_header_fields_error_instead_of_allocating() {
        let path = tmp("hostile.pages");
        // A header claiming 2^40 pages over a 100-byte file.
        let header = format::encode_header_v2(50, 4096, 1 << 40, u64::MAX / 2, 0);
        std::fs::write(&path, header).expect("write");
        let err = DiskStore::open(&path, 1)
            .map(|_| ())
            .expect_err("implausible header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An implausible item domain is capped too.
        let header = format::encode_header_v2(u32::MAX, 4096, 0, format::HEADER_V2, 0);
        std::fs::write(&path, header).expect("write");
        assert!(DiskStore::open(&path, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stored_payloads_and_summaries_survive_decoding() {
        // Transactions of every shape: empty, tiny, and one that fills a
        // whole 256-byte slot (4 + 4 + 4 · 62 bytes).
        let mut txs: Vec<Itemset> = Vec::new();
        for i in 0..300u32 {
            txs.push(match i % 7 {
                0 => Itemset::empty(),
                1 => Itemset::new([i % 80]),
                _ => Itemset::new((0..i % 9).map(|k| (i * 7 + k * 13) % 80)),
            });
            if i == 150 {
                txs.push(Itemset::new(0..62u32));
            }
        }
        let d = crate::Dataset::new(80, txs);
        let path = tmp("reencode.pages");
        write_paged(&path, &d, 256).expect("write");
        let store = DiskStore::open(&path, 1).expect("open");
        let bytes = std::fs::read(&path).expect("read file");
        let slot = 256 + format::PAGE_TRAILER as usize;
        let mut full_slots = 0;
        for (p, summary) in store.summaries().iter().enumerate() {
            let at = format::HEADER_V2 as usize + p * slot;
            let payload = &bytes[at..at + 256];
            let page = format::decode_page(payload, 80).expect("decodes");
            full_slots += usize::from(page.payload_bytes() == 256);
            assert_eq!(
                format::encode_page_payload(&page, 256).as_deref(),
                Some(payload),
                "page {p}"
            );
            assert_eq!(&format::summarize(&page), summary, "page {p}");
        }
        assert!(full_slots > 0, "the 62-item transaction fills a slot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let path = tmp("empty.pages");
        write_paged(&path, &crate::Dataset::empty(10), 4096).expect("write");
        let mut store = DiskStore::open(&path, 1).expect("open");
        assert_eq!(store.num_pages(), 0);
        assert_eq!(store.to_dataset().expect("read"), crate::Dataset::empty(10));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "faults")]
    mod faults {
        use super::*;
        use crate::fault::FaultPlan;

        #[test]
        fn torn_page_write_is_detected_on_read_back() {
            let _lock = crate::fault::tests::serialize_tests();
            let d = sample_dataset();
            let path = tmp("torn.pages");
            // Tear the second page write halfway through its slot.
            let mut plan = FaultPlan::new();
            plan.tear_write("data.disk.write_page", 2, 300);
            let guard = plan.arm();
            let err = write_paged(&path, &d, 1024).expect_err("torn write surfaces");
            assert!(err.to_string().contains("torn"), "{err}");
            assert_eq!(guard.fired(), 1);
            drop(guard);
            // The half-written file must not open as a valid store.
            assert!(DiskStore::open(&path, 1).is_err());
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn injected_read_corruption_trips_the_page_checksum() {
            let _lock = crate::fault::tests::serialize_tests();
            let d = sample_dataset();
            let path = tmp("flip-read.pages");
            write_paged(&path, &d, 1024).expect("write");
            let mut store = DiskStore::open(&path, 4).expect("open");
            let mut plan = FaultPlan::new();
            plan.flip_on_read("data.disk.read_page", 1, 42, 0x04);
            let guard = plan.arm();
            let err = store.read_page(0).expect_err("flip detected");
            assert!(err.to_string().contains("checksum"), "{err}");
            assert_eq!(guard.fired(), 1);
            drop(guard);
            std::fs::remove_file(&path).ok();
        }
    }
}
