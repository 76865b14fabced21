//! Low-level byte layout of the `OSSMPAGE` paged-store format.
//!
//! Shared between the happy path ([`crate::disk`]) and the recovery path
//! ([`crate::repair`]), which must parse the same bytes leniently. The
//! format has one version, 2: a 44-byte header ending in a CRC32C of the
//! header fields and a CRC32C of the index region, and page slots that
//! each carry a 4-byte CRC32C trailer over their payload. The *logical*
//! page size (`page_bytes`, what packing decisions see) excludes the
//! trailer; the physical slot is `page_bytes + 4`. Any other version —
//! the unchecked v1 included — is refused by [`read_header`].
//!
//! ```text
//! header : magic "OSSMPAGE", version u32 = 2, m u32, page_bytes u32,
//!          num_pages u64, index_offset u64, index_crc u32,
//!          header_crc u32 (CRC32C of the 40 bytes before it)
//! page   : payload (page_bytes: num_tx u32, then per transaction
//!          len u32 + len × item u32, zero padding), crc u32
//! index  : per page: num_tx u32, num_entries u32,
//!          then num_entries × (item u32, count u32)
//! ```
//!
//! A payload decodes into one [`FlatPage`] — two vectors whatever the
//! transaction count — which is what a buffer-pool frame holds.

use std::io::{self, Read};

use crate::checksum::crc32c;
use crate::disk::PageSummary;
use crate::item::{ItemId, Itemset};

/// On-disk magic for the page-store file format (lint rule R5: defined once here).
pub const MAGIC: &[u8; 8] = b"OSSMPAGE";
pub(crate) const V2: u32 = 2;
pub(crate) const HEADER_V2: u64 = 8 + 4 + 4 + 4 + 8 + 8 + 4 + 4;
/// Per-page CRC trailer bytes.
pub(crate) const PAGE_TRAILER: u64 = 4;

/// Hard cap on the item-domain size accepted from any header. A corrupt
/// or hostile `m` would otherwise drive multi-gigabyte dense-vector
/// allocations; 16M items is far beyond any workload in the paper's
/// regime (m ≤ 10⁴).
pub(crate) const MAX_ITEMS: usize = 1 << 24;
/// Hard cap on the page size accepted from any header (64 MiB).
pub(crate) const MAX_PAGE_BYTES: u32 = 1 << 26;

/// Parsed and sanity-checked `OSSMPAGE` header.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Header {
    pub m: usize,
    pub page_bytes: u32,
    pub num_pages: u64,
    pub index_offset: u64,
    /// CRC32C the index region must hash to.
    pub index_crc: u32,
    /// Whether the header's own checksum verified. Strict readers reject
    /// `false`; the repair path proceeds best-effort when the remaining
    /// fields stay plausible.
    pub header_ok: bool,
}

impl Header {
    /// Physical bytes of one page slot (payload + CRC trailer).
    pub fn slot_bytes(&self) -> u64 {
        u64::from(self.page_bytes) + PAGE_TRAILER
    }

    /// File offset of page `p`'s slot.
    pub fn page_offset(&self, p: u64) -> u64 {
        HEADER_V2 + p * self.slot_bytes()
    }
}

/// Decodes up to 4 little-endian bytes, zero-padding a short slice.
/// Callers slice exactly 4 bytes; padding (instead of panicking) means a
/// malformed length surfaces as a decode error downstream, never an
/// abort on a durability path.
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut fixed = [0u8; 4];
    for (dst, src) in fixed.iter_mut().zip(b) {
        *dst = *src;
    }
    u32::from_le_bytes(fixed)
}

/// Decodes up to 8 little-endian bytes, zero-padding a short slice.
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    let mut fixed = [0u8; 8];
    for (dst, src) in fixed.iter_mut().zip(b) {
        *dst = *src;
    }
    u64::from_le_bytes(fixed)
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes a header.
pub(crate) fn encode_header_v2(
    m: u32,
    page_bytes: u32,
    num_pages: u64,
    index_offset: u64,
    index_crc: u32,
) -> [u8; HEADER_V2 as usize] {
    let mut h = [0u8; HEADER_V2 as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&V2.to_le_bytes());
    h[12..16].copy_from_slice(&m.to_le_bytes());
    h[16..20].copy_from_slice(&page_bytes.to_le_bytes());
    h[20..28].copy_from_slice(&num_pages.to_le_bytes());
    h[28..36].copy_from_slice(&index_offset.to_le_bytes());
    h[36..40].copy_from_slice(&index_crc.to_le_bytes());
    let crc = crc32c(&h[..40]);
    h[40..44].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Reads and parses the header of an `OSSMPAGE` file, sanity-capping
/// every field against `file_len` so a corrupt or hostile header errors
/// here instead of driving huge allocations downstream. A version other
/// than 2 is an error; a failed header checksum is reported via
/// [`Header::header_ok`], not an error, so the repair path can attempt a
/// best-effort scan.
pub(crate) fn read_header<R: Read>(r: &mut R, file_len: u64) -> io::Result<Header> {
    let mut h = [0u8; HEADER_V2 as usize];
    // Magic and version come first, so a file of another format or
    // version is named as such even when it is shorter than this header.
    r.read_exact(&mut h[..12])?;
    if &h[..8] != MAGIC {
        return Err(bad("not an OSSM page file"));
    }
    let version = le_u32(&h[8..12]);
    if version != V2 {
        return Err(bad(format!("unsupported page-file version {version}")));
    }
    r.read_exact(&mut h[12..])?;
    let m = le_u32(&h[12..16]) as usize;
    let page_bytes = le_u32(&h[16..20]);
    let num_pages = le_u64(&h[20..28]);
    let index_offset = le_u64(&h[28..36]);
    let header = Header {
        m,
        page_bytes,
        num_pages,
        index_offset,
        index_crc: le_u32(&h[36..40]),
        header_ok: crc32c(&h[..40]) == le_u32(&h[40..44]),
    };
    if m > MAX_ITEMS {
        return Err(bad(format!(
            "implausible item domain m = {m} (cap {MAX_ITEMS})"
        )));
    }
    if !(16..=MAX_PAGE_BYTES).contains(&page_bytes) {
        return Err(bad(format!("implausible page size {page_bytes}")));
    }
    let pages_end = num_pages
        .checked_mul(header.slot_bytes())
        .and_then(|b| b.checked_add(HEADER_V2))
        .ok_or_else(|| bad("page region overflows the file offset space"))?;
    if index_offset != pages_end {
        return Err(bad(format!(
            "index offset {index_offset} disagrees with {num_pages} pages ending at {pages_end}"
        )));
    }
    if index_offset > file_len {
        return Err(bad(format!(
            "header claims {num_pages} pages ({index_offset} bytes) but the file has {file_len}"
        )));
    }
    Ok(header)
}

/// One decoded page, flat: every transaction's items in one vector, and
/// one end offset per transaction (transaction `i` is
/// `items[ends[i-1]..ends[i]]`). This is what a buffer-pool frame holds,
/// so a page miss costs a constant number of allocations rather than
/// one per transaction. Iterating yields each transaction as a sorted
/// `&[ItemId]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatPage {
    items: Vec<ItemId>,
    ends: Vec<u32>,
}

impl FlatPage {
    /// Number of transactions on the page.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the page holds no transaction.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every item occurrence on the page, transaction after transaction.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// The page's transactions in order.
    pub fn iter(&self) -> Transactions<'_> {
        Transactions {
            items: &self.items,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Appends one transaction, whose items must be strictly increasing.
    /// Returns `false`, leaving the page unchanged, if the page would
    /// exceed `u32::MAX` item occurrences.
    pub fn push(&mut self, t: &[ItemId]) -> bool {
        let Ok(end) = u32::try_from(self.items.len() + t.len()) else {
            return false;
        };
        self.items.extend_from_slice(t);
        self.ends.push(end);
        true
    }

    /// Payload bytes the page encodes to: the transaction count, then a
    /// length word and the items of each transaction.
    pub fn payload_bytes(&self) -> usize {
        4 + 4 * self.ends.len() + 4 * self.items.len()
    }

    /// Copies the transactions out as owned itemsets.
    pub fn to_itemsets(&self) -> Vec<Itemset> {
        self.iter()
            .map(|t| Itemset::new(t.iter().map(|i| i.0)))
            .collect()
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }
}

impl<'a> IntoIterator for &'a FlatPage {
    type Item = &'a [ItemId];
    type IntoIter = Transactions<'a>;
    fn into_iter(self) -> Transactions<'a> {
        self.iter()
    }
}

/// Iterator over a [`FlatPage`]'s transactions.
#[derive(Clone, Debug)]
pub struct Transactions<'a> {
    items: &'a [ItemId],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for Transactions<'a> {
    type Item = &'a [ItemId];

    fn next(&mut self) -> Option<&'a [ItemId]> {
        let end = *self.ends.next()? as usize;
        let t = self.items.get(self.start..end)?;
        self.start = end;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Transactions<'_> {}

/// Serializes one page's transactions into its fixed-size payload (the
/// slot without its CRC trailer). Returns `None` when the transactions
/// exceed `page_bytes` (the caller rejects oversized transactions before
/// ever buffering them).
pub fn encode_page_payload(page: &FlatPage, page_bytes: usize) -> Option<Vec<u8>> {
    if page.payload_bytes() > page_bytes {
        return None;
    }
    let mut buf = Vec::with_capacity(page_bytes);
    buf.extend_from_slice(&(page.len() as u32).to_le_bytes());
    for t in page {
        buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
        for item in t {
            buf.extend_from_slice(&item.0.to_le_bytes());
        }
    }
    buf.resize(page_bytes, 0);
    Some(buf)
}

/// Decodes a page payload (the slot without its CRC trailer) into one
/// [`FlatPage`], validating structure and the item domain: a payload
/// shorter than its words claim, a transaction count or length the
/// payload cannot hold, an item outside `0..m`, or items that are not
/// strictly increasing are all errors.
pub fn decode_page(buf: &[u8], m: usize) -> io::Result<FlatPage> {
    if buf.len() > MAX_PAGE_BYTES as usize {
        return Err(bad(format!(
            "page payload of {} bytes exceeds the format cap",
            buf.len()
        )));
    }
    let mut words = buf.chunks_exact(4).map(le_u32);
    let n = words.next().ok_or_else(|| bad("page truncated"))? as usize;
    if n > buf.len() / 4 {
        // Each transaction costs at least 4 payload bytes (its len word —
        // empty transactions are legal); an n beyond that is corruption.
        return Err(bad(format!("page claims {n} transactions")));
    }
    // Every word after the count and the n length words can be an item.
    let mut items = Vec::with_capacity(words.len().saturating_sub(n));
    let mut ends = Vec::with_capacity(n);
    for _ in 0..n {
        let len = words.next().ok_or_else(|| bad("page truncated"))? as usize;
        if len > words.len() {
            return Err(bad(format!("transaction claims {len} items")));
        }
        let mut prev: Option<u32> = None;
        for id in words.by_ref().take(len) {
            if id as usize >= m {
                return Err(bad(format!("page references item {id} outside 0..{m}")));
            }
            if prev.is_some_and(|p| id <= p) {
                return Err(bad("page transaction items not strictly increasing"));
            }
            prev = Some(id);
            items.push(ItemId(id));
        }
        // At most MAX_PAGE_BYTES / 4 items: the offset fits in a u32.
        ends.push(items.len() as u32);
    }
    Ok(FlatPage { items, ends })
}

/// The aggregate summary of a page's transactions (what the index stores).
pub(crate) fn summarize(page: &FlatPage) -> PageSummary {
    let mut counts: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for item in page.items() {
        *counts.entry(item.0).or_insert(0) += 1;
    }
    let mut supports: Vec<(u32, u32)> = counts.into_iter().collect();
    supports.sort_unstable();
    PageSummary {
        transactions: page.len() as u32,
        supports,
    }
}

/// Serializes the per-page aggregate index.
pub(crate) fn encode_index(summaries: &[PageSummary]) -> Vec<u8> {
    let mut buf = Vec::new();
    for s in summaries {
        buf.extend_from_slice(&s.transactions.to_le_bytes());
        buf.extend_from_slice(&(s.supports.len() as u32).to_le_bytes());
        for &(item, count) in &s.supports {
            buf.extend_from_slice(&item.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
    }
    buf
}

/// Parses the index region. Rejects out-of-domain items, summaries wider
/// than the item domain, and trailing bytes (which a clean writer never
/// leaves and truncation/corruption commonly produce).
pub(crate) fn parse_index(bytes: &[u8], m: usize, num_pages: u64) -> io::Result<Vec<PageSummary>> {
    let mut pos = 0usize;
    let take_u32 = |pos: &mut usize| -> io::Result<u32> {
        let end = *pos + 4;
        if end > bytes.len() {
            return Err(bad("index truncated"));
        }
        let v = le_u32(&bytes[*pos..end]);
        *pos = end;
        Ok(v)
    };
    let mut summaries = Vec::with_capacity(usize::try_from(num_pages).unwrap_or(0).min(1 << 20));
    for _ in 0..num_pages {
        let transactions = take_u32(&mut pos)?;
        let entries = take_u32(&mut pos)? as usize;
        if entries > m {
            return Err(bad(format!(
                "index summary claims {entries} distinct items over a domain of {m}"
            )));
        }
        let mut supports = Vec::with_capacity(entries);
        let mut prev: Option<u32> = None;
        for _ in 0..entries {
            let item = take_u32(&mut pos)?;
            let count = take_u32(&mut pos)?;
            if item as usize >= m {
                return Err(bad(format!("index references item {item} outside 0..{m}")));
            }
            if prev.is_some_and(|p| item <= p) {
                return Err(bad("index summary items not strictly increasing"));
            }
            prev = Some(item);
            supports.push((item, count));
        }
        summaries.push(PageSummary {
            transactions,
            supports,
        });
    }
    if pos != bytes.len() {
        return Err(bad(format!(
            "{} trailing bytes after the index",
            bytes.len() - pos
        )));
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload of little-endian words, zero-padded to `page_bytes`.
    fn payload(words: &[u32], page_bytes: usize) -> Vec<u8> {
        let mut buf: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        buf.resize(page_bytes.max(buf.len()), 0);
        buf
    }

    fn decode_err(buf: &[u8], m: usize) -> String {
        let err = decode_page(buf, m).expect_err("malformed page");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn every_malformation_class_keeps_its_message() {
        assert_eq!(decode_err(&[1, 0], 10), "page truncated");
        assert_eq!(decode_err(&payload(&[1], 4), 10), "page truncated");
        assert_eq!(decode_err(&payload(&[2, 0], 8), 10), "page truncated");
        assert_eq!(
            decode_err(&payload(&[100], 64), 10),
            "page claims 100 transactions"
        );
        assert_eq!(
            decode_err(&payload(&[1, 15], 64), 10),
            "transaction claims 15 items"
        );
        assert_eq!(
            decode_err(&payload(&[2, 1, 3, 1, 7], 64), 5),
            "page references item 7 outside 0..5"
        );
        for items in [[3, 3], [4, 3]] {
            assert_eq!(
                decode_err(&payload(&[1, 2, items[0], items[1]], 64), 10),
                "page transaction items not strictly increasing"
            );
        }
        // The last word a transaction may claim is the payload's last.
        let full = decode_page(
            &payload(&[1, 14, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], 64),
            20,
        )
        .expect("a transaction filling the page");
        assert_eq!(full.items().len(), 14);
    }

    #[test]
    fn flat_pages_reencode_to_their_payload_bytes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let m = 300;
        let page_bytes = 512;
        let mut rng = StdRng::seed_from_u64(15);
        let mut cases: Vec<FlatPage> = vec![FlatPage::default()];
        // A page of empty transactions, and one whose single transaction
        // fills the slot to the last byte.
        let mut empties = FlatPage::default();
        for _ in 0..5 {
            assert!(empties.push(&[]));
        }
        cases.push(empties);
        let mut full = FlatPage::default();
        let widest: Vec<ItemId> = (0..(page_bytes as u32 - 8) / 4).map(ItemId).collect();
        assert!(full.push(&widest));
        cases.push(full);
        for _ in 0..200 {
            let mut page = FlatPage::default();
            loop {
                let len = rng.gen_range(0..12usize);
                let mut ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0..m as u32)).collect();
                ids.sort_unstable();
                ids.dedup();
                if page.payload_bytes() + 4 + 4 * ids.len() > page_bytes {
                    break;
                }
                let t: Vec<ItemId> = ids.into_iter().map(ItemId).collect();
                assert!(page.push(&t));
            }
            cases.push(page);
        }
        for page in cases {
            let bytes = encode_page_payload(&page, page_bytes).expect("fits");
            assert_eq!(bytes.len(), page_bytes);
            let decoded = decode_page(&bytes, m).expect("decodes");
            assert_eq!(decoded, page);
            assert_eq!(encode_page_payload(&decoded, page_bytes), Some(bytes));
            let summary = summarize(&decoded);
            assert_eq!(summary.transactions as usize, page.len());
            let mut dense = vec![0u32; m];
            for t in &page {
                for item in t {
                    dense[item.index()] += 1;
                }
            }
            let expected: Vec<(u32, u32)> =
                (0..m as u32).zip(dense).filter(|&(_, c)| c > 0).collect();
            assert_eq!(summary.supports, expected);
        }
        assert_eq!(
            encode_page_payload(&FlatPage::default(), 3),
            None,
            "too small"
        );
    }
}
