//! OSSM persistence.
//!
//! The OSSM is a compile-time artifact: "a fixed structure that can be
//! computed once at compile-time (pre-processing), and can be used
//! regardless of how the support threshold is changed dynamically"
//! (Section 3). That only pays off if the structure outlives the process —
//! this module gives it a tiny self-describing binary format.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "OSSM-MAP", version u32 = 2, m u32, n u64,
//! per segment: transactions u64, m × u64 singleton supports,
//! crc u32 (CRC32C of every preceding byte)
//! ```
//!
//! Version 2 is the only version read or written: a map of any other
//! version (the old v1 had no trailer) is refused, and so is a map whose
//! trailer does not verify — a silently corrupt segment support would
//! turn eq. (1) from an upper bound into a lie, which is worse than no
//! map at all. [`save_atomic`]
//! additionally writes through a `tmp + fsync + rename` sequence so a
//! crash mid-save can never leave a half-written map at the target path.

use std::io::{self, Read, Write};
use std::path::Path;

use ossm_data::checksum::{Crc32cReader, Crc32cWriter};

use crate::segmentation::Aggregate;
use crate::ssm::Ossm;

/// On-disk magic for persisted OSSM maps (lint rule R5: defined once here).
pub const MAGIC: &[u8; 8] = b"OSSM-MAP";
const V2: u32 = 2;
/// Cap on the item-domain size accepted from a header (matches the page
/// store's cap); a corrupt `m` otherwise drives huge allocations.
const MAX_ITEMS: usize = 1 << 24;
/// Cap on the segment count accepted from a header.
const MAX_SEGMENTS: u64 = 1 << 32;

/// Serializes an OSSM to `w` (format v2, checksummed).
pub fn write_ossm<W: Write>(w: &mut W, ossm: &Ossm) -> io::Result<()> {
    let mut w = Crc32cWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&V2.to_le_bytes())?;
    w.write_all(&(ossm.num_items() as u32).to_le_bytes())?;
    w.write_all(&(ossm.num_segments() as u64).to_le_bytes())?;
    for seg in ossm.segments() {
        w.write_all(&seg.transactions().to_le_bytes())?;
        for &s in seg.supports() {
            w.write_all(&s.to_le_bytes())?;
        }
    }
    let crc = w.digest();
    w.get_mut().write_all(&crc.to_le_bytes())
}

/// Deserializes an OSSM from `r`, verifying its checksum trailer. Any
/// version other than 2 is an error. Header fields are sanity-capped so
/// a corrupt or hostile header errors instead of OOM-ing.
pub fn read_ossm<R: Read>(r: &mut R) -> io::Result<Ossm> {
    let mut r = Crc32cReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an OSSM file (bad magic)"));
    }
    let version = read_u32(&mut r)?;
    if version != V2 {
        return Err(bad(format!("unsupported OSSM version {version}")));
    }
    let m = read_u32(&mut r)? as usize;
    if m > MAX_ITEMS {
        return Err(bad(format!("implausible item domain m = {m}")));
    }
    let n = read_u64(&mut r)?;
    if n == 0 {
        return Err(bad("an OSSM must have at least one segment"));
    }
    if n > MAX_SEGMENTS {
        return Err(bad(format!("implausible segment count {n}")));
    }
    let n = usize::try_from(n).map_err(|_| bad("segment count overflows usize"))?;
    let mut segments = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let transactions = read_u64(&mut r)?;
        // Grow element-wise with a capped pre-allocation: a lying header
        // runs into EOF, not into a multi-gigabyte reservation.
        let mut supports = Vec::with_capacity(m.min(1 << 20));
        for _ in 0..m {
            supports.push(read_u64(&mut r)?);
        }
        segments.push(Aggregate::new(supports, transactions));
    }
    let expected = r.digest();
    let mut trailer = [0u8; 4];
    r.get_mut().read_exact(&mut trailer)?;
    if u32::from_le_bytes(trailer) != expected {
        return Err(bad("OSSM checksum mismatch: the map is corrupt"));
    }
    // Anything after the trailer is not ours.
    if r.get_mut().read(&mut [0u8; 1])? != 0 {
        return Err(bad("trailing bytes after the OSSM"));
    }
    Ok(Ossm::from_aggregates(segments))
}

/// Writes an OSSM to the file at `path`.
pub fn save(path: &Path, ossm: &Ossm) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_ossm(&mut f, ossm)?;
    f.flush()
}

/// Encodes an OSSM to the exact byte sequence [`save_atomic`] would
/// write — for callers that need to inspect (e.g. checksum) the bytes
/// before committing them with [`save_atomic_bytes`].
pub fn encode_ossm(ossm: &Ossm) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_ossm(&mut buf, ossm)?;
    Ok(buf)
}

/// Writes an OSSM to the file at `path` crash-safely: the bytes go to a
/// temporary sibling first, are fsynced, and are renamed into place (with
/// a directory fsync), so at every instant `path` holds either the old
/// complete map or the new complete map — never a torn mixture.
pub fn save_atomic(path: &Path, ossm: &Ossm) -> io::Result<()> {
    save_atomic_bytes(path, &encode_ossm(ossm)?)
}

/// [`save_atomic`] for bytes already produced by [`encode_ossm`].
pub fn save_atomic_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("ossm-tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Persist the rename itself; failures are surfaced, except on
        // platforms where directories cannot be fsynced.
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all()?;
        }
    }
    Ok(())
}

/// Reads an OSSM from the file at `path`.
pub fn load(path: &Path) -> io::Result<Ossm> {
    // A loaded map is core.seg memory, same as a freshly built one.
    let _mem = ossm_obs::alloc_scope("core.seg");
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_ossm(&mut f)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OssmBuilder;
    use ossm_data::gen::QuestConfig;
    use ossm_data::PageStore;

    fn sample_ossm() -> Ossm {
        let d = QuestConfig {
            num_transactions: 300,
            num_items: 25,
            ..QuestConfig::small()
        }
        .generate();
        let store = PageStore::with_page_count(d, 12);
        OssmBuilder::new(5).build(&store).0
    }

    #[test]
    fn roundtrip_preserves_the_map() {
        let ossm = sample_ossm();
        let mut buf = Vec::new();
        write_ossm(&mut buf, &ossm).expect("write");
        let back = read_ossm(&mut buf.as_slice()).expect("read");
        assert_eq!(back, ossm);
        // Bounds agree, of course.
        let probe = ossm_data::Itemset::new([1, 7, 13]);
        assert_eq!(back.upper_bound(&probe), ossm.upper_bound(&probe));
    }

    #[test]
    fn v1_maps_are_refused() {
        // A whole v1 map — header, one segment of two items, and no
        // checksum trailer — as the old writer laid it out.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        for v in [1u64, 4, 3, 2] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let err = read_ossm(&mut buf.as_slice())
            .map(|_| ())
            .expect_err("v1 is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported OSSM version 1");
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let ossm = sample_ossm();
        let mut buf = Vec::new();
        write_ossm(&mut buf, &ossm).expect("write");
        // Flip one bit in a support value deep in the payload.
        let at = buf.len() / 2;
        buf[at] ^= 0x01;
        let err = read_ossm(&mut buf.as_slice())
            .map(|_| ())
            .expect_err("flip detected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(read_ossm(&mut &b"NOT-OSSM\0\0\0\0"[..]).is_err());
        let ossm = sample_ossm();
        let mut buf = Vec::new();
        write_ossm(&mut buf, &ossm).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(read_ossm(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_zero_segments_and_hostile_headers() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&V2.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_ossm(&mut buf.as_slice())
            .map(|_| ())
            .expect_err("no segments");
        assert!(err.to_string().contains("at least one segment"), "{err}");
        // A header claiming 4 billion items over a tiny payload must
        // error without attempting the allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&V2.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        let err = read_ossm(&mut buf.as_slice())
            .map(|_| ())
            .expect_err("capped");
        assert!(err.to_string().contains("implausible"), "{err}");
        // Same for the segment count.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&V2.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_ossm(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let ossm = sample_ossm();
        let mut buf = Vec::new();
        write_ossm(&mut buf, &ossm).expect("write");
        buf.extend_from_slice(b"junk");
        let err = read_ossm(&mut buf.as_slice())
            .map(|_| ())
            .expect_err("junk detected");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ossm-persist-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("map.ossm");
        let ossm = sample_ossm();
        save(&path, &ossm).expect("save");
        assert_eq!(load(&path).expect("load"), ossm);
        std::fs::remove_file(&path).ok();
    }

    /// The exact bytes `save` writes for a fixed two-segment map (one
    /// support above `u32::MAX`), pinned so that a change to how the map
    /// is held in memory cannot change the file format.
    #[test]
    fn saved_bytes_are_pinned() {
        /// CRC32C of the 88 payload bytes below.
        const CRC_TRAILER: u32 = 0xFCDE_F7ED;
        let ossm = Ossm::from_aggregates(vec![
            Aggregate::new(vec![3, 0, 1 << 33], 7),
            Aggregate::new(vec![1, 2, 5], 9),
        ]);
        let mut expected = MAGIC.to_vec();
        expected.extend_from_slice(&V2.to_le_bytes());
        expected.extend_from_slice(&3u32.to_le_bytes());
        expected.extend_from_slice(&2u64.to_le_bytes());
        for v in [7u64, 3, 0, 1 << 33, 9, 1, 2, 5] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        expected.extend_from_slice(&CRC_TRAILER.to_le_bytes());
        let dir = std::env::temp_dir().join("ossm-persist-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("pinned.ossm");
        save(&path, &ossm).expect("save");
        assert_eq!(std::fs::read(&path).expect("read back"), expected);
        assert_eq!(load(&path).expect("load"), ossm);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_save_roundtrips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("ossm-persist-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("atomic.ossm");
        let ossm = sample_ossm();
        save_atomic(&path, &ossm).expect("save");
        assert_eq!(load(&path).expect("load"), ossm);
        assert!(!path.with_extension("ossm-tmp").exists());
        std::fs::remove_file(&path).ok();
    }
}
