//! CRC32C (Castagnoli) checksums for the on-disk formats.
//!
//! Every persistent artifact in the workspace — `OSSMPAGE` stores,
//! `OSSM-MAP` snapshots, and the incremental-append WAL — protects its
//! bytes with CRC32C. The polynomial (0x1EDC6F41, reflected 0x82F63B78)
//! is the one used by iSCSI, ext4, and most storage engines: it detects
//! all single-bit errors, all double-bit errors within the codeword
//! lengths we use, and any burst up to 32 bits — exactly the torn-write
//! and bit-rot failure modes the durability layer defends against
//! (DESIGN.md §9).
//!
//! The CRC runs on every buffer-pool miss (one 4 KiB page slot), on every
//! WAL record and on every snapshot, so it is on the out-of-core hot
//! path. The implementation is slice-by-8 in safe Rust: eight 256-entry
//! tables, built at compile time, fold eight input bytes per step with
//! eight independent lookups, and a byte-at-a-time tail handles the last
//! `len % 8` bytes. Both loops compute the same register update, so the
//! checksum of a byte string does not depend on how [`Crc32c::update`]
//! calls split it. (The workspace forbids `unsafe`, which rules out the
//! SSE4.2 `crc32` instruction.)

/// `TABLES[0][b]` is the CRC of byte `b` fed into an all-zero register
/// (reflected polynomial 0x82F63B78); `TABLES[k][b]` is that register
/// advanced by `k` further zero bytes, which is what slice-by-8 needs to
/// fold byte `7 − k` of a word in one lookup.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One-shot CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental CRC32C state, for hashing data as it streams past.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Fresh state (equivalent to hashing zero bytes).
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    // INFALLIBLE: every table index is masked to 0xFF or is a `u32`
    // shifted right by 24, and each table holds 256 entries.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut le = [0u8; 8];
            le.copy_from_slice(word);
            let w = u64::from_le_bytes(le);
            let lo = (w as u32) ^ crc;
            let hi = (w >> 32) as u32;
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t0[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (does not consume the state;
    /// more updates may follow).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Crc32c::new()
    }
}

/// A [`std::io::Write`] adapter that checksums everything written through
/// it. Used by the persistence codecs to compute a file's trailer CRC in
/// one pass with the serialization itself.
pub struct Crc32cWriter<W> {
    inner: W,
    crc: Crc32c,
}

impl<W: std::io::Write> Crc32cWriter<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Crc32cWriter {
            inner,
            crc: Crc32c::new(),
        }
    }

    /// CRC of every byte successfully written so far.
    pub fn digest(&self) -> u32 {
        self.crc.finish()
    }

    /// Unwraps the adapter, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// The underlying writer (e.g. to append an un-checksummed trailer).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: std::io::Write> std::io::Write for Crc32cWriter<W> {
    // INFALLIBLE: `Write::write` returns n <= buf.len() by contract.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A [`std::io::Read`] adapter that checksums everything read through it,
/// so a decoder can verify a trailer CRC after parsing the payload.
pub struct Crc32cReader<R> {
    inner: R,
    crc: Crc32c,
}

impl<R: std::io::Read> Crc32cReader<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Crc32cReader {
            inner,
            crc: Crc32c::new(),
        }
    }

    /// CRC of every byte successfully read so far.
    pub fn digest(&self) -> u32 {
        self.crc.finish()
    }

    /// The underlying reader (e.g. to read the un-checksummed trailer).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: std::io::Read> std::io::Read for Crc32cReader<R> {
    // INFALLIBLE: `Read::read` returns n <= buf.len() by contract.
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn matches_the_reference_vector() {
        // The canonical CRC32C check value (RFC 3720 appendix / every
        // storage engine's self-test).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input_and_zero_runs() {
        assert_eq!(crc32c(b""), 0);
        // 32 bytes of zeros — the iSCSI test vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut crc = Crc32c::new();
        for chunk in data.chunks(7) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32c(&data));
    }

    /// The byte-at-a-time register update slice-by-8 must reproduce.
    fn reference_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    fn reference(bytes: &[u8]) -> u32 {
        !reference_update(!0, bytes)
    }

    #[test]
    fn the_byte_table_is_the_bitwise_crc() {
        for (i, &entry) in TABLES[0].iter().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0x82F6_3B78 & 0u32.wrapping_sub(crc & 1));
            }
            assert_eq!(entry, crc, "byte {i}");
        }
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x05EE_DC3C);
        let data: Vec<u8> = (0..9000 + 8).map(|_| rng.gen::<u32>() as u8).collect();
        // Every length up to a few words, from every alignment mod 8.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32c(bytes), reference(bytes), "start {start}, len {len}");
            }
        }
        for case in 0..300 {
            let start = rng.gen_range(0..8usize);
            let len = rng.gen_range(0..=9000usize);
            let bytes = &data[start..start + len];
            let expected = reference(bytes);
            assert_eq!(crc32c(bytes), expected, "case {case}: one shot");
            // Random split points: the register must not care where
            // `update` calls begin and end.
            let mut crc = Crc32c::new();
            let mut at = 0;
            while at < len {
                let step = rng.gen_range(1..=len - at);
                crc.update(&bytes[at..at + step]);
                at += step;
            }
            assert_eq!(crc.finish(), expected, "case {case}: random splits");
            // Four bytes at a time, the way a stream of `u32`s is hashed.
            let mut crc = Crc32c::new();
            for word in bytes.chunks(4) {
                crc.update(word);
            }
            assert_eq!(crc.finish(), expected, "case {case}: 4-byte updates");
        }
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        let data = b"the OSSM is a persistent artifact".to_vec();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn writer_and_reader_adapters_agree() {
        let payload = b"checksummed page payload".to_vec();
        let mut w = Crc32cWriter::new(Vec::new());
        w.write_all(&payload).unwrap();
        assert_eq!(w.digest(), crc32c(&payload));
        let bytes = w.into_inner();
        let mut r = Crc32cReader::new(bytes.as_slice());
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload);
        assert_eq!(r.digest(), crc32c(&payload));
    }
}
