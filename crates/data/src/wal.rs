//! A write-ahead append log for crash-safe incremental ingestion.
//!
//! The incremental OSSM path (`IncrementalOssm` in `ossm-core`) absorbs
//! batches of transactions between snapshots. If the process dies after
//! an append was acknowledged but before the next snapshot, that batch
//! must not be lost — eq. (1) bounds computed from a stale map would not
//! cover the appended data. The WAL closes the window: every append is
//! written here, checksummed and fsynced, *before* it is applied to the
//! in-memory map, and replayed against the last good snapshot on reopen.
//!
//! # On-disk format
//!
//! ```text
//! header : magic "OSSM-WAL" (8 bytes)
//! record : payload_len u32 | crc u32 (CRC32C of payload) | payload
//! ```
//!
//! All integers little-endian. Records are opaque payloads to this layer;
//! the caller defines their encoding.
//!
//! # Recovery semantics
//!
//! [`WriteAheadLog::open`] parses records front to back and **truncates
//! at the first record that is short, oversized, or fails its CRC** — a
//! crash mid-append leaves exactly such a torn tail, and everything
//! before it was fsynced and is intact. A torn tail therefore never
//! poisons earlier records, and re-appending the lost batch is the
//! caller's (acknowledged-write) contract to its own client. Replays are
//! counted on the `data.wal.replays` counter.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::checksum::crc32c;
use crate::fault;

/// Magic prefixing every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"OSSM-WAL";

/// Cap on a single record's payload (64 MiB); a length field beyond it is
/// corruption, and bounding it keeps recovery from allocating garbage.
const MAX_RECORD_BYTES: u32 = 1 << 26;

/// Reopens that replayed at least one record.
static REPLAYS: ossm_obs::Counter = ossm_obs::Counter::new("data.wal.replays");

/// What [`WriteAheadLog::open`] found in an existing log.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Intact record payloads, in append order. Replay these against the
    /// last snapshot before acknowledging new work.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn/corrupt tail was cut off (evidence of a crash
    /// mid-append; the cut bytes were never acknowledged as durable).
    pub truncated_tail: bool,
}

/// An append-only, checksummed log file with group commit.
///
/// # Group commit
///
/// Records are staged with [`append_no_sync`](WriteAheadLog::append_no_sync)
/// and made durable together by one [`sync`](WriteAheadLog::sync) — the
/// `ossm-serve` group committer stages every record of a group before
/// that single fsync. None of the staged records may be acknowledged
/// before the sync returns `Ok`.
///
/// # Failure handling
///
/// A failed or torn staged write is rolled back immediately: the file is
/// truncated to the durable prefix so a *later* append lands where
/// recovery will find it. (Without the rollback, a successful append
/// after a failed one would sit beyond torn bytes, and
/// [`open`](WriteAheadLog::open) — which truncates at the first bad
/// record — would silently drop it despite its fsync.) If the rollback
/// itself fails, or an fsync fails (after which the kernel may have
/// dropped dirty pages, so the staged region's durability is unknowable),
/// the log is **poisoned**: every later append errors, and the caller
/// must degrade to read-only until the process restarts and recovery
/// re-establishes the durable prefix.
pub struct WriteAheadLog {
    file: std::fs::File,
    /// Byte length of the durable, intact prefix (header + whole records).
    end: u64,
    /// Bytes written past `end` but not yet fsynced (staged records).
    staged: u64,
    /// Set when the file's tail state can no longer be trusted; see the
    /// type docs. Poisoning is permanent for this handle.
    poisoned: bool,
}

impl WriteAheadLog {
    /// Opens (creating if absent) the log at `path` and recovers every
    /// intact record. A torn tail — the signature of a crash mid-append —
    /// is truncated away; see the module docs for why that is safe.
    // INFALLIBLE: the only indexes are constant offsets into the fixed
    // `[u8; 8]` record header; every length read from disk is bounds-
    // checked against the remaining file before use.
    pub fn open(path: &Path) -> io::Result<(Self, WalRecovery)> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < WAL_MAGIC.len() as u64 {
            // Fresh file, or a crash tore the header itself: no record
            // can have been acknowledged, so start clean.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            return Ok((
                WriteAheadLog {
                    file,
                    end: WAL_MAGIC.len() as u64,
                    staged: 0,
                    poisoned: false,
                },
                WalRecovery::default(),
            ));
        }
        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an OSSM write-ahead log",
            ));
        }
        let mut recovery = WalRecovery::default();
        let mut pos = WAL_MAGIC.len() as u64;
        loop {
            let remaining = file_len - pos;
            if remaining == 0 {
                break;
            }
            if remaining < 8 {
                recovery.truncated_tail = true;
                break;
            }
            let mut head = [0u8; 8];
            fault::read_exact_tagged(&mut file, "data.wal.read", &mut head)?;
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            if len > MAX_RECORD_BYTES || u64::from(len) > remaining - 8 {
                recovery.truncated_tail = true;
                break;
            }
            let mut payload = vec![0u8; len as usize];
            fault::read_exact_tagged(&mut file, "data.wal.read", &mut payload)?;
            if crc32c(&payload) != crc {
                recovery.truncated_tail = true;
                break;
            }
            pos += 8 + u64::from(len);
            recovery.records.push(payload);
        }
        if recovery.truncated_tail {
            file.set_len(pos)?;
            file.sync_all()?;
        }
        if !recovery.records.is_empty() {
            REPLAYS.incr();
        }
        file.seek(SeekFrom::Start(pos))?;
        Ok((
            WriteAheadLog {
                file,
                end: pos,
                staged: 0,
                poisoned: false,
            },
            recovery,
        ))
    }

    /// Number of durable bytes (for tests and diagnostics).
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// Whether a failed rollback or fsync has made the tail state
    /// untrustworthy; see the type docs. A poisoned log only errors on
    /// appends — already-durable records are unaffected.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Stages one record *without* making it durable. The record is not
    /// crash-safe — and must not be acknowledged to anyone — until a
    /// following [`sync`](WriteAheadLog::sync) returns `Ok`. On `Err`
    /// the staged bytes (this record's and any earlier unsynced ones)
    /// are rolled back.
    pub fn append_no_sync(&mut self, payload: &[u8]) -> io::Result<()> {
        self.check_poisoned()?;
        if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("WAL record of {} bytes exceeds the cap", payload.len()),
            ));
        }
        let _mem = ossm_obs::alloc_scope("data.wal");
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32c(payload).to_le_bytes());
        record.extend_from_slice(payload);
        ossm_obs::recorder::record_event(
            "data.wal.append",
            ossm_obs::recorder::EventKind::WalAppend,
            record.len() as u64,
        );
        if let Err(e) = fault::write_all_tagged(&mut self.file, "data.wal.append", &record) {
            self.rollback();
            return Err(e);
        }
        self.staged += record.len() as u64;
        Ok(())
    }

    /// Makes every staged record durable with a single fsync (the group
    /// commit point). On `Ok` all records staged since the last sync
    /// survive a crash. On `Err` the staged region is lost *and the log
    /// is poisoned*: after a failed fsync the kernel may have dropped
    /// the dirty pages, so retrying cannot re-establish durability.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        match fault::sync_data_tagged(&self.file, "data.wal.sync") {
            Ok(()) => {
                self.end += self.staged;
                self.staged = 0;
                Ok(())
            }
            Err(e) => {
                // Best-effort removal of the staged (never-acknowledged)
                // bytes; poisoned regardless, because neither the staged
                // writes nor this truncate can be known durable now.
                self.rollback();
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Discards staged (unsynced) bytes so the next append lands at the
    /// durable prefix. Poisons the log if the truncate/seek fails.
    fn rollback(&mut self) {
        self.staged = 0;
        let ok = self.file.set_len(self.end).is_ok()
            && self.file.seek(SeekFrom::Start(self.end)).is_ok();
        if !ok {
            self.poisoned = true;
        }
    }

    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "WAL is poisoned by an earlier fsync/rollback failure; \
                 reopen to recover the durable prefix",
            ));
        }
        Ok(())
    }

    /// Empties the log (all records are now reflected in a durable
    /// snapshot). Callers fsync the snapshot *before* resetting.
    pub fn reset(&mut self) -> io::Result<()> {
        self.check_poisoned()?;
        self.staged = 0;
        self.end = WAL_MAGIC.len() as u64;
        self.file.set_len(self.end)?;
        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ossm-wal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// Stages one record and syncs it: a group commit of one.
    fn commit(wal: &mut WriteAheadLog, payload: &[u8]) -> io::Result<()> {
        wal.append_no_sync(payload)?;
        wal.sync()
    }

    #[test]
    fn appends_recover_in_order() {
        let path = tmp("order.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, rec) = WriteAheadLog::open(&path).expect("create");
        assert!(rec.records.is_empty() && !rec.truncated_tail);
        commit(&mut wal, b"first").expect("append");
        commit(&mut wal, b"").expect("empty records are fine");
        commit(&mut wal, b"third").expect("append");
        drop(wal);
        let (_, rec) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"first".to_vec(), vec![], b"third".to_vec()]
        );
        assert!(!rec.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
        commit(&mut wal, b"durable").expect("append");
        commit(&mut wal, b"doomed-record").expect("append");
        drop(wal);
        // Simulate a crash that tore the second record mid-payload.
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        file.set_len(clean_len - 5).expect("tear");
        drop(file);
        let (mut wal, rec) = WriteAheadLog::open(&path).expect("recover");
        assert_eq!(rec.records, vec![b"durable".to_vec()]);
        assert!(rec.truncated_tail);
        // The log is usable again immediately.
        commit(&mut wal, b"after-crash").expect("append");
        drop(wal);
        let (_, rec) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"durable".to_vec(), b"after-crash".to_vec()]
        );
        assert!(!rec.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_cuts_the_log_there() {
        let path = tmp("flip.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
        commit(&mut wal, b"one").expect("append");
        commit(&mut wal, b"two").expect("append");
        commit(&mut wal, b"three").expect("append");
        drop(wal);
        // Flip a payload bit in record two.
        let mut bytes = std::fs::read(&path).expect("read");
        let rec_two_payload = 8 + (8 + 3) + 8;
        bytes[rec_two_payload] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let (_, rec) = WriteAheadLog::open(&path).expect("recover");
        assert_eq!(rec.records, vec![b"one".to_vec()], "cut at the corruption");
        assert!(rec.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_length_field_does_not_allocate() {
        let path = tmp("hostile.wal");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"tiny");
        std::fs::write(&path, &bytes).expect("write");
        let (_, rec) = WriteAheadLog::open(&path).expect("recover");
        assert!(rec.records.is_empty());
        assert!(rec.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_stages_then_syncs() {
        let path = tmp("group.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
        wal.append_no_sync(b"alpha").expect("stage");
        wal.append_no_sync(b"beta").expect("stage");
        assert_eq!(wal.len_bytes(), 8, "nothing durable before the sync");
        wal.sync().expect("group commit");
        assert_eq!(wal.len_bytes(), 8 + (8 + 5) + (8 + 4));
        drop(wal);
        let (_, rec) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(rec.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_forgets_everything() {
        let path = tmp("reset.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
        commit(&mut wal, b"snapshotted").expect("append");
        wal.reset().expect("reset");
        commit(&mut wal, b"fresh").expect("append");
        drop(wal);
        let (_, rec) = WriteAheadLog::open(&path).expect("reopen");
        assert_eq!(rec.records, vec![b"fresh".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = tmp("foreign.wal");
        std::fs::write(&path, b"definitely not a log").expect("write");
        assert!(WriteAheadLog::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "faults")]
    mod faults {
        use super::*;
        use crate::fault::FaultPlan;

        #[test]
        fn torn_append_rolls_back_to_the_previous_record() {
            let _lock = crate::fault::tests::serialize_tests();
            let path = tmp("injected.wal");
            std::fs::remove_file(&path).ok();
            let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
            commit(&mut wal, b"safe").expect("append");
            let mut plan = FaultPlan::new();
            plan.tear_write("data.wal.append", 1, 6); // mid-header tear
            let guard = plan.arm();
            let err = commit(&mut wal, b"torn-away").expect_err("torn append errors");
            assert!(err.to_string().contains("torn"), "{err}");
            assert_eq!(guard.fired(), 1);
            drop(guard);
            drop(wal);
            // The rollback removed the torn bytes in-process, so reopen
            // sees a clean log — no truncation needed.
            let (_, rec) = WriteAheadLog::open(&path).expect("recover");
            assert_eq!(rec.records, vec![b"safe".to_vec()]);
            assert!(!rec.truncated_tail);
            std::fs::remove_file(&path).ok();
        }

        /// Regression test for the append-after-torn-append bug: before
        /// the rollback existed, a failed append left torn bytes in the
        /// file, a *successful* fsynced append then landed after them,
        /// and recovery — which truncates at the first bad record —
        /// silently dropped the acknowledged record.
        #[test]
        fn append_after_torn_append_is_recovered() {
            let _lock = crate::fault::tests::serialize_tests();
            let path = tmp("after-tear.wal");
            std::fs::remove_file(&path).ok();
            let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
            commit(&mut wal, b"first").expect("append");
            let mut plan = FaultPlan::new();
            plan.tear_write("data.wal.append", 1, 3);
            let guard = plan.arm();
            commit(&mut wal, b"torn").expect_err("torn append errors");
            drop(guard);
            commit(&mut wal, b"second").expect("append after rollback");
            drop(wal);
            let (_, rec) = WriteAheadLog::open(&path).expect("recover");
            assert_eq!(
                rec.records,
                vec![b"first".to_vec(), b"second".to_vec()],
                "the acked post-failure append must survive recovery"
            );
            assert!(!rec.truncated_tail);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn failed_group_sync_poisons_the_log() {
            let _lock = crate::fault::tests::serialize_tests();
            let path = tmp("poison.wal");
            std::fs::remove_file(&path).ok();
            let (mut wal, _) = WriteAheadLog::open(&path).expect("create");
            commit(&mut wal, b"durable").expect("append");
            let mut plan = FaultPlan::new();
            plan.fail_write("data.wal.sync", 1);
            let guard = plan.arm();
            wal.append_no_sync(b"staged").expect("stage");
            wal.sync().expect_err("injected sync failure");
            assert_eq!(guard.fired(), 1);
            drop(guard);
            assert!(wal.is_poisoned());
            let err = commit(&mut wal, b"more").expect_err("poisoned log rejects appends");
            assert!(err.to_string().contains("poisoned"), "{err}");
            drop(wal);
            // Reopen re-establishes the durable prefix; the staged
            // record was never acknowledged, so dropping it is correct.
            let (mut wal, rec) = WriteAheadLog::open(&path).expect("recover");
            assert_eq!(rec.records, vec![b"durable".to_vec()]);
            assert!(!wal.is_poisoned());
            commit(&mut wal, b"fresh").expect("recovered log accepts appends");
            std::fs::remove_file(&path).ok();
        }
    }
}
