//! Crash-safe incremental OSSM maintenance.
//!
//! [`crate::incremental::IncrementalOssm`] keeps the map current as data
//! streams in, but it lives in memory: a crash loses every append since
//! the last explicit save, and a crash *during* a save could corrupt the
//! saved map itself. [`DurableIncrementalOssm`] closes both holes with
//! the classic snapshot + write-ahead-log pairing:
//!
//! * every append ([`DurableIncrementalOssm::append_batch`]) is first
//!   written to a checksummed, fsynced WAL record ([`ossm_data::wal`])
//!   that carries its client batch id, and only then applied in memory —
//!   an acknowledged append survives any crash;
//! * [`DurableIncrementalOssm::checkpoint`] persists the current map via
//!   [`crate::persist::save_atomic`] (`tmp + fsync + rename`) and then
//!   empties the WAL — at every instant the directory holds a complete
//!   snapshot plus a replayable suffix of appends;
//! * [`DurableIncrementalOssm::open`] loads the last good snapshot and
//!   replays whatever the WAL holds. A torn WAL tail (crash mid-append)
//!   is truncated — that record was never acknowledged.
//!
//! # Why recovery keeps bounds sound
//!
//! Segment aggregates only ever *add* (supports and transaction counts
//! are sums), so replaying a WAL record can never lower a support below
//! its true value — eq. (1) stays an upper bound after any recovery. The
//! one subtle window is a crash *between* the snapshot rename and the WAL
//! reset inside [`checkpoint`](DurableIncrementalOssm::checkpoint): the
//! WAL then still holds appends that the snapshot already contains. The
//! batch ids in the records close it exactly, through the checkpoint's
//! id sidecar: written *before* the snapshot and stamped with the
//! `snapshot_identity` of the bytes about to land, so recovery skips a
//! windowed record only when the on-disk snapshot provably contains it,
//! and replays onto the older snapshot otherwise. Nothing acknowledged is
//! lost and nothing is applied twice, which is what a `duplicate` ack
//! promises the client; only a missing or damaged sidecar degrades to
//! replaying everything, which double-counts — looser, never unsound.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ossm_data::checksum::crc32c;
use ossm_data::wal::WriteAheadLog;

use crate::incremental::IncrementalOssm;
use crate::loss::LossCalculator;
use crate::persist;
use crate::segmentation::Aggregate;
use crate::ssm::Ossm;

/// Snapshot file name inside the map directory.
const SNAPSHOT: &str = "snapshot.ossm";
/// WAL file name inside the map directory.
const WAL: &str = "wal.log";
/// Sidecar holding the recent-batch-id window across checkpoints.
const BATCH_IDS: &str = "batches.ids";
/// Magic prefixing the batch-id sidecar.
const BATCH_IDS_MAGIC: &[u8; 8] = b"OSSMBIDS";
/// Most recent batch ids remembered for retry deduplication. A retry
/// arriving after its id aged out of the window is re-applied — which
/// double-counts (bounds get *looser*, never unsound), so the window is
/// sized far beyond any plausible in-flight retry horizon.
const RECENT_IDS_CAP: usize = 65_536;

/// Wall-clock latency of durable appends (WAL fsync + in-memory apply),
/// the insert-side half of live request telemetry.
static REQ_INSERT_LATENCY: ossm_obs::Latency = ossm_obs::Latency::new("req.insert.latency");
/// Transactions acknowledged through durable appends.
static REQ_INSERT_TRANSACTIONS: ossm_obs::Counter =
    ossm_obs::Counter::new("req.insert.transactions");

/// What [`DurableIncrementalOssm::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded (false: the map started empty).
    pub from_snapshot: bool,
    /// Appends replayed from the WAL on top of the snapshot.
    pub replayed_appends: usize,
    /// Whether a torn WAL tail — the signature of a crash mid-append —
    /// was truncated away.
    pub truncated_tail: bool,
    /// WAL records whose batch id the checkpoint sidecar already held —
    /// their data is in the snapshot, so replaying them would
    /// double-count (the pre-batch-id double-replay window, closed).
    pub skipped_duplicates: usize,
}

/// A bounded FIFO window of recently applied batch ids, for idempotent
/// retries: a client that re-sends an acknowledged batch (because the ack
/// was lost) is answered "duplicate" instead of double-counting it.
#[derive(Default)]
struct RecentBatches {
    set: HashSet<u64>,
    order: VecDeque<u64>,
}

impl RecentBatches {
    fn contains(&self, id: u64) -> bool {
        self.set.contains(&id)
    }

    fn insert(&mut self, id: u64) {
        if !self.set.insert(id) {
            return;
        }
        self.order.push_back(id);
        while self.order.len() > RECENT_IDS_CAP {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
    }
}

/// An [`IncrementalOssm`] whose appends survive crashes.
pub struct DurableIncrementalOssm {
    inner: IncrementalOssm,
    wal: WriteAheadLog,
    snapshot_path: PathBuf,
    ids_path: PathBuf,
    num_items: usize,
    recent: RecentBatches,
    epoch: u64,
}

impl DurableIncrementalOssm {
    /// Opens (creating if needed) the durable map stored in directory
    /// `dir`, recovering from whatever snapshot + WAL state a previous
    /// process — crashed or not — left behind.
    ///
    /// `num_items` and `max_segments` must match across opens of the same
    /// directory; a snapshot with a different item domain or more
    /// segments than the budget is rejected.
    // ENTRYPOINT: recovery root — must survive arbitrary on-disk state.
    pub fn open(
        dir: &Path,
        num_items: usize,
        max_segments: usize,
        calc: LossCalculator,
    ) -> io::Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT);
        let mut report = RecoveryReport::default();
        let mut snapshot_crc = None;
        let inner = if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            snapshot_crc = Some(snapshot_identity(&bytes));
            let snap = persist::read_ossm(&mut bytes.as_slice())?;
            if snap.num_items() != num_items {
                return Err(invalid(format!(
                    "snapshot has {} items, caller expects {num_items}",
                    snap.num_items()
                )));
            }
            if snap.num_segments() > max_segments {
                return Err(invalid(format!(
                    "snapshot has {} segments, over the budget of {max_segments}",
                    snap.num_segments()
                )));
            }
            report.from_snapshot = true;
            IncrementalOssm::from_ossm(&snap, max_segments, calc)
        } else {
            IncrementalOssm::new(max_segments, calc).map_err(|e| invalid(e.to_string()))?
        };
        let (wal, recovery) = WriteAheadLog::open(&dir.join(WAL))?;
        report.truncated_tail = recovery.truncated_tail;
        let ids_path = dir.join(BATCH_IDS);
        let sidecar = load_batch_ids(&ids_path);
        // The id window may be used to *skip* replay only when the
        // sidecar provably describes the snapshot on disk (matching
        // CRC). A mismatch means the process died between the sidecar
        // and snapshot writes of a checkpoint: the WAL records are
        // genuinely absent from the (older) snapshot and must be
        // re-applied even though their ids are windowed. A missing or
        // corrupt sidecar likewise degrades to replay-everything: a
        // batch the snapshot already holds is then re-applied, which
        // double-counts — looser bounds, never unsound.
        let skip_windowed = match (&sidecar, snapshot_crc) {
            (Some((sidecar_crc, _)), Some(file_crc)) => *sidecar_crc == file_crc,
            _ => false,
        };
        let mut recent = RecentBatches::default();
        if let Some((_, ids)) = &sidecar {
            for &id in ids {
                recent.insert(id);
            }
        }
        let mut durable = DurableIncrementalOssm {
            inner,
            wal,
            snapshot_path,
            ids_path,
            num_items,
            recent,
            epoch: 0,
        };
        let mut replayed_ids: HashSet<u64> = HashSet::new();
        for record in &recovery.records {
            let (id, agg) = decode_record(record, num_items)?;
            let duplicate =
                (skip_windowed && durable.recent.contains(id)) || !replayed_ids.insert(id);
            durable.recent.insert(id);
            if duplicate {
                report.skipped_duplicates += 1;
                continue;
            }
            durable.inner.append_aggregate(agg);
            durable.epoch += 1;
            report.replayed_appends += 1;
        }
        Ok((durable, report))
    }

    /// Durably appends a *group* of client-identified aggregates with a
    /// single fsync (group commit): every record is staged in the WAL,
    /// one sync makes them all durable, and only then are they applied
    /// in memory. Returns, per entry, whether it was applied (`true`) or
    /// recognized as a duplicate of a recently applied batch id
    /// (`false`) — duplicates are already durable, so acknowledging them
    /// without re-applying is what makes client retries idempotent.
    ///
    /// On `Err` **nothing** in the group was applied and nothing may be
    /// acknowledged; staged WAL bytes were rolled back (or the WAL
    /// poisoned itself — see [`DurableIncrementalOssm::is_read_only`]).
    // SOUND: applied aggregates pass through unchanged — WAL-then-map
    // ordering affects durability only, and the in-memory supports are
    // the ones `IncrementalOssm::append_aggregate` produces; skipping a
    // duplicate id never removes data — the first occurrence is already
    // durable and counted.
    pub fn append_batch(&mut self, entries: Vec<(u64, Aggregate)>) -> io::Result<Vec<bool>> {
        let _timer = REQ_INSERT_LATENCY.time();
        for (_, aggregate) in &entries {
            if aggregate.supports().len() != self.num_items {
                return Err(invalid(format!(
                    "aggregate over {} items, map over {}",
                    aggregate.supports().len(),
                    self.num_items
                )));
            }
        }
        let mut seen_in_group: HashSet<u64> = HashSet::new();
        let mut applied = Vec::with_capacity(entries.len());
        let mut fresh = Vec::with_capacity(entries.len());
        for (id, aggregate) in entries {
            let dup = self.recent.contains(id) || !seen_in_group.insert(id);
            applied.push(!dup);
            if !dup {
                fresh.push((id, aggregate));
            }
        }
        for (id, aggregate) in &fresh {
            self.wal
                .append_no_sync(&encode_batch_record(*id, aggregate))?;
        }
        if !fresh.is_empty() {
            self.wal.sync()?;
        }
        for (id, aggregate) in fresh {
            let transactions = aggregate.transactions();
            self.inner.append_aggregate(aggregate);
            self.recent.insert(id);
            self.epoch += 1;
            REQ_INSERT_TRANSACTIONS.add(transactions);
        }
        Ok(applied)
    }

    /// Whether `id` is inside the recent-batch dedup window (an append
    /// carrying it would be acknowledged as a duplicate).
    pub fn is_recent_batch(&self, id: u64) -> bool {
        self.recent.contains(id)
    }

    /// Monotone count of aggregates applied through this handle,
    /// including WAL replays at open. Served snapshots are tagged with
    /// it so readers can tell how stale a published map is.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the WAL has poisoned itself (failed fsync or failed
    /// rollback): appends now fail permanently and the caller should
    /// degrade to read-only service until a reopen re-establishes the
    /// durable prefix.
    pub fn is_read_only(&self) -> bool {
        self.wal.is_poisoned()
    }

    /// Persists the current map as the new snapshot (atomically) and
    /// empties the WAL. A crash anywhere in between leaves a recoverable
    /// state that replays every append exactly once; see the module docs.
    /// No-op on
    /// a map that has never absorbed an append.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        if self.inner.num_segments() == 0 {
            return Ok(());
        }
        let bytes = persist::encode_ossm(&self.inner.snapshot())?;
        // The sidecar goes first, stamped with the CRC of the snapshot
        // it describes. Recovery trusts the id window for replay-skip
        // only when the on-disk snapshot's CRC matches, so a crash
        // between the two writes merely disables the skip (records are
        // re-applied onto the *old* snapshot they are genuinely missing
        // from). The reverse order would be a data-loss window: a fresh
        // snapshot paired with a stale sidecar replays records the
        // snapshot already holds (double-count), and a fresh sidecar
        // paired with a stale snapshot must never suppress them.
        save_batch_ids(
            &self.ids_path,
            snapshot_identity(&bytes),
            &self.recent.order,
        )?;
        persist::save_atomic_bytes(&self.snapshot_path, &bytes)?;
        self.wal.reset()
    }

    /// Snapshots the current in-memory map for querying/filtering.
    ///
    /// # Panics
    /// Panics if nothing has ever been appended (no segments exist).
    pub fn snapshot(&self) -> Ossm {
        self.inner.snapshot()
    }

    /// Number of live segments.
    pub fn num_segments(&self) -> usize {
        self.inner.num_segments()
    }

    /// Appends absorbed since this handle opened (replays included).
    pub fn appended_pages(&self) -> u64 {
        self.inner.appended_pages()
    }
}

/// Decodes up to 8 little-endian bytes, zero-padding a short slice —
/// `decode_record` has already length-checked its input, and padding
/// keeps this recovery path panic-free even if that check drifts.
fn le_u64(b: &[u8]) -> u64 {
    let mut fixed = [0u8; 8];
    for (dst, src) in fixed.iter_mut().zip(b) {
        *dst = *src;
    }
    u64::from_le_bytes(fixed)
}

/// WAL payload for one append: `batch_id u64`, `transactions u64`, then
/// one `u64` per item of the (dense) support vector. The item count is
/// fixed by the map, so the length, `16 + 8·num_items`, is self-checking.
// SOUND: lossless little-endian encoding; `decode_record` inverts it
// bit-for-bit, so a replayed support equals the appended one.
fn encode_batch_record(batch_id: u64, aggregate: &Aggregate) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + 8 * aggregate.supports().len());
    buf.extend_from_slice(&batch_id.to_le_bytes());
    buf.extend_from_slice(&aggregate.transactions().to_le_bytes());
    for &s in aggregate.supports() {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    buf
}

/// Decodes one WAL record into its batch id and aggregate.
// SOUND: exact inverse of `encode_batch_record` for length-checked
// input; a record of any other length is rejected rather than
// reinterpreted, so replay can never fabricate or shrink a support.
// INFALLIBLE: every slice is taken only after `payload.len()` is checked
// against the exact byte count of the record.
fn decode_record(payload: &[u8], num_items: usize) -> io::Result<(u64, Aggregate)> {
    if payload.len() != 16 + 8 * num_items {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "WAL record of {} bytes does not hold a batch id and a {num_items}-item aggregate",
                payload.len()
            ),
        ));
    }
    let id = le_u64(&payload[..8]);
    let transactions = le_u64(&payload[8..16]);
    let supports = payload[16..].chunks_exact(8).map(le_u64).collect();
    Ok((id, Aggregate::new(supports, transactions)))
}

/// Writes the recent-batch-id window crash-safely (tmp + fsync +
/// rename): `magic | snapshot_crc u32 (identity of the snapshot file
/// this window is consistent with, see [`snapshot_identity`]) | count
/// u32 | crc u32 (CRC32C of the id bytes) | ids`.
fn save_batch_ids(path: &Path, snapshot_crc: u32, ids: &VecDeque<u64>) -> io::Result<()> {
    let mut payload = Vec::with_capacity(8 * ids.len());
    for id in ids {
        payload.extend_from_slice(&id.to_le_bytes());
    }
    let mut buf = Vec::with_capacity(20 + payload.len());
    buf.extend_from_slice(BATCH_IDS_MAGIC);
    buf.extend_from_slice(&snapshot_crc.to_le_bytes());
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32c(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
    let tmp = path.with_extension("ids-tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads the sidecar back as `(snapshot_crc, ids)`; any anomaly
/// (missing file, bad magic, short payload, CRC mismatch) yields `None`
/// — an empty window — rather than an error. See the caller for why
/// that degradation is sound.
// INFALLIBLE: the `len < 20` guard covers every fixed byte index, and
// the payload slice is length-checked against `count` before decoding.
fn load_batch_ids(path: &Path) -> Option<(u32, Vec<u64>)> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 20 || &bytes[..8] != BATCH_IDS_MAGIC {
        return None;
    }
    let snapshot_crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let crc = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    let payload = &bytes[20..];
    if count > RECENT_IDS_CAP || payload.len() != 8 * count || crc32c(payload) != crc {
        return None;
    }
    Some((snapshot_crc, payload.chunks_exact(8).map(le_u64).collect()))
}

/// Content identity of an encoded snapshot, as stamped into the
/// sidecar. The snapshot format ends with a CRC32C trailer of
/// everything before it, which makes the CRC of the *whole* file the
/// same fixed residue for every valid snapshot — useless as an
/// identity. Hash everything before the trailer instead.
// INFALLIBLE: the slice end is `len.saturating_sub(4)`, never past len.
fn snapshot_identity(bytes: &[u8]) -> u32 {
    crc32c(&bytes[..bytes.len().saturating_sub(4)])
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ossm-durable-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path) -> (DurableIncrementalOssm, RecoveryReport) {
        DurableIncrementalOssm::open(dir, 3, 4, LossCalculator::all_items()).expect("open")
    }

    #[test]
    fn appends_survive_reopen_without_a_checkpoint() {
        let dir = tmp_dir("no-checkpoint");
        let (mut map, report) = open(&dir);
        assert_eq!(report, RecoveryReport::default());
        map.append_batch(vec![(1, Aggregate::new(vec![5, 0, 2], 6))])
            .expect("append");
        map.append_batch(vec![(2, Aggregate::new(vec![1, 9, 0], 9))])
            .expect("append");
        drop(map);
        let (map, report) = open(&dir);
        assert!(!report.from_snapshot);
        assert_eq!(report.replayed_appends, 2);
        let snap = map.snapshot();
        assert_eq!(snap.num_transactions(), 15);
        assert_eq!(snap.segments()[0].supports(), &[5, 0, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_moves_state_into_the_snapshot() {
        let dir = tmp_dir("checkpoint");
        let (mut map, _) = open(&dir);
        map.append_batch(vec![(1, Aggregate::new(vec![4, 4, 4], 4))])
            .expect("append");
        map.checkpoint().expect("checkpoint");
        map.append_batch(vec![(2, Aggregate::new(vec![1, 0, 0], 1))])
            .expect("append");
        let before = map.snapshot();
        drop(map);
        let (map, report) = open(&dir);
        assert!(report.from_snapshot);
        assert_eq!(
            report.replayed_appends, 1,
            "only the post-checkpoint append"
        );
        assert_eq!(map.snapshot(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_appends_group_commit_and_dedup() {
        let dir = tmp_dir("batch");
        let (mut map, _) = open(&dir);
        let applied = map
            .append_batch(vec![
                (1, Aggregate::new(vec![1, 0, 0], 1)),
                (2, Aggregate::new(vec![0, 2, 0], 2)),
                (1, Aggregate::new(vec![9, 9, 9], 9)), // in-group retry
            ])
            .expect("batch");
        assert_eq!(applied, vec![true, true, false]);
        assert_eq!(map.epoch(), 2);
        assert_eq!(map.snapshot().num_transactions(), 3);
        // A cross-group retry of an applied id is a duplicate too.
        let applied = map
            .append_batch(vec![(2, Aggregate::new(vec![0, 2, 0], 2))])
            .expect("retry");
        assert_eq!(applied, vec![false]);
        assert!(map.is_recent_batch(1) && map.is_recent_batch(2));
        assert!(!map.is_recent_batch(3));
        drop(map);
        // Replay restores both the data and the dedup window.
        let (mut map, report) = open(&dir);
        assert_eq!(report.replayed_appends, 2);
        assert_eq!(map.snapshot().num_transactions(), 3);
        assert!(map.is_recent_batch(1) && map.is_recent_batch(2));
        let applied = map
            .append_batch(vec![(1, Aggregate::new(vec![1, 0, 0], 1))])
            .expect("post-replay retry");
        assert_eq!(applied, vec![false], "replayed ids still dedup");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dedup_window_survives_checkpoints() {
        let dir = tmp_dir("batch-checkpoint");
        let (mut map, _) = open(&dir);
        map.append_batch(vec![(7, Aggregate::new(vec![1, 1, 1], 2))])
            .expect("batch");
        map.checkpoint().expect("checkpoint");
        drop(map);
        let (mut map, report) = open(&dir);
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_appends, 0, "WAL was reset");
        assert!(
            map.is_recent_batch(7),
            "the sidecar carries ids across the checkpoint"
        );
        let applied = map
            .append_batch(vec![(7, Aggregate::new(vec![1, 1, 1], 2))])
            .expect("retry after checkpoint");
        assert_eq!(applied, vec![false]);
        assert_eq!(map.snapshot().num_transactions(), 2, "not double-counted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The documented checkpoint double-replay window, closed for
    /// id-carrying records: if the process dies after the sidecar +
    /// snapshot landed but before the WAL reset, replay must skip the
    /// records the snapshot already contains.
    #[test]
    fn sidecar_prevents_double_replay_after_partial_checkpoint() {
        let dir = tmp_dir("batch-double-replay");
        let (mut map, _) = open(&dir);
        map.append_batch(vec![(11, Aggregate::new(vec![2, 0, 1], 3))])
            .expect("batch");
        // Simulate the crash window: sidecar + snapshot, no WAL reset.
        let bytes = persist::encode_ossm(&map.snapshot()).expect("encode");
        save_batch_ids(
            &dir.join(BATCH_IDS),
            snapshot_identity(&bytes),
            &map.recent.order,
        )
        .expect("sidecar");
        persist::save_atomic_bytes(&dir.join(SNAPSHOT), &bytes).expect("snapshot");
        drop(map);
        let (map, report) = open(&dir);
        assert!(report.from_snapshot);
        assert_eq!(report.replayed_appends, 0);
        assert_eq!(report.skipped_duplicates, 1, "WAL record skipped by id");
        assert_eq!(map.snapshot().num_transactions(), 3, "counted exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The other half of the checkpoint crash window: the process dies
    /// after the sidecar write but *before* the snapshot lands. The new
    /// sidecar windows the WAL records' ids, but the surviving snapshot
    /// does not contain them — recovery must detect the CRC mismatch
    /// and re-apply rather than silently dropping acknowledged data.
    #[test]
    fn stale_snapshot_with_fresh_sidecar_replays_instead_of_dropping() {
        let dir = tmp_dir("sidecar-ahead-of-snapshot");
        let (mut map, _) = open(&dir);
        map.append_batch(vec![(21, Aggregate::new(vec![1, 1, 0], 2))])
            .expect("batch");
        map.checkpoint().expect("checkpoint");
        map.append_batch(vec![(22, Aggregate::new(vec![0, 2, 1], 3))])
            .expect("batch");
        // Simulate dying mid-checkpoint: the sidecar (stamped with the
        // CRC of the snapshot that was *about* to be written) lands, the
        // snapshot itself does not.
        let unwritten = persist::encode_ossm(&map.snapshot()).expect("encode");
        save_batch_ids(
            &dir.join(BATCH_IDS),
            snapshot_identity(&unwritten),
            &map.recent.order,
        )
        .expect("sidecar");
        drop(map);
        let (map, report) = open(&dir);
        assert!(report.from_snapshot);
        assert_eq!(
            report.replayed_appends, 1,
            "the un-snapshotted record replays"
        );
        assert_eq!(report.skipped_duplicates, 0);
        assert_eq!(map.snapshot().num_transactions(), 5, "no acked data lost");
        assert!(map.is_recent_batch(21) && map.is_recent_batch(22));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_geometry_is_rejected() {
        let dir = tmp_dir("geometry");
        let (mut map, _) = open(&dir);
        let err = map
            .append_batch(vec![(1, Aggregate::new(vec![1, 2], 2))])
            .expect_err("2 items into a 3-item map");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        map.append_batch(vec![(1, Aggregate::new(vec![1, 2, 3], 3))])
            .expect("append");
        map.checkpoint().expect("checkpoint");
        drop(map);
        assert!(
            DurableIncrementalOssm::open(&dir, 7, 4, LossCalculator::all_items()).is_err(),
            "snapshot item-domain mismatch"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksum-valid record without a batch id (`8 + 8·m` bytes: the
    /// transaction count and the supports only) is refused at open rather
    /// than replayed, as is any record of another length.
    #[test]
    fn id_less_wal_records_are_refused_at_open() {
        let dir = tmp_dir("id-less-record");
        let (map, _) = open(&dir);
        drop(map);
        let (mut wal, _) = WriteAheadLog::open(&dir.join(WAL)).expect("wal");
        let mut record = 6u64.to_le_bytes().to_vec();
        for s in [5u64, 0, 2] {
            record.extend_from_slice(&s.to_le_bytes());
        }
        wal.append_no_sync(&record).expect("stage");
        wal.sync().expect("sync");
        drop(wal);
        let err = DurableIncrementalOssm::open(&dir, 3, 4, LossCalculator::all_items())
            .map(|_| ())
            .expect_err("an id-less record is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("32 bytes"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_budget_is_an_error() {
        let dir = tmp_dir("zero-budget");
        assert!(DurableIncrementalOssm::open(&dir, 3, 0, LossCalculator::all_items()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fault-injected variant of the kill-and-recover scenario: the tear
    /// happens inside the WAL's own write path rather than by mutating
    /// the file afterwards, so the append itself reports the failure.
    /// (This is the only test in this binary that arms the global fault
    /// plan, and cargo runs test binaries sequentially, so no lock is
    /// needed here.)
    #[cfg(feature = "faults")]
    #[test]
    fn injected_torn_append_errors_and_recovery_drops_it() {
        use ossm_data::fault::FaultPlan;

        let dir = tmp_dir("injected-tear");
        let (mut map, _) = open(&dir);
        map.append_batch(vec![(1, Aggregate::new(vec![3, 1, 4], 5))])
            .expect("append");
        map.append_batch(vec![(2, Aggregate::new(vec![1, 5, 9], 9))])
            .expect("append");

        // Tear the next WAL write after 12 bytes: the length/crc header
        // lands whole, the payload does not.
        let mut plan = FaultPlan::new();
        plan.tear_write("data.wal.append", 1, 12);
        let guard = plan.arm();
        let err = map
            .append_batch(vec![(3, Aggregate::new(vec![2, 6, 5], 7))])
            .expect_err("torn append must surface as an error");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(guard.fired(), 1);
        drop(guard);
        // The failed append never reached the in-memory map.
        assert_eq!(map.snapshot().num_transactions(), 14);
        drop(map);

        let (map, report) = open(&dir);
        assert!(
            !report.truncated_tail,
            "the WAL rolled the torn bytes back in-process"
        );
        assert_eq!(
            report.replayed_appends, 2,
            "only acknowledged appends return"
        );
        assert_eq!(map.snapshot().num_transactions(), 14);
        std::fs::remove_dir_all(&dir).ok();
    }
}
