//! Kill-and-recover: crash images of the durable incremental OSSM are
//! reopened and must come back with sound eq. (1) bounds.
//!
//! The crash images are built deterministically by mutilating the WAL /
//! snapshot files exactly the way an interrupted process would leave
//! them (a torn final record; a checkpoint that renamed its snapshot but
//! never reset the WAL). Every batch is appended the way `ossm serve`
//! appends it: through `append_batch`, under a batch id of its own. The
//! feature-gated fault-injection variant of the torn-append scenario
//! lives in `ossm-core`'s unit tests; this file runs under default
//! features so tier-1 always exercises recovery.

use ossm_core::{Aggregate, DurableIncrementalOssm, LossCalculator};
use ossm_data::gen::SkewedConfig;
use ossm_data::{Dataset, Itemset};
use std::io;
use std::path::{Path, PathBuf};

const M: usize = 10;
const BATCH: usize = 50;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("ossm-durability-tests")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sample() -> Dataset {
    SkewedConfig {
        num_transactions: 600,
        num_items: M,
        ..SkewedConfig::small()
    }
    .generate()
}

fn open(dir: &Path) -> (DurableIncrementalOssm, ossm_core::RecoveryReport) {
    DurableIncrementalOssm::open(dir, M, 4, LossCalculator::all_items()).expect("open")
}

/// The aggregate a client sends for one batch of transactions.
fn aggregate(batch: &[Itemset]) -> Aggregate {
    let mut supports = vec![0u64; M];
    for t in batch {
        for item in t.items() {
            supports[item.index()] += 1;
        }
    }
    Aggregate::new(supports, batch.len() as u64)
}

/// Durably appends batch `i` under batch id `i + 1`.
fn append(map: &mut DurableIncrementalOssm, i: usize, batch: &[Itemset]) -> io::Result<()> {
    let applied = map.append_batch(vec![(i as u64 + 1, aggregate(batch))])?;
    assert_eq!(applied, vec![true], "batch {i} is fresh");
    Ok(())
}

/// Asserts the map's bound dominates `data`'s true support for every
/// pair itemset over the full domain — the acceptance bar for recovery.
fn assert_all_pairs_sound(map: &ossm_core::Ossm, data: &Dataset, context: &str) {
    for a in 0..M as u32 {
        for b in (a + 1)..M as u32 {
            let probe = Itemset::new([a, b]);
            let bound = map.upper_bound(&probe);
            let truth = data.support(&probe);
            assert!(
                bound >= truth,
                "{context}: bound {bound} < true support {truth} for {{{a},{b}}}"
            );
        }
    }
}

#[test]
fn torn_wal_append_recovers_to_sound_bounds() {
    let dir = tmp_dir("torn-append");
    let d = sample();
    let batches: Vec<&[Itemset]> = d.transactions().chunks(BATCH).collect();

    let (mut map, _) = open(&dir);
    for (i, batch) in batches.iter().enumerate() {
        append(&mut map, i, batch).expect("append");
        if i == 4 {
            map.checkpoint().expect("checkpoint");
        }
    }
    drop(map);

    // Crash image: the process died mid-way through writing the final
    // WAL record — its tail is half there. Everything earlier was
    // fsynced by append_batch() before being acknowledged.
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal");
    f.set_len(len - 10).expect("tear the last record");
    drop(f);

    let (map, report) = open(&dir);
    assert!(report.from_snapshot);
    assert!(report.truncated_tail, "the tear must be noticed");
    // Batches 5..N-1 were in the WAL whole; the torn one is gone.
    assert_eq!(report.replayed_appends, batches.len() - 5 - 1);

    // The recovered map covers exactly the acknowledged data: every
    // batch but the torn final one. All pair bounds must dominate it.
    let acknowledged = Dataset::new(
        M,
        d.transactions()[..d.len() - batches.last().unwrap().len()].to_vec(),
    );
    let snap = map.snapshot();
    assert_eq!(snap.num_transactions(), acknowledged.len() as u64);
    assert_all_pairs_sound(&snap, &acknowledged, "after torn-append recovery");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_between_snapshot_and_wal_reset_stays_sound() {
    let dir = tmp_dir("double-replay");
    let d = sample();
    let batches: Vec<&[Itemset]> = d.transactions().chunks(BATCH).collect();

    let (mut map, _) = open(&dir);
    for (i, batch) in batches.iter().enumerate() {
        append(&mut map, i, batch).expect("append");
    }
    // Crash image: checkpoint renamed the new snapshot into place, but
    // the process died before the WAL reset hit the disk. Reconstruct by
    // saving the WAL bytes across a checkpoint and putting them back.
    let wal = dir.join("wal.log");
    let wal_bytes = std::fs::read(&wal).expect("read wal");
    let before = map.snapshot();
    map.checkpoint().expect("checkpoint");
    drop(map);
    std::fs::write(&wal, &wal_bytes).expect("resurrect the stale wal");

    let (map, report) = open(&dir);
    assert!(report.from_snapshot);
    // The checkpoint's id sidecar matches the snapshot on disk, so every
    // stale record is recognized by its batch id and skipped: the map is
    // exactly the one from before the crash, with nothing counted twice.
    assert_eq!(report.replayed_appends, 0, "no stale record replayed");
    assert_eq!(report.skipped_duplicates, batches.len());
    let snap = map.snapshot();
    assert_eq!(snap, before);
    assert_eq!(snap.num_transactions(), d.len() as u64);
    assert_all_pairs_sound(&snap, &d, "after the interrupted checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-recover with a postmortem: an injected WAL write fault fires
/// mid-append with `OSSM_FLIGHTREC` set, so the flight recorder dumps its
/// ring as JSONL. The dump must exist, parse, and end on the tagged fault
/// site — and the store must still recover to sound bounds afterwards.
#[cfg(all(feature = "faults", feature = "obs"))]
#[test]
fn injected_wal_fault_dumps_the_flight_recorder() {
    let dir = tmp_dir("fault-dump");
    let dump = std::env::temp_dir()
        .join("ossm-durability-tests")
        .join("fault-dump-flightrec.jsonl");
    std::fs::create_dir_all(dump.parent().expect("parent")).expect("dump dir");
    std::fs::remove_file(&dump).ok();
    std::env::set_var("OSSM_FLIGHTREC", &dump);

    let d = sample();
    let batches: Vec<&[Itemset]> = d.transactions().chunks(BATCH).collect();
    let (mut map, _) = open(&dir);
    append(&mut map, 0, batches[0]).expect("append");

    // The next WAL append dies before any byte persists.
    let mut plan = ossm_data::fault::FaultPlan::new();
    plan.fail_write("data.wal.append", 1);
    let guard = plan.arm();
    let err = append(&mut map, 1, batches[1]).expect_err("injected fault");
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(guard.fired(), 1);
    drop(guard);
    drop(map);
    std::env::remove_var("OSSM_FLIGHTREC");

    // The dump was written at the fault site, parses, and its final
    // event is the tagged fault.
    let content = std::fs::read_to_string(&dump).expect("flight recorder dumped");
    let timeline = ossm_obs::recorder::render_timeline(&content).expect("dump parses");
    assert!(timeline.contains("fault"), "{timeline}");
    assert!(timeline.contains("data.wal.append"), "{timeline}");
    let last = content
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("events");
    assert!(
        last.contains("\"kind\":\"fault\"") && last.contains("data.wal.append"),
        "the dump ends on the fault site: {last}"
    );

    // Kill-and-recover: the acknowledged batch survives with sound bounds.
    let (map, report) = open(&dir);
    assert_eq!(report.replayed_appends, 1, "only the acknowledged batch");
    let acknowledged = Dataset::new(M, batches[0].to_vec());
    let snap = map.snapshot();
    assert_eq!(snap.num_transactions(), acknowledged.len() as u64);
    assert_all_pairs_sound(&snap, &acknowledged, "after injected-fault recovery");
    // The dump file is left behind on purpose: CI uploads it as the
    // postmortem artifact of this kill-and-recover scenario.
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_shutdown_and_reopen_is_lossless() {
    let dir = tmp_dir("clean");
    let d = sample();
    let (mut map, _) = open(&dir);
    for (i, batch) in d.transactions().chunks(BATCH).enumerate() {
        append(&mut map, i, batch).expect("append");
    }
    map.checkpoint().expect("checkpoint");
    let before = map.snapshot();
    drop(map);

    let (map, report) = open(&dir);
    assert!(report.from_snapshot);
    assert_eq!(report.replayed_appends, 0);
    assert!(!report.truncated_tail);
    assert_eq!(map.snapshot(), before);
    assert_all_pairs_sound(&map.snapshot(), &d, "after clean reopen");
    std::fs::remove_dir_all(&dir).ok();
}
