//! Behavior of the live registry (compiled only with `--features enabled`,
//! which workspace builds activate through the consumer crates' default
//! `obs` features).
#![cfg(feature = "enabled")]

use ossm_obs::{registry, Counter, Histogram, Tally};

// Statics shared by this test binary; each test uses its own so parallel
// execution cannot interfere.
static MONO: Counter = Counter::new("test.monotone");
static THREADED: Counter = Counter::new("test.threaded");
static SLACK: Histogram = Histogram::new("test.slack");
static DET: Counter = Counter::new("test.determinism");
static ONE_BY_ONE: Histogram = Histogram::new("test.tally.one_by_one");
static TALLIED: Histogram = Histogram::new("test.tally.batched");

#[test]
fn counters_are_monotone() {
    let mut last = MONO.get();
    for _ in 0..100 {
        MONO.incr();
        let now = MONO.get();
        assert!(now > last, "a counter can only grow");
        last = now;
    }
    MONO.add(5);
    assert_eq!(MONO.get(), last + 5);
}

#[test]
fn concurrent_increments_are_all_counted() {
    let before = THREADED.get();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..1000 {
                    THREADED.incr();
                }
            });
        }
    });
    assert_eq!(THREADED.get(), before + 8 * 1000, "no lost updates");
}

#[test]
fn histogram_snapshot_respects_bucket_boundaries() {
    // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4..8 → [4,8).
    for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
        SLACK.record(v);
    }
    let snap = registry().snapshot();
    let h = snap
        .histograms
        .get("test.slack")
        .expect("histogram registered");
    assert_eq!(h.count, 8);
    assert_eq!(h.sum, 28);
    let bucket = |lo: u64| h.buckets.iter().find(|&&(l, _)| l == lo).map(|&(_, n)| n);
    assert_eq!(bucket(0), Some(1), "zeros");
    assert_eq!(bucket(1), Some(1), "[1,2)");
    assert_eq!(bucket(2), Some(2), "[2,4)");
    assert_eq!(bucket(4), Some(4), "[4,8)");
    assert_eq!(bucket(8), None, "nothing reached [8,16)");
}

#[test]
fn snapshots_are_deterministic_when_nothing_records() {
    DET.add(3);
    let scope = registry().scope("test.det");
    scope.add("dynamic", 2);
    drop(scope.phase("span"));
    // Restrict the comparison to this test's own names: other tests in the
    // binary record concurrently.
    let mine = |snap: &ossm_obs::Snapshot| {
        (
            snap.counters
                .iter()
                .filter(|(k, _)| k.starts_with("test.det"))
                .map(|(k, v)| (k.clone(), *v))
                .collect::<Vec<_>>(),
            snap.phases
                .iter()
                .filter(|(k, _)| k.starts_with("test.det"))
                .map(|(k, p)| (k.clone(), p.nanos, p.calls))
                .collect::<Vec<_>>(),
        )
    };
    let a = mine(&registry().snapshot());
    let b = mine(&registry().snapshot());
    assert_eq!(a, b, "identical state must snapshot identically");
    assert!(a.0.iter().any(|(k, v)| k == "test.determinism" && *v >= 3));
    assert!(a.0.iter().any(|(k, v)| k == "test.det.dynamic" && *v >= 2));
    assert!(a
        .1
        .iter()
        .any(|(k, _, calls)| k == "test.det.span" && *calls >= 1));
}

#[test]
#[allow(clippy::assertions_on_constants)] // the constant IS the subject under test
fn enabled_constant_reflects_the_feature() {
    assert!(ossm_obs::ENABLED);
}

#[test]
fn a_tally_equals_its_values_recorded_one_by_one() {
    // Zeros, every power-of-two edge, repeats, and values whose sum
    // wraps, as the atomic sum does.
    let mut values = vec![0, 0, 1, 2, 3, 7, 8, 1000, 1000, u64::MAX, u64::MAX - 1];
    values.extend((0..64).map(|b| 1u64 << b));
    let mut tally = Tally::new();
    for &v in &values {
        ONE_BY_ONE.record(v);
        tally.record(v);
    }
    TALLIED.record_tally(&tally);
    // An empty tally adds nothing.
    TALLIED.record_tally(&Tally::new());
    let snap = registry().snapshot();
    let one = &snap.histograms["test.tally.one_by_one"];
    let batched = &snap.histograms["test.tally.batched"];
    assert_eq!(one.count, values.len() as u64);
    assert_eq!(batched.count, one.count);
    assert_eq!(batched.sum, one.sum);
    assert_eq!(batched.buckets, one.buckets);
}
