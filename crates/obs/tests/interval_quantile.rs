//! Behavior tests for the interval-delta engine and the quantile
//! estimator working together. The delta math is ungated arithmetic on
//! [`Snapshot`]s, so most of this file runs under *both* feature
//! configurations; only the registry-backed [`IntervalTracker`] tests
//! need live instrumentation.

use ossm_obs::interval::delta;
use ossm_obs::{GaugeSnapshot, HistogramSnapshot, PhaseSnapshot, Snapshot};

const SEC: u64 = 1_000_000_000;

fn populated() -> Snapshot {
    let mut s = Snapshot::default();
    s.counters.insert("c".to_owned(), 10);
    s.phases.insert(
        "p".to_owned(),
        PhaseSnapshot {
            nanos: 500,
            calls: 4,
        },
    );
    s.histograms.insert(
        "h".to_owned(),
        HistogramSnapshot {
            count: 6,
            sum: 60,
            buckets: vec![(4, 6)],
        },
    );
    s.gauges.insert(
        "g".to_owned(),
        GaugeSnapshot {
            current: 7,
            peak: 9,
        },
    );
    s
}

#[test]
fn delta_of_identical_snapshots_is_all_zero() {
    let s = populated();
    let d = delta(&s, &s, 2 * SEC);
    assert_eq!(d.resets, 0);
    assert!(!d.is_empty(), "rows exist even when nothing moved");
    let c = &d.counters["c"];
    assert_eq!((c.total, c.delta, c.per_sec), (10, 0, 0.0));
    let p = &d.phases["p"];
    assert_eq!(p.nanos_delta, 0);
    assert_eq!(p.calls_delta, 0);
    assert_eq!(p.calls_per_sec, 0.0);
    let h = &d.histograms["h"];
    assert_eq!((h.count_delta, h.sum_delta, h.per_sec), (0, 0, 0.0));
    let g = &d.gauges["g"];
    assert_eq!((g.current, g.delta, g.peak), (7, 0, 9));
}

#[test]
fn rates_scale_with_the_interval_and_vanish_at_zero_elapsed() {
    let prev = Snapshot::default();
    let mut cur = Snapshot::default();
    cur.counters.insert("c".to_owned(), 30);
    let d = delta(&prev, &cur, 2 * SEC);
    assert_eq!(d.counters["c"].delta, 30);
    assert!((d.counters["c"].per_sec - 15.0).abs() < 1e-9);
    assert!((d.elapsed_secs() - 2.0).abs() < 1e-12);
    // An instantaneous interval yields rate 0, not inf/NaN.
    let d = delta(&prev, &cur, 0);
    assert_eq!(d.counters["c"].per_sec, 0.0);
}

#[test]
fn monotone_values_moving_backwards_count_as_resets() {
    let prev = populated();
    let mut cur = populated();
    cur.counters.insert("c".to_owned(), 3); // below prev's 10
    let d = delta(&prev, &cur, SEC);
    assert_eq!(d.resets, 1);
    // After a reset the cumulative value IS the interval's activity.
    assert_eq!(d.counters["c"].delta, 3);

    // Histogram count falling back is a reset too.
    let mut cur = populated();
    cur.histograms.get_mut("h").unwrap().count = 2;
    cur.histograms.get_mut("h").unwrap().sum = 20;
    let d = delta(&prev, &cur, SEC);
    assert_eq!(d.resets, 1);
    assert_eq!(d.histograms["h"].count_delta, 2);
}

#[test]
fn gauge_current_is_signed_but_a_falling_peak_is_a_reset() {
    let prev = populated(); // current=7 peak=9
    let mut cur = populated();
    cur.gauges.insert(
        "g".to_owned(),
        GaugeSnapshot {
            current: 2,
            peak: 9,
        },
    );
    let d = delta(&prev, &cur, SEC);
    // A falling level is normal operation: signed delta, no reset.
    assert_eq!(d.resets, 0);
    assert_eq!(d.gauges["g"].delta, -5);

    cur.gauges.insert(
        "g".to_owned(),
        GaugeSnapshot {
            current: 2,
            peak: 3,
        },
    );
    let d = delta(&prev, &cur, SEC);
    assert_eq!(d.resets, 1, "peak is monotone; moving back marks a reset");
}

#[test]
fn vanished_metrics_are_reset_evidence() {
    let prev = populated();
    let cur = Snapshot::default();
    let d = delta(&prev, &cur, SEC);
    assert!(d.is_empty(), "rows key off the current snapshot");
    assert_eq!(
        d.resets, 4,
        "one per vanished counter/phase/histogram/gauge"
    );
}

#[test]
fn histogram_rows_carry_cumulative_quantiles() {
    let prev = Snapshot::default();
    let mut cur = Snapshot::default();
    cur.histograms.insert(
        "h".to_owned(),
        HistogramSnapshot {
            count: 100,
            sum: 0,
            // 90 fast samples in [32,64), 10 slow in [512,1024).
            buckets: vec![(32, 90), (512, 10)],
        },
    );
    let d = delta(&prev, &cur, SEC);
    let q = d.histograms["h"].quantiles.expect("non-empty histogram");
    assert!(q.p50 >= 32.0 && q.p50 < 64.0, "p50={}", q.p50);
    assert!(q.p95 >= 512.0 && q.p95 < 1024.0, "p95={}", q.p95);
    assert!(q.p99 >= 512.0 && q.p99 < 1024.0, "p99={}", q.p99);
    assert!(q.p50 <= q.p95 && q.p95 <= q.p99, "quantiles are ordered");

    // An empty histogram has no quantiles rather than fabricated zeros.
    let empty = HistogramSnapshot::default();
    assert!(empty.quantiles().is_none());
}

#[cfg(feature = "enabled")]
mod live {
    use ossm_obs::{Counter, IntervalTracker, Latency};

    static TICKS: Counter = Counter::new("test.interval.ticks");
    static LAT: Latency = Latency::new("test.interval.latency");

    #[test]
    fn tracker_reports_only_what_moved_since_the_last_tick() {
        let mut tracker = IntervalTracker::new();
        TICKS.add(5);
        let d = tracker.tick();
        assert_eq!(d.counters["test.interval.ticks"].delta, 5);
        // Nothing moved since: the next tick's delta is zero.
        let d = tracker.tick();
        assert_eq!(d.counters["test.interval.ticks"].delta, 0);
        TICKS.add(2);
        let d = tracker.tick();
        assert_eq!(d.counters["test.interval.ticks"].delta, 2);
    }

    #[test]
    fn latency_spans_feed_interval_quantiles() {
        let mut tracker = IntervalTracker::new();
        drop(LAT.time());
        LAT.record_nanos(1 << 20);
        let d = tracker.tick();
        let h = &d.histograms["test.interval.latency"];
        assert!(h.count_total >= 2);
        assert!(h.quantiles.is_some());
    }
}
