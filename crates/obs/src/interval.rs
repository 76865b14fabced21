//! Interval snapshot deltas: the difference between two [`Snapshot`]s
//! plus the wall-clock span between them, turned into per-interval
//! deltas and `*.per_sec` rates alongside the cumulative totals.
//!
//! This is the substrate of live telemetry: the metrics endpoint diffs
//! the registry against the previous scrape. The delta math is ungated
//! (pure arithmetic on snapshots, which exist in both feature
//! configurations); the [`IntervalTracker`] that pairs a previous
//! snapshot with an [`Instant`] collapses to a ZST when instrumentation
//! is off.
//!
//! # Monotone-reset handling
//!
//! Counters, phase aggregates, histogram counts, and gauge *peaks* are
//! monotone between registry resets. When a current value is *below*
//! its predecessor the registry was reset in between (`--stats` does
//! this at command start); the delta is then taken from zero — the
//! cumulative value *is* the interval's activity — and the reset is
//! counted in [`IntervalDelta::resets`] so consumers can annotate the
//! discontinuity instead of reporting a bogus negative rate.

use std::collections::BTreeMap;

use crate::quantile::Quantiles;
use crate::snapshot::Snapshot;

/// One counter's interval view.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CounterDelta {
    /// Cumulative value at the end of the interval.
    pub total: u64,
    /// Increase over the interval (the full value after a reset).
    pub delta: u64,
    /// `delta` per second of interval wall-clock.
    pub per_sec: f64,
}

/// One phase timer's interval view.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseDelta {
    /// Cumulative wall-clock nanoseconds at the end of the interval.
    pub nanos_total: u64,
    /// Nanoseconds accumulated over the interval.
    pub nanos_delta: u64,
    /// Cumulative span count at the end of the interval.
    pub calls_total: u64,
    /// Spans recorded over the interval.
    pub calls_delta: u64,
    /// `calls_delta` per second of interval wall-clock.
    pub calls_per_sec: f64,
}

/// One histogram's interval view. Quantiles are over the *cumulative*
/// distribution — per-interval quantiles would need bucket subtraction
/// across a reset boundary, and the cumulative estimate is what a
/// long-running service's p99 means anyway.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramDelta {
    /// Cumulative recorded-value count at the end of the interval.
    pub count_total: u64,
    /// Values recorded over the interval.
    pub count_delta: u64,
    /// Cumulative sum of recorded values.
    pub sum_total: u64,
    /// Sum recorded over the interval.
    pub sum_delta: u64,
    /// `count_delta` per second of interval wall-clock.
    pub per_sec: f64,
    /// p50/p95/p99 of the cumulative distribution (`None` only for a
    /// pathological all-zero-bucket snapshot).
    pub quantiles: Option<Quantiles>,
}

/// One gauge's interval view. `current` is a level, not a monotone
/// accumulator: its delta is signed and a falling level is normal
/// operation, not a reset. The peak *is* monotone — a peak moving
/// backwards marks a registry reset.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GaugeDelta {
    /// Level at the end of the interval.
    pub current: u64,
    /// Signed level change over the interval.
    pub delta: i64,
    /// Peak level at the end of the interval.
    pub peak: u64,
}

/// The difference between two snapshots over a wall-clock interval.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalDelta {
    /// Wall-clock nanoseconds between the two snapshots.
    pub elapsed_nanos: u64,
    /// Monotone values observed moving backwards (registry resets
    /// between the snapshots), including metrics that vanished outright.
    pub resets: u64,
    /// Counter name → interval view.
    pub counters: BTreeMap<String, CounterDelta>,
    /// Phase name → interval view.
    pub phases: BTreeMap<String, PhaseDelta>,
    /// Histogram name → interval view.
    pub histograms: BTreeMap<String, HistogramDelta>,
    /// Gauge name → interval view.
    pub gauges: BTreeMap<String, GaugeDelta>,
}

impl IntervalDelta {
    /// True when the end snapshot recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.phases.is_empty()
            && self.histograms.is_empty()
            && self.gauges.is_empty()
    }

    /// Interval length in (fractional) seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_nanos as f64 / 1e9
    }
}

/// Events per second over `elapsed_nanos` of wall clock (0 for an
/// instantaneous interval — a rate over no time is meaningless, and 0
/// keeps downstream JSON finite).
fn rate(delta: u64, elapsed_nanos: u64) -> f64 {
    if elapsed_nanos == 0 {
        0.0
    } else {
        delta as f64 * 1e9 / elapsed_nanos as f64
    }
}

/// Diffs `cur` against `prev` over `elapsed_nanos` of wall clock. Rows
/// are keyed by `cur`'s metrics; a metric present only in `prev`
/// (dropped by a registry reset) contributes to
/// [`IntervalDelta::resets`] but produces no row.
pub fn delta(prev: &Snapshot, cur: &Snapshot, elapsed_nanos: u64) -> IntervalDelta {
    let mut out = IntervalDelta {
        elapsed_nanos,
        ..IntervalDelta::default()
    };
    for (name, &total) in &cur.counters {
        let before = prev.counters.get(name).copied().unwrap_or(0);
        let d = if total < before {
            out.resets += 1;
            total
        } else {
            total - before
        };
        out.counters.insert(
            name.clone(),
            CounterDelta {
                total,
                delta: d,
                per_sec: rate(d, elapsed_nanos),
            },
        );
    }
    for (name, p) in &cur.phases {
        let before = prev.phases.get(name).copied().unwrap_or_default();
        let (nanos_delta, calls_delta) = if p.nanos < before.nanos || p.calls < before.calls {
            out.resets += 1;
            (p.nanos, p.calls)
        } else {
            (p.nanos - before.nanos, p.calls - before.calls)
        };
        out.phases.insert(
            name.clone(),
            PhaseDelta {
                nanos_total: p.nanos,
                nanos_delta,
                calls_total: p.calls,
                calls_delta,
                calls_per_sec: rate(calls_delta, elapsed_nanos),
            },
        );
    }
    for (name, h) in &cur.histograms {
        let before = prev.histograms.get(name);
        let (before_count, before_sum) = before.map_or((0, 0), |b| (b.count, b.sum));
        let (count_delta, sum_delta) = if h.count < before_count || h.sum < before_sum {
            out.resets += 1;
            (h.count, h.sum)
        } else {
            (h.count - before_count, h.sum - before_sum)
        };
        out.histograms.insert(
            name.clone(),
            HistogramDelta {
                count_total: h.count,
                count_delta,
                sum_total: h.sum,
                sum_delta,
                per_sec: rate(count_delta, elapsed_nanos),
                quantiles: h.quantiles(),
            },
        );
    }
    for (name, g) in &cur.gauges {
        let before = prev.gauges.get(name).copied().unwrap_or_default();
        if g.peak < before.peak {
            out.resets += 1;
        }
        out.gauges.insert(
            name.clone(),
            GaugeDelta {
                current: g.current,
                // SOUND: gauge levels fit i64 (the live gauge stores an
                // AtomicI64), so the signed difference cannot wrap.
                delta: g.current as i64 - before.current as i64,
                peak: g.peak,
            },
        );
    }
    // Metrics that vanished entirely are reset evidence too.
    out.resets += prev
        .counters
        .keys()
        .filter(|k| !cur.counters.contains_key(*k))
        .count() as u64;
    out.resets += prev
        .phases
        .keys()
        .filter(|k| !cur.phases.contains_key(*k))
        .count() as u64;
    out.resets += prev
        .histograms
        .keys()
        .filter(|k| !cur.histograms.contains_key(*k))
        .count() as u64;
    out.resets += prev
        .gauges
        .keys()
        .filter(|k| !cur.gauges.contains_key(*k))
        .count() as u64;
    out
}

impl Snapshot {
    /// Diffs `self` (the later snapshot) against `prev` over
    /// `elapsed_nanos` of wall clock — see [`delta`].
    pub fn delta(&self, prev: &Snapshot, elapsed_nanos: u64) -> IntervalDelta {
        delta(prev, self, elapsed_nanos)
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use std::time::Instant;

    use super::{delta, IntervalDelta};
    use crate::snapshot::Snapshot;

    /// Pairs the previous registry snapshot with the instant it was
    /// taken; [`IntervalTracker::tick`] yields the delta since then and
    /// advances the baseline.
    pub struct IntervalTracker {
        prev: Snapshot,
        at: Instant,
    }

    impl IntervalTracker {
        /// A tracker whose first [`tick`](IntervalTracker::tick) covers
        /// everything since construction (empty baseline).
        pub fn new() -> Self {
            IntervalTracker {
                prev: Snapshot::default(),
                at: Instant::now(),
            }
        }

        /// Snapshots the registry, diffs it against the previous tick,
        /// and makes this snapshot the new baseline.
        pub fn tick(&mut self) -> IntervalDelta {
            let cur = crate::registry().snapshot();
            let elapsed = u64::try_from(self.at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let out = delta(&self.prev, &cur, elapsed);
            self.prev = cur;
            self.at = Instant::now();
            out
        }
    }

    impl Default for IntervalTracker {
        fn default() -> Self {
            IntervalTracker::new()
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::IntervalDelta;

    /// Disabled stand-in for the live `IntervalTracker`: a ZST whose
    /// ticks are always empty.
    pub struct IntervalTracker;

    impl IntervalTracker {
        /// Does nothing (instrumentation disabled).
        #[inline(always)]
        pub fn new() -> Self {
            IntervalTracker
        }

        /// Always an empty delta (instrumentation disabled).
        #[inline(always)]
        pub fn tick(&mut self) -> IntervalDelta {
            IntervalDelta::default()
        }
    }

    impl Default for IntervalTracker {
        fn default() -> Self {
            IntervalTracker::new()
        }
    }
}

pub use imp::IntervalTracker;
