//! Point-in-time copies of the registry's state.
//!
//! Snapshots use `BTreeMap` so iteration order — and therefore rendered
//! reports — is deterministic for a given set of recorded metrics.

use std::collections::BTreeMap;

/// One histogram's state at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values (for computing the mean).
    pub sum: u64,
    /// `(bucket_lower_bound, count)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One gauge's state at snapshot time: the level it sits at now and the
/// highest level it reached since the last reset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Current level (bytes, entries, …).
    pub current: u64,
    /// Peak level since process start or the last registry reset.
    pub peak: u64,
}

/// One phase timer's accumulated state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Total wall-clock nanoseconds across all spans.
    pub nanos: u64,
    /// Number of spans recorded.
    pub calls: u64,
}

/// A deterministic point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter name → value. Static counters and dynamic scope counters
    /// share this namespace.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → state.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Phase name → accumulated time.
    pub phases: BTreeMap<String, PhaseSnapshot>,
    /// Gauge name → current/peak level. Static gauges and the dynamic
    /// `mem.alloc.*` / `mem.rss` rows injected by allocation accounting
    /// share this namespace.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
}

impl Snapshot {
    /// True when nothing has been recorded (or instrumentation is
    /// compiled out).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.phases.is_empty()
            && self.gauges.is_empty()
    }

    /// Convenience lookup for tests and assertions.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience lookup for tests and assertions.
    pub fn gauge(&self, name: &str) -> GaugeSnapshot {
        self.gauges.get(name).copied().unwrap_or_default()
    }
}
