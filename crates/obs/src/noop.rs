//! Zero-sized stubs, compiled when the `enabled` feature is off.
//!
//! Every type is a ZST and every method an empty `#[inline(always)]`
//! body, so instrumented call sites vanish in release builds. The API
//! mirrors [`crate::live`] exactly; consumer code never needs `cfg`.

use crate::snapshot::Snapshot;
use crate::trace::Trace;

/// Disabled stand-in for the live `Counter`: a ZST whose methods do
/// nothing.
pub struct Counter;

impl Counter {
    /// Does nothing (instrumentation disabled).
    pub const fn new(_name: &'static str) -> Self {
        Counter
    }

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn incr(&'static self) {}

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn add(&'static self, _n: u64) {}

    /// Always 0 (instrumentation disabled).
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Disabled stand-in for the live `Histogram`.
pub struct Histogram;

impl Histogram {
    /// Does nothing (instrumentation disabled).
    pub const fn new(_name: &'static str) -> Self {
        Histogram
    }

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn record(&'static self, _value: u64) {}

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn record_tally(&'static self, _tally: &Tally) {}
}

/// Disabled stand-in for the live `Tally`: a ZST that tallies nothing.
#[derive(Clone, Debug, Default)]
pub struct Tally;

impl Tally {
    /// An empty tally (instrumentation disabled).
    #[inline(always)]
    pub fn new() -> Self {
        Tally
    }

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn record(&mut self, _value: u64) {}
}

/// Disabled stand-in for the live `Latency` recorder.
pub struct Latency;

impl Latency {
    /// Does nothing (instrumentation disabled).
    pub const fn new(_name: &'static str) -> Self {
        Latency
    }

    /// A timer that measures nothing (instrumentation disabled).
    #[inline(always)]
    pub fn time(&'static self) -> LatencyTimer {
        LatencyTimer
    }

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn record_nanos(&'static self, _nanos: u64) {}
}

/// Disabled stand-in for the live `LatencyTimer` (drop records nothing).
#[must_use = "the measured span ends when the timer drops"]
pub struct LatencyTimer;

/// Disabled stand-in for the live `MetricsRegistry`.
pub struct MetricsRegistry;

static REGISTRY: MetricsRegistry = MetricsRegistry;

/// The process-wide registry (a ZST here).
#[inline(always)]
pub fn registry() -> &'static MetricsRegistry {
    &REGISTRY
}

/// Starts a phase span that records nothing.
#[inline(always)]
pub fn phase(_name: impl Into<String>) -> SpanGuard {
    SpanGuard
}

/// Opens a span that records nothing.
#[inline(always)]
pub fn span(_name: impl Into<String>) -> SpanGuard {
    SpanGuard
}

/// Opens a detail span that records nothing.
#[inline(always)]
pub fn detail_span(_name: impl Into<String>) -> SpanGuard {
    SpanGuard
}

/// Does nothing (instrumentation disabled): no trace will be collected.
#[inline(always)]
pub fn trace_begin() {}

/// Always false (instrumentation disabled).
#[inline(always)]
pub fn trace_active() -> bool {
    false
}

/// Always empty (instrumentation disabled).
#[inline(always)]
pub fn trace_take() -> Trace {
    Trace::default()
}

impl MetricsRegistry {
    /// A scope over nothing.
    #[inline(always)]
    pub fn scope(&'static self, _label: impl Into<String>) -> Scope {
        Scope
    }

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn add(&self, _name: &str, _n: u64) {}

    /// Always empty (instrumentation disabled).
    #[inline(always)]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn reset(&self) {}
}

/// Disabled stand-in for the live `Scope`.
pub struct Scope;

impl Scope {
    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn add(&self, _name: &str, _n: u64) {}

    /// Starts a span that records nothing.
    #[inline(always)]
    pub fn phase(&self, _name: &str) -> SpanGuard {
        SpanGuard
    }
}

/// Disabled stand-in for the live `SpanGuard` (drop records nothing).
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard;

impl SpanGuard {
    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn attach(&mut self, _key: &str, _value: u64) {}

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn watch(&mut self, _counter: &'static Counter) {}
}

/// Former name of [`SpanGuard`], kept for PR 1 call sites.
pub type PhaseGuard = SpanGuard;
