//! `ossm-obs` — zero-cost-when-disabled observability for the OSSM
//! reproduction.
//!
//! The paper's value proposition is quantitative: how many candidates does
//! the eq. (1) upper bound prune before the counting pass, and how much
//! accuracy does a constrained segmentation give up (eq. 2)? This crate
//! gives every layer a way to answer those questions at runtime:
//!
//! - [`Counter`] — an atomic event counter, declared as a `static` so hot
//!   loops pay one relaxed `fetch_add` per event;
//! - [`Histogram`] — log2-bucketed value distribution (bound slack,
//!   transaction lengths, …); a loop that records many values tallies
//!   them in a plain [`Tally`] and adds it in one call;
//! - phase timers — monotonic wall-clock spans recorded via the RAII
//!   [`PhaseGuard`] returned by [`phase`];
//! - [`MetricsRegistry`] — the global sink all of the above register with,
//!   supporting labeled [`Scope`]s for dynamic names (per-level miner
//!   counts, per-strategy build timings);
//! - [`Reporter`] — renders a [`Snapshot`] as a human table or JSON lines;
//! - hierarchical spans — [`span`] opens an RAII [`SpanGuard`] that feeds
//!   the phase aggregates *and*, between [`trace_begin`] and
//!   [`trace_take`], records a [`SpanEvent`] with a parent link taken
//!   from a thread-local span stack. The collected [`Trace`] exports as
//!   Chrome trace-event JSON or folded flamegraph stacks
//!   ([`TraceFormat`]). [`detail_span`] is the hot-loop variant that is
//!   inert unless a trace is being recorded.
//!
//! # Zero cost when disabled
//!
//! Everything is gated on the `enabled` cargo feature. Without it, every
//! type here is a zero-sized stub and every method an empty
//! `#[inline(always)]` body, so instrumented call sites compile to
//! nothing — no atomics, no registry, no strings. Consumer crates expose
//! this as their own `obs` feature (on by default) forwarding to
//! `ossm-obs/enabled`; `--no-default-features` turns the whole chain off.
//! Code that wants to skip *computing* an expensive observation (not just
//! recording it) can branch on the [`ENABLED`] constant, which the
//! optimizer folds away.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Whether instrumentation is compiled in. `const`, so `if
/// ossm_obs::ENABLED { … }` costs nothing when the feature is off.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, up to `i = 64` for `u64::MAX`.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `64 − leading_zeros(v)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (`0`, then powers of two).
///
/// Panics on `index ≥ NUM_BUCKETS`: the shift `1 << (index − 1)` would
/// otherwise be UB-masked into a silently wrong small value in release
/// builds (e.g. `bucket_lower_bound(65)` would quietly return 1).
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    assert!(
        index < NUM_BUCKETS,
        "bucket index {index} out of range 0..{NUM_BUCKETS}"
    );
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// The R3 metric-name registry, embedded so tooling (the `regress`
/// coverage table, `ossm obs diff`) can check emitted names against the
/// same source of truth `ossm-lint` enforces. Entries ending in `.*`
/// declare dynamic-name prefixes (scoped counters, allocator-injected
/// gauges) rather than single literals.
pub const REGISTRY: &str = include_str!("../registry.txt");

pub mod alloc;
mod gauge;
pub mod interval;
pub mod json;
pub mod quantile;
pub mod recorder;
mod report;
mod serve;
mod snapshot;
mod trace;

pub use alloc::{alloc_scope, AllocScope};
pub use gauge::{Gauge, GaugeCharge};
pub use interval::{
    CounterDelta, GaugeDelta, HistogramDelta, IntervalDelta, IntervalTracker, PhaseDelta,
};
pub use quantile::{quantile, Quantiles};
pub use report::{Reporter, StatsFormat};
pub use serve::MetricsServer;
pub use snapshot::{GaugeSnapshot, HistogramSnapshot, PhaseSnapshot, Snapshot};
pub use trace::{SpanEvent, Trace, TraceFormat};

#[cfg(feature = "enabled")]
mod live;
#[cfg(feature = "enabled")]
pub use live::{
    detail_span, phase, registry, span, trace_active, trace_begin, trace_take, Counter, Histogram,
    Latency, LatencyTimer, MetricsRegistry, PhaseGuard, Scope, SpanGuard, Tally,
};

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::{
    detail_span, phase, registry, span, trace_active, trace_begin, trace_take, Counter, Histogram,
    Latency, LatencyTimer, MetricsRegistry, PhaseGuard, Scope, SpanGuard, Tally,
};
