//! The real implementation, compiled when the `enabled` feature is on.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::snapshot::{HistogramSnapshot, PhaseSnapshot, Snapshot};
use crate::trace::{SpanEvent, Trace};
use crate::{bucket_index, bucket_lower_bound, NUM_BUCKETS};

/// A monotonic event counter.
///
/// Declare as a `static` so the hot path is a single relaxed `fetch_add`;
/// the counter registers itself with the global [`MetricsRegistry`] on
/// first use.
///
/// ```
/// static BOUND_EVALS: ossm_obs::Counter = ossm_obs::Counter::new("core.bound.evals");
/// BOUND_EVALS.incr();
/// ```
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A counter named `name`. `const`, so it can initialize a `static`.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Adds `n`. Deltas of at least
    /// [`COUNTER_EVENT_THRESHOLD`](crate::recorder::COUNTER_EVENT_THRESHOLD)
    /// also land in the flight recorder.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if n >= crate::recorder::COUNTER_EVENT_THRESHOLD {
            crate::recorder::record_event(self.name, crate::recorder::EventKind::Counter, n);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[cold]
    fn register(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            registry()
                .counters
                .lock()
                .expect("counter list poisoned")
                .push(self);
        }
    }
}

/// A log2-bucketed histogram of `u64` values.
///
/// Bucket 0 counts zeros; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. Used for quantities whose *scale* matters more than
/// exact quantiles — e.g. the bound slack `ub(X) − sup(X)`.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// A histogram named `name`. `const`, so it can initialize a `static`.
    pub const fn new(name: &'static str) -> Self {
        // A `const` local is the array-repeat idiom for non-Copy elements.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&'static self, value: u64) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Adds every value of `tally` — its count, sum and per-bucket
    /// counts — in one call: what [`record`](Self::record) would leave
    /// after each value one by one, at one atomic add per touched bucket.
    pub fn record_tally(&'static self, tally: &Tally) {
        if tally.count == 0 {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        for (bucket, &n) in self.buckets.iter().zip(&tally.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(tally.count, Ordering::Relaxed);
        self.sum.fetch_add(tally.sum, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    #[cold]
    fn register(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            registry()
                .histograms
                .lock()
                .expect("histogram list poisoned")
                .push(self);
        }
    }
}

/// Values tallied locally, with no atomics, for a [`Histogram`] to take
/// in one [`Histogram::record_tally`] call — the batch form of
/// [`Histogram::record`] for loops that record many values.
#[derive(Clone, Debug)]
pub struct Tally {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Tallies one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }
}

/// A latency recorder: a [`Histogram`] of elapsed nanoseconds fed by
/// RAII [`LatencyTimer`]s, for per-request spans (insert acks, `ub(X)`
/// queries) whose *distribution* matters — quantiles are derived from
/// the log2 buckets (see [`crate::quantile`](mod@crate::quantile)).
///
/// ```
/// static UB_LATENCY: ossm_obs::Latency = ossm_obs::Latency::new("req.ub.latency");
/// let _timer = UB_LATENCY.time(); // records on drop
/// ```
pub struct Latency {
    hist: Histogram,
}

impl Latency {
    /// A latency recorder named `name`. `const`, so it can initialize a
    /// `static`.
    pub const fn new(name: &'static str) -> Self {
        Latency {
            hist: Histogram::new(name),
        }
    }

    /// Starts timing; the elapsed nanoseconds are recorded when the
    /// returned guard drops.
    #[inline]
    pub fn time(&'static self) -> LatencyTimer {
        LatencyTimer {
            latency: self,
            start: Instant::now(),
        }
    }

    /// Records an already-measured duration in nanoseconds.
    #[inline]
    pub fn record_nanos(&'static self, nanos: u64) {
        self.hist.record(nanos);
    }
}

/// RAII guard from [`Latency::time`]: records the elapsed nanoseconds
/// into the latency histogram on drop.
#[must_use = "the measured span ends when the timer drops"]
pub struct LatencyTimer {
    latency: &'static Latency,
    start: Instant,
}

impl Drop for LatencyTimer {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency.hist.record(nanos);
    }
}

#[derive(Default)]
struct Dynamic {
    counters: BTreeMap<String, u64>,
    phases: BTreeMap<String, PhaseSnapshot>,
}

/// The global sink every metric registers with.
///
/// Obtain it with [`registry`]. Static [`Counter`]s and [`Histogram`]s
/// register themselves on first use; dynamic (string-named) counters and
/// phase timings land in an internal map, optionally namespaced through a
/// [`Scope`].
pub struct MetricsRegistry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    gauges: Mutex<Vec<&'static crate::Gauge>>,
    dynamic: Mutex<Dynamic>,
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry.
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(|| MetricsRegistry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        dynamic: Mutex::new(Dynamic::default()),
    })
}

/// Registers a static gauge on its first use (called from `Gauge`).
pub(crate) fn register_gauge(gauge: &'static crate::Gauge) {
    registry()
        .gauges
        .lock()
        .expect("gauge list poisoned")
        .push(gauge);
}

/// Starts timing a phase; the span is recorded when the guard drops.
///
/// Alias of [`span`], kept for the flat-metrics vocabulary of PR 1: every
/// phase *is* a span, and the aggregated per-name wall-clock totals in the
/// snapshot are unchanged.
pub fn phase(name: impl Into<String>) -> SpanGuard {
    span(name)
}

/// Opens a hierarchical span: an RAII guard that, on drop, adds its
/// elapsed wall-clock time to the phase aggregate under `name` and — when
/// a trace is being recorded (see [`trace_begin`]) — emits a
/// [`SpanEvent`] whose parent is the span enclosing it on the same thread.
pub fn span(name: impl Into<String>) -> SpanGuard {
    SpanGuard {
        inner: Some(Box::new(SpanInner::open(name.into(), true))),
    }
}

/// Opens a span only while a trace is being recorded; otherwise returns an
/// inert guard that costs a single atomic load. For hot loops (per
/// merge-round, per page-read) where even the phase-aggregate mutex would
/// be too much overhead in untraced runs.
pub fn detail_span(name: impl Into<String>) -> SpanGuard {
    if !trace_active() {
        return SpanGuard { inner: None };
    }
    SpanGuard {
        inner: Some(Box::new(SpanInner::open(name.into(), false))),
    }
}

impl MetricsRegistry {
    /// A scope that prefixes every dynamic metric name with `label.`.
    pub fn scope(&'static self, label: impl Into<String>) -> Scope {
        Scope {
            prefix: label.into(),
        }
    }

    /// Adds `n` to the dynamic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        let mut dyn_ = self.dynamic_lock();
        *dyn_.counters.entry(name.to_string()).or_insert(0) += n;
    }

    fn dynamic_lock(&self) -> MutexGuard<'_, Dynamic> {
        self.dynamic.lock().expect("dynamic metrics poisoned")
    }

    fn record_phase(&self, name: String, nanos: u64) {
        let mut dyn_ = self.dynamic_lock();
        let p = dyn_.phases.entry(name).or_default();
        p.nanos += nanos;
        p.calls += 1;
    }

    /// A deterministic copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for c in self.counters.lock().expect("counter list poisoned").iter() {
            let v = c.get();
            if v > 0 {
                *snap.counters.entry(c.name.to_string()).or_insert(0) += v;
            }
        }
        for h in self
            .histograms
            .lock()
            .expect("histogram list poisoned")
            .iter()
        {
            let s = h.snapshot();
            if s.count > 0 {
                snap.histograms.insert(h.name.to_string(), s);
            }
        }
        for g in self.gauges.lock().expect("gauge list poisoned").iter() {
            let s = g.snapshot();
            if s.current > 0 || s.peak > 0 {
                snap.gauges.insert(g.name().to_string(), s);
            }
        }
        crate::alloc::snapshot_into(&mut snap);
        let dyn_ = self.dynamic_lock();
        for (name, v) in &dyn_.counters {
            if *v > 0 {
                *snap.counters.entry(name.clone()).or_insert(0) += v;
            }
        }
        for (name, p) in &dyn_.phases {
            snap.phases.insert(name.clone(), *p);
        }
        snap
    }

    /// Zeroes every registered metric. Call at the start of a measured
    /// run so the snapshot reflects only that run.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter list poisoned").iter() {
            c.value.store(0, Ordering::Relaxed);
        }
        for h in self
            .histograms
            .lock()
            .expect("histogram list poisoned")
            .iter()
        {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.lock().expect("gauge list poisoned").iter() {
            g.reset();
        }
        crate::alloc::reset_peaks();
        let mut dyn_ = self.dynamic_lock();
        dyn_.counters.clear();
        dyn_.phases.clear();
    }
}

/// Prefixes dynamic metric names, e.g. `mining.apriori` →
/// `mining.apriori.level2.generated`.
pub struct Scope {
    prefix: String,
}

impl Scope {
    /// Adds `n` to the scoped dynamic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        registry().add(&format!("{}.{name}", self.prefix), n);
    }

    /// Starts timing a scoped phase.
    pub fn phase(&self, name: &str) -> SpanGuard {
        span(format!("{}.{name}", self.prefix))
    }
}

/// Former name of [`SpanGuard`], kept so PR 1 call sites and docs read
/// unchanged.
pub type PhaseGuard = SpanGuard;

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// Monotonic process-unique span ids (0 is never issued, so it can never
/// collide with a parent reference).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Dense per-thread ids for trace `tid` fields.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
/// Whether a trace is currently being collected. Checked with a relaxed
/// load on every span open, so untraced runs pay almost nothing extra.
static TRACE_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Collected events plus the shared time origin. Lives behind a mutex that
/// spans touch only at *drop* (one push), never per nested child.
static TRACE_BUF: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
/// The instant all span timestamps are measured from. Set once per
/// process: traces within one run share an origin, and Perfetto/Chrome
/// normalize to the earliest event anyway.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

fn trace_buf() -> &'static Mutex<Vec<SpanEvent>> {
    TRACE_BUF.get_or_init(|| Mutex::new(Vec::new()))
}

fn trace_epoch() -> Instant {
    *TRACE_EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's shared trace epoch — the timebase the
/// flight recorder stamps events with, so dumps and traces line up.
pub(crate) fn epoch_nanos() -> u64 {
    u64::try_from(trace_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// This thread's dense trace id (0 during thread-local teardown).
pub(crate) fn current_thread_id() -> u64 {
    THREAD_ID.try_with(|t| *t).unwrap_or(0)
}

thread_local! {
    /// This thread's dense trace id.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Ids of the currently open traced spans on this thread; the top is
    /// the parent of the next span opened here.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Starts collecting a span trace. Any previously collected (but not yet
/// taken) events are discarded.
pub fn trace_begin() {
    trace_epoch(); // pin the time origin before the first span
    trace_buf().lock().expect("trace buffer poisoned").clear();
    TRACE_ACTIVE.store(true, Ordering::SeqCst);
}

/// True while a trace is being collected.
#[inline]
pub fn trace_active() -> bool {
    TRACE_ACTIVE.load(Ordering::Relaxed)
}

/// Stops collecting and returns everything recorded since
/// [`trace_begin`]. Spans still open at this point are simply absent from
/// the trace (their completed children appear as roots).
pub fn trace_take() -> Trace {
    TRACE_ACTIVE.store(false, Ordering::SeqCst);
    let events = std::mem::take(&mut *trace_buf().lock().expect("trace buffer poisoned"));
    Trace { events }
}

/// Live state of an open span. Boxed inside the guard's `Option` so the
/// inert [`detail_span`] path moves nothing bigger than a pointer.
struct SpanInner {
    name: String,
    start: Instant,
    /// Add the elapsed time to the phase aggregates on drop (true for
    /// [`span`]/[`phase`], false for [`detail_span`], which only exists
    /// while tracing).
    record_phase: bool,
    /// Trace bookkeeping, present when tracing was active at open.
    trace: Option<TraceState>,
}

struct TraceState {
    id: u64,
    parent: Option<u64>,
    start_nanos: u64,
    args: Vec<(String, u64)>,
    /// Counters watched via [`SpanGuard::watch`]: their value at watch
    /// time, turned into a delta attachment at drop.
    watches: Vec<(&'static Counter, u64)>,
}

impl SpanInner {
    fn open(name: String, record_phase: bool) -> Self {
        if record_phase {
            crate::recorder::record_event(&name, crate::recorder::EventKind::SpanEnter, 0);
        }
        let trace = trace_active().then(|| {
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let parent = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied();
                s.push(id);
                parent
            });
            TraceState {
                id,
                parent,
                start_nanos: u64::try_from(trace_epoch().elapsed().as_nanos()).unwrap_or(u64::MAX),
                args: Vec::new(),
                watches: Vec::new(),
            }
        });
        SpanInner {
            name,
            start: Instant::now(),
            record_phase,
            trace,
        }
    }
}

/// RAII span guard returned by [`span`], [`phase`] and [`detail_span`]:
/// records elapsed wall-clock time into the registry (and the active
/// trace, if any) on drop.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard {
    inner: Option<Box<SpanInner>>,
}

impl SpanGuard {
    /// Attaches a key/value pair to the span's trace event. No-op when no
    /// trace is being recorded.
    pub fn attach(&mut self, key: &str, value: u64) {
        if let Some(trace) = self.inner.as_mut().and_then(|i| i.trace.as_mut()) {
            trace.args.push((key.to_string(), value));
        }
    }

    /// Watches `counter`: at drop, the counter's delta over the span's
    /// lifetime is attached as `<counter name>.delta`. No-op when no trace
    /// is being recorded.
    pub fn watch(&mut self, counter: &'static Counter) {
        if let Some(trace) = self.inner.as_mut().and_then(|i| i.trace.as_mut()) {
            trace.watches.push((counter, counter.get()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut inner) = self.inner.take() else {
            return;
        };
        let nanos = u64::try_from(inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(mut trace) = inner.trace.take() {
            // Always rebalance the thread stack, even if collection
            // stopped while this span was open.
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                debug_assert_eq!(s.last().copied(), Some(trace.id), "span drop order");
                s.pop();
            });
            if trace_active() {
                for (counter, start_value) in trace.watches.drain(..) {
                    let delta = counter.get().saturating_sub(start_value);
                    trace.args.push((format!("{}.delta", counter.name), delta));
                }
                let event = SpanEvent {
                    id: trace.id,
                    parent: trace.parent,
                    name: inner.name.clone(),
                    thread: THREAD_ID.with(|t| *t),
                    start_nanos: trace.start_nanos,
                    duration_nanos: nanos,
                    args: trace.args,
                };
                trace_buf()
                    .lock()
                    .expect("trace buffer poisoned")
                    .push(event);
            }
        }
        if inner.record_phase {
            crate::recorder::record_event(&inner.name, crate::recorder::EventKind::SpanExit, nanos);
            registry().record_phase(std::mem::take(&mut inner.name), nanos);
        }
    }
}
