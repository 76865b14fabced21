//! Compile-and-behavior test of the disabled (no-op) build: the default
//! feature set of `ossm-obs` is empty, so a bare `cargo test -p ossm-obs`
//! runs this file. Everything must compile against the same API as the
//! live build and record nothing.
#![cfg(not(feature = "enabled"))]

use ossm_obs::{phase, registry, Counter, Gauge, Histogram, Reporter, StatsFormat};

static COUNTER: Counter = Counter::new("noop.counter");
static HISTOGRAM: Histogram = Histogram::new("noop.histogram");
static GAUGE: Gauge = Gauge::new("noop.gauge");

#[test]
#[allow(clippy::assertions_on_constants)] // the constant IS the subject under test
fn stubs_are_zero_sized() {
    assert!(!ossm_obs::ENABLED);
    assert_eq!(std::mem::size_of::<Counter>(), 0);
    assert_eq!(std::mem::size_of::<Histogram>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::Tally>(), 0);
    assert_eq!(std::mem::size_of::<Gauge>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::GaugeCharge>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::AllocScope>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::MetricsRegistry>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::Scope>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::PhaseGuard>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::SpanGuard>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::Latency>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::LatencyTimer>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::IntervalTracker>(), 0);
    assert_eq!(std::mem::size_of::<ossm_obs::MetricsServer>(), 0);
}

#[test]
fn recording_is_compiled_away() {
    // The full instrumentation surface must be callable…
    COUNTER.incr();
    COUNTER.add(42);
    HISTOGRAM.record(7);
    let mut tally = ossm_obs::Tally::new();
    tally.record(7);
    HISTOGRAM.record_tally(&tally);
    registry().add("noop.dynamic", 3);
    let scope = registry().scope("noop.scope");
    scope.add("x", 1);
    drop(scope.phase("span"));
    drop(phase("noop.phase"));
    // The span-tracing surface too: open spans, attach data, record a
    // "trace" — all of it must compile away and yield an empty trace.
    ossm_obs::trace_begin();
    assert!(!ossm_obs::trace_active(), "tracing can never activate");
    {
        let mut s = ossm_obs::span("noop.span");
        s.attach("page", 3);
        s.watch(&COUNTER);
        drop(ossm_obs::detail_span("noop.detail"));
    }
    let trace = ossm_obs::trace_take();
    assert!(trace.is_empty(), "disabled builds collect no spans");
    assert_eq!(trace.to_folded(), "");
    // …and leave no trace.
    assert_eq!(COUNTER.get(), 0);
    let snap = registry().snapshot();
    assert!(snap.is_empty(), "disabled builds must record nothing");
    assert!(Reporter::new(StatsFormat::Table).render(&snap).is_empty());
    assert!(Reporter::new(StatsFormat::Json).render(&snap).is_empty());
    registry().reset(); // must also be a no-op, not a panic
}

#[test]
fn resource_accounting_is_compiled_away() {
    // Gauges, charges, and alloc scopes all accept the full API…
    GAUGE.add(100);
    GAUGE.sub(30);
    GAUGE.set(7);
    drop(GAUGE.charge(4096));
    {
        let _scope = ossm_obs::alloc_scope("noop.scope");
        let _v: Vec<u64> = Vec::with_capacity(512);
    }
    // …and record nothing.
    assert_eq!(GAUGE.current(), 0);
    assert_eq!(GAUGE.peak(), 0);
    assert!(!ossm_obs::alloc::tracking_active());
    assert_eq!(ossm_obs::alloc::rss_bytes(), None);
    let snap = registry().snapshot();
    assert!(snap.is_empty(), "disabled builds carry no gauge rows");
}

#[test]
fn live_telemetry_is_compiled_away() {
    static LATENCY: ossm_obs::Latency = ossm_obs::Latency::new("noop.latency");
    // The timing surface must be callable and record nothing…
    drop(LATENCY.time());
    LATENCY.record_nanos(1_000_000);
    assert!(registry().snapshot().is_empty());
    // …and interval ticks are always empty.
    let mut tracker = ossm_obs::IntervalTracker::new();
    let d = tracker.tick();
    assert!(d.is_empty());
    assert_eq!(d.resets, 0);
    // The metrics endpoint refuses to start rather than serving blanks.
    let err = ossm_obs::MetricsServer::start("127.0.0.1:0")
        .err()
        .expect("disabled builds cannot serve");
    assert!(
        err.to_string().contains("instrumentation compiled out"),
        "{err}"
    );
}

#[test]
fn flight_recorder_is_inert() {
    use ossm_obs::recorder::{self, EventKind};
    recorder::install_panic_hook();
    recorder::record_event("noop.event", EventKind::Fault, 1);
    recorder::dump_on_fault(); // must not touch the filesystem
    assert_eq!(recorder::total_recorded(), 0);
    assert!(recorder::events().is_empty(), "no ring exists to read");
    // dump_to is a no-op that must not create its target file.
    let path = std::env::temp_dir()
        .join("ossm-obs-tests")
        .join("noop-recorder-dump.jsonl");
    std::fs::remove_file(&path).ok();
    recorder::dump_to(&path).expect("no-op dump succeeds");
    assert!(!path.exists(), "disabled builds never write dump files");
    // The timeline renderer stays available for `ossm obs dump` even in
    // disabled builds: it reads files, not the (absent) ring.
    let dump = "{\"type\":\"ossm-flightrec\",\"version\":1,\"total\":1,\"events\":1}\n\
                {\"type\":\"event\",\"seq\":0,\"nanos\":5,\"thread\":0,\"kind\":\"fault\",\"name\":\"x\",\"value\":0}\n";
    let timeline = recorder::render_timeline(dump).expect("renderer works");
    assert!(timeline.contains("flight recorder timeline (1 events)"));
}
