//! The metric catalog and the run report.
//!
//! [`METRICS`] is the one list of metric names and units; `BENCHMARK.json`
//! mirrors it (the smoke test checks that they agree). Every workload
//! reports every metric: end-to-end metrics are defined on all workloads
//! and are never 0, while a per-layer metric of a layer a workload does
//! not exercise reads 0 with `n = 0`. Per-layer times of such layers are
//! therefore given as shares of the traced pass (unit `ratio`) rather than
//! in seconds, so that every metric with a time unit is a real
//! measurement on every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::stats;

/// End-to-end (`e2e`) or per-layer (`layer`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the system; gated by a bound in `BENCHMARK.json`.
    E2e,
    /// One layer's share of the work; report only.
    Layer,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        kind: Kind::E2e,
        unit,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        kind: Kind::Layer,
        unit,
    }
}

/// Every metric the benchmark prints, in print order. See the README for
/// what each one means on each workload.
pub const METRICS: &[Def] = &[
    e2e("setup_s", "s"),
    e2e("segment_s", "s"),
    e2e("ossm_op_ms", "ms"),
    e2e("other_op_ms", "ms"),
    e2e("peak_rss_mb", "MB"),
    // ossm-data
    layer("data.gen_s", "s"),
    layer("data.page_reads", "count"),
    layer("data.page_reads_base", "count"),
    layer("data.fetch_pages_per_s", "pages/s"),
    layer("data.fetch.share", "ratio"),
    layer("data.pool.hit_ratio", "ratio"),
    layer("data.pool.evictions", "count"),
    layer("data.pool.skipped_pages", "count"),
    layer("data.wal.stage.share", "ratio"),
    layer("data.wal.fsync.share", "ratio"),
    // ossm-core
    layer("core.seg.aggregate.share", "ratio"),
    layer("core.seg.merge.share", "ratio"),
    layer("core.seg.loss_matrix.share", "ratio"),
    layer("core.seg.loss_evals", "count"),
    layer("core.seg.loss", "count"),
    layer("core.ossm_bytes", "bytes"),
    layer("core.bound.share", "ratio"),
    layer("core.bound.ns_per_eval", "ns"),
    layer("core.bound.evals_per_candidate", "ratio"),
    layer("core.incremental.apply.share", "ratio"),
    layer("core.incremental.publish.share", "ratio"),
    // ossm-mining
    layer("mining.gen.share", "ratio"),
    layer("mining.gen.candidates", "count"),
    layer("mining.count.share", "ratio"),
    layer("mining.count.c2_fraction", "ratio"),
    layer("mining.filter.prune_ratio", "ratio"),
    layer("mining.filter.false_pos_ratio", "ratio"),
    layer("mining.filter.speedup", "x"),
    layer("mining.ooc.apriori.share", "ratio"),
    layer("mining.ooc.dhp.share", "ratio"),
    layer("mining.ooc.fpgrowth.share", "ratio"),
    layer("mining.ooc.passes", "count"),
    // ossm-serve and its load generator
    layer("serve.ingest_tx_per_s", "tx/s"),
    layer("serve.ack.p99_over_p50", "ratio"),
    layer("serve.ack.p999_over_p50", "ratio"),
    layer("serve.ub.p99_over_p50", "ratio"),
    layer("serve.ub.p999_over_p50", "ratio"),
    layer("serve.commit.fsyncs_per_ack", "ratio"),
    layer("serve.commit.group_mean", "count"),
    layer("serve.residual.share", "ratio"),
    layer("serve.shed.stale_read_ratio", "ratio"),
    layer("serve.shed.overloaded", "count"),
    layer("serve.client.retries", "count"),
    layer("load.late_p99_over_interval", "ratio"),
    // the traced pass itself
    layer("trace.total_s", "s"),
    layer("trace.overhead_ratio", "ratio"),
];

fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

/// A metric's value with its sample count and quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The reported value (a median for sampled metrics).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// First quartile of the samples.
    pub p25: f64,
    /// Third quartile of the samples.
    pub p75: f64,
}

impl Value {
    /// The median of `samples`, with their quartiles.
    pub fn median_of(samples: &[f64]) -> Self {
        let (p25, p75) = stats::quartiles(samples);
        Value {
            value: stats::median(samples),
            n: samples.len(),
            p25,
            p75,
        }
    }

    /// One measured or counted value.
    pub fn single(value: f64) -> Self {
        Value {
            value,
            n: 1,
            p25: value,
            p75: value,
        }
    }

    /// A per-layer metric of a layer the workload does not exercise.
    pub fn not_exercised() -> Self {
        Value {
            value: 0.0,
            n: 0,
            p25: 0.0,
            p75: 0.0,
        }
    }
}

/// Everything one workload run measured and checked.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    values: BTreeMap<&'static str, Value>,
    /// Operations attempted (mining runs, requests, probes).
    pub attempted: u64,
    /// Operations that failed, plus one per failed gate.
    pub failed: u64,
    /// Human-readable description of each failed gate.
    pub failures: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in [`METRICS`] or was already set — both
    /// are bugs in a workload.
    pub fn set(&mut self, name: &'static str, value: Value) {
        assert!(def(name).is_some(), "metric {name} is not declared");
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Records a scalar metric.
    pub fn set_single(&mut self, name: &'static str, value: f64) {
        self.set(name, Value::single(value));
    }

    /// Checks a correctness gate; a failure is counted and described.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Whether every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn value_of(&self, d: &Def) -> Value {
        self.values
            .get(d.name)
            .copied()
            .unwrap_or_else(Value::not_exercised)
    }

    /// Prints one JSON line per metric (end-to-end ones always, per-layer
    /// ones when `layers`), then the summary object as the last line:
    /// end-to-end metrics without `layers`, per-layer metrics with it.
    pub fn emit(&self, layers: bool, out: &mut dyn Write) -> io::Result<()> {
        for d in METRICS {
            if d.kind == Kind::Layer && !layers {
                continue;
            }
            let v = self.value_of(d);
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"metric\":\"{}\",\"kind\":\"{}\",\"unit\":\"{}\",\
                 \"value\":{},\"n\":{},\"p25\":{},\"p75\":{}}}",
                self.workload,
                d.name,
                d.kind.as_str(),
                d.unit,
                num(v.value),
                v.n,
                num(v.p25),
                num(v.p75),
            )?;
        }
        let wanted = if layers { Kind::Layer } else { Kind::E2e };
        let mut metrics = String::new();
        for d in METRICS.iter().filter(|d| d.kind == wanted) {
            if !metrics.is_empty() {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(self.value_of(d).value),
                d.unit
            );
        }
        writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in METRICS {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
        }
        assert!(METRICS.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn summary_carries_the_kind_asked_for() {
        let mut r = Report::new("w");
        r.set_single("setup_s", 1.5);
        r.set("data.gen_s", Value::median_of(&[1.0, 2.0, 3.0]));
        r.attempted = 3;
        let mut out = Vec::new();
        r.emit(false, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(last.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!last.contains("data.gen_s"));
        assert!(!text.contains("\"kind\":\"layer\""));

        let mut out = Vec::new();
        r.emit(true, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"data.gen_s\":{\"value\":2.0,\"unit\":\"s\"}"));
        assert!(!last.contains("setup_s"));
        assert!(text.contains(
            "\"metric\":\"data.gen_s\",\"kind\":\"layer\",\"unit\":\"s\",\"value\":2.0,\"n\":3"
        ));
    }

    #[test]
    fn failed_gates_make_the_run_incorrect() {
        let mut r = Report::new("w");
        r.gate(true, || unreachable!());
        assert!(r.correct());
        r.gate(false, || "patterns differ".into());
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
        assert_eq!(r.failures, ["patterns differ"]);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_rejected() {
        Report::new("w").set_single("bogus", 1.0);
    }
}
