//! The bench regression gate: compares two `BENCH_obs.json` files
//! (committed baseline vs fresh run) metric by metric.
//!
//! A `BENCH_obs.json` is the line-oriented stream `all-experiments`
//! writes: speedup rows (`"type":"speedup"`) followed by the
//! instrumentation snapshot (`"type":"counter" | "phase" | "histogram"`).
//! This module flattens both files into `name → value` maps and diffs
//! them under per-metric relative thresholds:
//!
//! * **count metrics** (candidate counts, loss, counter values, phase call
//!   counts, …) are deterministic for a seeded workload, so they are gated
//!   *symmetrically*: any relative drift beyond `count_drift` fails —
//!   an unexplained drop in `core.bound.pruned` is as suspicious as a
//!   rise in `c2_counted`.
//! * **timing metrics** (any name ending in `nanos`) are machine-
//!   dependent, so they are reported always but gated only when a
//!   `time_regress` threshold is given (and only against *increases*).
//! * **scheduling metrics** (the `par.*` fork-join telemetry) depend on
//!   the machine's core count, not the computation — reported, never
//!   gated (see [`is_scheduling`]).
//! * **memory metrics** (`gauge.mem.*`) split in two: the static
//!   subsystem gauges are deterministic cost models, so their `.peak`
//!   rows gate at the looser `mem_drift` threshold; the allocator- and
//!   RSS-derived rows (`mem.alloc*`, `mem.rss*`) depend on the allocator
//!   and scheduling, so they are reported but never gated. All memory
//!   rows are exempt from the missing-metric failure — an `obs-alloc`
//!   run produces rows a default-feature run cannot (see [`is_memory`]).
//!
//! A metric present in the baseline but missing from the current run
//! always fails — silently losing instrumentation is itself a regression.
//! New metrics only report (adding instrumentation is how the baseline
//! grows; refresh it with `regress --write-baseline`).
//!
//! Independently of the baseline, every obs metric name in the current
//! run is checked against the [`ossm_obs::REGISTRY`] name registry (the
//! same file lint rule R3 enforces against the source): a name absent
//! from the registry is listed as *unregistered* — report-only, but it
//! means a producer minted a metric name outside the declared contract.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ossm_obs::json::{self, Json};

/// Flattened metrics of one `BENCH_obs.json`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsData {
    /// `metric name → value`, names as produced by [`parse_obs_lines`].
    pub metrics: BTreeMap<String, f64>,
}

/// True for metrics measuring wall-clock time (nanosecond-valued), which
/// vary run to run and are gated separately from deterministic counts.
/// Latency-histogram sums (`histogram.*.latency.sum`) are accumulated
/// nanoseconds too — their naming carries the unit in the metric name
/// rather than the field suffix.
pub fn is_timing(name: &str) -> bool {
    name.ends_with("nanos") || name.ends_with(".latency.sum")
}

/// True for per-interval rates and derived latency quantiles (the
/// `*.per_sec` / `*.p50` / `*.p95` / `*.p99` rows of the live-telemetry
/// layer). Pure wall-clock artifacts: reported, never gated, and exempt
/// from the missing-metric failure (a batch run records no intervals).
pub fn is_rate_or_quantile(name: &str) -> bool {
    name.ends_with(".per_sec")
        || name.ends_with(".p50")
        || name.ends_with(".p95")
        || name.ends_with(".p99")
}

/// True for serving-workload metrics (the `live.*` / `req.*` / `srv.*`
/// families): how many requests the service and its metrics endpoint
/// served, how request latencies distributed, and how the service's
/// admission control sheds under load depend on wall clock, pacing, and
/// thread scheduling, not on the computation. Reported, never gated,
/// missing-exempt.
pub fn is_serving(name: &str) -> bool {
    let base = name
        .strip_prefix("counter.")
        .or_else(|| name.strip_prefix("phase."))
        .or_else(|| name.strip_prefix("histogram."))
        .or_else(|| name.strip_prefix("gauge."))
        .unwrap_or(name);
    base.starts_with("live.") || base.starts_with("req.") || base.starts_with("srv.")
}

/// True for scheduling-dependent metrics: the ossm-par fork-join telemetry
/// (`par.jobs`, `par.chunks`, `par.serial`, `par.worker` spans) counts how
/// many maps spawned workers vs ran inline, which depends on the machine's
/// core count and any `OSSM_THREADS` override — *results* are bit-identical
/// across thread counts, but these counters are not. Reported, never gated,
/// and exempt from the missing-metric failure (a one-core run legitimately
/// records no `par.jobs` at all).
pub fn is_scheduling(name: &str) -> bool {
    name.starts_with("counter.par.")
        || name.starts_with("phase.par.")
        || name.starts_with("histogram.par.")
}

/// True for memory metrics (the flattened `gauge.mem.*` rows). Exempt
/// from the missing-metric failure: the allocator-derived rows exist only
/// under the `obs-alloc` feature, so a default-feature run legitimately
/// records none of them.
pub fn is_memory(name: &str) -> bool {
    name.starts_with("gauge.mem.")
}

/// True for the nondeterministic memory rows — allocator byte counts and
/// RSS samples — whose values depend on the allocator, libc, and thread
/// scheduling. Reported, never gated.
fn is_allocator_memory(name: &str) -> bool {
    name.starts_with("gauge.mem.alloc") || name.starts_with("gauge.mem.rss")
}

/// The obs registry name behind a flattened metric key, if any: strips
/// the `counter.` / `phase.` / `histogram.` / `gauge.` type prefix and
/// the `.nanos` / `.calls` / `.count` / `.sum` / `.current` / `.peak`
/// field suffix. Speedup rows (`speedup[...]`) carry workload scopes,
/// not registry names, so they return `None`.
pub fn base_name(name: &str) -> Option<&str> {
    if let Some(rest) = name.strip_prefix("counter.") {
        return Some(rest);
    }
    if let Some(rest) = name.strip_prefix("phase.") {
        return rest.strip_suffix(".nanos").or(rest.strip_suffix(".calls"));
    }
    if let Some(rest) = name.strip_prefix("histogram.") {
        return rest
            .strip_suffix(".count")
            .or(rest.strip_suffix(".sum"))
            .or(rest.strip_suffix(".p50"))
            .or(rest.strip_suffix(".p95"))
            .or(rest.strip_suffix(".p99"));
    }
    if let Some(rest) = name.strip_prefix("gauge.") {
        return rest.strip_suffix(".current").or(rest.strip_suffix(".peak"));
    }
    None
}

/// Whether `base` appears in the newline-separated name `registry`
/// (comments and blanks skipped). An entry ending in `.*` declares a
/// dynamic-name prefix: `mem.alloc.*` admits `mem.alloc` itself and
/// everything beneath it.
pub fn registered(base: &str, registry: &str) -> bool {
    for line in registry.lines() {
        let entry = line.split('#').next().unwrap_or("").trim();
        if entry.is_empty() {
            continue;
        }
        if let Some(prefix) = entry.strip_suffix(".*") {
            if base == prefix
                || base
                    .strip_prefix(prefix)
                    .is_some_and(|r| r.starts_with('.'))
            {
                return true;
            }
        } else if base == entry {
            return true;
        }
    }
    false
}

/// Flattened metric keys of `data` whose obs name is absent from
/// `registry`. Report-only: a hit means a producer minted a metric name
/// outside the declared contract (or the registry needs the new name).
pub fn unregistered_metrics(data: &ObsData, registry: &str) -> Vec<String> {
    data.metrics
        .keys()
        .filter(|name| base_name(name).is_some_and(|base| !registered(base, registry)))
        .cloned()
        .collect()
}

/// Parses the line-oriented `BENCH_obs.json` format into flat metrics.
/// Lines with an unknown `type` are ignored (forward compatibility).
pub fn parse_obs_lines(text: &str) -> Result<ObsData, String> {
    let mut out = ObsData::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = v.get("type").and_then(Json::as_str).unwrap_or_default();
        let str_of = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("?").to_owned();
        let num_of = |key: &str| v.get(key).and_then(Json::as_f64);
        match ty {
            "speedup" => {
                let prefix = format!(
                    "speedup[{}/{}/n{}]",
                    str_of("workload"),
                    str_of("strategy"),
                    num_of("n_user").unwrap_or(0.0)
                );
                for key in [
                    "c2_counted",
                    "c2_fraction",
                    "loss",
                    "memory_bytes",
                    "segmentation_nanos",
                    "mining_nanos",
                ] {
                    if let Some(value) = num_of(key) {
                        out.metrics.insert(format!("{prefix}.{key}"), value);
                    }
                }
            }
            "counter" => {
                if let Some(value) = num_of("value") {
                    out.metrics
                        .insert(format!("counter.{}", str_of("name")), value);
                }
            }
            "phase" => {
                let name = str_of("name");
                if let Some(nanos) = num_of("nanos") {
                    out.metrics.insert(format!("phase.{name}.nanos"), nanos);
                }
                if let Some(calls) = num_of("calls") {
                    out.metrics.insert(format!("phase.{name}.calls"), calls);
                }
            }
            "histogram" => {
                let name = str_of("name");
                if let Some(count) = num_of("count") {
                    out.metrics.insert(format!("histogram.{name}.count"), count);
                }
                if let Some(sum) = num_of("sum") {
                    out.metrics.insert(format!("histogram.{name}.sum"), sum);
                }
                for q in ["p50", "p95", "p99"] {
                    if let Some(value) = num_of(q) {
                        out.metrics.insert(format!("histogram.{name}.{q}"), value);
                    }
                }
            }
            "gauge" => {
                let name = str_of("name");
                if let Some(current) = num_of("current") {
                    out.metrics.insert(format!("gauge.{name}.current"), current);
                }
                if let Some(peak) = num_of("peak") {
                    out.metrics.insert(format!("gauge.{name}.peak"), peak);
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

/// Gate thresholds (relative, e.g. `0.05` = 5 %).
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Maximum |relative drift| for deterministic count metrics.
    pub count_drift: f64,
    /// Maximum relative *increase* for timing metrics; `None` leaves
    /// timings report-only (the CI-stable default).
    pub time_regress: Option<f64>,
    /// Maximum |relative drift| for the deterministic memory gauges'
    /// `.peak` rows. Looser than `count_drift`: the gauges are cost
    /// models whose constants shift when data-structure layouts evolve.
    pub mem_drift: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            count_drift: 0.05,
            time_regress: None,
            mem_drift: 0.10,
        }
    }
}

/// One metric's comparison.
#[derive(Clone, Debug)]
pub struct Diff {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub cur: f64,
    /// `(cur − base) / base`; infinite when `base == 0 != cur`.
    pub change: f64,
    /// Whether this metric breached its threshold.
    pub failed: bool,
}

/// The full comparison of two obs files.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Metrics present in both files.
    pub diffs: Vec<Diff>,
    /// Metrics only in the baseline (always a failure).
    pub missing: Vec<String>,
    /// Metrics only in the current run (report-only).
    pub added: Vec<String>,
    /// Current-run metrics whose obs name is absent from the name
    /// registry (report-only, see [`unregistered_metrics`]).
    pub unregistered: Vec<String>,
}

/// One key family's slice of a [`Report`] — see [`family`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Metrics present in both files.
    pub compared: usize,
    /// Compared metrics that breached their threshold.
    pub failed: usize,
    /// Metrics only in the baseline.
    pub missing: usize,
    /// Metrics only in the current run.
    pub added: usize,
    /// Current-run metrics absent from the name registry.
    pub unregistered: usize,
}

/// The key family a metric belongs to, for per-family coverage reporting.
///
/// Speedup keys keep their full bracketed scope
/// (`speedup[Dense/Greedy/n6]`), so every workload/strategy/n_user cell
/// the baseline covers shows up as its own row; snapshot keys group by
/// type plus the first dotted name segment (`counter.par`, `phase.data`).
pub fn family(name: &str) -> String {
    if let Some(rest) = name.strip_prefix("speedup[") {
        if let Some(end) = rest.find(']') {
            return format!("speedup[{}]", &rest[..end]);
        }
    }
    let mut parts = name.splitn(3, '.');
    match (parts.next(), parts.next()) {
        (Some(ty), Some(first)) => format!("{ty}.{first}"),
        _ => name.to_owned(),
    }
}

impl Report {
    /// Per-family coverage: how many metrics each key family contributed
    /// to the comparison, and how they fared. Makes gaps visible — a
    /// family whose row is all zeros except `missing` has dropped out of
    /// the current run entirely.
    pub fn coverage(&self) -> BTreeMap<String, Coverage> {
        let mut out: BTreeMap<String, Coverage> = BTreeMap::new();
        for d in &self.diffs {
            let entry = out.entry(family(&d.name)).or_default();
            entry.compared += 1;
            if d.failed {
                entry.failed += 1;
            }
        }
        for name in &self.missing {
            out.entry(family(name)).or_default().missing += 1;
        }
        for name in &self.added {
            out.entry(family(name)).or_default().added += 1;
        }
        for name in &self.unregistered {
            out.entry(family(name)).or_default().unregistered += 1;
        }
        out
    }
    /// True when any gated metric breached its threshold or any baseline
    /// metric disappeared.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.diffs.iter().any(|d| d.failed)
    }

    /// Renders the markdown report: verdict, failures, biggest movers.
    pub fn to_markdown(&self, thresholds: &Thresholds) -> String {
        let mut out = String::new();
        let failures: Vec<&Diff> = self.diffs.iter().filter(|d| d.failed).collect();
        let _ = writeln!(out, "# Bench regression report\n");
        let _ = writeln!(
            out,
            "Verdict: **{}** — {} metrics compared, {} failed threshold, \
             {} missing, {} new, {} unregistered. Count-drift gate ±{:.1}%; \
             memory-peak gate ±{:.1}%; timing gate {}.\n",
            if self.failed() { "FAIL" } else { "PASS" },
            self.diffs.len(),
            failures.len(),
            self.missing.len(),
            self.added.len(),
            self.unregistered.len(),
            thresholds.count_drift * 100.0,
            thresholds.mem_drift * 100.0,
            match thresholds.time_regress {
                Some(t) => format!("+{:.1}%", t * 100.0),
                None => "off (report-only)".to_owned(),
            },
        );
        if !failures.is_empty() {
            let _ = writeln!(out, "## Failures\n");
            let _ = writeln!(out, "| metric | baseline | current | change |");
            let _ = writeln!(out, "|---|---|---|---|");
            for d in &failures {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    d.name,
                    fmt_value(d.base),
                    fmt_value(d.cur),
                    fmt_change(d.change)
                );
            }
            out.push('\n');
        }
        if !self.missing.is_empty() {
            let _ = writeln!(out, "## Missing from the current run\n");
            for name in &self.missing {
                let _ = writeln!(out, "- {name}");
            }
            out.push('\n');
        }
        if !self.added.is_empty() {
            let _ = writeln!(
                out,
                "## New metrics ({}; refresh the baseline to gate them)\n",
                self.added.len()
            );
            for name in self.added.iter().take(20) {
                let _ = writeln!(out, "- {name}");
            }
            if self.added.len() > 20 {
                let _ = writeln!(out, "- … and {} more", self.added.len() - 20);
            }
            out.push('\n');
        }
        if !self.unregistered.is_empty() {
            let _ = writeln!(
                out,
                "## Unregistered metric names ({}; add them to the obs registry)\n",
                self.unregistered.len()
            );
            for name in self.unregistered.iter().take(20) {
                let _ = writeln!(out, "- {name}");
            }
            if self.unregistered.len() > 20 {
                let _ = writeln!(out, "- … and {} more", self.unregistered.len() - 20);
            }
            out.push('\n');
        }
        // The biggest non-failing movers give the "did anything shift?"
        // picture even on a green run.
        let mut movers: Vec<&Diff> = self
            .diffs
            .iter()
            .filter(|d| !d.failed && d.change != 0.0)
            .collect();
        movers.sort_by(|a, b| {
            b.change
                .abs()
                .partial_cmp(&a.change.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if !movers.is_empty() {
            let _ = writeln!(out, "## Largest movements within thresholds\n");
            let _ = writeln!(out, "| metric | baseline | current | change |");
            let _ = writeln!(out, "|---|---|---|---|");
            for d in movers.iter().take(10) {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} |",
                    d.name,
                    fmt_value(d.base),
                    fmt_value(d.cur),
                    fmt_change(d.change)
                );
            }
            out.push('\n');
        }
        let coverage = self.coverage();
        if !coverage.is_empty() {
            let _ = writeln!(out, "## Coverage by key family\n");
            let _ = writeln!(
                out,
                "| family | compared | failed | missing | new | unregistered |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|");
            for (name, c) in &coverage {
                let _ = writeln!(
                    out,
                    "| {name} | {} | {} | {} | {} | {} |",
                    c.compared, c.failed, c.missing, c.added, c.unregistered
                );
            }
        }
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

fn fmt_change(change: f64) -> String {
    if change.is_infinite() {
        "new-nonzero".to_owned()
    } else {
        format!("{:+.2}%", change * 100.0)
    }
}

/// Compares `current` against `baseline` under `thresholds`.
pub fn compare(baseline: &ObsData, current: &ObsData, thresholds: &Thresholds) -> Report {
    let mut report = Report {
        unregistered: unregistered_metrics(current, ossm_obs::REGISTRY),
        ..Report::default()
    };
    for (name, &base) in &baseline.metrics {
        let Some(&cur) = current.metrics.get(name) else {
            if is_scheduling(name)
                || is_memory(name)
                || is_serving(name)
                || is_rate_or_quantile(name)
            {
                // A different core count can drop a scheduling counter to
                // zero, a default-feature run records none of the
                // obs-alloc memory rows, and a batch run records no
                // serving/interval rows (all omitted from the snapshot);
                // record the diff rather than a hard missing-metric
                // failure.
                report.diffs.push(Diff {
                    name: name.clone(),
                    base,
                    cur: 0.0,
                    change: if base == 0.0 { 0.0 } else { -1.0 },
                    failed: false,
                });
            } else {
                report.missing.push(name.clone());
            }
            continue;
        };
        let change = if base == 0.0 {
            if cur == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (cur - base) / base
        };
        let failed = if is_scheduling(name) || is_serving(name) || is_rate_or_quantile(name) {
            false
        } else if is_memory(name) {
            // Only the deterministic gauges' peaks gate; the allocator /
            // RSS rows and end-of-run currents are report-only.
            !is_allocator_memory(name)
                && name.ends_with(".peak")
                && change.abs() > thresholds.mem_drift
        } else if is_timing(name) {
            thresholds.time_regress.is_some_and(|t| change > t)
        } else {
            change.abs() > thresholds.count_drift
        };
        report.diffs.push(Diff {
            name: name.clone(),
            base,
            cur,
            change,
            failed,
        });
    }
    for name in current.metrics.keys() {
        if !baseline.metrics.contains_key(name) {
            report.added.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        r#"{"type":"speedup","workload":"Regular","strategy":"Greedy","n_user":6,"segmentation_nanos":1000,"mining_nanos":2000,"speedup":1.5,"c2_counted":100,"c2_fraction":0.25,"loss":7,"memory_bytes":4096}"#,
        "\n",
        r#"{"type":"counter","name":"core.bound.evals","value":128}"#,
        "\n",
        r#"{"type":"phase","name":"core.build.segment","nanos":5000,"calls":3}"#,
        "\n",
        r#"{"type":"histogram","name":"mining.bound.slack","count":12,"sum":40,"buckets":[[0,4],[4,8]]}"#,
        "\n",
    );

    #[test]
    fn parses_every_line_type() {
        let d = parse_obs_lines(SAMPLE).unwrap();
        let m = &d.metrics;
        assert_eq!(m.get("speedup[Regular/Greedy/n6].c2_counted"), Some(&100.0));
        assert_eq!(m.get("speedup[Regular/Greedy/n6].loss"), Some(&7.0));
        assert_eq!(
            m.get("speedup[Regular/Greedy/n6].mining_nanos"),
            Some(&2000.0)
        );
        assert_eq!(m.get("counter.core.bound.evals"), Some(&128.0));
        assert_eq!(m.get("phase.core.build.segment.nanos"), Some(&5000.0));
        assert_eq!(m.get("phase.core.build.segment.calls"), Some(&3.0));
        assert_eq!(m.get("histogram.mining.bound.slack.count"), Some(&12.0));
        assert_eq!(m.get("histogram.mining.bound.slack.sum"), Some(&40.0));
    }

    #[test]
    fn identical_files_pass() {
        let d = parse_obs_lines(SAMPLE).unwrap();
        let report = compare(&d, &d, &Thresholds::default());
        assert!(!report.failed());
        assert!(report.missing.is_empty() && report.added.is_empty());
        assert!(report.to_markdown(&Thresholds::default()).contains("PASS"));
    }

    #[test]
    fn count_drift_fails_in_both_directions() {
        let base = parse_obs_lines(SAMPLE).unwrap();
        for value in [100, 160] {
            // 128 ± 25% on core.bound.evals, beyond the 5% gate.
            let cur =
                parse_obs_lines(&SAMPLE.replace(r#""value":128"#, &format!(r#""value":{value}"#)))
                    .unwrap();
            let report = compare(&base, &cur, &Thresholds::default());
            assert!(report.failed(), "value {value} must fail");
            let md = report.to_markdown(&Thresholds::default());
            assert!(md.contains("FAIL") && md.contains("core.bound.evals"));
        }
    }

    #[test]
    fn timings_are_report_only_by_default() {
        let base = parse_obs_lines(SAMPLE).unwrap();
        let cur = parse_obs_lines(&SAMPLE.replace(r#""nanos":5000"#, r#""nanos":500000"#)).unwrap();
        assert!(!compare(&base, &cur, &Thresholds::default()).failed());
        // With an explicit timing gate, a 100x slowdown fails…
        let gated = Thresholds {
            time_regress: Some(0.5),
            ..Thresholds::default()
        };
        assert!(compare(&base, &cur, &gated).failed());
        // …but a speedup never does.
        let faster = parse_obs_lines(&SAMPLE.replace(r#""nanos":5000"#, r#""nanos":50"#)).unwrap();
        assert!(!compare(&base, &faster, &gated).failed());
    }

    #[test]
    fn missing_metrics_fail_and_new_metrics_report() {
        let base = parse_obs_lines(SAMPLE).unwrap();
        let cur = parse_obs_lines(&SAMPLE.replace(
            r#"{"type":"counter","name":"core.bound.evals","value":128}"#,
            r#"{"type":"counter","name":"core.bound.other","value":128}"#,
        ))
        .unwrap();
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(report.failed(), "losing a metric is a regression");
        assert_eq!(report.missing, vec!["counter.core.bound.evals".to_owned()]);
        assert_eq!(report.added, vec!["counter.core.bound.other".to_owned()]);
        // New-only metrics alone must not fail.
        let grown = compare(&cur, &base, &Thresholds::default());
        assert_eq!(grown.missing, vec!["counter.core.bound.other".to_owned()]);
    }

    #[test]
    fn zero_baseline_fails_only_when_current_is_nonzero() {
        let base = parse_obs_lines(&SAMPLE.replace(r#""value":128"#, r#""value":0"#)).unwrap();
        let same = compare(&base, &base, &Thresholds::default());
        assert!(!same.failed(), "0 -> 0 is no drift");
        let cur = parse_obs_lines(&SAMPLE.replace(r#""value":128"#, r#""value":3"#)).unwrap();
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(report.failed(), "0 -> 3 is unbounded drift");
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = parse_obs_lines("{\"type\":\"counter\"\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn scheduling_metrics_report_but_never_gate() {
        let with_par = concat!(
            r#"{"type":"counter","name":"par.serial","value":40}"#,
            "\n",
            r#"{"type":"counter","name":"par.jobs","value":12}"#,
            "\n",
            r#"{"type":"counter","name":"core.bound.evals","value":128}"#,
            "\n",
        );
        let base = parse_obs_lines(with_par).unwrap();
        // A one-core run: fewer spawns, more inline maps, no par.jobs line
        // at all. None of that may fail the gate.
        let cur = parse_obs_lines(&with_par.replace(
            r#"{"type":"counter","name":"par.jobs","value":12}"#,
            r#"{"type":"counter","name":"par.serial","value":52}"#,
        ))
        .unwrap();
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(!report.failed(), "scheduling drift must not gate");
        assert!(report.missing.is_empty(), "par.jobs absence is not missing");
        let jobs = report.diffs.iter().find(|d| d.name == "counter.par.jobs");
        assert_eq!(jobs.map(|d| d.cur), Some(0.0), "still visible in diffs");
        // The deterministic counter alongside still gates normally.
        let drifted =
            parse_obs_lines(&with_par.replace(r#""value":128"#, r#""value":300"#)).unwrap();
        assert!(compare(&base, &drifted, &Thresholds::default()).failed());
    }

    #[test]
    fn families_group_by_speedup_scope_or_first_name_segment() {
        assert_eq!(
            family("speedup[Regular+seed2/RC/n6].c2_counted"),
            "speedup[Regular+seed2/RC/n6]"
        );
        assert_eq!(family("counter.par.chunks"), "counter.par");
        assert_eq!(family("phase.core.build.segment.nanos"), "phase.core");
        assert_eq!(
            family("histogram.mining.bound.slack.sum"),
            "histogram.mining"
        );
        assert_eq!(family("oddball"), "oddball");
    }

    #[test]
    fn coverage_counts_every_disposition_per_family() {
        let base = parse_obs_lines(SAMPLE).unwrap();
        // Drop the counter (missing), rename the phase (missing + added),
        // and drift the speedup row's loss past the gate (failed).
        let cur = parse_obs_lines(
            &SAMPLE
                .replace(
                    r#"{"type":"counter","name":"core.bound.evals","value":128}"#,
                    "",
                )
                .replace("core.build.segment", "data.page.scan")
                .replace(r#""loss":7"#, r#""loss":70"#),
        )
        .unwrap();
        let report = compare(&base, &cur, &Thresholds::default());
        let cov = report.coverage();
        assert_eq!(
            cov.get("counter.core"),
            Some(&Coverage {
                missing: 1,
                ..Coverage::default()
            })
        );
        assert_eq!(
            cov.get("phase.core"),
            Some(&Coverage {
                missing: 2,
                ..Coverage::default()
            })
        );
        assert_eq!(
            cov.get("phase.data"),
            Some(&Coverage {
                added: 2,
                // "data.page.scan" is not a registered obs name.
                unregistered: 2,
                ..Coverage::default()
            })
        );
        let speedup = cov.get("speedup[Regular/Greedy/n6]").expect("family");
        assert_eq!(speedup.compared, 6);
        assert_eq!(speedup.failed, 1, "only loss drifted");
        let md = report.to_markdown(&Thresholds::default());
        assert!(md.contains("## Coverage by key family"));
        assert!(md.contains("| counter.core | 0 | 0 | 1 | 0 | 0 |"), "{md}");
        // The renamed phase target is not a registered obs name, so the
        // coverage row flags it (both its .nanos and .calls keys).
        assert!(md.contains("| phase.data | 0 | 0 | 0 | 2 | 2 |"), "{md}");
    }

    const GAUGE_SAMPLE: &str = concat!(
        r#"{"type":"gauge","name":"mem.core.ossm","current":4096,"peak":4096}"#,
        "\n",
        r#"{"type":"gauge","name":"mem.alloc.data.page","current":0,"peak":90000}"#,
        "\n",
        r#"{"type":"gauge","name":"mem.rss","current":1000000,"peak":2000000}"#,
        "\n",
    );

    #[test]
    fn gauge_lines_flatten_to_current_and_peak() {
        let d = parse_obs_lines(GAUGE_SAMPLE).unwrap();
        assert_eq!(d.metrics.get("gauge.mem.core.ossm.current"), Some(&4096.0));
        assert_eq!(d.metrics.get("gauge.mem.core.ossm.peak"), Some(&4096.0));
        assert_eq!(
            d.metrics.get("gauge.mem.alloc.data.page.peak"),
            Some(&90000.0)
        );
        assert_eq!(d.metrics.get("gauge.mem.rss.peak"), Some(&2000000.0));
    }

    #[test]
    fn static_memory_peaks_gate_at_mem_drift_but_currents_do_not() {
        let base = parse_obs_lines(GAUGE_SAMPLE).unwrap();
        // 5% peak drift: inside the 10% memory gate.
        let five = parse_obs_lines(&GAUGE_SAMPLE.replace(
            r#""current":4096,"peak":4096"#,
            r#""current":4096,"peak":4301"#,
        ))
        .unwrap();
        assert!(!compare(&base, &five, &Thresholds::default()).failed());
        // 50% peak drift on a deterministic gauge: fails.
        let fifty = parse_obs_lines(&GAUGE_SAMPLE.replace(
            r#""current":4096,"peak":4096"#,
            r#""current":4096,"peak":6144"#,
        ))
        .unwrap();
        let report = compare(&base, &fifty, &Thresholds::default());
        assert!(report.failed());
        assert!(report
            .diffs
            .iter()
            .any(|d| d.name == "gauge.mem.core.ossm.peak" && d.failed));
        // The same drift on the current value alone is report-only.
        let cur_only = parse_obs_lines(&GAUGE_SAMPLE.replace(
            r#""current":4096,"peak":4096"#,
            r#""current":6144,"peak":4096"#,
        ))
        .unwrap();
        assert!(!compare(&base, &cur_only, &Thresholds::default()).failed());
    }

    #[test]
    fn allocator_memory_rows_never_gate_and_may_go_missing() {
        let base = parse_obs_lines(GAUGE_SAMPLE).unwrap();
        // A 10x RSS/alloc swing is machine noise, not a regression.
        let noisy = parse_obs_lines(
            &GAUGE_SAMPLE
                .replace(r#""peak":90000"#, r#""peak":900000"#)
                .replace(r#""peak":2000000"#, r#""peak":20000000"#),
        )
        .unwrap();
        assert!(!compare(&base, &noisy, &Thresholds::default()).failed());
        // A default-feature run records no memory rows at all: exempt
        // from the missing-metric failure, but still visible as diffs.
        let none = ObsData::default();
        let report = compare(&base, &none, &Thresholds::default());
        assert!(!report.failed(), "memory rows are missing-exempt");
        assert!(report.missing.is_empty());
        assert_eq!(report.diffs.len(), 6);
    }

    #[test]
    fn registry_lookup_handles_exact_names_and_wildcards() {
        let registry = "# comment\nmem.core.ossm\nmem.alloc.*\n";
        assert!(registered("mem.core.ossm", registry));
        assert!(registered("mem.alloc", registry), "prefix itself matches");
        assert!(registered("mem.alloc.data.page", registry));
        assert!(!registered("mem.alloc2", registry), "no partial segments");
        assert!(!registered("mem.data.pages", registry));
    }

    #[test]
    fn unregistered_names_are_flagged_per_flattened_key() {
        let data = parse_obs_lines(concat!(
            r#"{"type":"counter","name":"core.bound.evals","value":1}"#,
            "\n",
            r#"{"type":"counter","name":"made.up.name","value":1}"#,
            "\n",
            r#"{"type":"gauge","name":"mem.alloc.core.seg","current":1,"peak":2}"#,
            "\n",
            r#"{"type":"speedup","workload":"W","strategy":"S","n_user":2,"loss":3}"#,
            "\n",
        ))
        .unwrap();
        assert_eq!(
            unregistered_metrics(&data, ossm_obs::REGISTRY),
            vec!["counter.made.up.name".to_owned()],
            "registered, wildcard, and speedup keys all pass"
        );
    }

    #[test]
    fn base_name_strips_type_prefixes_and_field_suffixes() {
        assert_eq!(
            base_name("counter.core.bound.evals"),
            Some("core.bound.evals")
        );
        assert_eq!(base_name("phase.core.build.nanos"), Some("core.build"));
        assert_eq!(base_name("phase.core.build.calls"), Some("core.build"));
        assert_eq!(
            base_name("histogram.mining.bound.slack.sum"),
            Some("mining.bound.slack")
        );
        assert_eq!(base_name("gauge.mem.rss.peak"), Some("mem.rss"));
        assert_eq!(base_name("speedup[W/S/n2].loss"), None);
    }

    #[test]
    fn timing_classifier_matches_the_naming_convention() {
        assert!(is_timing("phase.core.build.segment.nanos"));
        assert!(is_timing("speedup[Regular/Greedy/n6].mining_nanos"));
        assert!(is_timing("histogram.req.insert.latency.sum"));
        assert!(!is_timing("phase.core.build.segment.calls"));
        assert!(!is_timing("counter.core.bound.evals"));
    }

    #[test]
    fn rate_and_quantile_classifier_matches_derived_rows() {
        assert!(is_rate_or_quantile("counter.live.http.requests.per_sec"));
        assert!(is_rate_or_quantile("histogram.req.ub.latency.p50"));
        assert!(is_rate_or_quantile("histogram.req.ub.latency.p95"));
        assert!(is_rate_or_quantile("histogram.req.ub.latency.p99"));
        assert!(!is_rate_or_quantile("histogram.req.ub.latency.count"));
        assert!(!is_rate_or_quantile("counter.core.bound.evals"));
    }

    #[test]
    fn serving_classifier_matches_live_and_req_families() {
        assert!(is_serving("counter.live.http.requests"));
        assert!(is_serving("histogram.req.insert.latency.count"));
        assert!(is_serving("histogram.req.ub.latency.sum"));
        assert!(is_serving("counter.srv.shed.overload"));
        assert!(is_serving("gauge.srv.queue.depth"));
        assert!(!is_serving("counter.core.bound.evals"));
        assert!(!is_serving("gauge.mem.core.ossm.peak"));
    }

    #[test]
    fn histogram_quantile_fields_flatten_and_strip() {
        let d = parse_obs_lines(concat!(
            r#"{"type":"histogram","name":"req.ub.latency","count":10,"sum":5000,"p50":400,"p95":900,"p99":1000,"buckets":[[256,10]]}"#,
            "\n",
        ))
        .unwrap();
        assert_eq!(d.metrics.get("histogram.req.ub.latency.p50"), Some(&400.0));
        assert_eq!(d.metrics.get("histogram.req.ub.latency.p99"), Some(&1000.0));
        assert_eq!(
            base_name("histogram.req.ub.latency.p95"),
            Some("req.ub.latency")
        );
    }

    #[test]
    fn serving_and_quantile_rows_report_but_never_gate_or_go_missing() {
        let live = concat!(
            r#"{"type":"counter","name":"live.http.requests","value":100}"#,
            "\n",
            r#"{"type":"histogram","name":"req.ub.latency","count":800,"sum":640000,"p50":700,"p95":1700,"p99":2000,"buckets":[[512,800]]}"#,
            "\n",
            r#"{"type":"counter","name":"core.bound.evals","value":128}"#,
            "\n",
        );
        let base = parse_obs_lines(live).unwrap();
        // A 5x swing in serving volume and quantiles is wall-clock noise.
        let noisy = parse_obs_lines(
            &live
                .replace(r#""value":100"#, r#""value":500"#)
                .replace(
                    r#""count":800,"sum":640000"#,
                    r#""count":4000,"sum":3200000"#,
                )
                .replace(r#""p50":700"#, r#""p50":3500"#),
        )
        .unwrap();
        assert!(
            !compare(&base, &noisy, &Thresholds::default()).failed(),
            "serving drift must not gate"
        );
        // A batch run records no serving rows at all: missing-exempt.
        let batch =
            parse_obs_lines(r#"{"type":"counter","name":"core.bound.evals","value":128}"#).unwrap();
        let report = compare(&base, &batch, &Thresholds::default());
        assert!(!report.failed(), "serving rows are missing-exempt");
        assert!(report.missing.is_empty(), "{:?}", report.missing);
        // The deterministic counter alongside still gates normally.
        let drifted = parse_obs_lines(&live.replace(r#""value":128"#, r#""value":300"#)).unwrap();
        assert!(compare(&base, &drifted, &Thresholds::default()).failed());
    }
}
