//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! name, start, end, and the enclosing span. They stay in memory and are
//! written out only when the run ends. A layer's *self time* is its span's
//! duration minus the part covered by its child spans. A disabled tracer
//! runs the same closures without recording, which gives the untraced
//! timing the tracing overhead is measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Boundary name, e.g. `mining.count`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Records nested spans when enabled; a pass-through when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`; nested calls through the
    /// tracer handed to `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every completed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds, summed over every occurrence.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }
}

/// Chrome trace-event objects (`"ph":"X"`, microseconds) for `spans`, on
/// lane `tid`, comma-separated without the enclosing array.
pub fn chrome_events(spans: &[Span], lane_name: &str, tid: usize) -> String {
    let mut out = format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{lane_name}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4));
            });
        });
        let selfs = t.self_seconds();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let outer_total = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9;
        let inner_total = (spans[1].end_ns - spans[1].start_ns) as f64 / 1e9;
        assert!((selfs["outer"] - (outer_total - inner_total)).abs() < 1e-9);
        assert!(selfs["inner"] >= 0.004);
        assert!(selfs["outer"] >= 0.002 && selfs["outer"] < outer_total);
    }

    #[test]
    fn disabled_tracer_runs_closures_without_recording() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_events_name_the_lane_and_link_parents() {
        let mut t = Tracer::new(true);
        t.span("a", |t| t.span("b", |_| ()));
        let json = format!("[{}]", chrome_events(t.spans(), "mine-skewed", 3));
        assert!(json.contains("\"args\":{\"name\":\"mine-skewed\"}"));
        assert!(json.contains("\"name\":\"b\",\"ph\":\"X\",\"pid\":1,\"tid\":3"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }
}
