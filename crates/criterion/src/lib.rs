//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset of criterion's API that the workspace benches use
//! — [`Criterion`], [`BenchmarkId`], benchmark groups, and the
//! [`criterion_group!`]/[`criterion_main!`] macros — as a plain wall-clock
//! harness: each benchmark is warmed up while a batch is grown to at
//! least 10 ms, then five batches of that size are timed, and the median
//! per-iteration time is printed with the smallest and largest. No
//! plots or baselines; the goal is that `cargo bench` compiles, runs, and
//! produces a readable number with its spread in an environment with no
//! crates.io access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::time::{Duration, Instant};

/// Identifies one benchmark within a group: `function_id/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A benchmark id rendered as `function_id/parameter`.
    pub fn new<P: fmt::Display>(function_id: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_id}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timed batches per benchmark once the batch is sized.
const BATCHES: usize = 5;

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    /// Iterations per timed batch.
    iters: u64,
    /// The per-iteration time of every timed batch, in run order.
    samples: Vec<Duration>,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            iters: 0,
            samples: Vec::new(),
        }
    }

    /// Times `routine`: grows a batch until it runs at least 10 ms (the
    /// warm-up), then times five batches of that size.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut run = |batch: u64| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            start.elapsed()
        };
        let mut batch: u64 = 1;
        while run(batch) < Duration::from_millis(10) && batch < 1 << 20 {
            batch = batch.saturating_mul(4);
        }
        let per_iter = u32::try_from(batch).unwrap_or(u32::MAX);
        self.iters = batch;
        self.samples = (0..BATCHES).map(|_| run(batch) / per_iter).collect();
    }

    /// The median, smallest and largest per-iteration time of the timed
    /// batches (zero before [`iter`](Self::iter) runs).
    fn spread(&self) -> (Duration, Duration, Duration) {
        let mut sorted = self.samples.clone();
        sorted.sort();
        let at = |i: usize| sorted.get(i).copied().unwrap_or_default();
        (
            at(sorted.len() / 2),
            at(0),
            at(sorted.len().saturating_sub(1)),
        )
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count (accepted for API compatibility; this harness
    /// times five sized batches regardless).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark identified by `id`.
    pub fn bench_function<I: fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        let (median, min, max) = b.spread();
        println!(
            "bench {group}/{id}: {median:?}/iter [{min:?}, {max:?}] ({batches} batches of {iters} iters)",
            group = self.name,
            batches = b.samples.len(),
            iters = b.iters,
        );
        self
    }

    /// Runs one benchmark with a borrowed input value.
    pub fn bench_with_input<I: fmt::Display, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op; exists for API compatibility).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.benchmark_group(id).bench_function("run", f);
        self
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// A parsed `--trace` request from a bench binary's arguments, following
/// the workspace-wide flag contract (`--trace[=chrome|folded]`,
/// `--trace-out=PATH`; see `ossm_bench::traceio`).
struct TraceRequest {
    format: ossm_obs::TraceFormat,
    path: std::path::PathBuf,
}

fn trace_request_from_args(
    args: impl IntoIterator<Item = String>,
) -> Result<Option<TraceRequest>, String> {
    let mut format: Option<ossm_obs::TraceFormat> = None;
    let mut out: Option<std::path::PathBuf> = None;
    for arg in args {
        if arg == "--trace" {
            format.get_or_insert_with(ossm_obs::TraceFormat::default);
        } else if let Some(f) = arg.strip_prefix("--trace=") {
            format = Some(f.parse()?);
        } else if let Some(p) = arg.strip_prefix("--trace-out=") {
            out = Some(std::path::PathBuf::from(p));
        }
    }
    Ok(format.map(|format| TraceRequest {
        path: out.unwrap_or_else(|| std::path::PathBuf::from(format.default_file_name())),
        format,
    }))
}

/// Runs the bench body under the process's `--trace` arguments: starts
/// span collection if requested, runs the benches, and writes the
/// rendered trace. Called by [`criterion_main!`]; exits non-zero on a bad
/// flag or an unwritable output path.
pub fn run_benches(body: impl FnOnce()) {
    let request = match trace_request_from_args(std::env::args().skip(1)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if request.is_some() {
        ossm_obs::trace_begin();
    }
    body();
    if let Some(req) = request {
        let trace = ossm_obs::trace_take();
        if let Err(e) = std::fs::write(&req.path, trace.render(req.format)) {
            eprintln!("error: cannot write trace to {}: {e}", req.path.display());
            std::process::exit(2);
        }
        eprintln!(
            "trace: wrote {} spans ({}) to {}",
            trace.len(),
            req.format,
            req.path.display()
        );
    }
}

/// Declares the bench `main` that runs each group, mirroring criterion's
/// macro. Also honors the workspace's `--trace[=chrome|folded]` /
/// `--trace-out=PATH` flags, so `cargo bench -- --trace=folded` captures
/// a span trace of the benchmarked code.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs bench targets with `--test`; skip timing
            // there so the suite stays fast.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $crate::run_benches(|| { $( $group(); )+ });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_renders_function_slash_parameter() {
        assert_eq!(BenchmarkId::new("pair", 128).to_string(), "pair/128");
    }

    #[test]
    fn bencher_times_a_closure() {
        let mut b = Bencher::new();
        assert_eq!(b.spread(), (Duration::ZERO, Duration::ZERO, Duration::ZERO));
        let mut hits = 0u64;
        b.iter(|| {
            hits += 1;
            std::hint::black_box(hits)
        });
        assert!(b.iters >= 1);
        assert_eq!(b.samples.len(), BATCHES);
        // `iter` sizes the batch by running it, then times `BATCHES`
        // batches of that size.
        assert!(hits >= b.iters * (BATCHES as u64 + 1));
        let (median, min, max) = b.spread();
        assert!(min <= median && median <= max);
    }

    #[test]
    fn trace_args_follow_the_workspace_flag_contract() {
        let parse = |args: &[&str]| trace_request_from_args(args.iter().map(|s| (*s).to_owned()));
        assert!(parse(&[]).unwrap().is_none());
        assert!(parse(&["--bench", "counting"]).unwrap().is_none());
        let bare = parse(&["--trace"]).unwrap().unwrap();
        assert_eq!(bare.format, ossm_obs::TraceFormat::Chrome);
        assert_eq!(bare.path, std::path::PathBuf::from("trace.json"));
        let folded = parse(&["--trace=folded", "--trace-out=/tmp/t.folded"])
            .unwrap()
            .unwrap();
        assert_eq!(folded.format, ossm_obs::TraceFormat::Folded);
        assert_eq!(folded.path, std::path::PathBuf::from("/tmp/t.folded"));
        assert!(parse(&["--trace=svg"]).is_err());
    }

    #[test]
    fn group_api_shape_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shape");
        group.sample_size(10);
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("with_input", 3), &3u32, |b, &x| {
            b.iter(|| x * 2);
        });
        group.finish();
    }
}
