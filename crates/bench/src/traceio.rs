//! Shared `--trace[=chrome|folded]` handling for the `ossm` CLI and every
//! bench binary.
//!
//! The flag contract, identical everywhere:
//!
//! * `--trace` — record a Chrome trace (the default format);
//! * `--trace=chrome` / `--trace=folded` — select the exporter;
//! * the output path is the first positional argument when the caller
//!   accepts one (the `ossm` CLI), or `--trace-out=PATH`; otherwise the
//!   format's conventional file name (`trace.json` / `trace.folded`) in
//!   the working directory.
//!
//! In builds without the `obs` feature the flag still parses and writes a
//! valid (empty) document, so scripts and CI pipelines work unchanged —
//! the file just notes that instrumentation was compiled out.

use std::path::PathBuf;

use ossm_obs::TraceFormat;

use crate::cli::Options;

/// A resolved `--trace` request: export format plus output path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Export format.
    pub format: TraceFormat,
    /// Where the rendered trace is written.
    pub path: PathBuf,
}

impl TraceConfig {
    /// Interprets `--trace` from parsed options. `positional` is the
    /// caller-supplied output path, if it accepts one. Returns `None` when
    /// no `--trace` was given, `Err` on an unknown format.
    pub fn from_options(opts: &Options, positional: Option<&str>) -> Result<Option<Self>, String> {
        let format = match opts.raw("trace") {
            Some(fmt) => fmt.parse::<TraceFormat>()?,
            None if opts.flag("trace") => TraceFormat::default(),
            None => return Ok(None),
        };
        let path = positional
            .map(PathBuf::from)
            .or_else(|| opts.raw("trace-out").map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from(format.default_file_name()));
        Ok(Some(TraceConfig { format, path }))
    }

    /// Starts trace collection (a no-op without the `obs` feature).
    pub fn begin(&self) {
        ossm_obs::trace_begin();
    }

    /// Stops collection, writes the rendered trace to `self.path`, and
    /// returns a one-line human note about what was written.
    pub fn finish(&self) -> Result<String, String> {
        let trace = ossm_obs::trace_take();
        let body = trace.render(self.format);
        std::fs::write(&self.path, &body)
            .map_err(|e| format!("cannot write trace to {}: {e}", self.path.display()))?;
        let note = if ossm_obs::ENABLED {
            format!(
                "trace: wrote {} spans ({}) to {}",
                trace.len(),
                self.format,
                self.path.display()
            )
        } else {
            format!(
                "trace: instrumentation compiled out (build with the obs feature); \
                 wrote an empty {} trace to {}",
                self.format,
                self.path.display()
            )
        };
        Ok(note)
    }
}

/// Applies `--threads=N` to the ossm-par worker pool. Returns an error on
/// anything but a positive integer; `None` (flag absent) leaves the
/// `OSSM_THREADS`-or-CPU-count default in place.
pub fn apply_threads(opts: &Options) -> Result<(), String> {
    if let Some(v) = opts.raw("threads") {
        let n: usize = v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--threads={v}: expected a positive integer"))?;
        ossm_par::set_threads(Some(n));
    }
    Ok(())
}

/// The option name of a usage spelling: `pages` for `pages=N`.
fn option_name(spelling: &str) -> &str {
    spelling.split(['=', '[']).next().unwrap_or(spelling)
}

/// Rejects any `--key`/`--flag` outside `options` (usage spellings such
/// as `pages=N` or `full`), naming the first one.
fn check_options(opts: &Options, options: &[&str]) -> Result<(), String> {
    let known = |name: &str| options.iter().any(|o| option_name(o) == name);
    match opts.names().find(|name| !known(name)) {
        Some(name) => Err(format!("unknown option --{name} (see --help)")),
        None => Ok(()),
    }
}

/// The `--help` text: one line per option.
fn usage(program: &str, options: &[&str]) -> String {
    let mut out = format!("usage: {program} [options]\noptions:");
    for o in options {
        out.push_str(&format!("\n  --{o}"));
    }
    out
}

/// Entry-point wrapper shared by the experiment binaries: parses the
/// process arguments (allowing one positional trace-output path), answers
/// `--help` with the usage of `options`, applies `--threads`, starts trace
/// collection if `--trace` was given, runs `body`, writes the trace, and
/// exits with `body`'s status code.
///
/// `options` lists the binary's own options in usage spelling (`pages=N`,
/// `full`). An option outside them and `--threads`/`--trace`/`--trace-out`,
/// argument errors, and trace-I/O errors exit with status 2 and a message
/// on stderr.
pub fn main_with_trace(options: &[&str], body: impl FnOnce(&Options) -> i32) -> ! {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let program = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
    let (opts, positionals) = Options::parse_with_positionals(args);
    let options = [
        options,
        &[
            "threads=N",
            "trace[=chrome|folded] [PATH]",
            "trace-out=PATH",
        ],
    ]
    .concat();
    let fail = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2);
    };
    if opts.flag("help") {
        println!("{}", usage(&program, &options));
        std::process::exit(0);
    }
    if let Err(e) = check_options(&opts, &options) {
        fail(e);
    }
    if let Err(e) = apply_threads(&opts) {
        fail(e);
    }
    if positionals.len() > 1 {
        fail(format!(
            "unexpected argument {:?}: at most one positional (the --trace output path) is accepted",
            positionals[1]
        ));
    }
    let trace = match TraceConfig::from_options(&opts, positionals.first().map(String::as_str)) {
        Ok(tc) => tc,
        Err(e) => fail(e),
    };
    if trace.is_none() {
        if let Some(arg) = positionals.first() {
            fail(format!(
                "unexpected argument {arg:?}: positional paths are only used with --trace"
            ));
        }
    }
    if let Some(tc) = &trace {
        tc.begin();
    }
    let status = body(&opts);
    if let Some(tc) = &trace {
        match tc.finish() {
            Ok(note) => eprintln!("{note}"),
            Err(e) => fail(e),
        }
    }
    std::process::exit(status);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn absent_flag_means_no_tracing() {
        assert_eq!(TraceConfig::from_options(&opts(&[]), None), Ok(None));
        assert_eq!(
            TraceConfig::from_options(&opts(&["--full"]), Some("x")),
            Ok(None)
        );
    }

    #[test]
    fn bare_flag_defaults_to_chrome() {
        let tc = TraceConfig::from_options(&opts(&["--trace"]), None)
            .unwrap()
            .unwrap();
        assert_eq!(tc.format, TraceFormat::Chrome);
        assert_eq!(tc.path, PathBuf::from("trace.json"));
    }

    #[test]
    fn format_and_path_resolution() {
        let tc = TraceConfig::from_options(&opts(&["--trace=folded"]), Some("/tmp/t.folded"))
            .unwrap()
            .unwrap();
        assert_eq!(tc.format, TraceFormat::Folded);
        assert_eq!(tc.path, PathBuf::from("/tmp/t.folded"));

        let tc = TraceConfig::from_options(&opts(&["--trace=folded", "--trace-out=o.txt"]), None)
            .unwrap()
            .unwrap();
        assert_eq!(tc.path, PathBuf::from("o.txt"));
    }

    #[test]
    fn unknown_format_is_an_error() {
        assert!(TraceConfig::from_options(&opts(&["--trace=svg"]), None).is_err());
    }

    #[test]
    fn options_outside_the_binary_are_rejected_by_name() {
        let own = ["pages=N", "full", "trace[=chrome|folded] [PATH]"];
        let given = opts(&["--pages=3", "--full", "--trace"]);
        assert_eq!(check_options(&given, &own), Ok(()));
        assert_eq!(
            check_options(&opts(&["--pages=3", "--pagse=4"]), &own),
            Err("unknown option --pagse (see --help)".to_owned())
        );
        assert_eq!(
            check_options(&opts(&["--ful"]), &own),
            Err("unknown option --ful (see --help)".to_owned())
        );
        assert!(check_options(&opts(&["--trace=folded"]), &own).is_ok());
        assert!(check_options(&opts(&["--trace-out=t"]), &own).is_err());
        let text = usage("fig4", &own);
        assert!(text.starts_with("usage: fig4 [options]"), "{text}");
        assert!(text.ends_with("\n  --pages=N\n  --full\n  --trace[=chrome|folded] [PATH]"));
    }

    #[test]
    fn threads_flag_validates_but_only_applies_positive_integers() {
        assert_eq!(apply_threads(&opts(&[])), Ok(()));
        assert!(apply_threads(&opts(&["--threads=0"])).is_err());
        assert!(apply_threads(&opts(&["--threads=lots"])).is_err());
        // A valid value round-trips through the pool override. No other
        // test in this crate touches the override, so this is race-free.
        assert_eq!(apply_threads(&opts(&["--threads=3"])), Ok(()));
        assert_eq!(ossm_par::thread_count(), 3);
        ossm_par::set_threads(None);
    }

    #[test]
    fn finish_writes_a_parseable_document() {
        let dir = std::env::temp_dir().join("ossm-traceio-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let tc = TraceConfig {
            format: TraceFormat::Chrome,
            path: path.clone(),
        };
        tc.begin();
        drop(ossm_obs::span("traceio.test"));
        let note = tc.finish().expect("write");
        assert!(note.starts_with("trace:"), "{note}");
        let text = std::fs::read_to_string(&path).unwrap();
        let json = ossm_obs::json::parse(&text).expect("chrome trace parses");
        let events = json.as_array().expect("array");
        if ossm_obs::ENABLED {
            assert!(events
                .iter()
                .any(|e| e.get("name").and_then(|v| v.as_str()) == Some("traceio.test")));
        } else {
            assert!(events.is_empty(), "disabled builds record nothing");
        }
    }
}
