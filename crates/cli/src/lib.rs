//! # ossm-cli — the `ossm` command-line tool
//!
//! A thin, scriptable front end over the whole reproduction: generate
//! paper-shaped workloads, pack them into page files, build and persist
//! OSSMs with any of the paper's segmentation strategies, and mine with
//! any of the implemented algorithms — with or without the map.
//!
//! ```console
//! $ ossm generate --kind=skewed --transactions=20000 --items=500 --out=data.db
//! $ ossm pack --in=data.db --out=data.pages
//! $ ossm segment --in=data.pages --nuser=40 --strategy=random-greedy --out=map.ossm
//! $ ossm mine --in=data.db --minsup=0.01 --ossm=map.ossm --top=5
//! $ ossm recipe --nuser=150 --pages=50000 --skewed
//! ```
//!
//! Every subcommand is a pure function from arguments to a report string,
//! so the whole surface is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ossm_bench::cli::Options;
use ossm_bench::regress;
use ossm_bench::table::{fmt_bytes, fmt_duration, Table};
use ossm_bench::traceio::TraceConfig;
use ossm_core::{
    persist, recommend, ApplicationProfile, Ossm, OssmBuilder, RecommendedStrategy, Strategy,
};
use ossm_data::disk::DiskStore;
use ossm_data::gen::{AlarmConfig, QuestConfig, SkewedConfig};
use ossm_data::{Dataset, Itemset};
use ossm_mining::{
    Apriori, CandidateFilter, Charm, CountingBackend, DepthProject, Dhp, Eclat, FpGrowth, GenMax,
    MiningOutcome, NoFilter, OssmFilter, Partition, StreamingApriori, StreamingDhp,
    StreamingFpGrowth,
};
use ossm_obs::{Reporter, StatsFormat};

/// Usage text printed on errors and by `ossm help`.
pub const USAGE: &str = "\
usage: ossm <command> [--key=value ...]

commands:
  generate  --kind=regular|skewed|alarm|huge --transactions=N --items=M
            [--seed=S] --out=FILE
  pack      --in=FILE --out=FILE.pages [--page-bytes=4096]
  inspect   --in=FILE            (flat .db or paged .pages file)
  segment   --in=FILE.pages --nuser=N [--strategy=greedy|rc|random|
            random-rc|random-greedy|auto] [--nmid=200] [--seed=S]
            [--bubble-pct=P --bubble-minsup=F] [--out=FILE.ossm]
  mine      --in=FILE --minsup=F [--algo=apriori|dhp|partition|depth|
            fpgrowth|eclat|charm|genmax|streaming|streaming-dhp|
            streaming-fpgrowth] [--ossm=FILE.ossm] [--top=K]
            [--backend=linear|hashtree|bitmap]   (apriori only; default
            hashtree)
            [--buckets=32768]   (streaming-dhp: pair hash buckets)
            [--partitions=4]    (partition)
            [--pool-frames=N]   (streaming* miners run out of core off a
            paged file through an N-frame buffer pool; 0 = unbounded.
            With --ossm they skip pages the map proves irrelevant.
            partition, fpgrowth, charm and genmax take no --ossm; an
            option the chosen miner does not read is an error)
  recipe    --nuser=N --pages=P [--skewed] [--cost-sensitive]
  verify    --in=FILE             (check every checksum of a paged store
            or OSSM map; exits non-zero on any corruption)
  repair    --in=FILE.pages [--out=FILE.pages]   (rewrite a damaged
            paged store from its intact pages and index; lost pages keep
            their exact index aggregate or a widened sound one)
  serve     [ADDR] --dir=DIR [--items=100] [--segments=16]
            [--queue-depth=64] [--group-max=32] [--checkpoint-every=64]
            [--duration=SECS] [--port-file=PATH] [--metrics=ADDR]
            (run the crash-tolerant streaming ingest/query service over
            DIR: group-commit WAL ingest where ack means durable,
            epoch-published snapshots, explicit Overloaded shedding;
            --duration=0 serves until interrupted, --metrics additionally
            exposes Prometheus text at /metrics and JSON at
            /metrics.json; --port-file gets the service address, then
            the metrics address on a second line)
  client    ingest --in=FILE [--batch=64] [--batch-id=1]
            [--deadline-ms=1000]
  client    ub --items=1,2,3
  client    mine --minsup=N [--top=20]
  client    stats               (all client subcommands take
            --addr=HOST:PORT [--attempts=8]; ingest retries are
            idempotent via client-assigned batch ids, ub responses
            surface staleness and stay sound)
  obs       diff BASELINE.json CURRENT.json [--count-drift=0.05]
            [--max-time-regress=F]   (compare two instrumentation
            snapshots, e.g. BENCH_baseline.json vs a fresh BENCH_obs.json;
            exits 2 when a gate fails, 1 on unreadable input)
  obs       dump FILE.jsonl       (render a flight-recorder dump — the
            JSONL file written on panic or injected fault — as a
            human-readable timeline)
  help

global flags:
  --stats=table|json   append an instrumentation report (bound
                       evaluations, pruned candidates, phase timings,
                       and — with the `obs-alloc` feature — per-subsystem
                       memory gauges) to the command's output; bare
                       --stats means --stats=table. Needs the default
                       `obs` feature.
  --trace[=chrome|folded] [PATH]
                       record a hierarchical span trace of the command
                       and write it to PATH (or --trace-out=PATH, or
                       trace.json / trace.folded). chrome traces open in
                       Perfetto / chrome://tracing; folded stacks feed
                       flamegraph.pl. Needs the default `obs` feature.
  --threads=N          worker threads for parallel counting / segmentation
                       (default: OSSM_THREADS, else the CPU count). Results
                       are bit-identical at any thread count.";

/// Resets the process-wide thread override on drop, so one invocation's
/// `--threads` cannot leak into the next (library callers and tests drive
/// [`run`] repeatedly in one process).
struct ThreadsOverride(bool);

impl Drop for ThreadsOverride {
    fn drop(&mut self) {
        if self.0 {
            ossm_par::set_threads(None);
        }
    }
}

/// When the `obs-alloc` feature is on, every heap allocation of the
/// process is counted and attributed to the active `alloc_scope`, and the
/// `--stats` report grows `mem.alloc.*` / `mem.rss.*` rows. Opt-in because
/// the count costs two atomic ops per allocation.
#[cfg(feature = "obs-alloc")]
#[global_allocator]
static ALLOC: ossm_alloc::CountingAlloc = ossm_alloc::CountingAlloc::new();

/// A finished CLI invocation: the report to print and the process exit
/// code. `code` is 0 except for commands that gate (today only `obs diff`,
/// which exits 2 when a regression gate fails). Argument, parse, and IO
/// errors surface as `Err` from [`run_with_code`] and exit 1, so scripts
/// can tell "the comparison ran and failed" from "the comparison never
/// ran".
#[derive(Debug)]
pub struct Outcome {
    /// The report text to print on stdout.
    pub report: String,
    /// Process exit code: 0 = success, 2 = a gate failed.
    pub code: i32,
}

/// Runs a CLI invocation; returns the report to print. Gate failures that
/// [`run_with_code`] reports as exit code 2 still return `Ok` here — use
/// `run_with_code` when the distinction matters.
pub fn run(args: &[String]) -> Result<String, String> {
    run_with_code(args).map(|o| o.report)
}

/// Runs a CLI invocation; returns the report and the exit code.
pub fn run_with_code(args: &[String]) -> Result<Outcome, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let (opts, positionals) = Options::parse_with_positionals(rest.iter().cloned());
    // `obs`, `serve`, and `client` consume their positionals themselves
    // (subcommands, input files, or a bind address, so a trace path there
    // must go through --trace-out); for every other command the only
    // legal positional is the --trace output path.
    let trace = if matches!(command.as_str(), "obs" | "serve" | "client") {
        TraceConfig::from_options(&opts, None)?
    } else {
        let tc = TraceConfig::from_options(&opts, positionals.first().map(String::as_str))?;
        match (&tc, positionals.len()) {
            (None, 1..) => {
                return Err(format!(
                    "unexpected argument {:?}: positional paths are only used with --trace",
                    positionals[0]
                ))
            }
            (Some(_), 2..) => {
                return Err(format!(
                    "unexpected argument {:?}: --trace takes at most one output path",
                    positionals[1]
                ))
            }
            _ => {}
        }
        tc
    };
    let _threads_guard = match opts.raw("threads") {
        None => ThreadsOverride(false),
        Some(v) => {
            let n = v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--threads={v}: expected a positive integer"))?;
            ossm_par::set_threads(Some(n));
            ThreadsOverride(true)
        }
    };
    let stats = stats_format(&opts)?;
    if stats.is_some() {
        // Report only what *this* invocation records.
        ossm_obs::registry().reset();
    }
    if let Some(tc) = &trace {
        tc.begin();
    }
    // The root span covers the whole command, so every miner/builder span
    // hangs off `cli.<command>` in the exported trace. Scoped so it closes
    // before `finish()` drains the buffer.
    let ok0 = |report: String| (report, 0);
    let (report, code) = {
        let _cmd_span = ossm_obs::span(format!("cli.{command}"));
        match command.as_str() {
            "generate" => generate(&opts).map(ok0),
            "pack" => pack(&opts).map(ok0),
            "inspect" => inspect(&opts).map(ok0),
            "segment" => segment(&opts).map(ok0),
            "mine" => mine(&opts).map(ok0),
            "recipe" => recipe(&opts).map(ok0),
            "verify" => verify(&opts).map(ok0),
            "repair" => repair(&opts).map(ok0),
            "serve" => serve_cmd(&opts, &positionals).map(ok0),
            "client" => client_cmd(&opts, &positionals).map(ok0),
            "obs" => obs(&opts, &positionals),
            "help" | "--help" | "-h" => Ok((format!("{USAGE}\n"), 0)),
            other => Err(format!("unknown command {other:?}")),
        }
    }?;
    let report = match &trace {
        None => report,
        Some(tc) => {
            let note = tc.finish()?;
            format!("{report}{note}\n")
        }
    };
    let report = match stats {
        None => report,
        Some(format) => {
            let snapshot = ossm_obs::registry().snapshot();
            let rendered = Reporter::new(format).render(&snapshot);
            if rendered.is_empty() {
                let note = if ossm_obs::ENABLED {
                    "-- stats: nothing recorded --\n"
                } else {
                    "-- stats: instrumentation compiled out (rebuild with the `obs` feature) --\n"
                };
                format!("{report}{note}")
            } else if format == StatsFormat::Table {
                format!("{report}\n-- stats --\n{rendered}")
            } else {
                format!("{report}{rendered}")
            }
        }
    };
    Ok(Outcome { report, code })
}

/// Resolves the `--stats` flag: `--stats=table|json`, or bare `--stats`
/// for the table format. `None` when absent.
fn stats_format(opts: &Options) -> Result<Option<StatsFormat>, String> {
    let value: String = opts.get("stats", String::new());
    if !value.is_empty() {
        return value.parse().map(Some);
    }
    Ok(opts.flag("stats").then_some(StatsFormat::Table))
}

fn required(opts: &Options, key: &str) -> Result<String, String> {
    let sentinel = String::new();
    let v: String = opts.get(key, sentinel);
    if v.is_empty() {
        return Err(format!("--{key}=… is required"));
    }
    Ok(v)
}

fn generate(opts: &Options) -> Result<String, String> {
    let kind = required(opts, "kind")?;
    let out = PathBuf::from(required(opts, "out")?);
    let n: usize = opts.get("transactions", 10_000);
    let m: usize = opts.get("items", 1000);
    let seed: u64 = opts.get("seed", 1);
    let dataset = match kind.as_str() {
        "regular" => QuestConfig {
            num_transactions: n,
            num_items: m,
            num_patterns: (m * 2).max(10),
            seed,
            ..QuestConfig::default()
        }
        .generate(),
        "skewed" => SkewedConfig {
            num_transactions: n,
            num_items: m,
            seed,
            ..Default::default()
        }
        .generate(),
        "alarm" | "nokia" => AlarmConfig {
            num_windows: n,
            num_alarm_types: m,
            seed,
            ..Default::default()
        }
        .generate(),
        // The out-of-core stress set (dense head, frequent-free noise
        // tail) comes from the bench workload so the CLI, the experiment
        // table, and CI all mine the same bytes.
        "huge" => {
            let pages = n.div_ceil(ossm_bench::workloads::TX_PER_PAGE).max(1);
            let mut w = ossm_bench::workloads::Workload::huge(pages, m);
            // Keep the workload's canonical seed unless one was asked for,
            // so `generate --kind=huge` and the bench table share bytes.
            if opts.raw("seed").is_some() {
                w.seed = seed;
            }
            w.dataset()
        }
        other => {
            return Err(format!(
                "unknown kind {other:?} (regular|skewed|alarm|huge)"
            ))
        }
    };
    ossm_data::io::save(&out, &dataset).map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(format!(
        "generated {kind}: {} transactions over {} items -> {}\n",
        dataset.len(),
        dataset.num_items(),
        out.display()
    ))
}

fn pack(opts: &Options) -> Result<String, String> {
    let input = PathBuf::from(required(opts, "in")?);
    let out = PathBuf::from(required(opts, "out")?);
    let page_bytes: usize = opts.get("page-bytes", ossm_data::page::DEFAULT_PAGE_BYTES);
    let dataset = load_dataset(&input)?;
    ossm_data::disk::write_paged(&out, &dataset, page_bytes)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    let store = DiskStore::open(&out, opts.pool_frames(1)).map_err(|e| e.to_string())?;
    Ok(format!(
        "packed {} transactions into {} pages of {} bytes -> {}\n",
        dataset.len(),
        store.num_pages(),
        page_bytes,
        out.display()
    ))
}

fn inspect(opts: &Options) -> Result<String, String> {
    let input = PathBuf::from(required(opts, "in")?);
    let mut out = String::new();
    match classify(&input)? {
        FileKind::Paged => {
            let store = DiskStore::open(&input, opts.pool_frames(1)).map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "paged dataset: {} pages, {} transactions, {} items",
                store.num_pages(),
                store.num_transactions(),
                store.num_items()
            );
            let _ = writeln!(
                out,
                "aggregate index loaded with zero data-page reads (io: {:?})",
                store.io_stats()
            );
        }
        FileKind::Flat => {
            let d = load_dataset(&input)?;
            let avg = if d.is_empty() {
                0.0
            } else {
                d.transactions().iter().map(Itemset::len).sum::<usize>() as f64 / d.len() as f64
            };
            let _ = writeln!(
                out,
                "flat dataset: {} transactions, {} items, avg basket {:.2}",
                d.len(),
                d.num_items(),
                avg
            );
            let singles = d.singleton_supports();
            let mut top: Vec<usize> = (0..d.num_items()).collect();
            top.sort_by_key(|&i| std::cmp::Reverse(singles[i]));
            let _ = writeln!(out, "top items:");
            for &i in top.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  item {i}: support {} ({:.2}%)",
                    singles[i],
                    100.0 * singles[i] as f64 / d.len().max(1) as f64
                );
            }
        }
        FileKind::Map => {
            let ossm = persist::load(&input).map_err(|e| format!("{}: {e}", input.display()))?;
            let _ = writeln!(
                out,
                "OSSM map: {} segments over {} items, {} transactions",
                ossm.num_segments(),
                ossm.num_items(),
                ossm.num_transactions()
            );
        }
    }
    Ok(out)
}

fn parse_strategy(
    opts: &Options,
    store: &ossm_data::PageStore,
    n_user: usize,
) -> Result<Strategy, String> {
    let name: String = opts.get("strategy", "greedy".to_owned());
    let n_mid: usize = opts.get("nmid", 200);
    Ok(match name.as_str() {
        "greedy" => Strategy::Greedy,
        "rc" => Strategy::Rc,
        "random" => Strategy::Random,
        "random-rc" => Strategy::RandomRc { n_mid },
        "random-greedy" => Strategy::RandomGreedy { n_mid },
        // Measure the data and apply the Figure 7 recipe.
        "auto" => ossm_core::recipe::auto_strategy(store, n_user, opts.flag("cost-sensitive")),
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

fn segment(opts: &Options) -> Result<String, String> {
    let input = PathBuf::from(required(opts, "in")?);
    let n_user: usize = opts.get("nuser", 40);
    let seed: u64 = opts.get("seed", 1);
    let store = load_page_store(&input, opts)?;
    let strategy = parse_strategy(opts, &store, n_user)?;
    let mut builder = OssmBuilder::new(n_user).strategy(strategy).seed(seed);
    let bubble_pct: f64 = opts.get("bubble-pct", 0.0);
    if bubble_pct > 0.0 {
        let bubble_minsup: f64 = opts.get("bubble-minsup", 0.0025);
        builder = builder.bubble(bubble_minsup, bubble_pct);
    }
    let (ossm, report) = builder.build(&store);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "built {} OSSM: {} pages -> {} segments in {} ({}, eq.2 loss {})",
        report.algorithm,
        report.num_pages,
        report.num_segments,
        fmt_duration(report.segmentation_time),
        fmt_bytes(report.memory_bytes),
        report.total_loss
    );
    if let Some(len) = report.bubble_len {
        let _ = writeln!(out, "bubble list: {len} items");
    }
    let save: String = opts.get("out", String::new());
    if !save.is_empty() {
        let path = PathBuf::from(save);
        persist::save_atomic(&path, &ossm)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(out, "saved -> {}", path.display());
    }
    Ok(out)
}

/// Whether `--algo=algo` reads the option `--option`. `ossm mine`
/// rejects a scoped option the chosen miner would ignore, so a run never
/// silently drops, say, the map it was given.
fn reads(algo: &str, option: &str) -> bool {
    match option {
        "ossm" => !matches!(algo, "partition" | "fpgrowth" | "charm" | "genmax"),
        "backend" => algo == "apriori",
        "buckets" => algo == "streaming-dhp",
        "partitions" => algo == "partition",
        _ => true,
    }
}

/// A count option that must be at least 1: `--buckets` and
/// `--partitions` size a table and a split, and zero of either is no
/// configuration at all.
fn positive(opts: &Options, key: &str, default: usize) -> Result<usize, String> {
    match opts.get(key, default) {
        0 => Err(format!("--{key}=0: expected at least 1")),
        n => Ok(n),
    }
}

fn mine(opts: &Options) -> Result<String, String> {
    let input = PathBuf::from(required(opts, "in")?);
    let minsup: f64 = opts.get("minsup", 0.01);
    let algo: String = opts.get("algo", "apriori".to_owned());
    let top: usize = opts.get("top", 10);
    for option in ["ossm", "backend", "buckets", "partitions"] {
        if opts.raw(option).is_some_and(|v| !v.is_empty()) && !reads(&algo, option) {
            return Err(format!("--algo={algo} does not read --{option}"));
        }
    }
    let ossm_path: String = opts.get("ossm", String::new());
    let ossm: Option<Ossm> = if ossm_path.is_empty() {
        None
    } else {
        Some(persist::load(Path::new(&ossm_path)).map_err(|e| format!("loading OSSM: {e}"))?)
    };

    // The streaming miners work straight off a page file through the
    // buffer pool; everything else needs the dataset in memory.
    let streaming_label = match algo.as_str() {
        "streaming" => Some("streaming apriori"),
        "streaming-dhp" => Some("streaming dhp"),
        "streaming-fpgrowth" => Some("streaming fp-growth"),
        _ => None,
    };
    if let Some(label) = streaming_label {
        if classify(&input)? != FileKind::Paged {
            return Err(format!(
                "--algo={algo} needs a paged input (see `ossm pack`)"
            ));
        }
        let mut store = DiskStore::open(&input, opts.pool_frames(64)).map_err(|e| e.to_string())?;
        let min_support = ((minsup * store.num_transactions() as f64).ceil() as u64).max(1);
        let out = match algo.as_str() {
            "streaming-dhp" => StreamingDhp::new(positive(opts, "buckets", 32_768)?).mine(
                &mut store,
                min_support,
                ossm.as_ref(),
            ),
            "streaming-fpgrowth" => StreamingFpGrowth.mine(&mut store, min_support, ossm.as_ref()),
            _ => StreamingApriori::new().mine(&mut store, min_support, ossm.as_ref()),
        }
        .map_err(|e| e.to_string())?;
        let mut report = String::new();
        let _ = writeln!(
            report,
            "{label}: {} frequent patterns, {} passes, {} page reads, {} pages skipped",
            out.patterns.len(),
            out.passes,
            out.page_reads,
            out.skipped_pages
        );
        report.push_str(&top_patterns(&out.patterns, top));
        return Ok(report);
    }

    let dataset = load_dataset(&input)?;
    let min_support = dataset.absolute_threshold(minsup).max(1);
    let ossm_filter = ossm.as_ref().map(OssmFilter::new);
    let filter: &dyn CandidateFilter = match &ossm_filter {
        Some(f) => f,
        None => &NoFilter,
    };
    let outcome: MiningOutcome = match algo.as_str() {
        "apriori" => {
            let backend = opts
                .raw("backend")
                .map_or(Ok(CountingBackend::HashTree), str::parse)?;
            Apriori::new()
                .with_backend(backend)
                .mine_filtered(&dataset, min_support, filter)
        }
        "dhp" => Dhp::default().mine_filtered(&dataset, min_support, filter),
        "partition" => Partition::new(positive(opts, "partitions", 4)?).mine(&dataset, min_support),
        "depth" => DepthProject::new().mine_filtered(&dataset, min_support, filter),
        "fpgrowth" => FpGrowth::new().mine(&dataset, min_support),
        "eclat" => Eclat::new().mine_filtered(&dataset, min_support, filter),
        "charm" => Charm::new().mine(&dataset, min_support),
        "genmax" => GenMax::new().mine(&dataset, min_support),
        other => return Err(format!("unknown algorithm {other:?}")),
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{algo}: {} frequent patterns (min support {min_support}) in {}",
        outcome.patterns.len(),
        fmt_duration(outcome.metrics.elapsed)
    );
    if outcome.metrics.total_filtered_out() > 0 {
        let _ = writeln!(
            report,
            "OSSM pruned {} candidates before counting ({} counted)",
            outcome.metrics.total_filtered_out(),
            outcome.metrics.total_counted()
        );
    }
    report.push_str(&top_patterns(&outcome.patterns, top));
    Ok(report)
}

fn top_patterns(patterns: &ossm_mining::FrequentPatterns, top: usize) -> String {
    let mut rows: Vec<(&Itemset, u64)> = patterns.iter().collect();
    rows.sort_by_key(|&(p, s)| (std::cmp::Reverse(s), p.clone()));
    let mut table = Table::new(["pattern", "support"]);
    for (p, s) in rows.into_iter().take(top) {
        table.row([format!("{p}"), s.to_string()]);
    }
    table.to_markdown()
}

fn recipe(opts: &Options) -> Result<String, String> {
    let n_user: usize = opts.get("nuser", 40);
    let pages: usize = opts.get("pages", 500);
    let profile = ApplicationProfile {
        large_n_user: n_user >= 100,
        skewed_data: opts.flag("skewed"),
        segmentation_cost_an_issue: opts.flag("cost-sensitive"),
        very_large_p: pages >= 10_000,
    };
    let rec: RecommendedStrategy = recommend(profile);
    Ok(format!(
        "profile: n_user = {n_user}, p = {pages}, skewed = {}, cost-sensitive = {}\n\
         Figure 7 recommends: {rec}\n",
        profile.skewed_data, profile.segmentation_cost_an_issue
    ))
}

/// `ossm verify --in=FILE` — checks every checksum of a persistent
/// artifact. Clean files report and exit zero; any detected corruption is
/// returned as an error, so the binary exits non-zero (scriptable as a
/// pre-flight check before trusting a map's bounds).
fn verify(opts: &Options) -> Result<String, String> {
    let input = PathBuf::from(required(opts, "in")?);
    match classify(&input)? {
        FileKind::Paged => {
            let scan = ossm_data::repair::scan_store(&input)
                .map_err(|e| format!("{}: {e}", input.display()))?;
            if scan.is_clean() {
                Ok(format!("{}: {}\n", input.display(), scan.describe()))
            } else {
                Err(format!(
                    "{}: {}\nrun `ossm repair --in={}` to rebuild from the intact parts",
                    input.display(),
                    scan.describe(),
                    input.display()
                ))
            }
        }
        FileKind::Map => {
            let ossm =
                persist::load(&input).map_err(|e| format!("{}: corrupt: {e}", input.display()))?;
            Ok(format!(
                "{}: clean: OSSM over {} items, {} segments, {} transactions, checksum verified\n",
                input.display(),
                ossm.num_items(),
                ossm.num_segments(),
                ossm.num_transactions()
            ))
        }
        FileKind::Flat => {
            // The flat OSSMDATA codec predates checksums; a full decode
            // still validates structure, domains, and item ordering.
            let d = ossm_data::io::load(&input)
                .map_err(|e| format!("{}: corrupt: {e}", input.display()))?;
            Ok(format!(
                "{}: structurally valid: {} transactions over {} items \
                 (flat format carries no checksums)\n",
                input.display(),
                d.len(),
                d.num_items()
            ))
        }
    }
}

/// `ossm repair --in=FILE [--out=FILE]` — rewrites a damaged paged store
/// as a clean v2 store, salvaging intact pages verbatim, keeping exact
/// index aggregates for pages whose data is lost, and widening (sound
/// over-estimate) where both are gone. Defaults to repairing in place.
fn repair(opts: &Options) -> Result<String, String> {
    let input = PathBuf::from(required(opts, "in")?);
    if classify(&input)? != FileKind::Paged {
        return Err("repair works on paged stores (see `ossm pack`)".into());
    }
    let out_s: String = opts.get("out", String::new());
    let out = if out_s.is_empty() {
        input.clone()
    } else {
        PathBuf::from(out_s)
    };
    let outcome = ossm_data::repair::repair_store(&input, &out)
        .map_err(|e| format!("{}: {e}", input.display()))?;
    Ok(format!(
        "repaired {} -> {}: {} pages restored, {} kept exact index aggregates, \
         {} widened to sound over-estimates{}\n",
        input.display(),
        out.display(),
        outcome.restored,
        outcome.quarantined,
        outcome.widened,
        if outcome.index_rebuilt {
            " (index rebuilt)"
        } else {
            ""
        }
    ))
}

/// `ossm obs diff BASELINE CURRENT` — compares two instrumentation
/// snapshot files (the `BENCH_obs.json` line format) with the same
/// flattening and thresholds as the `regress` bench binary, and prints its
/// markdown report. Exit codes separate the two failure modes: a
/// comparison that ran and breached a gate exits 2, while unreadable or
/// unparseable input is an `Err` (exit 1) — a script can retry the former
/// baseline-side and must fix the latter.
///
/// `ossm obs dump FILE.jsonl` — renders a flight-recorder dump (written on
/// panic or injected fault) as a human-readable timeline.
fn obs(opts: &Options, positionals: &[String]) -> Result<(String, i32), String> {
    const OBS_USAGE: &str = "usage: ossm obs diff BASELINE.json CURRENT.json \
         [--count-drift=0.05] [--mem-drift=0.10] [--max-time-regress=F]\n       \
         ossm obs dump FILE.jsonl";
    match positionals.split_first() {
        Some((sub, files)) if sub == "diff" => {
            let [baseline_path, current_path] = files else {
                return Err(format!("obs diff takes exactly two files\n{OBS_USAGE}"));
            };
            let read = |path: &String| -> Result<regress::ObsData, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                regress::parse_obs_lines(&text).map_err(|e| format!("{path}: {e}"))
            };
            let baseline = read(baseline_path)?;
            let current = read(current_path)?;
            let thresholds = regress::Thresholds {
                count_drift: opts.get("count-drift", 0.05f64),
                time_regress: opts
                    .raw("max-time-regress")
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|e| format!("--max-time-regress={v}: invalid value ({e})"))
                    })
                    .transpose()?,
                mem_drift: opts.get("mem-drift", regress::Thresholds::default().mem_drift),
            };
            let report = regress::compare(&baseline, &current, &thresholds);
            let code = if report.failed() { 2 } else { 0 };
            Ok((report.to_markdown(&thresholds), code))
        }
        Some((sub, files)) if sub == "dump" => {
            let [path] = files else {
                return Err(format!("obs dump takes exactly one file\n{OBS_USAGE}"));
            };
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let timeline =
                ossm_obs::recorder::render_timeline(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok((timeline, 0))
        }
        Some((other, _)) => Err(format!("unknown obs subcommand {other:?}\n{OBS_USAGE}")),
        None => Err(format!("missing obs subcommand\n{OBS_USAGE}")),
    }
}

// ---------------------------------------------------------------------------
// Network service: `ossm serve` and `ossm client`
// ---------------------------------------------------------------------------

/// `ossm serve [ADDR] --dir=DIR` — run the crash-tolerant streaming
/// ingest + query service over a durable map directory. `--duration=SECS`
/// bounds the run (0 = until interrupted); `--metrics=ADDR` additionally
/// exposes the live metrics endpoint; `--port-file=PATH` writes the bound
/// service address, then (with `--metrics`) the bound metrics address on
/// a second line, so addresses ending in `:0` are usable from scripts.
fn serve_cmd(opts: &Options, positionals: &[String]) -> Result<String, String> {
    let dir = PathBuf::from(required(opts, "dir")?);
    let addr = positionals
        .first()
        .cloned()
        .unwrap_or_else(|| opts.get("addr", "127.0.0.1:9186".to_owned()));
    let mut cfg = ossm_serve::ServeConfig::new(addr, dir, opts.get("items", 100));
    cfg.max_segments = opts.get("segments", cfg.max_segments);
    cfg.queue_depth = opts.get("queue-depth", cfg.queue_depth);
    cfg.group_max = opts.get("group-max", cfg.group_max);
    cfg.checkpoint_every_groups = opts.get("checkpoint-every", cfg.checkpoint_every_groups);
    // Bind the metrics endpoint first, so a bad `--metrics` address fails
    // before the map directory is opened.
    let metrics_addr: String = opts.get("metrics", String::new());
    let metrics = if metrics_addr.is_empty() {
        None
    } else {
        Some(
            ossm_obs::MetricsServer::start(&metrics_addr)
                .map_err(|e| format!("binding metrics on {metrics_addr}: {e}"))?,
        )
    };
    let (handle, recovery) =
        ossm_serve::serve(&cfg).map_err(|e| format!("starting service: {e}"))?;
    let bound = handle.local_addr();
    let port_file: String = opts.get("port-file", String::new());
    if !port_file.is_empty() {
        let mut addrs = format!("{bound}\n");
        if let Some(m) = &metrics {
            addrs.push_str(&format!("{}\n", m.local_addr()));
        }
        std::fs::write(&port_file, addrs).map_err(|e| format!("writing {port_file}: {e}"))?;
    }
    let duration: f64 = opts.get("duration", 0.0);
    let deadline = (duration > 0.0)
        .then(|| std::time::Instant::now() + std::time::Duration::from_secs_f64(duration));
    // `--duration=0` serves until the process is interrupted; the
    // committer and connection handlers run on their own threads.
    loop {
        match deadline {
            Some(d) if std::time::Instant::now() >= d => break,
            _ => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let acked = handle.acked_transactions();
    // The final checkpoint must surface: an error here means the WAL (not
    // the snapshot) is what carries the most recent acks across restart.
    handle
        .stop()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    drop(metrics);
    Ok(format!(
        "served on {bound} (fault hooks: {}): recovered {} appends \
         ({} duplicates skipped), acked {} transactions this run\n",
        ossm_serve::fault_hooks(),
        recovery.replayed_appends,
        recovery.skipped_duplicates,
        acked,
    ))
}

/// `ossm client <ingest|ub|mine|stats>` — speak the service protocol.
fn client_cmd(opts: &Options, positionals: &[String]) -> Result<String, String> {
    const CLIENT_USAGE: &str =
        "usage: ossm client <ingest|ub|mine|stats> --addr=HOST:PORT\n       \
         ossm client ingest --in=FILE [--batch=64] [--batch-id=1] [--deadline-ms=1000]\n       \
         ossm client ub --items=1,2,3\n       \
         ossm client mine --minsup=N [--top=20]\n       \
         ossm client stats";
    let Some((sub, _)) = positionals.split_first() else {
        return Err(format!("missing client subcommand\n{CLIENT_USAGE}"));
    };
    let mut ccfg = ossm_serve::ClientConfig::new(opts.get("addr", "127.0.0.1:9186".to_owned()));
    ccfg.max_attempts = opts.get("attempts", ccfg.max_attempts);
    let mut client = ossm_serve::Client::new(ccfg);
    match sub.as_str() {
        "ingest" => {
            let input = PathBuf::from(required(opts, "in")?);
            let dataset = load_dataset(&input)?;
            let batch: usize = opts.get("batch", 64);
            if batch == 0 || batch > ossm_serve::protocol::MAX_BATCH_TRANSACTIONS {
                return Err(format!(
                    "--batch={batch}: expected 1..={}",
                    ossm_serve::protocol::MAX_BATCH_TRANSACTIONS
                ));
            }
            let first_id: u64 = opts.get("batch-id", 1u64);
            let deadline_ms: u32 = opts.get("deadline-ms", 1000);
            let transactions: Vec<Vec<u32>> = dataset
                .transactions()
                .iter()
                .map(|t| t.items().iter().map(|i| i.index() as u32).collect())
                .collect();
            let (mut sent, mut batches, mut duplicates) = (0u64, 0u64, 0u64);
            for (i, chunk) in transactions.chunks(batch).enumerate() {
                let id = first_id + i as u64;
                let ack = client
                    .ingest(id, chunk, deadline_ms)
                    .map_err(|e| format!("ingest batch {id}: {e}"))?;
                sent += chunk.len() as u64;
                batches += 1;
                duplicates += u64::from(ack.duplicate);
            }
            Ok(format!(
                "ingested {sent} transactions in {batches} batches \
                 ({duplicates} already durable, {} retries)\n",
                client.retries(),
            ))
        }
        "ub" => {
            let spec = required(opts, "items")?;
            let items = parse_item_list(&spec)?;
            let b = client
                .upper_bound(&items)
                .map_err(|e| format!("ub query: {e}"))?;
            let staleness = if b.stale {
                format!(
                    " [stale snapshot, widened by {} in-flight]",
                    b.lag_transactions
                )
            } else {
                String::new()
            };
            Ok(format!(
                "ub({{{spec}}}) = {}{staleness} (epoch {}, snapshot age {} ms)\n",
                b.value, b.epoch, b.age_ms,
            ))
        }
        "mine" => {
            let min_support: u64 = opts
                .raw("minsup")
                .ok_or_else(|| "--minsup=N (an absolute support count) is required".to_owned())?
                .parse()
                .map_err(|e| format!("--minsup: {e}"))?;
            let top: u32 = opts.get("top", 20u32);
            let rows = client
                .mine(min_support, top)
                .map_err(|e| format!("mine: {e}"))?;
            let mut out = format!("{} items with ub >= {min_support}\n", rows.len());
            let mut table = Table::new(vec!["item", "support bound"]);
            for (item, bound) in rows {
                table.row(vec![item.to_string(), bound.to_string()]);
            }
            let _ = write!(out, "{}", table.to_markdown());
            Ok(out)
        }
        "stats" => {
            let s = client.stats().map_err(|e| format!("stats: {e}"))?;
            Ok(format!(
                "epoch {}: {} batches acked ({} transactions), \
                 queue {}/{}, {} segments, up {} ms{}\n",
                s.epoch,
                s.acked_batches,
                s.acked_transactions,
                s.queue_depth,
                s.queue_cap,
                s.segments,
                s.uptime_ms,
                if s.read_only {
                    ", READ-ONLY (poisoned)"
                } else {
                    ""
                },
            ))
        }
        other => Err(format!(
            "unknown client subcommand {other:?}\n{CLIENT_USAGE}"
        )),
    }
}

/// Parses `--items=1,2,3` into item ids.
fn parse_item_list(spec: &str) -> Result<Vec<u32>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map_err(|e| format!("--items={spec}: {s:?} is not an item id ({e})"))
        })
        .collect()
}

#[derive(PartialEq, Eq, Debug)]
enum FileKind {
    Flat,
    Paged,
    Map,
}

fn classify(path: &Path) -> Result<FileKind, String> {
    use std::io::Read as _;
    let mut f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // Match against the canonical constants — spelling the magic bytes
    // out here would give the format a second definition site (lint R5).
    match &magic {
        m if m == ossm_data::io::MAGIC => Ok(FileKind::Flat),
        m if m == ossm_data::PAGE_MAGIC => Ok(FileKind::Paged),
        m if m == ossm_core::persist::MAGIC => Ok(FileKind::Map),
        _ => Err(format!("{}: unrecognized file format", path.display())),
    }
}

fn load_dataset(path: &Path) -> Result<Dataset, String> {
    match classify(path)? {
        FileKind::Flat => ossm_data::io::load(path).map_err(|e| format!("{}: {e}", path.display())),
        FileKind::Paged => {
            let mut store = DiskStore::open(path, 16).map_err(|e| e.to_string())?;
            store.to_dataset().map_err(|e| e.to_string())
        }
        FileKind::Map => Err(format!("{}: is an OSSM map, not a dataset", path.display())),
    }
}

fn load_page_store(path: &Path, opts: &Options) -> Result<ossm_data::PageStore, String> {
    let page_bytes: usize = opts.get("page-bytes", ossm_data::page::DEFAULT_PAGE_BYTES);
    Ok(ossm_data::PageStore::pack(load_dataset(path)?, page_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ossm-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn run_ok(args: &[&str]) -> String {
        run(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).expect("command failed")
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_ok(&["help"]).contains("usage: ossm"));
        assert!(run(&["bogus".to_owned()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn full_pipeline_generate_pack_segment_mine() {
        let db = tmp("pipe.db");
        let pages = tmp("pipe.pages");
        let map = tmp("pipe.ossm");
        let db_s = db.to_str().unwrap();
        let pages_s = pages.to_str().unwrap();
        let map_s = map.to_str().unwrap();

        let g = run_ok(&[
            "generate",
            "--kind=skewed",
            "--transactions=2000",
            "--items=100",
            &format!("--out={db_s}"),
        ]);
        assert!(g.contains("2000 transactions"), "{g}");

        let p = run_ok(&["pack", &format!("--in={db_s}"), &format!("--out={pages_s}")]);
        assert!(p.contains("packed 2000 transactions"), "{p}");

        let i = run_ok(&["inspect", &format!("--in={db_s}")]);
        assert!(i.contains("flat dataset: 2000 transactions"), "{i}");
        let ip = run_ok(&["inspect", &format!("--in={pages_s}")]);
        assert!(ip.contains("paged dataset"), "{ip}");

        let s = run_ok(&[
            "segment",
            &format!("--in={pages_s}"),
            "--nuser=6",
            "--strategy=rc",
            &format!("--out={map_s}"),
        ]);
        assert!(s.contains("-> 6 segments"), "{s}");
        assert!(s.contains("saved ->"), "{s}");

        let m = run_ok(&[
            "mine",
            &format!("--in={db_s}"),
            "--minsup=0.05",
            &format!("--ossm={map_s}"),
            "--top=3",
        ]);
        assert!(m.contains("frequent patterns"), "{m}");

        let st = run_ok(&[
            "mine",
            &format!("--in={pages_s}"),
            "--algo=streaming",
            "--minsup=0.05",
            &format!("--ossm={map_s}"),
        ]);
        assert!(st.contains("streaming apriori"), "{st}");

        // The out-of-core miners agree with streaming Apriori even under a
        // two-frame pool, and report their page skips.
        let first_line = |s: &str| s.lines().next().unwrap_or("").to_owned();
        let patterns_of = |s: &str| {
            first_line(s)
                .split(": ")
                .nth(1)
                .unwrap_or("")
                .split(' ')
                .next()
                .unwrap_or("")
                .to_owned()
        };
        for (algo, label) in [
            ("streaming-dhp", "streaming dhp"),
            ("streaming-fpgrowth", "streaming fp-growth"),
        ] {
            let o = run_ok(&[
                "mine",
                &format!("--in={pages_s}"),
                &format!("--algo={algo}"),
                "--minsup=0.05",
                &format!("--ossm={map_s}"),
                "--pool-frames=2",
            ]);
            assert!(o.contains(label), "{o}");
            assert!(o.contains("pages skipped"), "{o}");
            assert_eq!(patterns_of(&o), patterns_of(&st), "{algo} diverged: {o}");
        }

        // A miner refuses an option it would ignore; the others take it.
        let mine = |algo: &str, option: &str| {
            let args = ["mine", "--minsup=0.05", option].map(str::to_owned);
            run(&[
                &args[..],
                &[format!("--in={pages_s}"), format!("--algo={algo}")],
            ]
            .concat())
        };
        let ossm = format!("--ossm={map_s}");
        for algo in ["partition", "fpgrowth", "charm", "genmax"] {
            let err = mine(algo, &ossm).expect_err(algo);
            assert_eq!(err, format!("--algo={algo} does not read --ossm"));
        }
        for algo in ["dhp", "partition", "depth", "eclat", "streaming"] {
            let err = mine(algo, "--backend=hashtree").expect_err(algo);
            assert_eq!(err, format!("--algo={algo} does not read --backend"));
        }
        for algo in ["dhp", "depth", "eclat"] {
            mine(algo, &ossm).expect(algo);
        }
        mine("apriori", "--backend=bitmap").expect("apriori reads --backend");
        // A zero count is an argument error, not a panic in the miner.
        for (algo, option) in [("streaming-dhp", "buckets"), ("partition", "partitions")] {
            let err = mine(algo, &format!("--{option}=0")).expect_err(algo);
            assert_eq!(err, format!("--{option}=0: expected at least 1"));
            mine(algo, &format!("--{option}=1")).expect(algo);
        }

        for f in [db, pages, map] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn miners_agree_through_the_cli() {
        let db = tmp("agree.db");
        let db_s = db.to_str().unwrap().to_owned();
        run_ok(&[
            "generate",
            "--kind=regular",
            "--transactions=1000",
            "--items=50",
            &format!("--out={db_s}"),
        ]);
        // "algo: N frequent patterns …" — extract N.
        let count_of = |algo: &str| -> String {
            let out = run_ok(&[
                "mine",
                &format!("--in={db_s}"),
                "--minsup=0.02",
                &format!("--algo={algo}"),
            ]);
            out.lines()
                .next()
                .unwrap_or("")
                .split(' ')
                .nth(1)
                .unwrap_or("")
                .to_owned()
        };
        let reference = count_of("apriori");
        assert!(
            reference.parse::<u64>().is_ok(),
            "expected a count, got {reference:?}"
        );
        for algo in ["dhp", "partition", "depth", "fpgrowth", "eclat"] {
            assert_eq!(count_of(algo), reference, "{algo} disagrees");
        }
        std::fs::remove_file(db).ok();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stats_table_reports_nonzero_instrumentation() {
        let db = tmp("stats.db");
        let pages = tmp("stats.pages");
        let db_s = db.to_str().unwrap();
        let pages_s = pages.to_str().unwrap();
        run_ok(&[
            "generate",
            "--kind=regular",
            "--transactions=1500",
            "--items=60",
            &format!("--out={db_s}"),
        ]);
        run_ok(&["pack", &format!("--in={db_s}"), &format!("--out={pages_s}")]);

        let s = run_ok(&[
            "segment",
            &format!("--in={pages_s}"),
            "--nuser=5",
            "--strategy=greedy",
            "--stats=table",
        ]);
        assert!(s.contains("-- stats --"), "{s}");
        assert!(s.contains("core.seg.greedy.merges"), "{s}");
        assert!(s.contains("core.build.segment"), "{s}");

        let m = run_ok(&[
            "mine",
            &format!("--in={db_s}"),
            "--minsup=0.02",
            "--stats", // bare flag defaults to the table format
        ]);
        assert!(m.contains("mining.apriori.level2.generated"), "{m}");

        for f in [db, pages] {
            std::fs::remove_file(f).ok();
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stats_json_lines_are_machine_parseable() {
        let db = tmp("stats-json.db");
        let db_s = db.to_str().unwrap();
        run_ok(&[
            "generate",
            "--kind=skewed",
            "--transactions=800",
            "--items=40",
            &format!("--out={db_s}"),
        ]);
        let m = run_ok(&[
            "mine",
            &format!("--in={db_s}"),
            "--minsup=0.05",
            "--stats=json",
        ]);
        let json_lines: Vec<&str> = m.lines().filter(|l| l.starts_with('{')).collect();
        assert!(!json_lines.is_empty(), "{m}");
        for line in json_lines {
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains(r#""type":"#), "{line}");
            assert!(line.contains(r#""name":"#), "{line}");
        }
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn stats_rejects_unknown_formats() {
        assert!(run(&["help".to_owned(), "--stats=xml".to_owned()]).is_err());
    }

    #[test]
    fn recipe_command() {
        let r = run_ok(&["recipe", "--nuser=150", "--pages=50000", "--skewed"]);
        assert!(r.contains("Random"), "{r}");
        let r2 = run_ok(&["recipe", "--nuser=40", "--pages=50000", "--cost-sensitive"]);
        assert!(r2.contains("Random-RC"), "{r2}");
    }

    #[test]
    fn segment_requires_input() {
        assert!(run(&["segment".to_owned()]).is_err());
    }

    /// Serializes tests that drive the process-global trace collector, so
    /// one test's `trace_take` cannot drain another's spans.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        match LOCK.get_or_init(|| std::sync::Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn generated_db(name: &str) -> PathBuf {
        let db = tmp(name);
        run_ok(&[
            "generate",
            "--kind=skewed",
            "--transactions=1200",
            "--items=50",
            &format!("--out={}", db.to_str().unwrap()),
        ]);
        db
    }

    #[test]
    fn mine_with_trace_writes_a_chrome_trace() {
        let _guard = trace_lock();
        let db = generated_db("trace-chrome.db");
        let out = tmp("trace-chrome.json");
        let report = run_ok(&[
            "mine",
            &format!("--in={}", db.to_str().unwrap()),
            "--minsup=0.05",
            "--trace=chrome",
            out.to_str().unwrap(),
        ]);
        assert!(report.contains("trace:"), "{report}");
        let text = std::fs::read_to_string(&out).expect("trace file written");
        let events = ossm_obs::json::parse(&text)
            .expect("valid JSON")
            .as_array()
            .expect("chrome traces are a JSON array")
            .to_vec();
        if ossm_obs::ENABLED {
            assert!(!events.is_empty());
            for e in &events {
                assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"), "{text}");
                assert!(e
                    .get("dur")
                    .and_then(ossm_obs::json::Json::as_f64)
                    .is_some());
            }
            let names: Vec<&str> = events
                .iter()
                .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
                .collect();
            assert!(names.contains(&"cli.mine"), "{names:?}");
            assert!(names.contains(&"mining.apriori"), "{names:?}");
        } else {
            assert!(events.is_empty(), "disabled builds record nothing");
            assert!(report.contains("compiled out"), "{report}");
        }
        for f in [db, out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn mine_with_trace_writes_folded_stacks() {
        let _guard = trace_lock();
        let db = generated_db("trace-folded.db");
        let out = tmp("trace-folded.folded");
        run_ok(&[
            "mine",
            &format!("--in={}", db.to_str().unwrap()),
            "--minsup=0.05",
            "--trace=folded",
            out.to_str().unwrap(),
        ]);
        let text = std::fs::read_to_string(&out).expect("trace file written");
        if ossm_obs::ENABLED {
            assert!(
                text.lines().any(|l| l.starts_with("cli.mine")),
                "stacks are rooted at the command span:\n{text}"
            );
            assert!(text.contains("cli.mine;mining.apriori"), "{text}");
            for line in text.lines() {
                let (_, value) = line.rsplit_once(' ').expect("`stack value` shape");
                value.parse::<u64>().expect("integer self-time");
            }
        } else {
            assert!(text.is_empty(), "disabled builds record nothing");
        }
        for f in [db, out] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn positional_arguments_need_a_trace_flag() {
        let err = run(&["recipe".to_owned(), "stray".to_owned()]).unwrap_err();
        assert!(err.contains("only used with --trace"), "{err}");
        let err = run(&[
            "recipe".to_owned(),
            "--trace".to_owned(),
            "a".to_owned(),
            "b".to_owned(),
        ])
        .unwrap_err();
        assert!(err.contains("at most one output path"), "{err}");
    }

    #[test]
    fn verify_and_repair_handle_a_bit_flipped_store() {
        let db = tmp("verify.db");
        let pages = tmp("verify.pages");
        let map = tmp("verify.ossm");
        let db_s = db.to_str().unwrap();
        let pages_s = pages.to_str().unwrap();
        let map_s = map.to_str().unwrap();
        run_ok(&[
            "generate",
            "--kind=regular",
            "--transactions=1500",
            "--items=60",
            &format!("--out={db_s}"),
        ]);
        run_ok(&["pack", &format!("--in={db_s}"), &format!("--out={pages_s}")]);
        run_ok(&[
            "segment",
            &format!("--in={pages_s}"),
            "--nuser=4",
            &format!("--out={map_s}"),
        ]);

        // Everything verifies clean right after writing.
        assert!(run_ok(&["verify", &format!("--in={pages_s}")]).contains("clean"));
        assert!(run_ok(&["verify", &format!("--in={map_s}")]).contains("checksum verified"));
        assert!(run_ok(&["verify", &format!("--in={db_s}")]).contains("structurally valid"));

        // Flip one bit in a data page: verify must fail (non-zero exit).
        let mut bytes = std::fs::read(&pages).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x08;
        std::fs::write(&pages, &bytes).unwrap();
        let err = run(&["verify".to_owned(), format!("--in={pages_s}")]).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        assert!(err.contains("ossm repair"), "{err}");

        // Repair in place, then verify passes and the data is usable.
        let r = run_ok(&["repair", &format!("--in={pages_s}")]);
        assert!(r.contains("repaired"), "{r}");
        assert!(run_ok(&["verify", &format!("--in={pages_s}")]).contains("clean"));
        assert!(run_ok(&["inspect", &format!("--in={pages_s}")]).contains("paged dataset"));

        // A flipped map file is rejected too.
        let mut bytes = std::fs::read(&map).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&map, &bytes).unwrap();
        let err = run(&["verify".to_owned(), format!("--in={map_s}")]).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");

        for f in [db, pages, map] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn repair_rejects_non_paged_inputs() {
        let db = tmp("repair-flat.db");
        let db_s = db.to_str().unwrap();
        run_ok(&[
            "generate",
            "--kind=regular",
            "--transactions=100",
            "--items=20",
            &format!("--out={db_s}"),
        ]);
        let err = run(&["repair".to_owned(), format!("--in={db_s}")]).unwrap_err();
        assert!(err.contains("paged"), "{err}");
        std::fs::remove_file(db).ok();
    }

    #[test]
    fn obs_diff_compares_two_snapshots() {
        let base = tmp("diff-base.json");
        let cur = tmp("diff-cur.json");
        std::fs::write(
            &base,
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":100}\n",
        )
        .unwrap();
        std::fs::write(
            &cur,
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":103}\n",
        )
        .unwrap();
        let args = |b: &Path, c: &Path| {
            vec![
                "obs".to_owned(),
                "diff".to_owned(),
                b.to_str().unwrap().to_owned(),
                c.to_str().unwrap().to_owned(),
            ]
        };
        // 3% drift: inside the default 5% gate.
        let report = run(&args(&base, &cur)).expect("diff runs");
        assert!(report.contains("**PASS**"), "{report}");
        assert!(report.contains("counter.c"), "{report}");
        // Tighter gate: the same drift fails.
        let mut tight = args(&base, &cur);
        tight.push("--count-drift=0.01".to_owned());
        assert!(run(&tight).expect("diff runs").contains("**FAIL**"));
        // Argument errors.
        assert!(run(&["obs".to_owned()]).is_err());
        assert!(run(&["obs".to_owned(), "diff".to_owned()]).is_err());
        assert!(run(&["obs".to_owned(), "bogus".to_owned()]).is_err());
        for f in [base, cur] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn obs_diff_exit_code_separates_gate_failure_from_bad_input() {
        let base = tmp("code-base.json");
        let cur = tmp("code-cur.json");
        std::fs::write(
            &base,
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":100}\n",
        )
        .unwrap();
        std::fs::write(
            &cur,
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":200}\n",
        )
        .unwrap();
        let args = |b: &str, c: &str| {
            vec![
                "obs".to_owned(),
                "diff".to_owned(),
                b.to_owned(),
                c.to_owned(),
            ]
        };
        let base_s = base.to_str().unwrap();
        let cur_s = cur.to_str().unwrap();
        // The comparison ran and the gate failed: Ok, exit code 2.
        let outcome = run_with_code(&args(base_s, cur_s)).expect("diff ran");
        assert_eq!(outcome.code, 2, "{}", outcome.report);
        assert!(outcome.report.contains("**FAIL**"));
        // Identical files: Ok, exit code 0.
        let outcome = run_with_code(&args(base_s, base_s)).expect("diff ran");
        assert_eq!(outcome.code, 0, "{}", outcome.report);
        // Unreadable input: Err (the binary exits 1), not a gate failure.
        let gone = tmp("code-gone.json");
        std::fs::remove_file(&gone).ok();
        let err = run_with_code(&args(base_s, gone.to_str().unwrap())).unwrap_err();
        assert!(err.contains("code-gone.json"), "{err}");
        // Unparseable input: Err as well.
        let broken = tmp("code-broken.json");
        std::fs::write(&broken, "{\"type\":\"counter\"\n").unwrap();
        let err = run_with_code(&args(base_s, broken.to_str().unwrap())).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        for f in [base, cur, broken] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn obs_dump_renders_a_flight_recorder_timeline() {
        let dump = tmp("dump.jsonl");
        std::fs::write(
            &dump,
            concat!(
                "{\"type\":\"header\",\"version\":1,\"total\":2,\"events\":2}\n",
                "{\"type\":\"event\",\"seq\":0,\"nanos\":1000,\"thread\":1,\
                 \"kind\":\"wal-append\",\"name\":\"data.wal.append\",\"value\":24}\n",
                "{\"type\":\"event\",\"seq\":1,\"nanos\":2000,\"thread\":1,\
                 \"kind\":\"fault\",\"name\":\"wal.append\",\"value\":24}\n",
            ),
        )
        .unwrap();
        let out = run_ok(&["obs", "dump", dump.to_str().unwrap()]);
        assert!(out.contains("flight recorder timeline (2 events)"), "{out}");
        assert!(out.contains("wal-append"), "{out}");
        assert!(out.contains("fault"), "{out}");
        // A corrupt dump is an input error (exit 1), and the file count
        // must be exactly one.
        std::fs::write(&dump, "not json\n").unwrap();
        assert!(run(&[
            "obs".to_owned(),
            "dump".to_owned(),
            dump.to_str().unwrap().to_owned()
        ])
        .is_err());
        assert!(run(&["obs".to_owned(), "dump".to_owned()]).is_err());
        std::fs::remove_file(dump).ok();
    }

    #[test]
    fn obs_dump_rejects_empty_and_truncated_dumps() {
        let dump = tmp("dump-bad.jsonl");
        let dump_s = dump.to_str().unwrap().to_owned();
        let run_dump = || run(&["obs".to_owned(), "dump".to_owned(), dump_s.clone()]).unwrap_err();
        // A zero-event dump is a failed capture, not a calm success.
        std::fs::write(&dump, "").unwrap();
        let err = run_dump();
        assert!(err.contains("empty flight-recorder dump"), "{err}");
        // Fewer events than the header declares: truncated mid-write.
        std::fs::write(
            &dump,
            concat!(
                "{\"type\":\"header\",\"version\":1,\"total\":3,\"events\":3}\n",
                "{\"type\":\"event\",\"seq\":0,\"nanos\":1,\"thread\":1,\
                 \"kind\":\"fault\",\"name\":\"x\",\"value\":0}\n",
            ),
        )
        .unwrap();
        let err = run_dump();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("declares 3"), "{err}");
        // A final record cut mid-JSON gets the truncation hint.
        std::fs::write(
            &dump,
            "{\"type\":\"event\",\"seq\":0,\"nanos\":1,\"thread\":1,\"kind\":\"fa",
        )
        .unwrap();
        let err = run_dump();
        assert!(err.contains("truncated mid-record"), "{err}");
        std::fs::remove_file(dump).ok();
    }

    #[test]
    fn serve_and_client_round_trip() {
        let db = tmp("svc.db");
        let dir = tmp("svc-map");
        let port_file = tmp("svc.port");
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_dir_all(&dir).ok();
        run_ok(&[
            "generate",
            "--kind=skewed",
            "--transactions=200",
            "--items=30",
            &format!("--out={}", db.to_str().unwrap()),
        ]);
        let dir_s = dir.to_str().unwrap().to_owned();
        let pf_s = port_file.to_str().unwrap().to_owned();
        // Obs builds also expose the metrics endpoint, whose address is
        // the port file's second line.
        let with_metrics = ossm_obs::ENABLED;
        let server = std::thread::spawn(move || -> String {
            let mut args = vec![
                "serve".to_owned(),
                "127.0.0.1:0".to_owned(),
                format!("--dir={dir_s}"),
                "--items=30".to_owned(),
                "--duration=3".to_owned(),
                format!("--port-file={pf_s}"),
            ];
            if with_metrics {
                args.push("--metrics=127.0.0.1:0".to_owned());
            }
            run(&args).expect("serve")
        });
        let addrs: Vec<String> = {
            let want = if with_metrics { 2 } else { 1 };
            let mut addrs = Vec::new();
            for _ in 0..400 {
                let text = std::fs::read_to_string(&port_file).unwrap_or_default();
                addrs = text.lines().map(str::to_owned).collect();
                if addrs.len() == want && text.ends_with('\n') {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert_eq!(addrs.len(), want, "server never wrote its port file");
            addrs
        };
        let addr = &addrs[0];
        let addr_flag = format!("--addr={addr}");
        let ingest = run_ok(&[
            "client",
            "ingest",
            &format!("--in={}", db.to_str().unwrap()),
            &addr_flag,
            "--batch=32",
        ]);
        assert!(
            ingest.contains("ingested 200 transactions in 7 batches (0 already durable"),
            "{ingest}"
        );
        // The same ids again: every batch is deduplicated, nothing
        // double-counts.
        let again = run_ok(&[
            "client",
            "ingest",
            &format!("--in={}", db.to_str().unwrap()),
            &addr_flag,
            "--batch=32",
        ]);
        assert!(again.contains("(7 already durable"), "{again}");
        let ub = run_ok(&["client", "ub", "--items=0,1", &addr_flag]);
        assert!(ub.contains("ub({0,1}) = "), "{ub}");
        if with_metrics {
            use std::io::{Read as _, Write as _};
            let mut conn = std::net::TcpStream::connect(&addrs[1]).expect("connect");
            write!(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
            let mut body = String::new();
            conn.read_to_string(&mut body).expect("response");
            // The registry is process-global: other tests may have added
            // to the insert counter, never taken from it.
            let inserted = body
                .lines()
                .find_map(|l| l.strip_prefix("ossm_req_insert_transactions_total "))
                .and_then(|v| v.trim().parse::<f64>().ok());
            assert!(inserted.is_some_and(|n| n >= 200.0), "{body}");
            assert!(body.contains("ossm_srv_commit_fsyncs_total"), "{body}");
            assert!(
                body.contains("ossm_req_ub_latency{quantile=\"0.5\"}"),
                "{body}"
            );
        }
        let mine = run_ok(&["client", "mine", "--minsup=1", "--top=5", &addr_flag]);
        assert!(mine.contains("items with ub >= 1"), "{mine}");
        let stats = run_ok(&["client", "stats", &addr_flag]);
        assert!(stats.contains("(200 transactions)"), "{stats}");
        // Unknown subcommands and malformed item lists are input errors.
        assert!(run(&["client".to_owned(), "bogus".to_owned()]).is_err());
        assert!(run(&[
            "client".to_owned(),
            "ub".to_owned(),
            "--items=1,x".to_owned(),
            addr_flag.clone(),
        ])
        .is_err());
        let report = server.join().expect("server thread");
        assert!(report.contains("served on"), "{report}");
        assert!(
            report.contains("acked 200 transactions this run"),
            "{report}"
        );
        std::fs::remove_file(&db).ok();
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
