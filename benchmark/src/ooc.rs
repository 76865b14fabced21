//! `ooc-huge`: out-of-core mining of a page file larger than the buffer
//! pool. Each sample runs streaming Apriori, DHP and FP-growth, each on a
//! freshly opened `DiskStore` whose pool holds a quarter of the pages.
//! Page fetch, checksum, decode and eviction dominate, counting is
//! trivial, and the OSSM's page-level bound skips the noise tail's pages.
//! Every run must reproduce the in-memory Apriori oracle.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use ossm_core::{persist, Ossm, OssmBuilder, Strategy};
use ossm_data::disk::{write_paged, DiskStore};
use ossm_data::{ItemId, Itemset, PageStore};
use ossm_mining::apriori::generate_candidates;
use ossm_mining::{
    Apriori, FrequentPatterns, StreamingApriori, StreamingDhp, StreamingFpGrowth, StreamingOutcome,
};

use crate::inputs::{self, mix_seed};
use crate::mine::{level_metrics, set_up, tampered};
use crate::report::{Report, Value};
use crate::trace::Tracer;
use crate::{check_crcs, ratio, Args, Scale};

const TAG: u64 = 3;
const ITEMS: usize = 240;
const PAGE_BYTES: usize = 4096;
const MINSUP: f64 = 0.01;
const BUCKETS: usize = 2048;
const PAGES: &str = "huge.pages";
const MAP: &str = "huge.ossm";

/// The three streaming miners, in sweep order: name, traced span, and
/// the metric carrying the span's share of the traced pass.
const MINERS: [(&str, &str, &str); 3] = [
    ("apriori", "mining.ooc.apriori", "mining.ooc.apriori.share"),
    ("dhp", "mining.ooc.dhp", "mining.ooc.dhp.share"),
    (
        "fpgrowth",
        "mining.ooc.fpgrowth",
        "mining.ooc.fpgrowth.share",
    ),
];

fn mine_one(
    which: usize,
    store: &mut DiskStore,
    min_support: u64,
    ossm: Option<&Ossm>,
) -> io::Result<StreamingOutcome> {
    match which {
        0 => StreamingApriori::new().mine(store, min_support, ossm),
        1 => StreamingDhp::new(BUCKETS).mine(store, min_support, ossm),
        _ => StreamingFpGrowth::new().mine(store, min_support, ossm),
    }
}

/// One sweep's totals.
#[derive(Default)]
struct Sweep {
    ms: f64,
    page_reads: u64,
    passes: u64,
    skipped: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    apriori: Option<StreamingOutcome>,
}

fn sizes(scale: Scale) -> (usize, usize, usize) {
    match scale {
        // (transactions, n_mid, n_user)
        Scale::Full => (2_000_000, 200, 40),
        Scale::Smoke => (20_000, 20, 8),
    }
}

/// The set-up child's side: sets the workload up three times (generate,
/// write the page file, pack the same pages in memory, build), computes
/// the in-memory oracle, saves the OSSM next to the page file, and prints
/// the timings, checksums, failed gates and oracle patterns as
/// `key values…` lines. Running this in its own process keeps the
/// in-memory copy of the data, and the allocator pages it leaves behind,
/// out of the out-of-core run's peak memory.
pub(crate) fn prepare(args: &Args, dir: &Path, out: &mut dyn Write) -> io::Result<()> {
    let (transactions, n_mid, n_user) = sizes(args.scale);
    let builder = OssmBuilder::new(n_user)
        .strategy(Strategy::RandomGreedy { n_mid })
        .seed(mix_seed(args.seed, TAG + 100));
    let s = set_up(
        || inputs::huge(transactions, ITEMS, mix_seed(args.seed, TAG)),
        |dataset| {
            write_paged(&dir.join(PAGES), &dataset, PAGE_BYTES)?;
            Ok(PageStore::pack(dataset, PAGE_BYTES))
        },
        &builder,
    )?;
    for i in &s.differing {
        writeln!(out, "gate set-up build {i} differs from build 0")?;
    }
    let (store, ossm) = (s.store, s.ossm);
    persist::save_atomic(&dir.join(MAP), &ossm)?;
    let min_support = store.dataset().absolute_threshold(MINSUP).max(1);
    let oracle = Apriori::new().mine(store.dataset(), min_support).patterns;
    for (key, values) in [
        ("setup_s", s.setup_s),
        ("gen_s", s.gen_s),
        ("build_s", s.build_s),
        ("crc", s.crcs.iter().map(|&c| f64::from(c)).collect()),
        ("loss", vec![s.loss as f64]),
        ("loss_evals", vec![s.loss_evals as f64]),
        ("min_support", vec![min_support as f64]),
        ("num_pages", vec![store.num_pages() as f64]),
    ] {
        let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        writeln!(out, "{key} {}", values.join(" "))?;
    }
    for (x, support) in oracle.iter() {
        let items: Vec<String> = x.items().iter().map(|i| i.0.to_string()).collect();
        writeln!(out, "pattern {support} {}", items.join(" "))?;
    }
    Ok(())
}

/// What the set-up child reported.
#[derive(Default)]
struct Prepared {
    values: BTreeMap<String, Vec<f64>>,
    gates: Vec<String>,
    oracle: FrequentPatterns,
}

impl Prepared {
    fn parse(text: &str) -> io::Result<Prepared> {
        let bad = |line: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("set-up output {line:?}"),
            )
        };
        let mut p = Prepared::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "gate" => p.gates.push(rest.to_owned()),
                "pattern" => {
                    let mut ids = rest.split_whitespace().map(str::parse::<u64>);
                    let support = ids.next().and_then(Result::ok).ok_or_else(|| bad(line))?;
                    let items = ids
                        .map(|i| i.ok().and_then(|i| u32::try_from(i).ok()))
                        .collect::<Option<Vec<u32>>>()
                        .ok_or_else(|| bad(line))?;
                    p.oracle.insert(Itemset::new(items), support);
                }
                _ => {
                    let values = rest
                        .split_whitespace()
                        .map(str::parse::<f64>)
                        .collect::<Result<Vec<f64>, _>>()
                        .map_err(|_| bad(line))?;
                    p.values.insert(key.to_owned(), values);
                }
            }
        }
        Ok(p)
    }

    fn get(&self, key: &str) -> io::Result<&[f64]> {
        self.values
            .get(key)
            .filter(|v| !v.is_empty())
            .map(Vec::as_slice)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("set-up output lacks {key}"),
                )
            })
    }

    fn scalar(&self, key: &str) -> io::Result<f64> {
        Ok(self.get(key)?[0])
    }
}

fn prepare_in_child(args: &Args, dir: &Path) -> io::Result<Prepared> {
    let output = Command::new(std::env::current_exe()?)
        .arg("--workload=ooc-huge")
        .arg(format!("--seed={}", args.seed))
        .arg(format!("--scale={}", args.scale.name()))
        .arg(format!("--ooc-prepare={}", dir.display()))
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "the set-up process failed: {}",
            output.status
        )));
    }
    Prepared::parse(&String::from_utf8_lossy(&output.stdout))
}

pub(crate) fn run(
    args: &Args,
    dir: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let path = dir.join(PAGES);
    let prepared = prepare_in_child(args, dir)?;
    for g in &prepared.gates {
        report.gate(false, || g.clone());
    }
    let crcs: Vec<u32> = prepared.get("crc")?.iter().map(|&c| c as u32).collect();
    check_crcs(report, &crcs, args);
    report.set("setup_s", Value::median_of(prepared.get("setup_s")?));
    report.set("segment_s", Value::median_of(prepared.get("build_s")?));
    report.set("data.gen_s", Value::median_of(prepared.get("gen_s")?));
    report.set_single("core.seg.loss", prepared.scalar("loss")?);
    report.set_single("core.seg.loss_evals", prepared.scalar("loss_evals")?);
    let min_support = prepared.scalar("min_support")? as u64;
    let num_pages = prepared.scalar("num_pages")? as usize;
    let oracle = prepared.oracle;
    let ossm = persist::load(&dir.join(MAP))?;
    report.set_single("core.ossm_bytes", ossm.memory_bytes() as f64);
    let frames = (num_pages / 4).max(2);
    let map = if args.tamper_ossm {
        tampered(&ossm)
    } else {
        ossm
    };

    let sweep = |map: Option<&Ossm>, report: &mut Report| -> io::Result<Sweep> {
        let mut s = Sweep::default();
        for (which, (name, _, _)) in MINERS.into_iter().enumerate() {
            let start = Instant::now();
            let mut disk = DiskStore::open(&path, frames)?;
            let out = mine_one(which, &mut disk, min_support, map)?;
            s.ms += start.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            report.gate(out.patterns == oracle, || {
                format!(
                    "out-of-core {name} (OSSM: {}) diverged from the in-memory oracle",
                    map.is_some()
                )
            });
            let pool = disk.pool_stats();
            s.page_reads += out.page_reads;
            s.passes += out.passes;
            s.skipped += out.skipped_pages;
            s.hits += pool.hits;
            s.misses += pool.misses;
            s.evictions += pool.evictions;
            if which == 0 {
                s.apriori = Some(out);
            }
        }
        Ok(s)
    };

    // Measured window: interleaved pairs of sweeps without and with the
    // OSSM, alternating which runs first.
    let (mut with_ms, mut base_ms) = (Vec::new(), Vec::new());
    let (mut with_first, mut base_first) = (None, None);
    crate::reset_peak_rss();
    let window = Instant::now();
    let mut pair = 0usize;
    while pair == 0 || window.elapsed() < args.window() {
        for filtered in [pair % 2 == 1, pair % 2 == 0] {
            let s = sweep(filtered.then_some(&map), report)?;
            if filtered {
                with_ms.push(s.ms);
                with_first.get_or_insert(s);
            } else {
                base_ms.push(s.ms);
                base_first.get_or_insert(s);
            }
        }
        pair += 1;
    }
    report.set_single("peak_rss_mb", crate::peak_rss_mb());
    report.set("ossm_op_ms", Value::median_of(&with_ms));
    report.set("other_op_ms", Value::median_of(&base_ms));
    if !args.trace {
        return Ok(());
    }

    let (with, base) = (
        with_first.expect("at least one filtered sweep"),
        base_first.expect("at least one unfiltered sweep"),
    );
    report.set_single("data.page_reads", with.page_reads as f64);
    report.set_single("data.page_reads_base", base.page_reads as f64);
    report.set_single(
        "data.pool.hit_ratio",
        ratio(with.hits, with.hits + with.misses),
    );
    report.set_single("data.pool.evictions", with.evictions as f64);
    report.set_single("data.pool.skipped_pages", with.skipped as f64);
    report.set_single("mining.ooc.passes", with.passes as f64);
    report.set_single(
        "mining.filter.speedup",
        crate::stats::median(&base_ms) / crate::stats::median(&with_ms),
    );
    let (with_apriori, base_apriori) = (
        with.apriori.expect("apriori ran"),
        base.apriori.expect("apriori ran"),
    );
    level_metrics(
        report,
        &with_apriori.metrics.levels,
        &base_apriori.metrics.levels,
    );

    // Traced pass: a cold fetch_page scan of every page, eq. (1) over the
    // OSSM's C2, then one filtered run of each streaming miner; once
    // untraced and once traced.
    let frequent: Vec<Itemset> = (0..ITEMS as u32)
        .map(ItemId)
        .filter(|&i| map.singleton_support(i) >= min_support)
        .map(Itemset::singleton)
        .collect();
    let pass = |t: &mut Tracer| -> io::Result<(Vec<FrequentPatterns>, usize)> {
        t.span("data.fetch", |_| -> io::Result<()> {
            let mut disk = DiskStore::open(&path, frames)?;
            for p in 0..disk.num_pages() {
                disk.fetch_page(p)?;
            }
            Ok(())
        })?;
        let c2 = t.span("mining.gen", |_| generate_candidates(&frequent));
        let evals = c2.len();
        t.span("core.bound", |_| {
            c2.iter()
                .filter(|c| map.upper_bound(c) >= min_support)
                .count()
        });
        let mut found = Vec::new();
        for (which, (_, span, _)) in MINERS.into_iter().enumerate() {
            let out = t.span(span, |_| -> io::Result<StreamingOutcome> {
                let mut disk = DiskStore::open(&path, frames)?;
                mine_one(which, &mut disk, min_support, Some(&map))
            })?;
            found.push(out.patterns);
        }
        Ok((found, evals))
    };
    let untraced = Instant::now();
    pass(&mut Tracer::new(false))?;
    let untraced_s = untraced.elapsed().as_secs_f64();
    let traced = Instant::now();
    let (found, evals) = pass(tracer)?;
    let total_s = traced.elapsed().as_secs_f64();
    for (patterns, (name, _, _)) in found.iter().zip(MINERS) {
        report.gate(*patterns == oracle, || {
            format!("traced out-of-core {name} diverged from the in-memory oracle")
        });
    }
    report.set_single("trace.total_s", total_s);
    report.set_single("trace.overhead_ratio", total_s / untraced_s);
    let selfs = tracer.self_seconds();
    let share = |span: &str| selfs.get(span).copied().unwrap_or(0.0) / total_s;
    report.set_single("data.fetch.share", share("data.fetch"));
    report.set_single("mining.gen.share", share("mining.gen"));
    report.set_single("core.bound.share", share("core.bound"));
    for (_, span, metric) in MINERS {
        report.set_single(metric, share(span));
    }
    let fetch_s = selfs.get("data.fetch").copied().unwrap_or(0.0);
    report.set_single("data.fetch_pages_per_s", num_pages as f64 / fetch_s);
    let bound_s = selfs.get("core.bound").copied().unwrap_or(0.0);
    report.set_single(
        "core.bound.ns_per_eval",
        bound_s * 1e9 / evals.max(1) as f64,
    );
    Ok(())
}
