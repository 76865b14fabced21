//! The in-memory mining workloads, `mine-skewed` and `mine-regular`:
//! Apriori with the hash-tree back-end, without and with the OSSM filter,
//! over paper-shaped data. On skewed data eq. (1) prunes most of C2 and
//! the filter pays; on regular data it prunes little, and generating and
//! bounding C2 costs more than the counting it saves. The same mining
//! layer, used two ways.

use std::io;
use std::time::Instant;

use ossm_core::minimize::group_by_configuration;
use ossm_core::seg::{Greedy, Random, RandomClosest, SegmentationAlgorithm};
use ossm_core::{Aggregate, LossCalculator, Ossm, OssmBuilder, Segmentation, Strategy};
use ossm_data::{Dataset, ItemId, Itemset, PageStore};
use ossm_mining::apriori::generate_candidates;
use ossm_mining::support::count_with;
use ossm_mining::{
    Apriori, CandidateFilter, CountingBackend, FrequentPatterns, LevelMetrics, NoFilter, OssmFilter,
};

use crate::inputs::{self, mix_seed};
use crate::report::{Report, Value};
use crate::trace::Tracer;
use crate::{check_crcs, ratio, Args, Scale, SETUPS};

/// Transactions per page, the paper's "roughly 100 per 4 KB page".
const TX_PER_PAGE: usize = 100;

struct Params {
    pages: usize,
    items: usize,
    minsup: f64,
    strategy: Strategy,
    n_user: usize,
    generate: fn(usize, usize, u64) -> Dataset,
    tag: u64,
}

fn params(workload: &str, scale: Scale) -> Params {
    let skewed = workload == "mine-skewed";
    let (pages, items) = match scale {
        Scale::Full if skewed => (500, 1000),
        Scale::Full => (250, 1000),
        Scale::Smoke => (20, 100),
    };
    let (n_user, n_mid) = match scale {
        Scale::Full if skewed => (100, 0),
        Scale::Full => (50, 200),
        Scale::Smoke => (4, 10),
    };
    if skewed {
        Params {
            pages,
            items,
            minsup: if scale == Scale::Full { 0.01 } else { 0.02 },
            strategy: Strategy::Rc,
            n_user,
            generate: inputs::skewed,
            tag: 1,
        }
    } else {
        Params {
            pages,
            items,
            minsup: if scale == Scale::Full { 0.005 } else { 0.02 },
            strategy: Strategy::RandomGreedy { n_mid },
            n_user,
            generate: inputs::regular,
            tag: 2,
        }
    }
}

fn builder_seed(seed: u64, p: &Params) -> u64 {
    mix_seed(seed, p.tag + 100)
}

/// Sum of the segmentation loss-evaluation counters the heuristics keep.
fn loss_evals() -> u64 {
    let snap = ossm_obs::registry().snapshot();
    snap.counter("core.seg.rc.loss_evals") + snap.counter("core.seg.greedy.loss_evals")
}

fn registry_counter(name: &str) -> u64 {
    ossm_obs::registry().snapshot().counter(name)
}

/// Zeroes the supports of the segment holding the most transactions: an
/// OSSM that undercounts, which the pattern gate must catch.
pub(crate) fn tampered(ossm: &Ossm) -> Ossm {
    let mut segments = ossm.segments().to_vec();
    if let Some(i) = (0..segments.len()).max_by_key(|&i| segments[i].transactions()) {
        let zeros = vec![0; segments[i].num_items()];
        segments[i] = Aggregate::new(zeros, segments[i].transactions());
    }
    Ossm::from_aggregates(segments)
}

/// The set-ups of a mining workload: each generates the input, packs it
/// into pages, and builds the OSSM. The last copy is kept; the builds
/// must agree exactly.
pub(crate) struct SetUps {
    pub(crate) store: PageStore,
    pub(crate) ossm: Ossm,
    pub(crate) loss: u64,
    pub(crate) loss_evals: u64,
    pub(crate) setup_s: Vec<f64>,
    pub(crate) gen_s: Vec<f64>,
    pub(crate) build_s: Vec<f64>,
    pub(crate) crcs: Vec<u32>,
    /// Set-ups whose OSSM differs from the first one's.
    pub(crate) differing: Vec<usize>,
}

/// Runs [`SETUPS`] set-ups: `generate` (timed as `gen_s`), then `pack`,
/// then `builder`. `core.seg.loss_evals` is counted over the first build.
pub(crate) fn set_up(
    generate: impl Fn() -> Dataset,
    pack: impl Fn(Dataset) -> io::Result<PageStore>,
    builder: &OssmBuilder,
) -> io::Result<SetUps> {
    let (mut setup_s, mut gen_s, mut build_s, mut crcs) = (vec![], vec![], vec![], vec![]);
    let mut differing = Vec::new();
    let mut kept: Option<(PageStore, Ossm, u64)> = None;
    let mut first_evals = 0;
    for i in 0..SETUPS {
        let evals_before = loss_evals();
        let start = Instant::now();
        let dataset = generate();
        gen_s.push(start.elapsed().as_secs_f64());
        let store = pack(dataset)?;
        let built = Instant::now();
        let (ossm, build) = builder.build(&store);
        build_s.push(built.elapsed().as_secs_f64());
        setup_s.push(start.elapsed().as_secs_f64());
        if i == 0 {
            first_evals = loss_evals() - evals_before;
        }
        let dataset = store.dataset();
        crcs.push(inputs::input_crc(
            dataset.num_items(),
            dataset.transactions(),
        ));
        if kept.as_ref().is_some_and(|(_, first, _)| *first != ossm) {
            differing.push(i);
        }
        kept = Some((store, ossm, build.total_loss));
    }
    let (store, ossm, loss) = kept.expect("at least one set-up");
    Ok(SetUps {
        store,
        ossm,
        loss,
        loss_evals: first_evals,
        setup_s,
        gen_s,
        build_s,
        crcs,
        differing,
    })
}

pub(crate) fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> io::Result<()> {
    let p = params(report.workload, args.scale);
    let seed = args.seed;
    let builder = OssmBuilder::new(p.n_user)
        .strategy(p.strategy)
        .seed(builder_seed(seed, &p));

    let s = set_up(
        || (p.generate)(p.pages * TX_PER_PAGE, p.items, mix_seed(seed, p.tag)),
        |dataset| Ok(PageStore::with_page_count(dataset, p.pages)),
        &builder,
    )?;
    for i in &s.differing {
        report.gate(false, || format!("set-up build {i} differs from build 0"));
    }
    check_crcs(report, &s.crcs, args);
    report.set("setup_s", Value::median_of(&s.setup_s));
    report.set("segment_s", Value::median_of(&s.build_s));
    report.set("data.gen_s", Value::median_of(&s.gen_s));
    report.set_single("core.seg.loss", s.loss as f64);
    report.set_single("core.seg.loss_evals", s.loss_evals as f64);
    report.set_single("core.ossm_bytes", s.ossm.memory_bytes() as f64);
    let (store, ossm, loss) = (s.store, s.ossm, s.loss);
    let filter_ossm = if args.tamper_ossm {
        tampered(&ossm)
    } else {
        ossm.clone()
    };

    // Measured window: interleaved pairs without and with the OSSM,
    // alternating which runs first; every run must find the same
    // patterns.
    let dataset = store.dataset();
    let min_support = dataset.absolute_threshold(p.minsup);
    let apriori = Apriori::new().with_backend(CountingBackend::HashTree);
    let filter = OssmFilter::new(&filter_ossm);
    let (mut with_ms, mut base_ms) = (Vec::new(), Vec::new());
    let mut reference: Option<FrequentPatterns> = None;
    let (mut with_levels, mut base_levels) = (Vec::new(), Vec::new());
    let mut filtered_evals = None;
    crate::reset_peak_rss();
    let window = Instant::now();
    let mut pair = 0usize;
    while pair == 0 || window.elapsed() < args.window() {
        for filtered in [pair % 2 == 1, pair % 2 == 0] {
            let f: &dyn CandidateFilter = if filtered { &filter } else { &NoFilter };
            let first_filtered = filtered && filtered_evals.is_none();
            let evals_before = if first_filtered {
                registry_counter("core.bound.evals")
            } else {
                0
            };
            let start = Instant::now();
            let out = apriori.mine_filtered(dataset, min_support, f);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            if filtered {
                with_ms.push(ms);
                if first_filtered {
                    filtered_evals = Some(registry_counter("core.bound.evals") - evals_before);
                    with_levels.clone_from(&out.metrics.levels);
                }
            } else {
                base_ms.push(ms);
                base_levels.clone_from(&out.metrics.levels);
            }
            match &reference {
                None => reference = Some(out.patterns),
                Some(r) => {
                    let runs = with_ms.len() + base_ms.len();
                    report.gate(*r == out.patterns, || {
                        format!(
                            "mining run {runs} (OSSM: {filtered}) found other patterns than run 1"
                        )
                    });
                }
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

    let reference = reference.expect("at least one run");
    let evals = filtered_evals.expect("at least one filtered run");
    level_metrics(report, &with_levels, &base_levels);
    let generated: u64 = with_levels.iter().map(|l| l.generated).sum();
    report.set_single("core.bound.evals_per_candidate", ratio(evals, generated));
    report.set_single(
        "mining.filter.speedup",
        crate::stats::median(&base_ms) / crate::stats::median(&with_ms),
    );

    // Traced pass: the build and Apriori's level loop replayed through
    // the layers' public functions, once untraced and once traced.
    let pass = |t: &mut Tracer| {
        let (ossm, loss) = segment_replay(t, &store, &p, builder_seed(seed, &p));
        let mined = apriori_replay(t, dataset, min_support, &filter_ossm);
        (ossm, loss, mined)
    };
    let untraced = Instant::now();
    pass(&mut Tracer::new(false));
    let untraced_s = untraced.elapsed().as_secs_f64();
    let traced = Instant::now();
    let (replayed, replayed_loss, mined) = pass(tracer);
    let total_s = traced.elapsed().as_secs_f64();
    report.gate(replayed == ossm && replayed_loss == loss, || {
        "the replayed segmentation differs from OssmBuilder::build".into()
    });
    report.gate(mined.patterns == reference, || {
        "the replayed level loop found other patterns than Apriori::mine_filtered".into()
    });
    report.gate(mined.levels == with_levels, || {
        "the replayed level loop's LevelMetrics differ from Apriori::mine_filtered's".into()
    });
    report.set_single("trace.total_s", total_s);
    report.set_single("trace.overhead_ratio", total_s / untraced_s);
    let selfs = tracer.self_seconds();
    for (span, metric) in [
        ("core.seg.aggregate", "core.seg.aggregate.share"),
        ("core.seg.merge", "core.seg.merge.share"),
        ("core.seg.loss_matrix", "core.seg.loss_matrix.share"),
        ("core.bound", "core.bound.share"),
        ("mining.gen", "mining.gen.share"),
        ("mining.count", "mining.count.share"),
    ] {
        if let Some(s) = selfs.get(span) {
            report.set_single(metric, s / total_s);
        }
    }
    let bound_s = selfs.get("core.bound").copied().unwrap_or(0.0);
    report.set_single("core.bound.ns_per_eval", bound_s * 1e9 / mined.evals as f64);
    Ok(())
}

/// Candidate-flow metrics from the with- and without-OSSM level rows.
pub(crate) fn level_metrics(report: &mut Report, with: &[LevelMetrics], base: &[LevelMetrics]) {
    let c2 = |rows: &[LevelMetrics]| rows.iter().find(|l| l.level == 2).map_or(0, |l| l.counted);
    let upper = |rows: &[LevelMetrics], f: fn(&LevelMetrics) -> u64| -> u64 {
        rows.iter().filter(|l| l.level >= 2).map(f).sum()
    };
    report.set_single("mining.count.c2_fraction", ratio(c2(with), c2(base)));
    let generated = upper(with, |l| l.generated);
    report.set_single("mining.gen.candidates", generated as f64);
    report.set_single(
        "mining.filter.prune_ratio",
        ratio(upper(with, |l| l.filtered_out), generated),
    );
    let counted = upper(with, |l| l.counted);
    report.set_single(
        "mining.filter.false_pos_ratio",
        ratio(counted - upper(with, |l| l.frequent), counted),
    );
}

/// `OssmBuilder::build`, step by step through the public segmentation
/// API, with the Greedy loss matrix timed once more on its own as a
/// probe. Returns the OSSM and its eq. (2) loss.
fn segment_replay(t: &mut Tracer, store: &PageStore, p: &Params, seed: u64) -> (Ossm, u64) {
    t.span("core.seg", |t| {
        let calc = LossCalculator::all_items();
        let inputs = t.span("core.seg.aggregate", |_| Aggregate::from_pages(store));
        let (pre, work) = t.span("core.seg.prepass", |_| {
            let pre = group_by_configuration(&inputs);
            let work = pre.merge_aggregates(&inputs);
            (pre, work)
        });
        let inner = match p.strategy {
            Strategy::RandomGreedy { .. } if p.n_user >= work.len() => {
                Segmentation::identity(work.len())
            }
            Strategy::RandomGreedy { n_mid } => {
                let n_mid = n_mid.clamp(p.n_user, work.len());
                let phase1 = t.span("core.seg.merge", |_| {
                    Random::new(seed).segment(&work, n_mid)
                });
                let mids = phase1.merge_aggregates(&work);
                t.span("core.seg.loss_matrix", |_| {
                    calc.pairwise_merge_losses(&mids)
                });
                let phase2 = t.span("core.seg.merge", |_| {
                    Greedy::new(calc.clone()).segment(&mids, p.n_user)
                });
                phase1.compose(&phase2)
            }
            _ => t.span("core.seg.merge", |_| {
                RandomClosest::new(calc.clone(), seed).segment(&work, p.n_user)
            }),
        };
        let segmentation = pre.compose(&inner);
        let ossm = t.span("core.seg.assemble", |_| {
            Ossm::from_pages(store, &segmentation)
        });
        let loss = t.span("core.seg.loss", |_| {
            calc.segmentation_loss(&inputs, &segmentation)
        });
        (ossm, loss)
    })
}

struct Mined {
    patterns: FrequentPatterns,
    levels: Vec<LevelMetrics>,
    evals: u64,
}

/// `Apriori::mine_filtered` with the hash-tree back-end and an OSSM
/// filter, replayed level by level through `generate_candidates`,
/// `Ossm::upper_bound` and `count_with`.
fn apriori_replay(t: &mut Tracer, dataset: &Dataset, min_support: u64, ossm: &Ossm) -> Mined {
    let m = dataset.num_items();
    let mut mined = Mined {
        patterns: FrequentPatterns::new(),
        levels: Vec::new(),
        evals: m as u64,
    };
    t.span("mining.apriori", |t| {
        let survivors: Vec<ItemId> = t.span("core.bound", |_| {
            (0..m as u32)
                .map(ItemId)
                .filter(|&i| ossm.upper_bound(&Itemset::singleton(i)) >= min_support)
                .collect()
        });
        let supports = t.span("mining.count", |_| dataset.singleton_supports());
        let mut frequent = Vec::new();
        for &item in &survivors {
            let support = supports[item.index()];
            if support >= min_support {
                mined.patterns.insert(Itemset::singleton(item), support);
                frequent.push(Itemset::singleton(item));
            }
        }
        mined.levels.push(LevelMetrics {
            level: 1,
            generated: m as u64,
            filtered_out: (m - survivors.len()) as u64,
            counted: survivors.len() as u64,
            frequent: frequent.len() as u64,
        });
        let mut k = 2;
        while !frequent.is_empty() {
            let generated = t.span("mining.gen", |_| generate_candidates(&frequent));
            if generated.is_empty() {
                break;
            }
            let g = generated.len();
            mined.evals += g as u64;
            let candidates: Vec<Itemset> = t.span("core.bound", |_| {
                generated
                    .into_iter()
                    .filter(|c| ossm.upper_bound(c) >= min_support)
                    .collect()
            });
            let counts = t.span("mining.count", |_| {
                count_with(
                    CountingBackend::HashTree,
                    dataset.transactions(),
                    &candidates,
                )
            });
            let mut next = Vec::new();
            for (c, support) in candidates.iter().zip(counts) {
                if support >= min_support {
                    mined.patterns.insert(c.clone(), support);
                    next.push(c.clone());
                }
            }
            mined.levels.push(LevelMetrics {
                level: k,
                generated: g as u64,
                filtered_out: (g - candidates.len()) as u64,
                counted: candidates.len() as u64,
                frequent: next.len() as u64,
            });
            frequent = next;
            k += 1;
        }
    });
    mined
}
