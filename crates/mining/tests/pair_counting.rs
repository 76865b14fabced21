//! Level 2 in the pair table. `count_with(HashTree, ..)` counts a batch
//! of pairs in a table over the live items whenever the size rule admits
//! it, and on the hash tree otherwise; every count must equal the linear
//! scan's at any thread count, and the work counters say which structure
//! counted: `mining.pairs.increments` for the table, `mining.hashtree.*`
//! for the tree.
//!
//! The level-wise miners hold level 2 as a triangle over L1, judge it in
//! one batch and count it from the flags. Every miner must give the
//! patterns, level rows and registry deltas (eq. (1) evaluations, bound
//! outcomes, pair-table increments) of the per-candidate path:
//! `generate_candidates`, then `Ossm::upper_bound` one candidate at a
//! time, then `count_linear`.
//!
//! The counters live in the process-wide registry and the thread count
//! is a process-wide override, so the tests here share one lock.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ossm_core::{minimize_segments, Ossm, OssmBuilder, Strategy};
use ossm_data::disk::{write_paged, DiskStore};
use ossm_data::gen::{QuestConfig, SkewedConfig};
use ossm_data::{Dataset, Itemset, PageStore};
use ossm_mining::apriori::generate_candidates;
use ossm_mining::support::{count_linear, count_with, CountingBackend};
use ossm_mining::{
    Apriori, CandidateFilter, Dhp, FrequentPatterns, LevelMetrics, MiningOutcome, NoFilter,
    OssmFilter, Partition, StreamingApriori, StreamingDhp,
};

static LOCK: Mutex<()> = Mutex::new(());

const THREADS: [usize; 3] = [1, 2, 8];

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `mining.pairs.increments`, and the sum of the hash tree's work
/// counters.
fn work() -> [u64; 2] {
    let snap = ossm_obs::registry().snapshot();
    let tree = [
        "mining.hashtree.path_lookups",
        "mining.hashtree.subset_tests",
        "mining.hashtree.items_skipped",
    ];
    [
        snap.counter("mining.pairs.increments"),
        tree.iter().map(|name| snap.counter(name)).sum(),
    ]
}

/// Counts `candidates` on the hash-tree back-end at one thread count and
/// returns the counts with the work the counting did.
fn count_at(
    threads: usize,
    transactions: &[Itemset],
    candidates: &[Itemset],
) -> (Vec<u64>, [u64; 2]) {
    ossm_par::set_threads(Some(threads));
    let before = work();
    let counts = count_with(CountingBackend::HashTree, transactions, candidates);
    let after = work();
    ossm_par::set_threads(None);
    (counts, [after[0] - before[0], after[1] - before[1]])
}

/// Level 2 as Apriori generates it: every pair of items whose support
/// reaches `min_support`.
fn c2(dataset: &Dataset, min_support: u64) -> Vec<Itemset> {
    let l1: Vec<u32> = (0u32..)
        .zip(dataset.singleton_supports())
        .filter(|&(_, s)| s >= min_support)
        .map(|(i, _)| i)
        .collect();
    l1.iter()
        .enumerate()
        .flat_map(|(x, &a)| l1[x + 1..].iter().map(move |&b| Itemset::new([a, b])))
        .collect()
}

#[test]
fn pair_batches_equal_the_linear_scan_at_any_thread_count() {
    let _guard = lock();
    let quest = QuestConfig {
        num_transactions: 3000,
        num_items: 120,
        ..QuestConfig::small()
    }
    .generate();
    let skewed = SkewedConfig {
        num_transactions: 3000,
        num_items: 150,
        seed: 7,
        ..SkewedConfig::small()
    }
    .generate();
    for (name, dataset) in [("quest", &quest), ("skewed", &skewed)] {
        let candidates = c2(dataset, dataset.absolute_threshold(0.02));
        assert!(
            candidates.len() > 100,
            "{name}: C2 has {}",
            candidates.len()
        );
        let expected = count_linear(dataset.transactions(), &candidates);
        let runs: Vec<_> = THREADS
            .iter()
            .map(|&t| count_at(t, dataset.transactions(), &candidates))
            .collect();
        for ((counts, _), threads) in runs.iter().zip(THREADS) {
            assert_eq!(counts, &expected, "{name} at {threads} threads");
        }
        if cfg!(feature = "obs") {
            let (_, [increments, tree]) = runs[0];
            assert!(increments > 0, "{name}: the table counted");
            assert_eq!(tree, 0, "{name}: the tree did not");
            assert!(
                runs.iter().all(|(_, w)| w == &runs[0].1),
                "{name}: work differs across thread counts"
            );
        }
    }
}

#[test]
fn a_batch_the_size_rule_declines_counts_on_the_tree() {
    let _guard = lock();
    // 65 disjoint pairs over 130 live items: C(130, 2) = 8385 cells
    // exceed both 4 · 65 and 8192.
    let candidates: Vec<Itemset> = (0..65u32)
        .map(|i| Itemset::new([2 * i, 2 * i + 1]))
        .collect();
    let transactions: Vec<Itemset> = (0..1500u32)
        .map(|t| Itemset::new((0..140u32).filter(|i| (i * 13 + t) % 7 < 3)))
        .collect();
    let expected = count_linear(&transactions, &candidates);
    for threads in THREADS {
        let (counts, [increments, tree]) = count_at(threads, &transactions, &candidates);
        assert_eq!(counts, expected, "at {threads} threads");
        if cfg!(feature = "obs") {
            assert_eq!(increments, 0, "the table did not count");
            assert!(tree > 0, "the tree counted");
        }
    }
    // One pair fewer fits: C(128, 2) = 8128 cells.
    let (counts, [increments, tree]) = count_at(2, &transactions, &candidates[..64]);
    assert_eq!(counts, expected[..64]);
    if cfg!(feature = "obs") {
        assert!(increments > 0 && tree == 0, "the table counted");
    }
}

#[test]
fn edge_transactions_and_mixed_batches_are_exact() {
    let _guard = lock();
    let live: Vec<u32> = (0..30u32).map(|i| 3 * i + 1).collect();
    let mut candidates: Vec<Itemset> = live
        .iter()
        .enumerate()
        .flat_map(|(x, &a)| live[x + 1..].iter().map(move |&b| Itemset::new([a, b])))
        .collect();
    // A duplicate, and a pair outside every transaction's domain.
    candidates.push(candidates[5].clone());
    candidates.push(Itemset::new([1, 5000]));
    // Transactions with no item, one live item, only dead items, two live
    // items among dead ones, every live item, and every live item among
    // dead ones, repeated past one parallel chunk.
    let all_live = Itemset::new(live.iter().copied());
    let shapes = [
        Itemset::empty(),
        Itemset::new([4]),
        Itemset::new([0, 2, 3]),
        Itemset::new([1, 2, 4]),
        all_live.clone(),
        Itemset::new(0..3 * 30 + 2),
    ];
    let transactions: Vec<Itemset> = (0..1320)
        .map(|t| shapes[t % shapes.len()].clone())
        .collect();
    let expected = count_linear(&transactions, &candidates);
    assert_eq!(
        expected[0],
        3 * 1320 / 6,
        "{{1, 4}} is in the pair, all-live and superset shapes"
    );
    for threads in THREADS {
        assert_eq!(count_at(threads, &transactions, &candidates).0, expected);
        // An empty transaction slice counts zero everywhere.
        assert_eq!(
            count_at(threads, &[], &candidates).0,
            vec![0; candidates.len()]
        );
    }
    // No candidates, no counts.
    assert!(count_at(2, &transactions, &[]).0.is_empty());

    // Partition's phase 2 counts every size in one batch: it goes to the
    // tree, exact.
    let mut mixed = candidates[..40].to_vec();
    mixed.extend([
        Itemset::new([1]),
        Itemset::new([1, 4, 7]),
        Itemset::new([4, 7, 10, 13]),
        Itemset::empty(),
    ]);
    let expected = count_linear(&transactions, &mixed);
    for threads in THREADS {
        let (counts, [increments, ..]) = count_at(threads, &transactions, &mixed);
        assert_eq!(counts, expected, "mixed batch at {threads} threads");
        if cfg!(feature = "obs") {
            assert_eq!(increments, 0, "a mixed batch is not all pairs");
        }
    }
}

// Level 2 as a triangle over L1, against the per-candidate path.

/// What a run moved in the registry: eq. (1) evaluations, bound
/// outcomes (true and false positives, and the slack histogram's count,
/// sum and per-bucket counts) and pair-table increments.
#[derive(Clone, Debug, Default, PartialEq)]
struct Moved {
    evals: u64,
    true_pos: u64,
    false_pos: u64,
    slack: (u64, u64, BTreeMap<u64, u64>),
    increments: u64,
}

impl Moved {
    fn now() -> Self {
        let snap = ossm_obs::registry().snapshot();
        let slack = snap
            .histograms
            .get("mining.bound.slack")
            .map_or_else(Default::default, |h| {
                (h.count, h.sum, h.buckets.iter().copied().collect())
            });
        Moved {
            evals: snap.counter("core.bound.evals"),
            true_pos: snap.counter("mining.bound.true_pos"),
            false_pos: snap.counter("mining.bound.false_pos"),
            slack,
            increments: snap.counter("mining.pairs.increments"),
        }
    }

    fn since(&self, before: &Moved) -> Moved {
        let buckets = self
            .slack
            .2
            .iter()
            .map(|(&b, &n)| (b, n - before.slack.2.get(&b).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
        Moved {
            evals: self.evals - before.evals,
            true_pos: self.true_pos - before.true_pos,
            false_pos: self.false_pos - before.false_pos,
            slack: (
                self.slack.0 - before.slack.0,
                self.slack.1.wrapping_sub(before.slack.1),
                buckets,
            ),
            increments: self.increments - before.increments,
        }
    }

    fn add(&mut self, other: Moved) {
        self.evals += other.evals;
        self.true_pos += other.true_pos;
        self.false_pos += other.false_pos;
        self.slack.0 += other.slack.0;
        self.slack.1 = self.slack.1.wrapping_add(other.slack.1);
        for (b, n) in other.slack.2 {
            *self.slack.2.entry(b).or_default() += n;
        }
        self.increments += other.increments;
    }

    /// Tallies one counted candidate judged by the bound `ub`.
    fn outcome(&mut self, ub: u64, support: u64, min_support: u64) {
        let slack = ub.saturating_sub(support);
        self.slack.0 += 1;
        self.slack.1 = self.slack.1.wrapping_add(slack);
        let bucket = ossm_obs::bucket_lower_bound(ossm_obs::bucket_index(slack));
        *self.slack.2.entry(bucket).or_default() += 1;
        if support >= min_support {
            self.true_pos += 1;
        } else {
            self.false_pos += 1;
        }
    }
}

/// Runs `f`, returning its result and what it moved in the registry.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Moved) {
    let before = Moved::now();
    let out = f();
    (out, Moved::now().since(&before))
}

/// Patterns, level rows and registry deltas of one run.
type Run = (FrequentPatterns, Vec<LevelMetrics>, Moved);

/// How a run's level 1 is counted.
#[derive(Clone, Copy, PartialEq)]
enum Level1 {
    /// Singletons are judged like any candidate, then counted (Apriori).
    Judged,
    /// Every singleton is counted, none judged (DHP, and streaming
    /// mining without a map).
    Counted,
    /// Supports come out of the map: nothing is judged or counted
    /// (streaming mining with a map).
    FromMap,
}

/// How the reference judges a candidate: whether it is admitted, and the
/// bound its outcome is recorded with, if the filter reports one. Every
/// call is one eq. (1) evaluation.
type Judge<'a> = &'a dyn Fn(&Itemset) -> (bool, Option<u64>);

/// The per-candidate path: `generate_candidates` at every level, `judge`
/// one candidate at a time, `count_linear` for the supports. `pair_work`
/// is the pair-table work the miner's structure spends on an admitted C2
/// list.
fn reference(
    transactions: &[Itemset],
    num_items: usize,
    min_support: u64,
    level1: Level1,
    judge: Option<Judge<'_>>,
    pair_work: &dyn Fn(&[Itemset]) -> u64,
) -> Run {
    let mut patterns = FrequentPatterns::new();
    let mut levels = Vec::new();
    let mut moved = Moved::default();
    let supports = count_linear(
        transactions,
        &(0..num_items as u32)
            .map(|i| Itemset::new([i]))
            .collect::<Vec<_>>(),
    );
    let mut row = LevelMetrics {
        level: 1,
        generated: num_items as u64,
        ..Default::default()
    };
    let mut frequent = Vec::new();
    for (i, &sup) in supports.iter().enumerate() {
        let single = Itemset::new([i as u32]);
        let (admitted, ub) = match (level1, judge) {
            (Level1::Judged, Some(judge)) => {
                moved.evals += 1;
                judge(&single)
            }
            _ => (true, None),
        };
        if !admitted {
            row.filtered_out += 1;
            continue;
        }
        if level1 != Level1::FromMap {
            row.counted += 1;
        }
        if let Some(ub) = ub {
            moved.outcome(ub, sup, min_support);
        }
        if sup >= min_support {
            patterns.insert(single.clone(), sup);
            frequent.push(single);
        }
    }
    row.frequent = frequent.len() as u64;
    levels.push(row);
    for k in 2.. {
        let generated = generate_candidates(&frequent);
        if generated.is_empty() {
            break;
        }
        let mut row = LevelMetrics {
            level: k,
            generated: generated.len() as u64,
            ..Default::default()
        };
        let mut admitted = Vec::new();
        let mut bounds = Vec::new();
        for c in generated {
            let (ok, ub) = judge.map_or((true, None), |judge| {
                moved.evals += 1;
                judge(&c)
            });
            if ok {
                admitted.push(c);
                bounds.push(ub);
            }
        }
        row.counted = admitted.len() as u64;
        row.filtered_out = row.generated - row.counted;
        let counts = count_linear(transactions, &admitted);
        if k == 2 && !admitted.is_empty() {
            moved.increments += pair_work(&admitted);
        }
        frequent = Vec::new();
        for ((c, sup), ub) in admitted.into_iter().zip(counts).zip(bounds) {
            if let Some(ub) = ub {
                moved.outcome(ub, sup, min_support);
            }
            if sup >= min_support {
                patterns.insert(c.clone(), sup);
                frequent.push(c);
            }
        }
        row.frequent = frequent.len() as u64;
        levels.push(row);
        if frequent.is_empty() {
            break;
        }
    }
    (patterns, levels, moved)
}

/// The increments `count_with`'s hash-tree back-end spends on a list.
fn table_increments(transactions: &[Itemset], candidates: &[Itemset]) -> u64 {
    measured(|| count_with(CountingBackend::HashTree, transactions, candidates))
        .1
        .increments
}

/// Judges by the map's eq. (1) bound.
fn by_bound(ossm: &Ossm, min_support: u64) -> impl Fn(&Itemset) -> (bool, Option<u64>) + '_ {
    move |c| {
        let ub = ossm.upper_bound(c);
        (ub >= min_support, Some(ub))
    }
}

/// Asserts that `got` equals the reference `want`; the registry deltas
/// only when instrumentation is on.
fn assert_run(label: &str, got: &Run, want: &Run) {
    assert_eq!(got.0, want.0, "{label}: patterns");
    assert_eq!(got.1, want.1, "{label}: level rows");
    if ossm_obs::ENABLED {
        assert_eq!(got.2, want.2, "{label}: registry deltas");
    }
}

/// `OssmFilter` without its batched `judge_pairs`: the trait's default
/// judges level 2 one pair at a time.
struct PerPair<'a>(OssmFilter<'a>);

impl CandidateFilter for PerPair<'_> {
    fn may_be_frequent(&self, candidate: &Itemset, min_support: u64) -> bool {
        self.0.may_be_frequent(candidate, min_support)
    }

    fn bound(&self, candidate: &Itemset) -> Option<u64> {
        self.0.bound(candidate)
    }

    fn name(&self) -> &str {
        "OSSM, pair by pair"
    }
}

/// In-memory Apriori (both back-ends, and the default pair-by-pair
/// judge), DHP and Partition, with and without `ossm`, at every thread
/// count, against the per-candidate reference.
fn check_in_memory(name: &str, d: &Dataset, min_support: u64, ossm: &Ossm) {
    let txs = d.transactions();
    let m = d.num_items();
    let hashtree = |c2: &[Itemset]| table_increments(txs, c2);
    let judge = by_bound(ossm, min_support);
    for map in [None, Some(ossm)] {
        let j: Option<Judge<'_>> = map.map(|_| &judge as Judge<'_>);
        let label = |miner: &str, threads: usize| {
            format!(
                "{name} {miner} (OSSM: {}) at {threads} threads",
                map.is_some()
            )
        };
        let apriori_ref = reference(txs, m, min_support, Level1::Judged, j, &hashtree);
        let linear_ref = reference(txs, m, min_support, Level1::Judged, j, &|_| 0);
        let dhp_ref = reference(txs, m, min_support, Level1::Counted, j, &hashtree);
        let plain = OssmFilter::new(ossm);
        let per_pair = PerPair(OssmFilter::new(ossm));
        let (filter, pairwise): (&dyn CandidateFilter, &dyn CandidateFilter) = match map {
            Some(_) => (&plain, &per_pair),
            None => (&NoFilter, &NoFilter),
        };
        let mine = |miner: &dyn Fn() -> MiningOutcome| -> Run {
            let (out, moved) = measured(miner);
            (out.patterns, out.metrics.levels, moved)
        };
        for threads in THREADS {
            ossm_par::set_threads(Some(threads));
            let tree = Apriori::new().with_backend(CountingBackend::HashTree);
            let got = mine(&|| tree.mine_filtered(d, min_support, filter));
            assert_run(&label("apriori", threads), &got, &apriori_ref);
            let got = mine(&|| tree.mine_filtered(d, min_support, pairwise));
            assert_run(&label("apriori pair by pair", threads), &got, &apriori_ref);
            let got = mine(&|| Apriori::new().mine_filtered(d, min_support, filter));
            assert_run(&label("linear apriori", threads), &got, &linear_ref);
            // One bucket admits every pair: DHP's C2 is Apriori's.
            let got = mine(&|| Dhp::new(1).mine_filtered(d, min_support, filter));
            assert_run(&label("dhp, one bucket", threads), &got, &dhp_ref);
            for buckets in [7, 32_768] {
                let label = label(&format!("dhp, {buckets} buckets"), threads);
                let (plain, _) = measured(|| Dhp::new(buckets).mine(d, min_support));
                let got = mine(&|| Dhp::new(buckets).mine_filtered(d, min_support, filter));
                // The default judge leaves the pairs the buckets drop alone.
                let by_pair = mine(&|| Dhp::new(buckets).mine_filtered(d, min_support, pairwise));
                assert_run(&format!("{label} pair by pair"), &by_pair, &got);
                // The buckets drop only infrequent pairs: every level
                // after 2 is Apriori's, and level 2 generates DHP's C2.
                assert_eq!(got.0, dhp_ref.0, "{label}: patterns");
                let upper = |rows: &[LevelMetrics]| rows.get(2..).unwrap_or_default().to_vec();
                assert_eq!(upper(&got.1), upper(&dhp_ref.1), "{label}: levels ≥ 3");
                let rows = [&got.1, &plain.metrics.levels, &dhp_ref.1].map(|rows| rows.get(1));
                match rows {
                    [Some(c2), Some(plain_c2), Some(want_c2)] => {
                        assert_eq!(c2.generated, plain_c2.generated, "{label}");
                        assert!(c2.generated <= want_c2.generated, "{label}");
                        assert_eq!(c2.frequent, want_c2.frequent, "{label}");
                    }
                    // Buckets that admit no pair leave no level-2 row.
                    [None, None, want_c2] => {
                        assert_eq!(want_c2.map_or(0, |r| r.frequent), 0, "{label}");
                    }
                    _ => panic!("{label}: level-2 rows {rows:?}"),
                }
                if ossm_obs::ENABLED && map.is_some() {
                    let upper = |f: fn(&LevelMetrics) -> u64| got.1[1..].iter().map(f).sum::<u64>();
                    assert_eq!(got.2.evals, upper(|l| l.generated), "{label}: evals");
                    assert_eq!(got.2.true_pos, upper(|l| l.frequent), "{label}");
                    assert_eq!(
                        got.2.true_pos + got.2.false_pos,
                        upper(|l| l.counted),
                        "{label}"
                    );
                }
            }
            let partition = match map {
                Some(_) => mine(&|| Partition::new(3).mine_with_ossms(d, min_support, 4)),
                None => mine(&|| Partition::new(3).mine(d, min_support)),
            };
            let want = partition_reference(d, min_support, 3, map.map(|_| 4));
            assert_run(&label("partition", threads), &partition, &want);
            ossm_par::set_threads(None);
        }
    }
}

/// Partition, one candidate at a time: each part mined by the reference
/// with the map Partition builds for it, then the global pass.
fn partition_reference(
    d: &Dataset,
    min_support: u64,
    parts: usize,
    segments: Option<usize>,
) -> Run {
    let n = d.len() as u64;
    let m = d.num_items();
    let mut levels = Vec::new();
    let mut moved = Moved::default();
    let mut global = std::collections::BTreeSet::new();
    let mut maps = Vec::new();
    for range in d.partition_ranges(parts.min(d.len().max(1))) {
        let part = Dataset::new(m, d.transactions()[range].to_vec());
        if part.is_empty() {
            continue;
        }
        let local = (min_support * part.len() as u64).div_ceil(n.max(1)).max(1);
        let map = segments.map(|segs| {
            let pages = PageStore::with_page_count(part.clone(), (segs * 4).max(1));
            OssmBuilder::new(segs)
                .strategy(Strategy::Rc)
                .build(&pages)
                .0
        });
        let txs = part.transactions();
        let (patterns, rows, work) = {
            let judge = map.as_ref().map(|map| by_bound(map, local));
            let judge = judge.as_ref().map(|j| j as Judge<'_>);
            reference(txs, m, local, Level1::Judged, judge, &|c2| {
                table_increments(txs, c2)
            })
        };
        levels.extend(rows);
        moved.add(work);
        global.extend(patterns.iter().map(|(p, _)| p.clone()));
        maps.extend(map);
    }
    let generated = global.len() as u64;
    if !maps.is_empty() {
        moved.evals += generated * maps.len() as u64;
    }
    let candidates: Vec<Itemset> = global
        .into_iter()
        .filter(|c| {
            maps.is_empty() || maps.iter().map(|o| o.upper_bound(c)).sum::<u64>() >= min_support
        })
        .collect();
    let counts = count_linear(d.transactions(), &candidates);
    moved.increments += table_increments(d.transactions(), &candidates);
    let mut patterns = FrequentPatterns::new();
    let mut by_len: BTreeMap<usize, LevelMetrics> = BTreeMap::new();
    for (c, &sup) in candidates.iter().zip(&counts) {
        let row = by_len.entry(c.len()).or_insert_with(|| LevelMetrics {
            level: c.len(),
            ..Default::default()
        });
        row.generated += 1;
        row.counted += 1;
        if sup >= min_support {
            row.frequent += 1;
            patterns.insert(c.clone(), sup);
        }
    }
    if let Some(first) = by_len.values_mut().next() {
        first.filtered_out = generated - candidates.len() as u64;
    }
    levels.extend(by_len.into_values());
    (patterns, levels, moved)
}

/// Streaming Apriori, and streaming DHP with one bucket, with and
/// without `ossm`, at every thread count, against the per-candidate
/// reference judged by the map and the page sums.
fn check_streaming(name: &str, d: &Dataset, min_support: u64, ossm: &Ossm) {
    let dir = std::env::temp_dir().join("ossm-pair-counting-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.pages", std::process::id()));
    write_paged(&path, d, 512).expect("writing the page file");
    let m = d.num_items();
    // Each page's transactions, and `page_rows[i][p]` = sup_p({i}).
    let summaries = DiskStore::open(&path, 4)
        .expect("open")
        .summaries()
        .to_vec();
    let mut pages = Vec::new();
    let mut page_rows = vec![vec![0u64; summaries.len()]; m];
    let mut start = 0;
    for (p, summary) in summaries.iter().enumerate() {
        let end = start + summary.transactions as usize;
        pages.push(&d.transactions()[start..end]);
        start = end;
        for &(item, count) in &summary.supports {
            page_rows[item as usize][p] = u64::from(count);
        }
    }
    assert_eq!(start, d.len());
    let page_sum = |c: &Itemset| -> u64 {
        (0..pages.len())
            .map(|p| {
                c.items()
                    .iter()
                    .map(|i| page_rows[i.index()][p])
                    .min()
                    .unwrap_or(0)
            })
            .sum()
    };
    let judge = |c: &Itemset| {
        (
            ossm.upper_bound(c) >= min_support && page_sum(c) >= min_support,
            None,
        )
    };
    for map in [None, Some(ossm)] {
        // With a map, a counting pass reads only the pages holding some
        // candidate.
        let work = |c2: &[Itemset]| {
            let kept: Vec<Itemset> = (0..pages.len())
                .filter(|&p| {
                    map.is_none()
                        || c2
                            .iter()
                            .any(|c| c.items().iter().all(|i| page_rows[i.index()][p] > 0))
                })
                .flat_map(|p| pages[p].iter().cloned())
                .collect();
            table_increments(&kept, c2)
        };
        let (level1, j): (Level1, Option<Judge<'_>>) = match map {
            Some(_) => (Level1::FromMap, Some(&judge)),
            None => (Level1::Counted, None),
        };
        let want = reference(d.transactions(), m, min_support, level1, j, &work);
        for threads in THREADS {
            ossm_par::set_threads(Some(threads));
            for (miner, buckets) in [("streaming apriori", None), ("streaming dhp", Some(1))] {
                let mut store = DiskStore::open(&path, 4).expect("open");
                let (out, moved) = measured(|| match buckets {
                    Some(n) => StreamingDhp::new(n).mine(&mut store, min_support, map),
                    None => StreamingApriori::new().mine(&mut store, min_support, map),
                });
                let out = out.expect("out-of-core mining");
                let got = (out.patterns, out.metrics.levels, moved);
                let label = format!(
                    "{name} {miner} (OSSM: {}) at {threads} threads",
                    map.is_some()
                );
                assert_run(&label, &got, &want);
            }
            ossm_par::set_threads(None);
        }
    }
    std::fs::remove_file(&path).ok();
}

fn rc_ossm(d: &Dataset, segments: usize) -> Ossm {
    let store = PageStore::with_page_count(d.clone(), 4 * segments);
    OssmBuilder::new(segments)
        .strategy(Strategy::Rc)
        .build(&store)
        .0
}

#[test]
fn level_2_as_a_triangle_equals_the_per_candidate_path() {
    let _guard = lock();
    let quest = QuestConfig {
        num_transactions: 1200,
        num_items: 100,
        ..QuestConfig::small()
    }
    .generate();
    let skewed = SkewedConfig {
        num_transactions: 1200,
        num_items: 100,
        seed: 3,
        ..SkewedConfig::small()
    }
    .generate();
    for (name, d) in [("quest", &quest), ("skewed", &skewed)] {
        let min_support = d.absolute_threshold(0.03);
        let ossm = rc_ossm(d, 20);
        // Level 2 must be sizeable, pruned in part, and not the end.
        let (_, rows, _) = reference(
            d.transactions(),
            d.num_items(),
            min_support,
            Level1::Judged,
            Some(&by_bound(&ossm, min_support)),
            &|_| 0,
        );
        assert!(rows[1].generated > 200, "{name}: {:?}", rows[1]);
        assert!(rows[1].filtered_out > 0, "{name}: {:?}", rows[1]);
        assert!(rows.len() > 2, "{name}: {rows:?}");
        check_in_memory(name, d, min_support, &ossm);
        check_streaming(name, d, min_support, &ossm);
    }
}

#[test]
fn tiny_l1_and_a_declined_triangle_equal_the_per_candidate_path() {
    let _guard = lock();
    // Supports: item 0 → 10, item 1 → 8, item 2 → 3, items 3–5 → 1;
    // {0, 1} → 6. At 11, 9 and 8 the frequent items number 0, 1 and 2.
    let mut txs = vec![Itemset::new(0..6u32)];
    txs.extend(std::iter::repeat(Itemset::new([0u32, 1])).take(5));
    txs.extend(std::iter::repeat(Itemset::new([0u32, 2])).take(2));
    txs.extend(std::iter::repeat(Itemset::new([0u32])).take(2));
    txs.extend(std::iter::repeat(Itemset::new([1u32])).take(2));
    let tiny = Dataset::new(6, txs);
    let exact = minimize_segments(&tiny).ossm;
    for (min_support, l1) in [(11, 0), (9, 1), (8, 2)] {
        let (_, rows, _) = reference(
            tiny.transactions(),
            6,
            min_support,
            Level1::Judged,
            None,
            &|_| 0,
        );
        assert_eq!(rows[0].frequent, l1);
        assert_eq!(
            rows.len(),
            if l1 == 2 { 2 } else { 1 },
            "minsup {min_support}"
        );
        check_in_memory("tiny", &tiny, min_support, &exact);
        check_streaming("tiny", &tiny, min_support, &exact);
        // A level 2 is opened, and generated, only over a non-empty L1.
        if ossm_obs::ENABLED {
            ossm_obs::trace_begin();
            Apriori::new()
                .with_backend(CountingBackend::HashTree)
                .mine(&tiny, min_support);
            let trace = ossm_obs::trace_take();
            let spans = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
            let opened = usize::from(l1 > 0);
            assert_eq!(spans("mining.apriori.level2"), opened, "L1 of {l1}");
            assert_eq!(spans("mining.apriori.gen"), opened, "L1 of {l1}");
        }
    }

    // 65 disjoint pairs {2i, 2i + 1}, each in 3 transactions: the exact
    // map admits just those 65 of C(130, 2) = 8385 pairs, over all 130
    // items, so the size rule declines the table and the tree counts.
    let txs: Vec<Itemset> = (0..65u32)
        .flat_map(|i| std::iter::repeat(Itemset::new([2 * i, 2 * i + 1])).take(3))
        .collect();
    let sparse = Dataset::new(130, txs);
    let exact = minimize_segments(&sparse).ossm;
    let filter = OssmFilter::new(&exact);
    let tree = Apriori::new().with_backend(CountingBackend::HashTree);
    let judge = by_bound(&exact, 3);
    let want = reference(
        sparse.transactions(),
        130,
        3,
        Level1::Judged,
        Some(&judge),
        &|c2| table_increments(sparse.transactions(), c2),
    );
    assert_eq!(want.1[1].counted, 65);
    for threads in THREADS {
        ossm_par::set_threads(Some(threads));
        let before = work()[1];
        let (out, moved) = measured(|| tree.mine_filtered(&sparse, 3, &filter));
        let tree_work = work()[1] - before;
        ossm_par::set_threads(None);
        let got = (out.patterns, out.metrics.levels, moved);
        assert_run(&format!("declined at {threads} threads"), &got, &want);
        if ossm_obs::ENABLED {
            assert_eq!(got.2.increments, 0, "the table did not count");
            assert!(tree_work > 0, "the tree counted");
        }
    }
}
