//! The level-wise loop every Apriori-family miner runs.
//!
//! Each level `k ≥ 2` generates candidates from the previous level's
//! frequent sets, filters them through the [`CandidateFilter`] — the one
//! place equation (1) enters a level-wise miner — counts the survivors,
//! and collects the frequent ones as the next level's seeds. The miners
//! differ only in what they hand the loop: their level-2 candidates (DHP's
//! bucket-admitted pairs), their filter, and how one batch is counted
//! (over the dataset in memory, or in one guarded pass over a page file).
//!
//! Level 2 is held as a triangle over L1 (`crate::pairs::Triangle`), not
//! as a list: its candidates are pairs of frequent items, so one flag per
//! pair of L1, in Apriori's join order, marks the generated ones. The
//! filter judges every flagged pair in one batched call
//! ([`CandidateFilter::judge_pairs`]), the counting closure gets the
//! triangle itself ([`Batch::Pairs`]), and the collect step walks its
//! rows — one slice of flags per item, taking the next count (and bound)
//! per flag — so only a pair found frequent becomes an [`Itemset`]. The
//! collect runs on the `ossm_par` workers in the row parts eq. (1)'s
//! batch uses ([`ossm_core::ssm::triangle_parts`]): each part starts at
//! the count after the flags of the rows before it, tallies its own
//! bound outcomes, and hands back its frequent pairs in row order, which
//! the caller inserts. The triangle counts its flags once per change,
//! not per question. Levels `k ≥ 3` are lists ([`Batch::Sets`]), judged
//! one candidate at a time. Either way eq. (1) is evaluated once per
//! generated candidate, and the bound outcomes are tallied locally and
//! recorded once per level (once per part at level 2).

use std::io;

use ossm_data::{ItemId, Itemset};
use ossm_obs::SpanGuard;

use crate::apriori::generate_candidates;
use crate::filter::CandidateFilter;
use crate::metrics::{LevelMetrics, MiningMetrics};
use crate::obs::{self, BoundOutcomes};
use crate::pairs::Triangle;
use crate::support::FrequentPatterns;

/// Whose spans and `mining.<miner>.level<k>.*` counters the loop records.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Trace {
    Apriori,
    Dhp,
    /// No spans and no level counters.
    Off,
}

impl Trace {
    fn miner(self) -> Option<&'static str> {
        match self {
            Trace::Apriori => Some("apriori"),
            Trace::Dhp => Some("dhp"),
            Trace::Off => None,
        }
    }

    fn gen(self) -> Option<SpanGuard> {
        match self {
            Trace::Apriori => Some(ossm_obs::span("mining.apriori.gen")),
            Trace::Dhp => Some(ossm_obs::span("mining.dhp.gen")),
            Trace::Off => None,
        }
    }

    fn prune(self) -> Option<SpanGuard> {
        match self {
            Trace::Apriori => Some(ossm_obs::span("mining.apriori.prune")),
            Trace::Dhp => Some(ossm_obs::span("mining.dhp.prune")),
            Trace::Off => None,
        }
    }
}

/// A batch the level loop hands its counting closure.
#[derive(Clone, Copy)]
pub(crate) enum Batch<'a> {
    /// Level 2: the flagged pairs of a triangle, whose counts are wanted
    /// in the triangle's row order.
    Pairs(&'a Triangle),
    /// The candidates of a level `k ≥ 3`, whose counts are wanted in
    /// list order.
    Sets(&'a [Itemset]),
}

impl Batch<'_> {
    /// The number of candidates in the batch.
    pub(crate) fn len(&self) -> usize {
        match self {
            Batch::Pairs(triangle) => triangle.len(),
            Batch::Sets(candidates) => candidates.len(),
        }
    }
}

/// One level-wise run's settings.
pub(crate) struct LevelLoop<'f> {
    pub(crate) min_support: u64,
    /// Discharges candidates before they are counted.
    pub(crate) filter: &'f dyn CandidateFilter,
    pub(crate) trace: Trace,
}

impl LevelLoop<'_> {
    /// Mines levels 2, 3, … from the frequent items `l1` (in item
    /// order), adding the frequent sets to `patterns` and one row per
    /// level that generated candidates to `metrics`. `level2`, if given,
    /// replaces Apriori generation at level 2. `count(batch)` returns the
    /// exact supports of a non-empty batch; a level whose every candidate
    /// is filtered out is never counted, and ends the run.
    pub(crate) fn run(
        &self,
        l1: &[ItemId],
        level2: Option<Triangle>,
        patterns: &mut FrequentPatterns,
        metrics: &mut MiningMetrics,
        mut count: impl FnMut(Batch<'_>) -> io::Result<Vec<u64>>,
    ) -> io::Result<()> {
        let mut frequent = self.level2(l1, level2, patterns, metrics, &mut count)?;
        let mut k = 3;
        while !frequent.is_empty() {
            let level_span = self.level_span(k);
            let generated = {
                let _s = self.trace.gen();
                generate_candidates(&frequent)
            };
            if generated.is_empty() {
                break;
            }
            let mut level = LevelMetrics {
                level: k,
                generated: generated.len() as u64,
                ..Default::default()
            };
            let mut bounds = Vec::new();
            let candidates: Vec<Itemset> = {
                let _s = self.trace.prune();
                generated
                    .into_iter()
                    .filter(|c| admit(self.filter, c, self.min_support, &mut bounds))
                    .collect()
            };
            level.filtered_out = level.generated - candidates.len() as u64;
            level.counted = candidates.len() as u64;
            let counts = if candidates.is_empty() {
                Vec::new()
            } else {
                count(Batch::Sets(&candidates))?
            };
            let mut outcomes = BoundOutcomes::default();
            frequent = Vec::new();
            for (i, (c, sup)) in candidates.into_iter().zip(counts).enumerate() {
                if let Some(&ub) = bounds.get(i) {
                    outcomes.record(ub, sup, self.min_support);
                }
                if sup >= self.min_support {
                    patterns.insert(c.clone(), sup);
                    frequent.push(c);
                }
            }
            outcomes.flush();
            level.frequent = frequent.len() as u64;
            self.finish(level, level_span, metrics);
            k += 1;
        }
        Ok(())
    }

    /// Level 2 as a triangle over `l1`: generation flags its pairs (all
    /// of them, unless `level2` brings its own flags), the filter judges
    /// the flagged pairs in one batch, and only the pairs found frequent
    /// become [`Itemset`]s — returned as the seeds of level 3.
    fn level2(
        &self,
        l1: &[ItemId],
        level2: Option<Triangle>,
        patterns: &mut FrequentPatterns,
        metrics: &mut MiningMetrics,
        count: &mut impl FnMut(Batch<'_>) -> io::Result<Vec<u64>>,
    ) -> io::Result<Vec<Itemset>> {
        if level2.is_none() && l1.is_empty() {
            return Ok(Vec::new());
        }
        let level_span = self.level_span(2);
        let mut triangle = match level2 {
            Some(triangle) => triangle,
            None => {
                let _s = self.trace.gen();
                Triangle::all(l1.to_vec())
            }
        };
        let generated = triangle.len() as u64;
        if generated == 0 {
            return Ok(Vec::new());
        }
        let mut bounds = Vec::new();
        {
            let _s = self.trace.prune();
            triangle.judge(self.filter, self.min_support, &mut bounds);
        }
        let counted = triangle.len() as u64;
        let counts = if counted == 0 {
            Vec::new()
        } else {
            count(Batch::Pairs(&triangle))?
        };
        let mut frequent = Vec::new();
        for (c, sup) in collect_pairs(&triangle, &counts, &bounds, self.min_support) {
            patterns.insert(c.clone(), sup);
            frequent.push(c);
        }
        let level = LevelMetrics {
            level: 2,
            generated,
            filtered_out: generated - counted,
            counted,
            frequent: frequent.len() as u64,
        };
        self.finish(level, level_span, metrics);
        Ok(frequent)
    }

    fn level_span(&self, k: usize) -> Option<SpanGuard> {
        self.trace
            .miner()
            .map(|miner| ossm_obs::span(format!("mining.{miner}.level{k}")))
    }

    /// Records a finished level's row: on its span, in the level
    /// counters, and in `metrics`.
    fn finish(
        &self,
        level: LevelMetrics,
        mut level_span: Option<SpanGuard>,
        metrics: &mut MiningMetrics,
    ) {
        if let Some(span) = &mut level_span {
            span.attach("generated", level.generated);
            span.attach("frequent", level.frequent);
        }
        if let Some(miner) = self.trace.miner() {
            obs::record_level(miner, &level);
        }
        metrics.push_level(level);
    }
}

/// Pairs below which level 2's collect keeps a part of the triangle on
/// the calling thread: a pair costs a nanosecond or two to collect, so a
/// smaller part costs less than a worker takes to start.
const MIN_COLLECT_PAIRS: usize = 1 << 15;

/// Level 2's collect step: walks the rows of `triangle` — whose flagged
/// pairs have `counts`, and `bounds` when kept, in row order — in parts
/// of about equal pair counts on the `ossm_par` workers, tallies each
/// counted pair's bound outcome, and returns the frequent pairs with
/// their supports, in row order. Each part takes its counts and bounds
/// from the offset of the flags before its first row, and flushes its own
/// outcomes; the registry adds them, so the totals are those of one
/// serial walk.
fn collect_pairs(
    triangle: &Triangle,
    counts: &[u64],
    bounds: &[u64],
    min_support: u64,
) -> Vec<(Itemset, u64)> {
    let items = triangle.items();
    let mut parts = Vec::new();
    let mut before = 0;
    for rows in ossm_core::ssm::triangle_parts(items.len(), MIN_COLLECT_PAIRS) {
        let flagged = triangle.flagged_in(rows.clone());
        let part = |v| window(v, before, flagged);
        parts.push((rows, (part(counts), part(bounds))));
        before += flagged;
    }
    let found = ossm_par::map_parts(parts, |rows, (counts, bounds)| {
        let mut outcomes = BoundOutcomes::default();
        let mut frequent = Vec::new();
        // One count, and one bound when kept, per flag.
        let (mut counts, mut bounds) = (counts.iter(), bounds.iter());
        'rows: for (x, row) in triangle.rows_in(rows) {
            for (&flagged, &b) in row.iter().zip(&items[x + 1..]) {
                if !flagged {
                    continue;
                }
                let Some(&sup) = counts.next() else {
                    break 'rows;
                };
                if let Some(&ub) = bounds.next() {
                    outcomes.record(ub, sup, min_support);
                }
                if sup >= min_support {
                    frequent.push((Itemset::from_sorted(vec![items[x], b]), sup));
                }
            }
        }
        outcomes.flush();
        frequent
    });
    found.into_iter().flatten().collect()
}

/// `v[at..at + len]`, cut short at the end of `v`.
fn window(v: &[u64], at: usize, len: usize) -> &[u64] {
    let v = v.get(at..).unwrap_or_default();
    &v[..len.min(v.len())]
}

/// Whether `filter` admits `candidate` at `min_support`. A filter with a
/// bound is judged by it alone (the [`CandidateFilter::bound`] contract);
/// with instrumentation on, an admitted candidate's bound is pushed onto
/// `bounds` for its outcome record, so eq. (1) is evaluated once per
/// candidate. `bounds` thus ends empty or with one entry per admitted
/// candidate.
pub(crate) fn admit<F: CandidateFilter + ?Sized>(
    filter: &F,
    candidate: &Itemset,
    min_support: u64,
    bounds: &mut Vec<u64>,
) -> bool {
    match filter.bound(candidate) {
        Some(ub) => {
            let admitted = ub >= min_support;
            if admitted && ossm_obs::ENABLED {
                bounds.push(ub);
            }
            admitted
        }
        None => filter.may_be_frequent(candidate, min_support),
    }
}

/// Level 1's collect step: records each counted singleton's bound outcome
/// (`bounds` as [`admit`] left it for `items`), adds the frequent ones
/// with their exact `supports` to `patterns`, and returns them, in the
/// order of `items`, as the seeds of level 2.
pub(crate) fn collect_singletons(
    items: impl IntoIterator<Item = ItemId>,
    supports: &[u64],
    min_support: u64,
    bounds: &[u64],
    patterns: &mut FrequentPatterns,
) -> Vec<ItemId> {
    let mut outcomes = BoundOutcomes::default();
    let mut frequent = Vec::new();
    for (i, item) in items.into_iter().enumerate() {
        let sup = supports[item.index()];
        if let Some(&ub) = bounds.get(i) {
            outcomes.record(ub, sup, min_support);
        }
        if sup >= min_support {
            patterns.insert(Itemset::singleton(item), sup);
            frequent.push(item);
        }
    }
    outcomes.flush();
    frequent
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::filter::{NoFilter, OssmFilter};
    use ossm_core::{Aggregate, Ossm};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn admit_keeps_the_bounds_of_admitted_candidates_only() {
        // ub({0,1}) = 20 + 10 = 30, ub({0,1,2}) = 20 + 10 = 30,
        // ub({2}) = 40 + 20 = 60.
        let ossm = Ossm::from_aggregates(vec![
            Aggregate::new(vec![20, 40, 40], 40),
            Aggregate::new(vec![10, 40, 20], 40),
        ]);
        let f = OssmFilter::new(&ossm);
        let mut bounds = Vec::new();
        assert!(admit(&f, &set(&[2]), 50, &mut bounds));
        assert!(!admit(&f, &set(&[0, 1]), 50, &mut bounds));
        assert!(admit(&f, &set(&[0, 1, 2]), 30, &mut bounds));
        assert_eq!(bounds, vec![60, 30]);
        assert!(admit(&NoFilter, &set(&[0, 1]), 50, &mut bounds));
        assert_eq!(bounds, vec![60, 30], "a filter without a bound adds none");
    }
}
