//! Ablation A1: equation-(2) loss evaluation — the paper's O(m²) pair loop
//! vs our linear pass, the one `f(a + b)` pass the segmentation loops pay
//! with `f` cached per segment, and the bubble-list scope reduction. Page-
//! scale supports (0..100) take the support-histogram identity, large ones
//! (≥ 2¹⁶) the radix sort.
//!
//! This is the design decision that makes Greedy/RC usable at m = 1000
//! without special hardware (DESIGN.md §6).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::ops::Range;

use ossm_core::loss::pair_min_sum;
use ossm_core::{Aggregate, LossCalculator};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_aggregate(rng: &mut StdRng, m: usize, range: &Range<u64>) -> Aggregate {
    let v: Vec<u64> = (0..m).map(|_| rng.gen_range(range.clone())).collect();
    let n = v.iter().sum();
    Aggregate::new(v, n)
}

fn bench_loss(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_loss");
    let (page, paper, large) = (0..100u64, 0..1000u64, 1 << 16..1 << 17);
    for (m, range, tag) in [
        (1000usize, &page, "page"),
        (100, &paper, "paper"),
        (400, &paper, "paper"),
        (1000, &paper, "paper"),
        (1000, &large, "large"),
    ] {
        let mut rng = StdRng::seed_from_u64(42);
        let a = random_aggregate(&mut rng, m, range);
        let b = random_aggregate(&mut rng, m, range);
        let id = |name: &str| BenchmarkId::new(&format!("{name}/{tag}"), m);

        let fast = LossCalculator::all_items();
        group.bench_with_input(id("linear"), &m, |bench, _| {
            bench.iter(|| black_box(fast.merge_loss(black_box(&a), black_box(&b))));
        });

        // What RC, Greedy and the incremental map pay per pair: f(a) and
        // f(b) are cached, so only f(a + b) of the merged supports is new.
        let (fa, fb) = (pair_min_sum(a.supports()), pair_min_sum(b.supports()));
        let sum = a.merged(&b);
        group.bench_with_input(id("f_cached"), &m, |bench, _| {
            bench.iter(|| black_box(pair_min_sum(black_box(sum.supports())) - fa - fb));
        });

        let naive = LossCalculator::all_items().with_naive_evaluation();
        group.bench_with_input(id("naive_pairs"), &m, |bench, _| {
            bench.iter(|| black_box(naive.merge_loss(black_box(&a), black_box(&b))));
        });

        // Bubble list at 10 % of the domain.
        let bubble: Vec<u32> = (0..(m / 10) as u32).collect();
        let scoped = LossCalculator::scoped(bubble);
        group.bench_with_input(id("bubble_10pct"), &m, |bench, _| {
            bench.iter(|| black_box(scoped.merge_loss(black_box(&a), black_box(&b))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_loss);
criterion_main!(benches);
