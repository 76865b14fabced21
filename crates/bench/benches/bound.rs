//! Microbenchmark of equation (1): the OSSM upper-bound evaluation that
//! sits on the hot path of every filtered candidate, across segment counts
//! and pattern sizes. The paper's claim that "direct addressing into the
//! OSSM makes the use of equation (1) very efficient" is what this bench
//! checks stays true.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ossm_bench::workloads::Workload;
use ossm_core::{Ossm, OssmBuilder, Strategy};
use ossm_data::{ItemId, Itemset};

fn build_ossm(n_user: usize) -> Ossm {
    let store = Workload::regular(50, 500).store();
    OssmBuilder::new(n_user)
        .strategy(Strategy::Random)
        .build(&store)
        .0
}

fn bench_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("upper_bound");
    for &segments in &[1usize, 10, 50, 150] {
        let ossm = build_ossm(segments.min(50));
        let pair = Itemset::new([3, 250]);
        let quad = Itemset::new([3, 99, 250, 444]);
        group.bench_with_input(BenchmarkId::new("pair", segments), &ossm, |bench, o| {
            bench.iter(|| black_box(o.upper_bound(black_box(&pair))));
        });
        group.bench_with_input(BenchmarkId::new("quad", segments), &ossm, |bench, o| {
            bench.iter(|| black_box(o.upper_bound(black_box(&quad))));
        });
    }
    bench_pairs_batch(&mut group);
    group.finish();
}

/// Level 2's batch in the shape of the `mine-regular` benchmark
/// workload: eq. (1) over every pair of a Regular L1 (25 000 transactions
/// over 1000 items at 0.5 % support, about 770 frequent items) against a
/// 50-segment Random-Greedy map (`n_mid = 200`), in one
/// `upper_bound_pairs` call that keeps the admitted bounds, as the
/// Apriori filter does with instrumentation on.
fn bench_pairs_batch(group: &mut criterion::BenchmarkGroup<'_>) {
    let store = Workload::regular(250, 1000).store();
    let ossm = OssmBuilder::new(50)
        .strategy(Strategy::RandomGreedy { n_mid: 200 })
        .build(&store)
        .0;
    let min_support = store.dataset().absolute_threshold(0.005);
    let l1: Vec<ItemId> = (0..store.num_items() as u32)
        .map(ItemId)
        .filter(|&i| ossm.singleton_support(i) >= min_support)
        .collect();
    let mut flags = vec![true; l1.len() * l1.len().saturating_sub(1) / 2];
    let mut bounds = Vec::new();
    group.bench_with_input(BenchmarkId::new("pairs_batch", 50), &ossm, |bench, o| {
        bench.iter(|| {
            flags.fill(true);
            bounds.clear();
            o.upper_bound_pairs(
                black_box(&l1),
                &mut flags,
                |ub| ub >= min_support,
                Some(&mut bounds),
            )
        });
    });
}

criterion_group!(benches, bench_bound);
criterion_main!(benches);
