//! Ablation A2: candidate counting back-ends — linear scan vs the
//! classical Apriori hash tree, across candidate-set sizes, plus the hash
//! tree vs the bitmap back-end on a level 2 of the paper's scale.
//!
//! Counting dominates Apriori's cost; the OSSM's value is reducing how
//! many candidates reach this step at all, so the baseline must use the
//! stronger back-end for the speedups to be honest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ossm_bench::workloads::Workload;
use ossm_data::Itemset;
use ossm_mining::bitmap::count_bitmap;
use ossm_mining::hashtree::count_hash_tree;
use ossm_mining::support::count_linear;

fn bench_counting(c: &mut Criterion) {
    let store = Workload::regular(20, 200).store();
    let txs = store.dataset().transactions();

    let m = store.num_items() as u32;
    let mut cases: Vec<(usize, Vec<Itemset>)> = Vec::new();
    for &num_candidates in &[100usize, 1000, 5000] {
        // Deterministic spread of pair candidates over the domain.
        let mut candidates = Vec::with_capacity(num_candidates);
        let mut a = 0u32;
        let mut b = 1u32;
        while candidates.len() < num_candidates {
            candidates.push(Itemset::new([a % m, (a % m + 1 + b % (m - 1)) % m]));
            a = a.wrapping_add(7);
            b = b.wrapping_add(13);
        }
        candidates.sort();
        candidates.dedup();
        cases.push((num_candidates, candidates));
    }
    // Every pair of the domain: the C2 volume of an unpruned level 2,
    // where the hash tree's full-depth leaves are crowded.
    let all_pairs: Vec<Itemset> = (0..m)
        .flat_map(|a| ((a + 1)..m).map(move |b| Itemset::new([a, b])))
        .collect();
    cases.push((all_pairs.len(), all_pairs));

    let mut group = c.benchmark_group("count_pairs");
    group.sample_size(20);
    for (num_candidates, candidates) in &cases {
        group.bench_with_input(
            BenchmarkId::new("linear", num_candidates),
            candidates,
            |bench, cands| bench.iter(|| black_box(count_linear(black_box(txs), cands))),
        );
        group.bench_with_input(
            BenchmarkId::new("hash_tree", num_candidates),
            candidates,
            |bench, cands| bench.iter(|| black_box(count_hash_tree(black_box(txs), cands))),
        );
    }
    group.finish();
}

/// A C2 the size of an unpruned level 2 at m = 1000: every pair of the
/// 722 most frequent items (260,281 pairs) over 25 000 transactions. Far
/// past the caches, so each full-depth leaf lookup pays for its memory
/// reads; the linear scan is left out (≈ 6.5 G subset tests).
fn bench_c2_scale(c: &mut Criterion) {
    let dataset = Workload::regular(250, 1000).dataset();
    let txs = dataset.transactions();
    let supports = dataset.singleton_supports();
    let mut items: Vec<u32> = (0..supports.len() as u32).collect();
    items.sort_by_key(|&i| std::cmp::Reverse(supports[i as usize]));
    items.truncate(722);
    items.sort_unstable();
    let pairs: Vec<Itemset> = items
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| items[i + 1..].iter().map(move |&b| Itemset::new([a, b])))
        .collect();

    let mut group = c.benchmark_group("count_c2");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("hash_tree", pairs.len()),
        &pairs,
        |bench, cands| bench.iter(|| black_box(count_hash_tree(black_box(txs), cands))),
    );
    group.bench_with_input(
        BenchmarkId::new("bitmap", pairs.len()),
        &pairs,
        |bench, cands| bench.iter(|| black_box(count_bitmap(black_box(txs), cands))),
    );
    group.finish();
}

criterion_group!(benches, bench_counting, bench_c2_scale);
criterion_main!(benches);
