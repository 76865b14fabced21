//! The cost of one buffer-pool miss, split into its parts: the CRC32C
//! of a 4 KiB page slot, decoding one page of the out-of-core `huge`
//! workload (about 400 transactions of one to three items), and a cold
//! `fetch_page` scan of a page file through a pool a quarter its size,
//! where every fetch past the first quarter evicts. Next to them, the
//! cost of opening a store: the CRC32C of a 5 MiB buffer (the size of
//! the full-scale `huge` page file's index, checked at every open) and
//! `DiskStore::open` of this file alone.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ossm_bench::workloads::Workload;
use ossm_data::checksum::crc32c;
use ossm_data::disk::{decode_page, encode_page_payload, write_paged, DiskStore};

const PAGE_BYTES: usize = 4096;

fn bench_pagefetch(c: &mut Criterion) {
    let dataset = Workload::huge(1000, 240).dataset();
    let m = dataset.num_items();
    let path = std::env::temp_dir().join(format!("ossm-pagefetch-{}.pages", std::process::id()));
    write_paged(&path, &dataset, PAGE_BYTES).expect("write the page file");
    let mut store = DiskStore::open(&path, usize::MAX).expect("open the page file");
    let num_pages = store.num_pages();
    let payloads: Vec<Vec<u8>> = (0..num_pages)
        .map(|p| {
            let page = store.fetch_page(p).expect("read a page");
            encode_page_payload(&page, PAGE_BYTES).expect("a stored page fits its slot")
        })
        .collect();
    drop(store);

    let mut group = c.benchmark_group("page_miss");
    group.sample_size(20);
    let slot = &payloads[num_pages / 2];
    group.bench_function("crc32c_4KiB", |b| {
        b.iter(|| black_box(crc32c(black_box(slot))));
    });
    let index: Vec<u8> = payloads
        .iter()
        .flatten()
        .copied()
        .cycle()
        .take(5 << 20)
        .collect();
    group.bench_function("crc32c_index", |b| {
        b.iter(|| black_box(crc32c(black_box(&index))));
    });
    group.bench_function("open", |b| {
        b.iter(|| {
            DiskStore::open(black_box(&path), num_pages / 4)
                .expect("open")
                .num_pages()
        });
    });
    // One page per iteration, cycling through the whole file so head
    // pages (three items per transaction) and noise pages (one) mix as
    // they do in a scan.
    let mut next = 0;
    group.bench_function("decode_page", |b| {
        b.iter(|| {
            next = (next + 1) % num_pages;
            black_box(decode_page(black_box(&payloads[next]), m).expect("decodes"))
        });
    });
    group.bench_function(format!("cold_scan_{num_pages}_pages_quarter_pool"), |b| {
        b.iter(|| {
            let mut store = DiskStore::open(&path, num_pages / 4).expect("open");
            for p in 0..num_pages {
                black_box(store.fetch_page(p).expect("fetch"));
            }
            store.io_stats().page_reads
        });
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

criterion_group!(benches, bench_pagefetch);
criterion_main!(benches);
