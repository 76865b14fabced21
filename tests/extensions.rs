//! Integration tests for the extension systems built around the core
//! reproduction: incremental maintenance, disk-resident mining, and the
//! condensed pattern representations — all composed end-to-end through
//! the facade crate.

use ossm::prelude::*;
use ossm_mining::patterns::{closed, maximal, support_from_closed};

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ossm-extension-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn incremental_map_filters_mining_losslessly_after_streaming() {
    let d = SkewedConfig {
        num_transactions: 3000,
        num_items: 50,
        ..SkewedConfig::default()
    }
    .generate();
    let min_support = d.absolute_threshold(0.015);
    // Stream the data in 30 chunks into a 10-segment incremental map.
    let mut inc = IncrementalOssm::new(10, LossCalculator::all_items()).expect("budget > 0");
    for chunk in d.transactions().chunks(100) {
        inc.append_transactions(50, chunk);
    }
    let snapshot = inc.snapshot();
    let plain = Apriori::new().mine(&d, min_support);
    let filtered = Apriori::new().mine_filtered(&d, min_support, &OssmFilter::new(&snapshot));
    assert_eq!(plain.patterns, filtered.patterns);
    assert!(filtered.metrics.total_counted() <= plain.metrics.total_counted());
}

#[test]
fn disk_pipeline_matches_memory_pipeline_with_io_savings() {
    let d = QuestConfig {
        num_transactions: 3000,
        num_items: 80,
        ..QuestConfig::small()
    }
    .generate();
    let min_support = d.absolute_threshold(0.02);
    let path = tmpdir().join("pipeline.pages");
    ossm_data::disk::write_paged(&path, &d, 2048).expect("write");

    // Segmentation straight off the on-disk aggregate index.
    let mut store = DiskStore::open(&path, 8).expect("open");
    let aggs: Vec<Aggregate> = store
        .page_aggregate_vectors()
        .into_iter()
        .map(|(v, n)| Aggregate::new(v, n))
        .collect();
    assert_eq!(
        store.io_stats().page_reads,
        0,
        "segmentation input needs no page I/O"
    );
    let seg = ossm_core::seg::Greedy::default().segment(&aggs, 8);
    let ossm = Ossm::from_aggregates(seg.merge_aggregates(&aggs));

    let plain = StreamingApriori::new()
        .mine(&mut store, min_support, None)
        .expect("mine");
    let mut store2 = DiskStore::open(&path, 8).expect("open");
    let filtered = StreamingApriori::new()
        .mine(&mut store2, min_support, Some(&ossm))
        .expect("mine");
    assert_eq!(plain.patterns, filtered.patterns);
    assert!(
        filtered.page_reads < plain.page_reads,
        "the OSSM must save physical I/O"
    );

    // And both agree with the fully in-memory reference.
    let mem = Apriori::new().mine(&d, min_support);
    assert_eq!(mem.patterns, plain.patterns);
    std::fs::remove_file(&path).ok();
}

#[test]
fn condensed_representations_compose_with_every_miner() {
    let d = SkewedConfig {
        num_transactions: 1000,
        num_items: 30,
        ..SkewedConfig::small()
    }
    .generate();
    let min_support = d.absolute_threshold(0.03);
    let full = FpGrowth::new().mine(&d, min_support).patterns;
    let closed_sets = closed(&full);
    let maximal_sets = maximal(&full);
    assert!(closed_sets.len() <= full.len());
    assert!(maximal_sets.len() <= closed_sets.len());
    for (p, s) in full.iter() {
        assert_eq!(support_from_closed(&closed_sets, p), Some(s));
    }
    // Every frequent set is a subset of some maximal set.
    for (p, _) in full.iter() {
        assert!(
            maximal_sets.iter().any(|m| p.is_subset_of(m)),
            "{p} not covered by any maximal set"
        );
    }
}

#[test]
fn ossm_persistence_roundtrips_through_the_facade() {
    let d = QuestConfig {
        num_transactions: 800,
        num_items: 40,
        ..QuestConfig::small()
    }
    .generate();
    let store = PageStore::with_page_count(d, 10);
    let (ossm, _) = OssmBuilder::new(5).build(&store);
    let path = tmpdir().join("facade.ossm");
    ossm_core::persist::save(&path, &ossm).expect("save");
    let loaded = ossm_core::persist::load(&path).expect("load");
    assert_eq!(loaded, ossm);
    std::fs::remove_file(&path).ok();
}
