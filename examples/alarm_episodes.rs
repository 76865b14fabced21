//! Telecom alarm analysis — the paper's Nokia scenario, episode-style.
//!
//! A network's alarm sequence is cut into time windows; each window's set
//! of distinct alarm types is a transaction (footnote 1 of the paper).
//! Frequent itemsets over these windows are exactly the "episodes" the
//! paper cites [13]: alarm types that fire together, betraying a common
//! fault. Alarm storms make the data temporally skewed and the frequent
//! patterns *long*, so this example mines with the DepthProject-style
//! depth-first miner — with the OSSM pruning its lexicographic extensions
//! (Section 7).
//!
//! Run with: `cargo run -p ossm --release --example alarm_episodes`

use ossm::prelude::*;

fn main() {
    // The paper's data: ~5000 windows over ~200 alarm types.
    let dataset = AlarmConfig::default().generate();
    let min_support = dataset.absolute_threshold(0.02);
    let store = PageStore::pack_default(dataset);
    println!(
        "alarm log: {} windows, {} alarm types, {} pages, min support {}",
        store.dataset().len(),
        store.num_items(),
        store.num_pages(),
        min_support
    );

    // Storms cluster in time, so consecutive pages share configurations:
    // the RC algorithm finds near-lossless merges quickly.
    let (ossm, report) = OssmBuilder::new(30).strategy(Strategy::Rc).build(&store);
    println!(
        "OSSM: {} segments in {:?} (loss {})",
        report.num_segments, report.segmentation_time, report.total_loss
    );

    let miner = DepthProject::new();
    let without = miner.mine(store.dataset(), min_support);
    let with = miner.mine_filtered(store.dataset(), min_support, &OssmFilter::new(&ossm));
    assert_eq!(without.patterns, with.patterns);

    println!(
        "frequency tests: {} -> {} ({} pruned by the OSSM)",
        without.metrics.total_counted(),
        with.metrics.total_counted(),
        with.metrics.total_filtered_out()
    );

    // Report the longest episodes: likely fault signatures.
    let max_len = with.patterns.max_len();
    println!("longest frequent alarm combinations ({max_len} alarms):");
    for episode in with.patterns.of_len(max_len).into_iter().take(5) {
        let support = with
            .patterns
            .support_of(episode)
            .expect("pattern is frequent");
        println!("  alarms {episode}: co-fire in {support} windows");
    }

    // How skewed is this data? The OSSM doubles as a variability profile
    // (the paper's Section 8), which also answers the Figure 7 recipe's
    // "is the data skewed?" question empirically.
    let report = ossm::core::variability::analyze(&ossm);
    println!(
        "\nvariability: skew score {:.2} ({}), {} distinct segment configurations",
        report.skew_score,
        if report.is_skewed() {
            "skewed — storms detected"
        } else {
            "uniform"
        },
        report.distinct_configurations
    );
}
