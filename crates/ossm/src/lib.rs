//! # ossm — facade crate for the OSSM reproduction
//!
//! One `use ossm::prelude::*` away from the whole system: the transaction
//! substrate ([`ossm_data`]), the optimized segment support map
//! ([`ossm_core`]), and the miners it accelerates ([`ossm_mining`]).
//!
//! Reproduces *Leung, Ng, Mannila: "OSSM: A Segmentation Approach to
//! Optimize Frequency Counting" (ICDE 2002)*. See the repository README for
//! the architecture tour and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! ```
//! use ossm::prelude::*;
//!
//! // Generate a workload, page it, build an OSSM, mine with and without.
//! let data = QuestConfig::small().generate();
//! let min_support = data.absolute_threshold(0.02);
//! let store = PageStore::with_page_count(data, 50);
//! let (ossm, report) = OssmBuilder::new(10).strategy(Strategy::Greedy).build(&store);
//!
//! let without = Apriori::new().mine(store.dataset(), min_support);
//! let with = Apriori::new().mine_filtered(store.dataset(), min_support, &OssmFilter::new(&ossm));
//! assert_eq!(without.patterns, with.patterns);
//! assert!(with.metrics.total_counted() <= without.metrics.total_counted());
//! assert!(report.memory_bytes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ossm_core as core;
pub use ossm_data as data;
pub use ossm_mining as mining;

/// The most commonly used types across all three crates.
pub mod prelude {
    pub use ossm_core::{
        minimize_segments, recommend, theorem1_bound, Aggregate, ApplicationProfile, BubbleList,
        BuildReport, Configuration, IncrementalOssm, LossCalculator, Ossm, OssmBuilder,
        RecommendedStrategy, Segmentation, SegmentationAlgorithm, Strategy,
    };
    pub use ossm_data::{
        disk::{DiskStore, DiskStoreWriter},
        gen::{AlarmConfig, QuestConfig, SkewedConfig},
        Dataset, ItemId, Itemset, PageStore,
    };
    pub use ossm_mining::{
        Apriori, CandidateFilter, Charm, CountingBackend, DepthProject, Dhp, Eclat, FpGrowth,
        FrequentPatterns, GenMax, MiningOutcome, NoFilter, OssmFilter, Partition, StreamingApriori,
    };
}
