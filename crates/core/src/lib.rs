//! # ossm-core — the Optimized Segment Support Map
//!
//! Reproduction of the core contribution of *Leung, Ng, Mannila: "OSSM: A
//! Segmentation Approach to Optimize Frequency Counting" (ICDE 2002)*.
//!
//! The OSSM partitions a transaction collection into `n` segments and keeps
//! per-segment singleton supports; equation (1) then upper-bounds the
//! support of any itemset, letting miners prune candidates before counting.
//! This crate implements:
//!
//! * the map itself and its bound — [`ssm::Ossm`];
//! * segment configurations and the lossless-merge theory of Section 4 —
//!   [`config`], [`minimize`] (Theorem 1, Corollary 1);
//! * the accuracy-loss quantity of equation (2), in both the paper's O(m²)
//!   form and a linear form (a support histogram, or a radix sort of the
//!   nonzero supports when they are large, with `f` cached per live
//!   segment by the segmentation loops) — [`loss`];
//! * the constrained-segmentation heuristics Greedy, RC, Random, and the
//!   Random-RC / Random-Greedy hybrids — [`seg`];
//! * the bubble list — [`bubble`]; the Figure 7 recipe — [`recipe`];
//! * a high-level builder tying everything together — [`builder`].
//!
//! ```
//! use ossm_core::{builder::{OssmBuilder, Strategy}};
//! use ossm_data::{gen::QuestConfig, Itemset, PageStore};
//!
//! let store = PageStore::with_page_count(QuestConfig::small().generate(), 40);
//! let (ossm, _report) = OssmBuilder::new(12).strategy(Strategy::Rc).build(&store);
//! let candidate = Itemset::new([3, 17]);
//! // The bound never undercounts…
//! assert!(ossm.upper_bound(&candidate) >= store.dataset().support(&candidate));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bubble;
pub mod builder;
pub mod config;
pub mod durable;
pub mod incremental;
pub mod loss;
pub mod minimize;
pub mod persist;
pub mod recipe;
pub mod recover;
pub mod seg;
pub mod segmentation;
pub mod ssm;
pub mod variability;

pub use bubble::BubbleList;
pub use builder::{BuildReport, OssmBuilder, Strategy};
pub use config::Configuration;
pub use durable::{DurableIncrementalOssm, RecoveryReport};
pub use incremental::IncrementalOssm;
pub use loss::LossCalculator;
pub use minimize::{minimize_segments, theorem1_bound, SegmentMinimization};
pub use recipe::{recommend, ApplicationProfile, RecommendedStrategy};
pub use seg::SegmentationAlgorithm;
pub use segmentation::{Aggregate, Segmentation};
pub use ssm::Ossm;
