//! # ossm-mining — frequent-pattern miners for the OSSM evaluation
//!
//! The miners the paper evaluates the OSSM with, each exposing the same
//! [`filter::CandidateFilter`] hook so "with OSSM" vs "without OSSM" is a
//! one-argument change:
//!
//! * [`apriori::Apriori`] — the classical level-wise miner (Section 6's
//!   test vehicle), the one miner with a choice of counting back-end
//!   (linear scan or hash tree);
//! * [`dhp::Dhp`] — the hash-bucket variant of Park–Chen–Yu (Section 7),
//!   counting on the hash tree;
//! * [`partition::Partition`] — two-phase partition mining with
//!   per-partition OSSMs (Section 7), counting on the hash tree;
//! * [`depth::DepthProject`] — depth-first lexicographic-tree mining for
//!   long patterns (Section 7);
//! * [`fpgrowth::FpGrowth`] — the candidate-free baseline used to
//!   cross-validate every other miner;
//! * [`vertical::Eclat`] — tidset-intersection mining, with CHARM- and
//!   GenMax-style condensed variants;
//! * [`ooc::StreamingApriori`], [`ooc::StreamingDhp`], and
//!   [`ooc::StreamingFpGrowth`] — the same miners out of core, reading a
//!   page file through a bounded buffer pool, where the OSSM also saves
//!   whole passes and skips pages it proves irrelevant.
//!
//! Apriori, DHP, and both out-of-core level-wise miners share one level
//! loop (generate → filter → count → collect), so the filter enters every
//! one of them at the same point: between candidate generation and
//! counting.
//!
//! ```
//! use ossm_data::gen::QuestConfig;
//! use ossm_core::minimize_segments;
//! use ossm_mining::{apriori::Apriori, filter::OssmFilter};
//!
//! let data = QuestConfig::small().generate();
//! let ossm = minimize_segments(&data).ossm; // exact OSSM
//! let with = Apriori::new().mine_filtered(&data, 20, &OssmFilter::new(&ossm));
//! let without = Apriori::new().mine(&data, 20);
//! assert_eq!(with.patterns, without.patterns);           // always lossless…
//! assert!(with.metrics.total_counted() <= without.metrics.total_counted()); // …and cheaper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apriori;
pub mod depth;
pub mod dhp;
pub mod filter;
pub mod fpgrowth;
pub mod hashtree;
mod levelwise;
pub mod metrics;
mod obs;
pub mod ooc;
mod pairs;
pub mod partition;
pub mod patterns;
pub mod support;
pub mod vertical;

pub use apriori::{Apriori, MiningOutcome};
pub use depth::DepthProject;
pub use dhp::Dhp;
pub use filter::{CandidateFilter, NoFilter, OssmFilter};
pub use fpgrowth::FpGrowth;
pub use metrics::{LevelMetrics, MiningMetrics};
pub use ooc::{StreamingApriori, StreamingDhp, StreamingFpGrowth, StreamingOutcome};
pub use partition::Partition;
pub use support::{CountingBackend, FrequentPatterns};
pub use vertical::{Charm, Eclat, GenMax, VerticalIndex};
