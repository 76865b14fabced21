//! # ossm-data — transaction substrate for the OSSM reproduction
//!
//! Everything the OSSM (Leung–Ng–Mannila, ICDE 2002) counts over lives
//! here: items and itemsets, transactions and datasets, the page-granular
//! physical layout that the segmentation algorithms operate on, the three
//! synthetic workload generators matching the paper's data sets, and a
//! small binary codec for persisting generated workloads.
//!
//! ```
//! use ossm_data::gen::QuestConfig;
//! use ossm_data::page::PageStore;
//!
//! let dataset = QuestConfig::small().generate();
//! let pages = PageStore::pack_default(dataset);
//! assert!(pages.num_pages() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod checksum;
pub mod disk;
pub mod fault;
mod format;
pub mod gen;
pub mod io;
pub mod item;
pub mod page;
pub mod repair;
pub mod transaction;
pub mod wal;

pub use format::MAGIC as PAGE_MAGIC;
pub use item::{ItemId, Itemset};
pub use page::{Page, PageStore};
pub use transaction::Dataset;
