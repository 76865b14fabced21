//! Synthetic workload generators for the paper's three data sets.
//!
//! | Paper data set | Generator | Notes |
//! |---|---|---|
//! | regular-synthetic | [`quest::QuestConfig`] | reimplementation of the IBM Quest process \[3\] |
//! | skewed-synthetic | [`skewed::SkewedConfig`] | seasonal item popularity (Section 6.1) |
//! | Nokia alarms | [`alarm::AlarmConfig`] | synthetic substitute for the proprietary data |
//!
//! All generators are fully deterministic given their seed.

pub mod alarm;
pub mod dist;
pub mod quest;
pub mod skewed;

pub use alarm::AlarmConfig;
pub use quest::QuestConfig;
pub use skewed::SkewedConfig;
