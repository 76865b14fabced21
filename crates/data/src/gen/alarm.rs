//! Telecom-alarm sequence generator — the substitute for the proprietary
//! Nokia data set.
//!
//! The paper's first data set is "a real data set from Nokia on a sequence
//! file containing about 5000 transactions of about 200 distinct types of
//! telecommunications network alarms", which cannot be redistributed. We
//! simulate the closest public description of such data (the episode-mining
//! setting of Mannila–Toivonen–Verkamo \[13\], which the paper cites for the
//! windowed-transaction framing):
//!
//! * a background process emits alarms of random types at Poisson times;
//! * *alarm storms* occur now and then: a fault in one network element
//!   triggers a correlated set of alarm types that fire densely for the
//!   duration of the storm (this is the temporal skew that makes the data
//!   "real-life", i.e. non-random, which is what the OSSM exploits);
//! * the event sequence is cut into fixed-width time windows; the set of
//!   distinct alarm types inside a window is one transaction (footnote 1 of
//!   the paper: "in the case of episodes, a transaction corresponds to a
//!   sequence of events in a sliding time window").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::dist::{exponential, poisson};
use crate::item::Itemset;
use crate::transaction::Dataset;

/// Parameters of the alarm-sequence generator. Defaults match the paper's
/// description of the Nokia data: ~5000 transactions over ~200 alarm types.
#[derive(Clone, Debug)]
pub struct AlarmConfig {
    /// Number of windows (transactions) to produce.
    pub num_windows: usize,
    /// Number of distinct alarm types (the item domain).
    pub num_alarm_types: usize,
    /// Mean number of background alarms per window.
    pub background_rate: f64,
    /// Number of distinct fault signatures (correlated alarm-type groups).
    pub num_faults: usize,
    /// Mean number of alarm types in one fault signature.
    pub fault_signature_len: f64,
    /// Probability that a new storm starts in any given window.
    pub storm_start_prob: f64,
    /// Mean storm duration, in windows.
    pub storm_duration: f64,
    /// Mean number of signature alarms emitted per stormy window.
    pub storm_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlarmConfig {
    fn default() -> Self {
        AlarmConfig {
            num_windows: 5000,
            num_alarm_types: 200,
            background_rate: 4.0,
            num_faults: 12,
            fault_signature_len: 6.0,
            storm_start_prob: 0.03,
            storm_duration: 30.0,
            storm_rate: 8.0,
            seed: 0xA1A2_2002,
        }
    }
}

impl AlarmConfig {
    /// A small configuration for unit tests and examples.
    pub fn small() -> Self {
        AlarmConfig {
            num_windows: 800,
            num_alarm_types: 60,
            num_faults: 5,
            ..Self::default()
        }
    }

    /// Generates the windowed alarm dataset.
    pub fn generate(&self) -> Dataset {
        generate(self)
    }
}

/// An in-progress alarm storm: which fault signature, and windows remaining.
struct Storm {
    fault: usize,
    remaining: u64,
}

/// Runs the generator. Prefer [`AlarmConfig::generate`].
pub fn generate(cfg: &AlarmConfig) -> Dataset {
    assert!(cfg.num_alarm_types > 0, "need at least one alarm type");
    assert!(cfg.num_faults > 0, "need at least one fault signature");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Draw the fault signatures: correlated groups of alarm types.
    let signatures: Vec<Vec<u32>> = (0..cfg.num_faults)
        .map(|_| {
            let len = ((poisson(&mut rng, cfg.fault_signature_len - 1.0) + 1) as usize)
                .min(cfg.num_alarm_types);
            let mut sig = Vec::with_capacity(len);
            while sig.len() < len {
                let a = rng.gen_range(0..cfg.num_alarm_types as u32);
                if !sig.contains(&a) {
                    sig.push(a);
                }
            }
            sig
        })
        .collect();

    let mut storms: Vec<Storm> = Vec::new();
    let mut windows = Vec::with_capacity(cfg.num_windows);
    for _ in 0..cfg.num_windows {
        // Maybe a new storm begins.
        if rng.gen::<f64>() < cfg.storm_start_prob {
            let duration = exponential(&mut rng, cfg.storm_duration).ceil() as u64;
            storms.push(Storm {
                fault: rng.gen_range(0..cfg.num_faults),
                remaining: duration.max(1),
            });
        }
        let mut alarms: Vec<u32> = Vec::new();
        // Background noise.
        for _ in 0..poisson(&mut rng, cfg.background_rate) {
            alarms.push(rng.gen_range(0..cfg.num_alarm_types as u32));
        }
        // Storm emissions: each active storm fires its signature densely.
        for storm in &mut storms {
            let sig = &signatures[storm.fault];
            for _ in 0..poisson(&mut rng, cfg.storm_rate) {
                alarms.push(sig[rng.gen_range(0..sig.len())]);
            }
            storm.remaining -= 1;
        }
        storms.retain(|s| s.remaining > 0);
        // The window's transaction is the set of distinct alarm types seen.
        windows.push(Itemset::new(alarms));
    }
    Dataset::new(cfg.num_alarm_types, windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = AlarmConfig {
            num_windows: 300,
            ..AlarmConfig::small()
        };
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn shape_matches_configuration() {
        let cfg = AlarmConfig::small();
        let d = cfg.generate();
        assert_eq!(d.len(), cfg.num_windows);
        assert_eq!(d.num_items(), cfg.num_alarm_types);
    }

    #[test]
    fn default_matches_paper_description() {
        let cfg = AlarmConfig::default();
        assert_eq!(cfg.num_windows, 5000, "about 5000 transactions");
        assert_eq!(cfg.num_alarm_types, 200, "about 200 distinct alarm types");
    }

    #[test]
    fn storms_create_cooccurring_signature_alarms() {
        // During storms the signature alarms co-occur far above independence.
        let cfg = AlarmConfig {
            num_windows: 2000,
            ..AlarmConfig::small()
        };
        let d = cfg.generate();
        let singles = d.singleton_supports();
        let n = d.len() as f64;
        let mut top: Vec<usize> = (0..d.num_items()).collect();
        top.sort_by_key(|&i| std::cmp::Reverse(singles[i]));
        top.truncate(12);
        let mut best_lift = 0.0f64;
        for (ai, &a) in top.iter().enumerate() {
            for &b in &top[ai + 1..] {
                let obs = d.support(&Itemset::new([a as u32, b as u32])) as f64 / n;
                let exp = (singles[a] as f64 / n) * (singles[b] as f64 / n);
                if exp > 0.0 {
                    best_lift = best_lift.max(obs / exp);
                }
            }
        }
        assert!(
            best_lift > 1.5,
            "expected correlated alarm pairs, best lift {best_lift}"
        );
    }

    #[test]
    fn alarm_activity_is_bursty_over_time() {
        // Total alarms per window should be visibly non-uniform: windows
        // inside storms carry far more alarms than quiet ones.
        let d = AlarmConfig {
            num_windows: 2000,
            ..AlarmConfig::small()
        }
        .generate();
        let sizes: Vec<usize> = d.transactions().iter().map(Itemset::len).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max > 2.0 * mean, "no bursts: max {max}, mean {mean}");
    }
}
