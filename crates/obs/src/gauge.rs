//! Level metrics: a [`Gauge`] tracks a quantity that goes up *and* down
//! (bytes held, entries resident) and remembers the peak it reached —
//! the number the ROADMAP's memory-budget items actually care about.
//!
//! Mirrors the `Counter` design: declare as a `static`, the gauge
//! registers itself with the global registry on first use, and the whole
//! type collapses to a ZST when the `enabled` feature is off.

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

    use crate::snapshot::GaugeSnapshot;

    /// A current/peak level metric.
    ///
    /// ```
    /// static MEM_PAIR_TABLE: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.mining.pair_table");
    /// MEM_PAIR_TABLE.set(4096);
    /// ```
    pub struct Gauge {
        name: &'static str,
        /// Signed: scoped deallocation can be charged to a different
        /// subsystem than the matching allocation, driving a per-gauge
        /// current transiently below zero. Snapshots clamp at 0.
        current: AtomicI64,
        peak: AtomicU64,
        registered: AtomicBool,
    }

    impl Gauge {
        /// A gauge named `name`. `const`, so it can initialize a `static`.
        pub const fn new(name: &'static str) -> Self {
            Gauge {
                name,
                current: AtomicI64::new(0),
                peak: AtomicU64::new(0),
                registered: AtomicBool::new(false),
            }
        }

        /// Raises the level by `n`.
        #[inline]
        pub fn add(&'static self, n: u64) {
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
            let now = self.current.fetch_add(n as i64, Ordering::Relaxed) + n as i64;
            if now > 0 {
                self.peak.fetch_max(now as u64, Ordering::Relaxed);
            }
        }

        /// Lowers the level by `n`.
        #[inline]
        pub fn sub(&'static self, n: u64) {
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
            self.current.fetch_sub(n as i64, Ordering::Relaxed);
        }

        /// Sets the level to `n` outright — for sites that know the full
        /// size of a structure once built, independent of scheduling.
        #[inline]
        pub fn set(&'static self, n: u64) {
            if !self.registered.load(Ordering::Relaxed) {
                self.register();
            }
            self.current.store(n as i64, Ordering::Relaxed);
            self.peak.fetch_max(n, Ordering::Relaxed);
        }

        /// Raises the level by `n` for the lifetime of the returned guard.
        #[inline]
        pub fn charge(&'static self, n: u64) -> GaugeCharge {
            self.add(n);
            GaugeCharge { gauge: self, n }
        }

        /// Current level, clamped at 0.
        pub fn current(&self) -> u64 {
            self.current.load(Ordering::Relaxed).max(0) as u64
        }

        /// Highest level reached since the last reset.
        pub fn peak(&self) -> u64 {
            self.peak.load(Ordering::Relaxed)
        }

        pub(crate) fn name(&self) -> &'static str {
            self.name
        }

        pub(crate) fn snapshot(&self) -> GaugeSnapshot {
            GaugeSnapshot {
                current: self.current(),
                peak: self.peak(),
            }
        }

        /// Zeroes the level and re-arms the peak at it.
        pub(crate) fn reset(&self) {
            self.current.store(0, Ordering::Relaxed);
            self.peak.store(0, Ordering::Relaxed);
        }

        #[cold]
        fn register(&'static self) {
            if self
                .registered
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                crate::live::register_gauge(self);
            }
        }
    }

    /// RAII charge against a [`Gauge`]: lowers the level by the charged
    /// amount when dropped.
    #[must_use = "the charge is released when the guard drops"]
    pub struct GaugeCharge {
        gauge: &'static Gauge,
        n: u64,
    }

    impl Drop for GaugeCharge {
        fn drop(&mut self) {
            self.gauge.sub(self.n);
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    /// Disabled stand-in for the live `Gauge`: a ZST whose methods do
    /// nothing.
    pub struct Gauge;

    impl Gauge {
        /// Does nothing (instrumentation disabled).
        pub const fn new(_name: &'static str) -> Self {
            Gauge
        }

        /// Does nothing (instrumentation disabled).
        #[inline(always)]
        pub fn add(&'static self, _n: u64) {}

        /// Does nothing (instrumentation disabled).
        #[inline(always)]
        pub fn sub(&'static self, _n: u64) {}

        /// Does nothing (instrumentation disabled).
        #[inline(always)]
        pub fn set(&'static self, _n: u64) {}

        /// Returns an inert guard (instrumentation disabled).
        #[inline(always)]
        pub fn charge(&'static self, _n: u64) -> GaugeCharge {
            GaugeCharge
        }

        /// Always 0 (instrumentation disabled).
        #[inline(always)]
        pub fn current(&self) -> u64 {
            0
        }

        /// Always 0 (instrumentation disabled).
        #[inline(always)]
        pub fn peak(&self) -> u64 {
            0
        }
    }

    /// Disabled stand-in for the live `GaugeCharge` (drop does nothing).
    #[must_use = "the charge is released when the guard drops"]
    pub struct GaugeCharge;
}

pub use imp::{Gauge, GaugeCharge};
