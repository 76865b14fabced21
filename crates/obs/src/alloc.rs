//! Scoped allocation attribution.
//!
//! The `ossm-alloc` crate's counting `#[global_allocator]` (opt-in via
//! the CLI's `obs-alloc` feature) reports every heap allocation and
//! deallocation here via [`on_alloc`]/[`on_dealloc`]. Bytes are charged
//! to the *allocation scope* the current thread has open — an RAII tag
//! pushed with [`alloc_scope`] around a subsystem's work (`"data.page"`,
//! `"mining.candidates"`, `"core.seg"`, …) — so `--stats` can answer
//! "who holds the memory", not just "how much is held".
//!
//! The hooks are lock-free and allocation-free: scope names live in a
//! fixed table of [`OnceLock`](std::sync::OnceLock) slots, counts in
//! plain atomics. A deallocation is charged to the scope open on the *freeing* thread,
//! which can differ from the allocating scope; per-scope currents are
//! therefore signed internally and clamped at zero in snapshots, while
//! peaks — the budget-relevant number — are unaffected.
//!
//! When the counting allocator is not installed the hooks are never
//! called and `snapshot_into` injects nothing, so default builds are
//! byte-identical. Peak RSS (`VmHWM`/`VmRSS` from `/proc/self/status`)
//! rides along as `mem.rss` whenever allocation tracking is live.

#[cfg(feature = "enabled")]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
    use std::sync::OnceLock;

    use crate::snapshot::{GaugeSnapshot, Snapshot};

    /// Maximum number of distinct allocation scopes; later scopes fall
    /// back to the unattributed global pool.
    pub const MAX_SCOPES: usize = 32;

    // `const` locals are the array-repeat idiom for non-Copy elements
    // (same as `Histogram::new` in live.rs).
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY_NAME: OnceLock<&'static str> = OnceLock::new();
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_I64: AtomicI64 = AtomicI64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO_U64: AtomicU64 = AtomicU64::new(0);

    static SCOPE_NAMES: [OnceLock<&'static str>; MAX_SCOPES] = [EMPTY_NAME; MAX_SCOPES];
    static SCOPE_CUR: [AtomicI64; MAX_SCOPES] = [ZERO_I64; MAX_SCOPES];
    static SCOPE_PEAK: [AtomicU64; MAX_SCOPES] = [ZERO_U64; MAX_SCOPES];
    static GLOBAL_CUR: AtomicI64 = AtomicI64::new(0);
    static GLOBAL_PEAK: AtomicU64 = AtomicU64::new(0);
    /// Set by the first hook call: proof the counting allocator is
    /// installed, and the switch that turns the `mem.*` snapshot rows on.
    static HOOKED: AtomicBool = AtomicBool::new(false);

    thread_local! {
        /// Index of the scope open on this thread; `usize::MAX` = none.
        static CURRENT_SCOPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// Interns `name` into the scope table, returning its slot (or
    /// `usize::MAX` when the table is full — bytes then stay global).
    fn intern(name: &'static str) -> usize {
        for (i, slot) in SCOPE_NAMES.iter().enumerate() {
            match slot.get() {
                Some(&n) if n == name => return i,
                Some(_) => continue,
                None => {
                    if slot.set(name).is_ok() || slot.get() == Some(&name) {
                        return i;
                    }
                }
            }
        }
        usize::MAX
    }

    /// Opens an allocation scope: until the returned guard drops, heap
    /// bytes allocated (and freed) on this thread are charged to `name`.
    /// Scopes nest; the innermost wins.
    pub fn alloc_scope(name: &'static str) -> AllocScope {
        let idx = intern(name);
        let prev = CURRENT_SCOPE.with(|s| s.replace(idx));
        AllocScope { prev }
    }

    /// RAII guard restoring the previously open allocation scope.
    #[must_use = "the scope closes when the guard drops"]
    pub struct AllocScope {
        prev: usize,
    }

    impl Drop for AllocScope {
        fn drop(&mut self) {
            CURRENT_SCOPE.with(|s| s.set(self.prev));
        }
    }

    /// Charges an allocation of `size` bytes. Called by `ossm-alloc`'s
    /// `GlobalAlloc` wrapper; must not allocate.
    #[inline]
    pub fn on_alloc(size: usize) {
        HOOKED.store(true, Ordering::Relaxed);
        let size = size as i64;
        let now = GLOBAL_CUR.fetch_add(size, Ordering::Relaxed) + size;
        if now > 0 {
            GLOBAL_PEAK.fetch_max(now as u64, Ordering::Relaxed);
        }
        // `try_with`: hooks can fire during thread-local teardown.
        let idx = CURRENT_SCOPE.try_with(Cell::get).unwrap_or(usize::MAX);
        if idx < MAX_SCOPES {
            let now = SCOPE_CUR[idx].fetch_add(size, Ordering::Relaxed) + size;
            if now > 0 {
                SCOPE_PEAK[idx].fetch_max(now as u64, Ordering::Relaxed);
            }
        }
    }

    /// Releases an allocation of `size` bytes. Must not allocate.
    #[inline]
    pub fn on_dealloc(size: usize) {
        let size = size as i64;
        GLOBAL_CUR.fetch_sub(size, Ordering::Relaxed);
        let idx = CURRENT_SCOPE.try_with(Cell::get).unwrap_or(usize::MAX);
        if idx < MAX_SCOPES {
            SCOPE_CUR[idx].fetch_sub(size, Ordering::Relaxed);
        }
    }

    /// True once the counting allocator has reported at least one
    /// allocation — i.e. the `obs-alloc` feature is live in this process.
    pub fn tracking_active() -> bool {
        HOOKED.load(Ordering::Relaxed)
    }

    /// `(VmRSS, VmHWM)` in bytes from `/proc/self/status`, when the
    /// platform exposes it.
    pub fn rss_bytes() -> Option<(u64, u64)> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let mut rss = None;
        let mut hwm = None;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmRSS:") {
                rss = parse_kb(rest);
            } else if let Some(rest) = line.strip_prefix("VmHWM:") {
                hwm = parse_kb(rest);
            }
        }
        Some((rss?, hwm?))
    }

    fn parse_kb(rest: &str) -> Option<u64> {
        rest.trim()
            .strip_suffix("kB")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
    }

    /// Injects `mem.alloc`, `mem.alloc.<scope>`, and `mem.rss` gauge rows
    /// into `snap` — only when allocation tracking is live, so default
    /// builds see no new rows.
    pub(crate) fn snapshot_into(snap: &mut Snapshot) {
        if !tracking_active() {
            return;
        }
        snap.gauges.insert(
            "mem.alloc".to_string(),
            GaugeSnapshot {
                current: GLOBAL_CUR.load(Ordering::Relaxed).max(0) as u64,
                peak: GLOBAL_PEAK.load(Ordering::Relaxed),
            },
        );
        for (i, slot) in SCOPE_NAMES.iter().enumerate() {
            let Some(&name) = slot.get() else { break };
            let s = GaugeSnapshot {
                current: SCOPE_CUR[i].load(Ordering::Relaxed).max(0) as u64,
                peak: SCOPE_PEAK[i].load(Ordering::Relaxed),
            };
            if s.current > 0 || s.peak > 0 {
                snap.gauges.insert(format!("mem.alloc.{name}"), s);
            }
        }
        if let Some((rss, hwm)) = rss_bytes() {
            snap.gauges.insert(
                "mem.rss".to_string(),
                GaugeSnapshot {
                    current: rss,
                    peak: hwm,
                },
            );
        }
    }

    /// Re-arms every peak at the current level, so a measured run's
    /// peaks reflect only that run. Currents are left alone — they track
    /// live bytes, which a reset cannot un-allocate.
    pub(crate) fn reset_peaks() {
        let now = GLOBAL_CUR.load(Ordering::Relaxed).max(0) as u64;
        GLOBAL_PEAK.store(now, Ordering::Relaxed);
        for (cur, peak) in SCOPE_CUR.iter().zip(&SCOPE_PEAK) {
            let now = cur.load(Ordering::Relaxed).max(0) as u64;
            peak.store(now, Ordering::Relaxed);
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    /// Disabled stand-in: the table never exists.
    pub const MAX_SCOPES: usize = 0;

    /// Returns an inert guard (instrumentation disabled).
    #[inline(always)]
    pub fn alloc_scope(_name: &'static str) -> AllocScope {
        AllocScope
    }

    /// Disabled stand-in for the live `AllocScope` (drop does nothing).
    #[must_use = "the scope closes when the guard drops"]
    pub struct AllocScope;

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn on_alloc(_size: usize) {}

    /// Does nothing (instrumentation disabled).
    #[inline(always)]
    pub fn on_dealloc(_size: usize) {}

    /// Always false (instrumentation disabled).
    #[inline(always)]
    pub fn tracking_active() -> bool {
        false
    }

    /// Always `None` (instrumentation disabled).
    #[inline(always)]
    pub fn rss_bytes() -> Option<(u64, u64)> {
        None
    }
}

pub use imp::{
    alloc_scope, on_alloc, on_dealloc, rss_bytes, tracking_active, AllocScope, MAX_SCOPES,
};

#[cfg(feature = "enabled")]
pub(crate) use imp::{reset_peaks, snapshot_into};
