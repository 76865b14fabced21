//! A fixed-frame buffer pool with LRU-K replacement and RAII page pins.
//!
//! The ROADMAP's out-of-core item: mining passes over datasets larger
//! than RAM must go through a **bounded** set of decoded-page frames, so
//! that the paper's page-oriented cost model ("all CPU and I/O costs")
//! is reproduced under a real memory budget instead of an unbounded
//! cache. [`BufferPoolManager`] owns the frame arena; [`DiskStore`]
//! (`crate::disk`) routes every page request through it and hands out
//! [`PageGuard`]s — RAII pins that keep a frame resident for exactly as
//! long as a counting pass is looking at it.
//!
//! # Frames and pins
//!
//! A frame holds one decoded page as a [`FlatPage`] (every transaction's
//! items in one vector plus one end offset per transaction) behind an
//! `Arc`, so admitting a page costs the `Arc` and the page's two vectors
//! however many transactions it carries. A guard is a clone of that
//! `Arc`, and the pin count *is* its strong count: a frame is pinned iff
//! `Arc::strong_count(&data) > 1`, and dropping a guard unpins with no
//! bookkeeping of its own. Guards are only created under `&mut` pool
//! access, so a count read by the pool can only be stale downwards — a
//! concurrently dropped guard at worst keeps its frame pinned one more
//! eviction. Pages are immutable once admitted, so a frame holds exactly
//! one `Arc` and the budget of `capacity` frames bounds every decoded page
//! the pool keeps alive on its own.
//!
//! # Replacement policy
//!
//! LRU-K with K = 2: the victim is the unpinned frame with the largest
//! backward K-distance. Frames touched fewer than K times have infinite
//! backward distance and are evicted first (oldest access first among
//! them); among frames with ≥ K accesses the one whose *second*-most-
//! recent access is oldest loses. This keeps the pages a level-wise
//! miner re-reads every pass resident while one-touch scans drain
//! through a single frame — exactly the scan-resistance classic LRU
//! lacks.
//!
//! The pool keeps every frame's `(class, stamp, frame)` key in an
//! ordered set, updated on each access, so choosing a victim is a walk
//! from the front to the first unpinned frame — O(log frames) plus the
//! pinned frames skipped — instead of a scan of the whole arena. Each
//! stamp is a distinct tick of the pool's access clock, so the order
//! has no ties and the victim is the minimum key among unpinned frames.
//!
//! [`DiskStore`]: crate::disk::DiskStore

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::ops::Deref;
use std::sync::Arc;

use crate::disk::FlatPage;
use crate::item::Itemset;

/// Page requests served from a resident frame, all pools combined.
static POOL_HITS: ossm_obs::Counter = ossm_obs::Counter::new("data.pool.hits");
/// Page requests that had to load from disk, all pools combined.
static POOL_MISSES: ossm_obs::Counter = ossm_obs::Counter::new("data.pool.misses");
/// Frames evicted to make room, all pools combined.
static POOL_EVICTIONS: ossm_obs::Counter = ossm_obs::Counter::new("data.pool.evictions");
/// Page guards handed out (pin operations), all pools combined.
static POOL_PINS: ossm_obs::Counter = ossm_obs::Counter::new("data.pool.pins");
/// Page faults skipped outright by an OSSM page-level bound.
static POOL_SKIPPED_PAGES: ossm_obs::Counter = ossm_obs::Counter::new("data.pool.skipped_pages");
/// Bytes of I/O avoided by those skipped faults.
static POOL_SKIPPED_BYTES: ossm_obs::Counter = ossm_obs::Counter::new("data.pool.skipped_bytes");
/// Bytes charged to resident frame arenas, all pools combined.
static MEM_POOL: ossm_obs::Gauge = ossm_obs::Gauge::new("mem.data.pool");

/// Number of accesses LRU-K looks back (the classic K = 2).
const LRU_K: u64 = 2;

// ENTRYPOINT: I/O-avoidance accounting called from every out-of-core
// counting pass; runs on the hot mining path.
/// Records that a counting pass skipped a page fault entirely because a
/// page-level OSSM bound proved the page irrelevant. `bytes` is the
/// physical slot size the skip avoided reading.
pub fn record_page_skip(bytes: u64) {
    POOL_SKIPPED_PAGES.incr();
    POOL_SKIPPED_BYTES.add(bytes);
}

/// Per-pool counters, mirroring the global `data.pool.*` series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a resident frame.
    pub hits: u64,
    /// Requests that loaded from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Guards handed out (each guard is one pin).
    pub pins: u64,
}

/// An RAII pin on a decoded page. The frame cannot be evicted while any
/// guard on it is alive; dropping the guard unpins it. The guard derefs
/// to the page's [`FlatPage`], so counting passes iterate its
/// transactions in place — no copy out of the pool.
#[derive(Debug)]
pub struct PageGuard {
    data: Arc<FlatPage>,
    page: u64,
}

impl PageGuard {
    // ENTRYPOINT: public pool API — reached by every out-of-core pass.
    /// The page index this guard pins.
    pub fn page(&self) -> u64 {
        self.page
    }

    // ENTRYPOINT: public pool API — reached by every out-of-core pass.
    /// The pinned page's transactions.
    pub fn transactions(&self) -> &FlatPage {
        &self.data
    }

    // ENTRYPOINT: compatibility shim for callers that still need an
    // owned copy (`DiskStore::read_page`).
    /// Copies the page's transactions out of the pool.
    pub fn to_vec(&self) -> Vec<Itemset> {
        self.data.to_itemsets()
    }
}

impl Deref for PageGuard {
    type Target = FlatPage;
    fn deref(&self) -> &FlatPage {
        &self.data
    }
}

/// Guards outstanding on a frame's page: every clone of its `Arc`
/// beyond the frame's own.
fn guards_on(data: &Arc<FlatPage>) -> usize {
    Arc::strong_count(data) - 1
}

/// One frame of the arena: a decoded page plus replacement bookkeeping.
struct Frame {
    page: u64,
    /// The page; every clone beyond this one is a [`PageGuard`].
    data: Arc<FlatPage>,
    /// Bytes this frame charges against the arena budget.
    bytes: u64,
    /// Most recent access stamp.
    recent: u64,
    /// Second-most-recent access stamp (the K = 2 history tail).
    prev: u64,
    /// Total accesses, for the < K infinite-distance class.
    accesses: u64,
}

impl Frame {
    fn new(page: u64, data: FlatPage, bytes: u64, clock: u64) -> Self {
        Frame {
            page,
            data: Arc::new(data),
            bytes,
            recent: clock,
            prev: 0,
            accesses: 1,
        }
    }

    /// LRU-K victim ordering key: class 0 (fewer than K accesses,
    /// infinite backward distance) always loses to class 1, ties by
    /// oldest relevant stamp.
    fn victim_key(&self) -> (u8, u64) {
        if self.accesses < LRU_K {
            (0, self.recent)
        } else {
            (1, self.prev)
        }
    }

    fn touch(&mut self, clock: u64) {
        self.prev = self.recent;
        self.recent = clock;
        self.accesses += 1;
    }

    fn guard(&self) -> PageGuard {
        POOL_PINS.incr();
        PageGuard {
            data: Arc::clone(&self.data),
            page: self.page,
        }
    }
}

/// A fixed-frame-arena buffer pool: at most `capacity` decoded pages are
/// resident at once, replaced LRU-K, with pinned frames never evicted.
/// See the module docs for the full discipline.
pub struct BufferPoolManager {
    capacity: usize,
    frames: Vec<Frame>,
    /// page id → index into `frames`.
    table: HashMap<u64, usize>,
    /// Every frame's `(class, stamp, index into frames)`, in eviction
    /// order: the first unpinned entry is the LRU-K victim.
    victims: BTreeSet<(u8, u64, usize)>,
    clock: u64,
    stats: PoolStats,
    /// Bytes currently charged to the `mem.data.pool` gauge.
    charged: u64,
}

impl BufferPoolManager {
    // ENTRYPOINT: public pool API — constructed by every DiskStore open.
    /// A pool of at most `capacity` frames (clamped to at least one;
    /// pass [`usize::MAX`] for an unbounded pool).
    pub fn new(capacity: usize) -> Self {
        BufferPoolManager {
            capacity: capacity.max(1),
            frames: Vec::new(),
            table: HashMap::new(),
            victims: BTreeSet::new(),
            clock: 0,
            stats: PoolStats::default(),
            charged: 0,
        }
    }

    /// Frame budget this pool was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently resident.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Per-pool counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Bytes currently charged against the frame-arena budget.
    pub fn charged_bytes(&self) -> u64 {
        self.charged
    }

    /// Outstanding pin count of `page` (0 when absent).
    pub fn pin_count(&self, page: u64) -> u32 {
        self.table
            .get(&page)
            .and_then(|&idx| self.frames.get(idx))
            .map_or(0, |f| u32::try_from(guards_on(&f.data)).unwrap_or(u32::MAX))
    }

    // ENTRYPOINT: public pool API — the hot hit path of every page
    // request an out-of-core miner makes.
    /// Returns a pinned guard on `page` if it is resident, bumping its
    /// LRU-K history. `None` is a miss: load the page and [`admit`] it.
    ///
    /// [`admit`]: BufferPoolManager::admit
    pub fn get(&mut self, page: u64) -> Option<PageGuard> {
        let idx = *self.table.get(&page)?;
        self.clock += 1;
        let guard = self.touch(idx)?;
        self.stats.hits += 1;
        self.stats.pins += 1;
        POOL_HITS.incr();
        Some(guard)
    }

    /// Records an access to frame `idx`, re-keying it in the victim
    /// order, and pins it.
    fn touch(&mut self, idx: usize) -> Option<PageGuard> {
        let frame = self.frames.get_mut(idx)?;
        let (class, stamp) = frame.victim_key();
        self.victims.remove(&(class, stamp, idx));
        frame.touch(self.clock);
        let (class, stamp) = frame.victim_key();
        self.victims.insert((class, stamp, idx));
        Some(frame.guard())
    }

    // ENTRYPOINT: public pool API — the miss path; owns eviction.
    /// Admits a freshly loaded page and returns a pinned guard on it.
    /// `bytes` is what the frame charges against the arena budget.
    ///
    /// When the pool is full, the LRU-K victim among unpinned frames is
    /// evicted. With every frame pinned the admit fails and the page is
    /// not admitted.
    pub fn admit(&mut self, page: u64, data: FlatPage, bytes: u64) -> io::Result<PageGuard> {
        self.clock += 1;
        self.stats.misses += 1;
        POOL_MISSES.incr();
        if let Some(&idx) = self.table.get(&page) {
            // Defensive: the caller raced its own miss (admit of an
            // already-resident page). Serve the resident frame.
            if let Some(guard) = self.touch(idx) {
                self.stats.pins += 1;
                return Ok(guard);
            }
        }
        let frame = Frame::new(page, data, bytes, self.clock);
        let (class, stamp) = frame.victim_key();
        if self.frames.len() < self.capacity {
            let idx = self.frames.len();
            self.stats.pins += 1;
            let guard = frame.guard();
            self.table.insert(page, idx);
            self.victims.insert((class, stamp, idx));
            self.frames.push(frame);
            self.charge(bytes);
            return Ok(guard);
        }
        let frames = &self.frames;
        let victim = self
            .victims
            .iter()
            .find(|&&(_, _, idx)| frames.get(idx).is_some_and(|f| guards_on(&f.data) == 0))
            .copied();
        let Some(key @ (_, _, idx)) = victim else {
            return Err(io::Error::other(
                "buffer pool exhausted: every frame is pinned",
            ));
        };
        let Some(victim) = self.frames.get_mut(idx) else {
            return Err(io::Error::other("buffer pool lost its victim frame"));
        };
        self.stats.evictions += 1;
        POOL_EVICTIONS.incr();
        ossm_obs::recorder::record_event(
            "data.pool.evictions",
            ossm_obs::recorder::EventKind::Counter,
            victim.page,
        );
        let freed = victim.bytes;
        self.table.remove(&victim.page);
        self.victims.remove(&key);
        *victim = frame;
        self.stats.pins += 1;
        let guard = victim.guard();
        self.table.insert(page, idx);
        self.victims.insert((class, stamp, idx));
        self.discharge(freed);
        self.charge(bytes);
        Ok(guard)
    }

    fn charge(&mut self, bytes: u64) {
        self.charged += bytes;
        MEM_POOL.add(bytes);
    }

    fn discharge(&mut self, bytes: u64) {
        self.charged = self.charged.saturating_sub(bytes);
        MEM_POOL.sub(bytes);
    }
}

impl Drop for BufferPoolManager {
    fn drop(&mut self) {
        MEM_POOL.sub(self.charged);
        self.charged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;

    fn page(id: u32) -> FlatPage {
        let mut p = FlatPage::default();
        assert!(p.push(&[ItemId(id)]));
        p
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let mut pool = BufferPoolManager::new(2);
        assert!(pool.get(0).is_none(), "cold pool misses");
        drop(pool.admit(0, page(0), 100).expect("admit"));
        assert!(pool.get(0).is_some(), "resident page hits");
        drop(pool.admit(1, page(1), 100).expect("admit"));
        drop(pool.admit(2, page(2), 100).expect("admit"));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.charged_bytes(), 200, "evicted frame was discharged");
    }

    #[test]
    fn lru_k_prefers_single_touch_victims() {
        let mut pool = BufferPoolManager::new(3);
        // Pages 0 and 1 get two accesses each; page 2 only one.
        drop(pool.admit(0, page(0), 10).expect("admit"));
        drop(pool.admit(1, page(1), 10).expect("admit"));
        drop(pool.get(0).expect("hit"));
        drop(pool.get(1).expect("hit"));
        drop(pool.admit(2, page(2), 10).expect("admit"));
        // Page 2 has the most recent *single* access, but its backward
        // K-distance is infinite: it must be the victim, not page 0.
        drop(pool.admit(3, page(3), 10).expect("admit"));
        assert!(pool.get(0).is_some(), "K-history kept page 0");
        assert!(pool.get(1).is_some(), "K-history kept page 1");
        assert!(pool.get(2).is_none(), "single-touch page 2 was evicted");
    }

    #[test]
    fn lru_k_breaks_full_history_ties_by_penultimate_access() {
        let mut pool = BufferPoolManager::new(2);
        // Access order: 0, 1, 0, 1 — page 0's second-most-recent access
        // (its admit) is older than page 1's, so page 0 is the victim
        // even though their most-recent accesses interleave.
        drop(pool.admit(0, page(0), 10).expect("admit"));
        drop(pool.admit(1, page(1), 10).expect("admit"));
        drop(pool.get(0).expect("hit"));
        drop(pool.get(1).expect("hit"));
        drop(pool.admit(2, page(2), 10).expect("admit"));
        assert!(pool.get(0).is_none(), "page 0 had the oldest K-distance");
        assert!(pool.get(1).is_some());
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let mut pool = BufferPoolManager::new(2);
        let guard0 = pool.admit(0, page(0), 10).expect("admit");
        drop(pool.admit(1, page(1), 10).expect("admit"));
        // Page 0 is pinned: the victim must be page 1 despite page 0
        // being the LRU-K choice.
        drop(pool.admit(2, page(2), 10).expect("admit"));
        assert_eq!(guard0.transactions(), &page(0), "snapshot intact");
        assert!(pool.get(0).is_some(), "pinned page survived");
        assert!(pool.get(1).is_none(), "unpinned page was the victim");
        drop(guard0);
    }

    #[test]
    fn all_frames_pinned_fails_the_admit() {
        let mut pool = BufferPoolManager::new(1);
        let guard = pool.admit(0, page(0), 10).expect("admit");
        let err = pool.admit(1, page(1), 10).expect_err("no unpinned victim");
        assert!(err.to_string().contains("pinned"), "{err}");
        drop(guard);
        // Dropping the guard unpins; the admit now succeeds.
        drop(pool.admit(1, page(1), 10).expect("admit"));
        assert!(pool.get(1).is_some());
    }

    #[test]
    fn guard_drop_unpins() {
        let mut pool = BufferPoolManager::new(1);
        let g1 = pool.admit(0, page(0), 10).expect("admit");
        let g2 = pool.get(0).expect("hit");
        assert_eq!(pool.pin_count(0), 2);
        drop(g1);
        assert_eq!(pool.pin_count(0), 1);
        drop(g2);
        assert_eq!(pool.pin_count(0), 0);
        assert_eq!(pool.stats().pins, 2);
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let mut pool = BufferPoolManager::new(usize::MAX);
        for p in 0..64u64 {
            drop(pool.admit(p, page(p as u32), 10).expect("admit"));
        }
        assert_eq!(pool.resident(), 64);
        assert_eq!(pool.stats().evictions, 0);
    }

    /// A brute-force copy of the pool as it was before the ordered
    /// victim index: an explicit pin counter per frame and a `min_by_key`
    /// scan over every frame to pick the victim.
    mod model {
        use super::LRU_K;
        use std::collections::HashMap;

        pub struct Frame {
            pub page: u64,
            pub pins: u32,
            pub bytes: u64,
            recent: u64,
            prev: u64,
            accesses: u64,
        }

        impl Frame {
            fn key(&self) -> (u8, u64) {
                if self.accesses < LRU_K {
                    (0, self.recent)
                } else {
                    (1, self.prev)
                }
            }

            fn touch(&mut self, clock: u64) {
                self.prev = self.recent;
                self.recent = clock;
                self.accesses += 1;
            }
        }

        /// What an admit did: a guard on frame `idx`, or an error message.
        pub type Outcome = Result<usize, String>;

        #[derive(Default)]
        pub struct Pool {
            pub capacity: usize,
            pub frames: Vec<Frame>,
            pub table: HashMap<u64, usize>,
            clock: u64,
            pub stats: super::PoolStats,
            pub charged: u64,
        }

        impl Pool {
            pub fn new(capacity: usize) -> Self {
                Pool {
                    capacity,
                    ..Pool::default()
                }
            }

            fn pin(&mut self, idx: usize) -> usize {
                self.frames[idx].pins += 1;
                self.stats.pins += 1;
                idx
            }

            pub fn get(&mut self, page: u64) -> Option<usize> {
                let idx = *self.table.get(&page)?;
                self.clock += 1;
                self.frames[idx].touch(self.clock);
                self.stats.hits += 1;
                Some(self.pin(idx))
            }

            pub fn admit(&mut self, page: u64, bytes: u64) -> Outcome {
                self.clock += 1;
                self.stats.misses += 1;
                if let Some(&idx) = self.table.get(&page) {
                    self.frames[idx].touch(self.clock);
                    return Ok(self.pin(idx));
                }
                let frame = Frame {
                    page,
                    pins: 0,
                    bytes,
                    recent: self.clock,
                    prev: 0,
                    accesses: 1,
                };
                if self.frames.len() < self.capacity {
                    self.table.insert(page, self.frames.len());
                    self.frames.push(frame);
                    self.charged += bytes;
                    return Ok(self.pin(self.frames.len() - 1));
                }
                let idx = self
                    .frames
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.pins == 0)
                    .min_by_key(|(_, f)| f.key())
                    .map(|(idx, _)| idx)
                    .ok_or_else(|| "buffer pool exhausted: every frame is pinned".to_owned())?;
                let victim = &mut self.frames[idx];
                self.stats.evictions += 1;
                self.charged -= victim.bytes;
                self.table.remove(&victim.page);
                *victim = frame;
                self.table.insert(page, idx);
                self.charged += bytes;
                Ok(self.pin(idx))
            }
        }
    }

    #[test]
    fn random_traces_match_the_linear_victim_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const PAGES: u64 = 12;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..=6usize);
            let mut pool = BufferPoolManager::new(capacity);
            let mut oracle = model::Pool::new(capacity);
            // Held guards, each beside the model's frame index.
            let mut held: Vec<(PageGuard, usize)> = Vec::new();
            for step in 0..400 {
                let at = format!("seed {seed}, step {step}");
                let page = rng.gen_range(0..PAGES);
                let got = match rng.gen_range(0..8u32) {
                    0..=2 => {
                        let real = pool.get(page);
                        let want = oracle.get(page);
                        assert_eq!(real.is_some(), want.is_some(), "{at}: get hit");
                        real.zip(want).map(Ok)
                    }
                    3..=5 => {
                        let bytes = rng.gen_range(1..100u64);
                        let real = pool.admit(page, self::page(page as u32), bytes);
                        let want = oracle.admit(page, bytes);
                        match (real, want) {
                            (Ok(g), Ok(w)) => Some(Ok((g, w))),
                            (Err(e), Err(w)) => Some(Err((e.to_string(), w))),
                            (real, want) => panic!("{at}: admit {real:?} vs {want:?}"),
                        }
                    }
                    _ => {
                        if !held.is_empty() {
                            let (guard, idx) = held.swap_remove(rng.gen_range(0..held.len()));
                            oracle.frames[idx].pins -= 1;
                            drop(guard);
                        }
                        None
                    }
                };
                match got {
                    Some(Ok((guard, idx))) => {
                        assert_eq!(guard.page(), page, "{at}: guard page");
                        assert_eq!(
                            guard.transactions(),
                            &self::page(page as u32),
                            "{at}: guard contents"
                        );
                        if rng.gen_bool(0.3) {
                            held.push((guard, idx));
                        } else {
                            oracle.frames[idx].pins -= 1;
                        }
                    }
                    Some(Err((real, want))) => assert_eq!(real, want, "{at}: error"),
                    None => {}
                }
                assert_eq!(pool.stats(), oracle.stats, "{at}: stats");
                assert_eq!(pool.charged_bytes(), oracle.charged, "{at}: charged bytes");
                let mut resident: Vec<u64> = pool.table.keys().copied().collect();
                let mut want: Vec<u64> = oracle.table.keys().copied().collect();
                resident.sort_unstable();
                want.sort_unstable();
                assert_eq!(resident, want, "{at}: resident pages (the victims)");
                for p in 0..PAGES {
                    let f = oracle.table.get(&p).map(|&i| &oracle.frames[i]);
                    assert_eq!(
                        pool.pin_count(p),
                        f.map_or(0, |f| f.pins),
                        "{at}: pins of {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn page_skips_count_globally() {
        let before = (POOL_SKIPPED_PAGES.get(), POOL_SKIPPED_BYTES.get());
        record_page_skip(4100);
        if ossm_obs::ENABLED {
            assert_eq!(POOL_SKIPPED_PAGES.get(), before.0 + 1);
            assert_eq!(POOL_SKIPPED_BYTES.get(), before.1 + 4100);
        }
    }
}
