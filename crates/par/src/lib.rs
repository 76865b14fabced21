//! # ossm-par — scoped fork-join parallelism for the OSSM reproduction
//!
//! A deliberately small data-parallel layer built on [`std::thread::scope`]:
//! no external dependencies, no `unsafe`, no long-lived pool. Work is
//! expressed as a *chunked map over an index range* — the caller hands over
//! `0..len` plus a closure over sub-ranges, and gets the per-chunk results
//! back **in chunk order** ([`map_chunks`]). Work that is uneven per
//! index, or that writes into the caller's buffers, is cut into parts by
//! the caller — each part a range plus what it owns, such as its `&mut`
//! slice — and mapped the same way ([`map_parts`]). Every consumer in the
//! workspace combines those partial results with an associative merge
//! (element-wise sums of count vectors, ordered concatenation, tuple-`min`
//! reductions), so the final value is bit-identical at any thread count —
//! the property the determinism tests pin at threads ∈ {1, 2, 8}.
//!
//! Thread-count resolution, in precedence order:
//!
//! 1. the programmatic override ([`set_threads`], wired to the CLI's
//!    `--threads N`),
//! 2. the `OSSM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! With one thread (or one chunk) the map runs inline on the caller's
//! thread — no spawn, no overhead — so serial builds pay nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Fork-join jobs that actually spawned worker threads.
static JOBS: ossm_obs::Counter = ossm_obs::Counter::new("par.jobs");
/// Chunks executed by fork-join jobs, the one on the calling thread
/// included.
static CHUNKS: ossm_obs::Counter = ossm_obs::Counter::new("par.chunks");
/// Maps that ran inline (one thread configured or only one chunk of work).
static SERIAL: ossm_obs::Counter = ossm_obs::Counter::new("par.serial");

/// Upper bound on the configured thread count; a typo like
/// `OSSM_THREADS=1000000` must not try to spawn a million threads.
const MAX_THREADS: usize = 256;

/// Process-wide thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-wide thread-count override.
/// Takes precedence over `OSSM_THREADS` and the detected CPU count; values
/// are clamped to `1..=256`.
pub fn set_threads(threads: Option<usize>) {
    let v = threads.map_or(0, |t| t.clamp(1, MAX_THREADS));
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// The number of worker threads fork-join maps may use right now.
pub fn thread_count() -> usize {
    let over = OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// `OSSM_THREADS`, parsed once per process. Unset, unparsable, or zero
/// values all mean "no preference".
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("OSSM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .map(|n| n.min(MAX_THREADS))
    })
}

/// Splits `0..len` into at most `max_chunks` contiguous, balanced ranges of
/// at least `min_chunk` elements each (except that a non-empty `len` always
/// yields at least one range). The partition depends only on `len`,
/// `min_chunk`, and `max_chunks` — never on scheduling.
pub fn chunk_ranges(len: usize, min_chunk: usize, max_chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let n = (len / min_chunk).clamp(1, max_chunks.max(1));
    let base = len / n;
    let rem = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Applies `f` to balanced chunks of `0..len` and returns the per-chunk
/// results **in chunk order**.
///
/// When more than one thread is configured and the range splits into more
/// than one chunk of at least `min_chunk` elements, every chunk but the
/// last runs on a scoped worker thread and the last runs on the calling
/// thread; otherwise the whole map runs inline. Combining the
/// returned vector with any associative merge yields a value independent of
/// the thread count.
pub fn map_chunks<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let parts = chunk_ranges(len, min_chunk, thread_count())
        .into_iter()
        .map(|r| (r, ()))
        .collect();
    map_parts(parts, |r, ()| f(r))
}

/// [`map_chunks`] over parts the caller cut: each part is a range of the
/// job's index space together with what the part owns — say its `&mut`
/// slice of an output — and `f(range, owned)` runs once per part. Returns
/// the results **in part order**. A caller sizes its parts from
/// [`thread_count`] when the work per index is uneven (a triangle's rows
/// shrink), so the parts balance work rather than indices.
///
/// With one thread configured or at most one part, every part runs inline
/// in order; otherwise every part but the last runs on a scoped worker
/// thread and the last on the calling thread.
pub fn map_parts<P, T, F>(parts: Vec<(Range<usize>, P)>, f: F) -> Vec<T>
where
    P: Send,
    T: Send,
    F: Fn(Range<usize>, P) -> T + Sync,
{
    if parts.len() <= 1 || thread_count() <= 1 {
        SERIAL.incr();
        return parts.into_iter().map(|(r, p)| f(r, p)).collect();
    }
    let mut parts = parts;
    JOBS.incr();
    CHUNKS.add(parts.len() as u64);
    let (last, owned) = parts.pop().expect("more than one part");
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = parts
            .into_iter()
            .map(|(r, p)| scope.spawn(move || run_chunk(f, r, p)))
            .collect();
        // The caller would only wait for the workers, so it runs the last
        // part itself: a job spawns one thread fewer than it has parts.
        let last = run_chunk(f, last, owned);
        // Joining in spawn order, then appending the caller's part, makes
        // the output order — and therefore any order-sensitive fold the
        // caller runs — deterministic.
        let mut out: Vec<T> = handles
            .into_iter()
            .map(|h| h.join().expect("ossm-par worker panicked"))
            .collect();
        out.push(last);
        out
    })
}

/// Runs one chunk of a fork-join job under its own `par.worker` span.
fn run_chunk<P, T>(f: impl Fn(Range<usize>, P) -> T, r: Range<usize>, owned: P) -> T {
    // A worker lane in the trace: on a spawned thread this is the root of
    // its fresh thread-local span stack; on the caller it nests under the
    // caller's open span.
    let mut lane = ossm_obs::detail_span("par.worker");
    lane.attach("chunk_start", r.start as u64);
    lane.attach("chunk_len", r.len() as u64);
    // Per-worker event lane in the flight recorder: each chunk stamps its
    // start, tagged with the running thread's id, so postmortems show
    // which threads ran.
    ossm_obs::recorder::record_event(
        "par.worker",
        ossm_obs::recorder::EventKind::Worker,
        r.start as u64,
    );
    f(r, owned)
}

/// Element-wise sum of equal-length partial count vectors, folded in chunk
/// order. The canonical merge for transaction-chunked counting.
pub fn sum_counts(partials: Vec<Vec<u64>>) -> Vec<u64> {
    let mut iter = partials.into_iter();
    let Some(mut total) = iter.next() else {
        return Vec::new();
    };
    for part in iter {
        debug_assert_eq!(total.len(), part.len());
        for (t, p) in total.iter_mut().zip(&part) {
            *t += p;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that mutate the process-wide override must not interleave.
    fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn chunk_ranges_partition_the_input() {
        for len in [0usize, 1, 7, 64, 100, 1000] {
            for min_chunk in [1usize, 10, 64] {
                for max_chunks in [1usize, 2, 3, 8] {
                    let ranges = chunk_ranges(len, min_chunk, max_chunks);
                    assert!(ranges.len() <= max_chunks);
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next, "contiguous");
                        assert!(!r.is_empty(), "no empty chunks");
                        next = r.end;
                    }
                    assert_eq!(next, len, "covers 0..len");
                    if len > 0 && ranges.len() > 1 {
                        assert!(ranges.iter().all(|r| r.len() >= min_chunk.min(len)));
                    }
                }
            }
        }
    }

    #[test]
    fn map_chunks_results_are_ordered_and_thread_count_independent() {
        let _guard = override_lock();
        let data: Vec<u64> = (0..997).map(|i| i * 3 + 1).collect();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            set_threads(Some(threads));
            let partials = map_chunks(data.len(), 10, |r| data[r].iter().sum::<u64>());
            runs.push(partials.iter().sum::<u64>());
            // Chunk order must match index order.
            let firsts = map_chunks(data.len(), 10, |r| r.start);
            assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        }
        set_threads(None);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        assert_eq!(runs[0], data.iter().sum::<u64>());
    }

    #[test]
    fn one_thread_runs_inline() {
        let _guard = override_lock();
        set_threads(Some(1));
        let caller = std::thread::current().id();
        let ids = map_chunks(100, 1, |_| std::thread::current().id());
        set_threads(None);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn the_caller_runs_the_last_chunk_of_a_job() {
        let _guard = override_lock();
        set_threads(Some(2));
        let caller = std::thread::current().id();
        let runs = map_chunks(100, 1, |r| (r.start, std::thread::current().id()));
        set_threads(None);
        assert_eq!(runs.len(), 2);
        assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "chunk order");
        let on_caller: Vec<bool> = runs.iter().map(|&(_, id)| id == caller).collect();
        assert_eq!(on_caller, [false, true]);
    }

    #[test]
    fn map_parts_hand_each_part_its_own_slice_in_order() {
        let _guard = override_lock();
        for threads in [1usize, 2, 8] {
            set_threads(Some(threads));
            let mut out = vec![0u64; 10];
            let (head, tail) = out.split_at_mut(3);
            let parts = vec![(0..3, head), (3..10, tail)];
            let lens = map_parts(parts, |r, slice| {
                for (o, i) in slice.iter_mut().zip(r.clone()) {
                    *o = i as u64 * 2;
                }
                r.len()
            });
            assert_eq!(lens, [3, 7], "{threads} threads");
            assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<u64>>());
        }
        set_threads(None);
        assert_eq!(
            map_parts(Vec::<(Range<usize>, ())>::new(), |r, ()| r.len()),
            []
        );
    }

    #[test]
    fn override_is_clamped_and_clearable() {
        let _guard = override_lock();
        set_threads(Some(0));
        assert_eq!(thread_count(), 1);
        set_threads(Some(1_000_000));
        assert_eq!(thread_count(), 256);
        set_threads(None);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn sum_counts_merges_elementwise() {
        assert_eq!(sum_counts(Vec::new()), Vec::<u64>::new());
        assert_eq!(
            sum_counts(vec![vec![1, 2, 3], vec![10, 0, 5], vec![0, 1, 0]]),
            vec![11, 3, 8]
        );
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert_eq!(map_chunks(0, 16, |r| r.len()), Vec::<usize>::new());
    }
}
