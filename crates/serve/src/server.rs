//! The serving process: accept loop, per-connection handlers, and the
//! group-commit thread.
//!
//! # Threads
//!
//! * **accept** — blocks on `TcpListener::accept`, spawns one handler
//!   thread per connection, survives transient accept errors (counted on
//!   `srv.conn.accept_errors`, retried after a short backoff).
//! * **connection handlers** — parse frames, answer reads directly from
//!   the published snapshot (never touching the committer), and submit
//!   ingest jobs to the bounded queue.
//! * **committer** — owns the [`DurableIncrementalOssm`]; drains the
//!   queue in groups, stages every record in the WAL, makes the whole
//!   group durable with **one** fsync, and only then acknowledges each
//!   job (ack = durable). It also publishes fresh snapshots and takes
//!   periodic checkpoints.
//!
//! # Admission control and degradation
//!
//! The ingest queue is a `sync_channel` of fixed depth: when it is full,
//! handlers answer `Overloaded` immediately (`srv.shed.overload`)
//! instead of queueing unbounded work. When the backlog passes half the
//! queue, the committer skips snapshot publication (re-segmentation is
//! the sheddable work); reads then serve the *stale* snapshot, widened
//! by the acked-transaction lag so they stay sound — see
//! `stale_widened_bound`. A poisoned WAL (failed fsync) degrades the
//! server to read-only: ingests fail with `Internal`, reads keep
//! working.

use std::io::{self, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ossm_core::{Aggregate, DurableIncrementalOssm, LossCalculator, Ossm};
use ossm_data::{ItemId, Itemset};

use crate::protocol::{self, Bound, ErrorCode, Request, Response, Stats};

/// Wall-clock latency of served `ub(X)` queries.
static REQ_UB_LATENCY: ossm_obs::Latency = ossm_obs::Latency::new("req.ub.latency");
/// Ingest jobs currently waiting for the committer.
static QUEUE_DEPTH: ossm_obs::Gauge = ossm_obs::Gauge::new("srv.queue.depth");
/// Requests per fsync group (the group-commit amortization factor).
static INGEST_BATCH_SIZE: ossm_obs::Histogram = ossm_obs::Histogram::new("srv.ingest.batch_size");
/// Ingests rejected because the admission queue was full.
static SHED_OVERLOAD: ossm_obs::Counter = ossm_obs::Counter::new("srv.shed.overload");
/// Reads served from a stale snapshot (lag-widened to stay sound).
static SHED_STALE_READS: ossm_obs::Counter = ossm_obs::Counter::new("srv.shed.stale_reads");
/// Ingests dropped because their deadline expired before commit.
static DEADLINE_EXCEEDED: ossm_obs::Counter = ossm_obs::Counter::new("srv.req.deadline_exceeded");
/// Connections accepted.
static CONN_ACCEPTED: ossm_obs::Counter = ossm_obs::Counter::new("srv.conn.accepted");
/// Transient accept-loop errors survived (EMFILE and friends).
static ACCEPT_ERRORS: ossm_obs::Counter = ossm_obs::Counter::new("srv.conn.accept_errors");
/// Duplicate batch ids acknowledged without re-applying (idempotency).
static INGEST_DUP: ossm_obs::Counter = ossm_obs::Counter::new("srv.ingest.dup");
/// Group-commit fsyncs performed.
static COMMIT_FSYNCS: ossm_obs::Counter = ossm_obs::Counter::new("srv.commit.fsyncs");

/// How a server instance is configured.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Directory for the snapshot, WAL, and batch-id sidecar.
    pub dir: PathBuf,
    /// Item-domain size; must match across opens of the same directory.
    pub num_items: usize,
    /// Segment budget for the incremental map.
    pub max_segments: usize,
    /// Admission-control queue depth; a full queue answers `Overloaded`.
    pub queue_depth: usize,
    /// Max ingest requests committed under one fsync.
    pub group_max: usize,
    /// Checkpoint (snapshot + WAL reset) every this many commit groups.
    pub checkpoint_every_groups: u64,
    /// Per-connection socket read/write timeout; a stalled (slow-loris)
    /// peer is disconnected after this long without progress.
    pub io_timeout: Duration,
}

impl ServeConfig {
    /// A config with serving defaults.
    pub fn new(addr: impl Into<String>, dir: impl Into<PathBuf>, num_items: usize) -> Self {
        ServeConfig {
            addr: addr.into(),
            dir: dir.into(),
            num_items,
            max_segments: 16,
            queue_depth: 64,
            group_max: 32,
            checkpoint_every_groups: 64,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// The immutable snapshot readers serve from, swapped atomically (via a
/// nanosecond-held mutex around an `Arc`) by the committer. Readers
/// clone the `Arc` and never block on re-segmentation or commits.
struct Published {
    /// `None` until the first aggregate exists.
    ossm: Option<Ossm>,
    /// Map epoch at publication.
    epoch: u64,
    /// Transactions the snapshot accounts for.
    transactions: u64,
    /// When it was published.
    at: Instant,
}

/// One admitted ingest awaiting its group commit.
struct IngestJob {
    batch_id: u64,
    deadline: Option<Instant>,
    aggregate: Aggregate,
    transactions: u64,
    reply: SyncSender<IngestReply>,
}

enum IngestReply {
    Acked { duplicate: bool },
    DeadlineExceeded,
    Failed(String),
}

/// State shared by every thread of one server instance.
struct Shared {
    stop: AtomicBool,
    published: Mutex<Arc<Published>>,
    ingest: SyncSender<IngestJob>,
    acked_batches: AtomicU64,
    /// Transactions durable in the map: recovered at open + acked since.
    acked_transactions: AtomicU64,
    epoch: AtomicU64,
    segments: AtomicU64,
    read_only: AtomicBool,
    queue_len: AtomicU64,
    queue_cap: usize,
    num_items: usize,
    io_timeout: Duration,
    started: Instant,
}

impl Shared {
    fn current(&self) -> Arc<Published> {
        Arc::clone(&lock(&self.published))
    }

    fn publish(&self, p: Published) {
        self.epoch.store(p.epoch, Ordering::Relaxed);
        *lock(&self.published) = Arc::new(p);
    }
}

/// Locks a mutex, riding through poisoning: every value behind these
/// mutexes is valid after any partial update (they hold only swapped
/// `Arc`s), and a reader must not die because a writer panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running server. Dropping the handle stops it (best effort); call
/// [`ServerHandle::stop`] to observe the final checkpoint's result.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    commit: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transactions currently durable (recovered + acked).
    pub fn acked_transactions(&self) -> u64 {
        self.shared.acked_transactions.load(Ordering::Relaxed)
    }

    /// Stops the server: drains admitted ingests, takes a final
    /// checkpoint, and returns its result.
    pub fn stop(mut self) -> io::Result<()> {
        self.begin_stop();
        match self.commit.take().map(JoinHandle::join) {
            Some(Ok(r)) => r,
            Some(Err(_)) => Err(io::Error::other("commit thread panicked")),
            None => Ok(()),
        }
    }

    fn begin_stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let unblock = SocketAddr::from((Ipv4Addr::LOCALHOST, self.addr.port()));
        drop(TcpStream::connect_timeout(
            &unblock,
            Duration::from_millis(500),
        ));
        if let Some(h) = self.accept.take() {
            drop(h.join());
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_none() && self.commit.is_none() {
            return; // already stopped explicitly
        }
        self.begin_stop();
        if let Some(h) = self.commit.take() {
            drop(h.join());
        }
    }
}

/// Opens (or recovers) the durable map in `config.dir` and starts
/// serving it. Returns once the listener is bound and recovery is
/// complete; serving continues on background threads.
pub fn serve(config: &ServeConfig) -> io::Result<(ServerHandle, ossm_core::RecoveryReport)> {
    let (map, recovery) = DurableIncrementalOssm::open(
        &config.dir,
        config.num_items,
        config.max_segments,
        LossCalculator::all_items(),
    )?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let (tx, rx) = std::sync::mpsc::sync_channel::<IngestJob>(config.queue_depth.max(1));
    let initial = initial_published(&map);
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        acked_transactions: AtomicU64::new(initial.transactions),
        epoch: AtomicU64::new(initial.epoch),
        segments: AtomicU64::new(initial.ossm.as_ref().map_or(0, |o| o.num_segments() as u64)),
        published: Mutex::new(Arc::new(initial)),
        ingest: tx,
        acked_batches: AtomicU64::new(0),
        read_only: AtomicBool::new(false),
        queue_len: AtomicU64::new(0),
        queue_cap: config.queue_depth.max(1),
        num_items: config.num_items,
        io_timeout: config.io_timeout,
        started: Instant::now(),
    });
    let commit = {
        let shared = Arc::clone(&shared);
        let cfg = config.clone();
        std::thread::Builder::new()
            .name("ossm-serve-commit".into())
            .spawn(move || commit_loop(map, &rx, &shared, &cfg))?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("ossm-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    Ok((
        ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            commit: Some(commit),
        },
        recovery,
    ))
}

fn initial_published(map: &DurableIncrementalOssm) -> Published {
    let ossm = (map.num_segments() > 0).then(|| map.snapshot());
    Published {
        transactions: ossm.as_ref().map_or(0, Ossm::num_transactions),
        epoch: map.epoch(),
        at: Instant::now(),
        ossm,
    }
}

/// The accept loop. Transient accept errors (EMFILE, ECONNABORTED) must
/// not kill the serving thread: they are counted and retried after a
/// short backoff, mirroring the hardened `MetricsServer` loop.
// ENTRYPOINT: serve accept loop — a panic here kills the listener thread.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                CONN_ACCEPTED.incr();
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("ossm-serve-conn".into())
                    .spawn(move || handle_conn(stream, &shared));
                if spawned.is_err() {
                    // Out of threads: shed the connection, keep serving.
                    ACCEPT_ERRORS.incr();
                }
            }
            Err(_) => {
                ACCEPT_ERRORS.incr();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One connection: read a frame, answer it, repeat until the peer goes
/// away, times out, or desynchronizes the protocol. Every error is
/// per-connection — nothing here can stall another connection.
// ENTRYPOINT: per-connection request handler driven by untrusted input.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let run = || -> io::Result<()> {
        stream.set_read_timeout(Some(shared.io_timeout))?;
        stream.set_write_timeout(Some(shared.io_timeout))?;
        stream.set_nodelay(true)?;
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = io::BufWriter::new(stream);
        loop {
            let payload = match protocol::read_frame(&mut reader) {
                Ok(p) => p,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Corrupt framing: answer once, then close — the
                    // byte stream can no longer be trusted.
                    let resp = error_response(ErrorCode::Malformed, 0, &e.to_string());
                    protocol::write_frame(&mut writer, &resp.encode())?;
                    return Ok(());
                }
                // EOF, timeout (slow-loris), or mid-frame disconnect.
                Err(_) => return Ok(()),
            };
            let response = match Request::decode(&payload) {
                Ok(req) => handle_request(req, shared),
                Err(e) => error_response(ErrorCode::Malformed, 0, &e.to_string()),
            };
            protocol::write_frame(&mut writer, &response.encode())?;
            writer.flush()?;
        }
    };
    drop(run());
}

fn error_response(code: ErrorCode, retry_after_ms: u32, message: &str) -> Response {
    Response::Error {
        code,
        retry_after_ms,
        message: message.to_owned(),
    }
}

fn handle_request(req: Request, shared: &Arc<Shared>) -> Response {
    match req {
        Request::Ingest {
            batch_id,
            deadline_ms,
            transactions,
        } => handle_ingest(batch_id, deadline_ms, &transactions, shared),
        Request::UpperBound { items } => handle_upper_bound(&items, shared),
        Request::Mine {
            min_support,
            max_results,
        } => handle_mine(min_support, max_results, shared),
        Request::Stats => Response::Stats(stats(shared)),
    }
}

// INFALLIBLE: the supports vector is indexed only by items that passed
// the domain check at the top of the handler.
fn handle_ingest(
    batch_id: u64,
    deadline_ms: u32,
    transactions: &[Vec<u32>],
    shared: &Arc<Shared>,
) -> Response {
    for tx in transactions {
        for &item in tx {
            if item as usize >= shared.num_items {
                return error_response(
                    ErrorCode::Malformed,
                    0,
                    &format!("item {item} outside the domain of {}", shared.num_items),
                );
            }
        }
    }
    if shared.stop.load(Ordering::SeqCst) {
        return error_response(ErrorCode::ShuttingDown, 100, "server is draining");
    }
    if shared.read_only.load(Ordering::SeqCst) {
        return error_response(
            ErrorCode::Internal,
            0,
            "WAL is poisoned; server is read-only until restarted",
        );
    }
    // SOUND: exact aggregation — each transaction increments its items'
    // supports exactly once before the durable append.
    let mut supports = vec![0u64; shared.num_items];
    for tx in transactions {
        for &item in tx {
            supports[item as usize] += 1;
        }
    }
    let aggregate = Aggregate::new(supports, transactions.len() as u64);
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel::<IngestReply>(1);
    let job = IngestJob {
        batch_id,
        deadline,
        aggregate,
        transactions: transactions.len() as u64,
        reply: reply_tx,
    };
    // Counted *before* the send: the committer may drain (and uncount)
    // the job before this thread runs again, and the counter must never
    // dip below the jobs actually queued.
    let depth = shared.queue_len.fetch_add(1, Ordering::Relaxed) + 1;
    QUEUE_DEPTH.set(depth);
    match shared.ingest.try_send(job) {
        Ok(()) => {}
        Err(rejected) => {
            let depth = shared.queue_len.fetch_sub(1, Ordering::Relaxed) - 1;
            QUEUE_DEPTH.set(depth);
            return match rejected {
                TrySendError::Full(_) => {
                    SHED_OVERLOAD.incr();
                    error_response(
                        ErrorCode::Overloaded,
                        50,
                        "ingest queue is full; back off and retry",
                    )
                }
                TrySendError::Disconnected(_) => {
                    error_response(ErrorCode::ShuttingDown, 100, "committer has exited")
                }
            };
        }
    }
    // The committer owns the job now; wait for the group commit. The
    // grace period past the deadline covers the committer's own
    // deadline bookkeeping; a silent committer means trouble.
    let grace = Duration::from_secs(10);
    let wait = deadline.map_or(Duration::from_secs(30), |d| {
        d.saturating_duration_since(Instant::now()) + grace
    });
    match reply_rx.recv_timeout(wait) {
        Ok(IngestReply::Acked { duplicate }) => Response::IngestAck {
            batch_id,
            duplicate,
        },
        Ok(IngestReply::DeadlineExceeded) => error_response(
            ErrorCode::DeadlineExceeded,
            0,
            "deadline expired before the group commit",
        ),
        Ok(IngestReply::Failed(msg)) => error_response(ErrorCode::Internal, 0, &msg),
        Err(_) => error_response(ErrorCode::Internal, 0, "commit reply timed out"),
    }
}

/// Serves `ub(X)` from the published snapshot, widened for staleness.
///
/// # Soundness of stale reads
///
/// Let `snap` be the published snapshot covering `snap_tx` transactions
/// and `acked_tx ≥ snap_tx` the transactions durable in the map. Every
/// transaction contributes at most 1 to `sup(X)` for any itemset `X`,
/// so over the full acked data
///
/// ```text
/// sup(X) ≤ ub_snap(X) + (acked_tx − snap_tx)
/// ```
///
/// — the served value is a *sound* upper bound per eq. (1) monotonicity
/// even while publication lags ingest. The response carries the lag and
/// a `stale` marker so clients can see the looseness they paid.
// SOUND: `bound + lag` only widens the snapshot's eq. (1) value by the
// per-transaction support cap; it can never undercount `sup(X)`.
fn stale_widened_bound(published: &Published, acked_transactions: u64, items: &[u32]) -> Bound {
    let (snapshot_bound, snap_tx) = match &published.ossm {
        Some(ossm) => {
            let pattern = Itemset::new(items.iter().copied());
            (ossm.upper_bound(&pattern), published.transactions)
        }
        // No snapshot yet: every acked transaction might contain X.
        None => (0, 0),
    };
    let lag = acked_transactions.saturating_sub(snap_tx);
    Bound {
        value: snapshot_bound.saturating_add(lag),
        epoch: published.epoch,
        age_ms: saturating_ms(published.at.elapsed()),
        lag_transactions: lag,
        stale: lag > 0,
    }
}

// SOUND: serves eq. (1) bounds from the published snapshot widened by
// `stale_widened_bound` — the lag term only ever *adds* to the snapshot
// bound, so a response can overestimate but never undercut sup(X).
fn handle_upper_bound(items: &[u32], shared: &Arc<Shared>) -> Response {
    let _timer = REQ_UB_LATENCY.time();
    for &item in items {
        if item as usize >= shared.num_items {
            return error_response(
                ErrorCode::Malformed,
                0,
                &format!("item {item} outside the domain of {}", shared.num_items),
            );
        }
    }
    let published = shared.current();
    let acked = shared.acked_transactions.load(Ordering::Relaxed);
    let bound = stale_widened_bound(&published, acked, items);
    if bound.stale {
        SHED_STALE_READS.incr();
    }
    Response::Bound(bound)
}

fn handle_mine(min_support: u64, max_results: u32, shared: &Arc<Shared>) -> Response {
    let published = shared.current();
    let acked = shared.acked_transactions.load(Ordering::Relaxed);
    let Some(ossm) = &published.ossm else {
        return Response::MineResult { items: Vec::new() };
    };
    // SOUND: singleton supports are exact in the snapshot (segments
    // partition its transactions); adding the acked lag widens each by
    // the most one transaction can contribute, so no item that is
    // frequent over the acked data can be missed.
    let lag = acked.saturating_sub(published.transactions);
    let mut rows: Vec<(u32, u64)> = (0..shared.num_items as u32)
        .filter_map(|item| {
            let widened = ossm.singleton_support(ItemId(item)).saturating_add(lag);
            (widened >= min_support).then_some((item, widened))
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows.truncate((max_results as usize).min(protocol::MAX_MINE_RESULTS));
    Response::MineResult { items: rows }
}

fn stats(shared: &Arc<Shared>) -> Stats {
    Stats {
        epoch: shared.epoch.load(Ordering::Relaxed),
        acked_batches: shared.acked_batches.load(Ordering::Relaxed),
        acked_transactions: shared.acked_transactions.load(Ordering::Relaxed),
        queue_depth: shared
            .queue_len
            .load(Ordering::Relaxed)
            .min(u64::from(u32::MAX)) as u32,
        queue_cap: shared.queue_cap.min(u32::MAX as usize) as u32,
        segments: shared
            .segments
            .load(Ordering::Relaxed)
            .min(u64::from(u32::MAX)) as u32,
        uptime_ms: saturating_ms(shared.started.elapsed()),
        read_only: shared.read_only.load(Ordering::SeqCst),
    }
}

fn saturating_ms(d: Duration) -> u64 {
    d.as_millis().min(u128::from(u64::MAX)) as u64
}

/// The group-commit loop: drain → stage → one fsync → ack → publish.
// ENTRYPOINT: WAL commit path — a panic here loses queued acks.
fn commit_loop(
    mut map: DurableIncrementalOssm,
    rx: &Receiver<IngestJob>,
    shared: &Arc<Shared>,
    cfg: &ServeConfig,
) -> io::Result<()> {
    let mut groups: u64 = 0;
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(first) => {
                let mut group = vec![first];
                while group.len() < cfg.group_max.max(1) {
                    match rx.try_recv() {
                        Ok(job) => group.push(job),
                        Err(_) => break,
                    }
                }
                note_taken(shared, group.len());
                commit_group(&mut map, group, shared);
                groups += 1;
                publish_maybe(&map, shared, false);
                if cfg.checkpoint_every_groups > 0 && groups % cfg.checkpoint_every_groups == 0 {
                    // A failed periodic checkpoint is survivable: the
                    // WAL still covers everything acked. The final
                    // checkpoint at stop reports errors.
                    drop(map.checkpoint());
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Idle: catch the published snapshot up if it lags.
                if shared.current().epoch != map.epoch() {
                    publish_maybe(&map, shared, true);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain: commit everything admitted before the stop flag rose.
    loop {
        let mut group = Vec::new();
        while group.len() < cfg.group_max.max(1) {
            match rx.try_recv() {
                Ok(job) => group.push(job),
                Err(_) => break,
            }
        }
        if group.is_empty() {
            break;
        }
        note_taken(shared, group.len());
        commit_group(&mut map, group, shared);
    }
    publish_maybe(&map, shared, true);
    map.checkpoint()
}

fn note_taken(shared: &Arc<Shared>, n: usize) {
    let mut depth = shared.queue_len.load(Ordering::Relaxed);
    loop {
        let next = depth.saturating_sub(n as u64);
        match shared.queue_len.compare_exchange_weak(
            depth,
            next,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                QUEUE_DEPTH.set(next);
                break;
            }
            Err(actual) => depth = actual,
        }
    }
}

/// Commits one group under a single fsync and acks each job. Ack order
/// follows WAL order; nothing is acked unless the whole group's sync
/// succeeded (ack = durable).
fn commit_group(map: &mut DurableIncrementalOssm, group: Vec<IngestJob>, shared: &Arc<Shared>) {
    let now = Instant::now();
    let mut jobs = Vec::with_capacity(group.len());
    let mut entries = Vec::with_capacity(group.len());
    for job in group {
        if job.deadline.is_some_and(|d| now > d) {
            DEADLINE_EXCEEDED.incr();
            drop(job.reply.try_send(IngestReply::DeadlineExceeded));
            continue;
        }
        if map.is_recent_batch(job.batch_id) {
            // Already durable from an earlier commit: ack without
            // re-applying — this is what makes client retries safe.
            INGEST_DUP.incr();
            drop(job.reply.try_send(IngestReply::Acked { duplicate: true }));
            continue;
        }
        entries.push((job.batch_id, job.aggregate.clone()));
        jobs.push(job);
    }
    if jobs.is_empty() {
        return;
    }
    INGEST_BATCH_SIZE.record(jobs.len() as u64);
    match map.append_batch(entries) {
        Ok(applied) => {
            COMMIT_FSYNCS.incr();
            let mut acked_tx = 0u64;
            let mut acked_batches = 0u64;
            for (job, was_applied) in jobs.iter().zip(&applied) {
                if *was_applied {
                    acked_tx += job.transactions;
                    acked_batches += 1;
                } else {
                    INGEST_DUP.incr();
                }
            }
            // Counters first, acks second: a client that has seen its
            // ack must never read stats (or a lag-widened bound) that
            // predate its own commit.
            shared
                .acked_transactions
                .fetch_add(acked_tx, Ordering::Relaxed);
            shared
                .acked_batches
                .fetch_add(acked_batches, Ordering::Relaxed);
            shared.epoch.store(map.epoch(), Ordering::Relaxed);
            shared
                .segments
                .store(map.num_segments() as u64, Ordering::Relaxed);
            for (job, was_applied) in jobs.iter().zip(&applied) {
                drop(job.reply.try_send(IngestReply::Acked {
                    duplicate: !*was_applied,
                }));
            }
        }
        Err(e) => {
            // Nothing in the group became durable; nothing is acked.
            // Idempotent batch ids make the clients' retries safe.
            if map.is_read_only() {
                shared.read_only.store(true, Ordering::SeqCst);
            }
            let msg = e.to_string();
            for job in &jobs {
                drop(job.reply.try_send(IngestReply::Failed(msg.clone())));
            }
        }
    }
}

/// Publishes a fresh snapshot unless the server is shedding: with a
/// backlog past half the queue, re-segmentation work is skipped and
/// readers keep the stale (lag-widened, still sound) snapshot.
fn publish_maybe(map: &DurableIncrementalOssm, shared: &Arc<Shared>, force: bool) {
    if !force {
        let backlog = shared.queue_len.load(Ordering::Relaxed);
        if backlog.saturating_mul(2) > shared.queue_cap as u64 {
            return;
        }
    }
    shared.publish(initial_published(map));
}
