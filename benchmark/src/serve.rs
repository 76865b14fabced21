//! `serve-mixed`: the ingest/query service under writes and reads at
//! once, over loopback TCP, in process. One connection ingests 100-tx
//! batches in a closed loop (each batch waits for its durable ack); the
//! other sends `ub(X)` for pairs and triples in an open loop at a fixed
//! rate, each timed from when it was due. The flush policy is the
//! server's default: one fsync per commit group, a checkpoint every 64
//! groups.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use ossm_core::{Aggregate, IncrementalOssm, LossCalculator, Ossm};
use ossm_data::wal::WriteAheadLog;
use ossm_data::Itemset;
use ossm_serve::{serve, Client, ClientConfig, ServeConfig, ServerHandle};

use crate::inputs::{self, mix_seed};
use crate::report::{Report, Value};
use crate::stats;
use crate::trace::Tracer;
use crate::{check_crcs, ratio, Args, Scale, SETUPS};

const TAG: u64 = 4;
/// `ub(X)` evaluations per probe in the traced pass, enough for a steady
/// per-evaluation time.
const BOUND_REPS: usize = 1000;

struct Params {
    batches: usize,
    batch_tx: usize,
    items: usize,
    ub_per_s: f64,
    warmup: Duration,
    probes: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            batches: 2000,
            batch_tx: 100,
            items: 1000,
            ub_per_s: 1000.0,
            warmup: Duration::from_secs(1),
            probes: 100,
        },
        Scale::Smoke => Params {
            batches: 50,
            batch_tx: 20,
            items: 100,
            ub_per_s: 200.0,
            warmup: Duration::from_millis(200),
            probes: 20,
        },
    }
}

fn client_error(e: ossm_serve::ClientError) -> io::Error {
    io::Error::other(e.to_string())
}

/// The aggregate the server builds from one ingest batch.
fn batch_aggregate(batch: &[Itemset], items: usize) -> Aggregate {
    let mut supports = vec![0u64; items];
    for t in batch {
        for item in t.items() {
            supports[item.index()] += 1;
        }
    }
    Aggregate::new(supports, batch.len() as u64)
}

/// The server's re-segmentation path alone: every batch aggregate folded
/// into an `IncrementalOssm` with the server's segment budget.
fn incremental(aggregates: &[Aggregate], max_segments: usize) -> Ossm {
    let mut map = IncrementalOssm::new(max_segments, LossCalculator::all_items())
        .expect("the server's segment budget is positive");
    for a in aggregates {
        map.append_aggregate(a.clone());
    }
    map.snapshot()
}

/// Pairs and triples taken from the stream's own transactions, so every
/// probe has support.
fn probes(stream: &[Itemset], count: usize, seed: u64) -> Vec<Itemset> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let t = &stream[(state >> 33) as usize % stream.len()];
        let size = 2 + out.len() % 2;
        if t.len() >= size {
            out.push(Itemset::new(t.items()[..size].iter().map(|i| i.0)));
        }
    }
    out
}

fn ids(x: &Itemset) -> Vec<u32> {
    x.items().iter().map(|i| i.0).collect()
}

/// A running server with its two load connections.
struct Live {
    handle: ServerHandle,
    ingest: Client,
    reader: Client,
}

fn start(config: &ServeConfig) -> io::Result<Live> {
    let (handle, _) = serve(config)?;
    let addr = handle.local_addr().to_string();
    let mut ingest = Client::new(ClientConfig::new(addr.clone()));
    let mut reader = Client::new(ClientConfig {
        jitter_seed: 0x5eed,
        ..ClientConfig::new(addr)
    });
    ingest.stats().map_err(client_error)?;
    reader.stats().map_err(client_error)?;
    Ok(Live {
        handle,
        ingest,
        reader,
    })
}

/// What the open-loop reader saw.
#[derive(Default)]
struct Reads {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    in_window: u64,
}

pub(crate) fn run(
    args: &Args,
    dir: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let p = params(args.scale);
    let seed = args.seed;

    // Set-up, three times: generate the stream, start a server on a fresh
    // directory, connect both load clients. The last one is kept.
    let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut crcs = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let start_at = Instant::now();
        let stream = inputs::regular(p.batches * p.batch_tx, p.items, mix_seed(seed, TAG));
        gen_s.push(start_at.elapsed().as_secs_f64());
        let batches: Vec<Vec<Vec<u32>>> = stream
            .transactions()
            .chunks(p.batch_tx)
            .map(|b| b.iter().map(ids).collect())
            .collect();
        let config = ServeConfig::new("127.0.0.1:0", dir.join(format!("serve-{i}")), p.items);
        let live = start(&config)?;
        setup_s.push(start_at.elapsed().as_secs_f64());
        crcs.push(inputs::input_crc(p.items, stream.transactions()));
        if i + 1 < SETUPS {
            drop((live.ingest, live.reader));
            live.handle.stop()?;
            std::fs::remove_dir_all(&config.dir)?;
        } else {
            kept = Some((stream, batches, config, live));
        }
    }
    let (stream, batches, config, live) = kept.expect("at least one set-up");
    check_crcs(report, &crcs, args);
    report.set("setup_s", Value::median_of(&setup_s));
    report.set("data.gen_s", Value::median_of(&gen_s));

    // segment_s: the server's incremental re-segmentation of the whole
    // stream, three times; the maps must agree exactly.
    let aggregates: Vec<Aggregate> = stream
        .transactions()
        .chunks(p.batch_tx)
        .map(|b| batch_aggregate(b, p.items))
        .collect();
    let mut seg_s = Vec::new();
    let mut maps: Vec<Ossm> = Vec::new();
    for _ in 0..SETUPS {
        let start_at = Instant::now();
        let map = incremental(&aggregates, config.max_segments);
        seg_s.push(start_at.elapsed().as_secs_f64());
        if let Some(first) = maps.first() {
            report.gate(*first == map, || {
                "incremental re-segmentation is not deterministic".into()
            });
        }
        maps.push(map);
    }
    let map = maps.swap_remove(0);
    report.set("segment_s", Value::median_of(&seg_s));
    let calc = LossCalculator::all_items();
    let loss = map
        .segments()
        .iter()
        .map(|s| calc.pair_min_sum(s.supports()))
        .sum::<u64>()
        - aggregates
            .iter()
            .map(|a| calc.pair_min_sum(a.supports()))
            .sum::<u64>();
    report.set_single("core.seg.loss", loss as f64);
    report.set_single("core.ossm_bytes", map.memory_bytes() as f64);
    let probes = probes(stream.transactions(), p.probes, mix_seed(seed, TAG + 200));

    // Measured window, after a warm-up: closed-loop ingest on this
    // thread, open-loop reads on one more.
    let Live {
        handle,
        mut ingest,
        reader,
    } = live;
    let interval = Duration::from_secs_f64(1.0 / p.ub_per_s);
    crate::reset_peak_rss();
    let t0 = Instant::now();
    let warm_end = t0 + p.warmup;
    let end = warm_end + args.window();
    let mut multiplicity = vec![0u64; batches.len()];
    let (mut acked_tx, mut window_tx) = (0u64, 0u64);
    let mut ack_ms = Vec::new();
    let mut before = None;
    let (reads, mut reader) = std::thread::scope(|s| {
        let probes = &probes;
        let reads = s.spawn(move || {
            let mut reader = reader;
            let mut r = Reads::default();
            for k in 0u32.. {
                let due = t0 + interval * k;
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ok = reader
                    .upper_bound(&ids(&probes[k as usize % probes.len()]))
                    .is_ok();
                let done = Instant::now();
                r.attempted += 1;
                r.failed += u64::from(!ok);
                if due >= warm_end {
                    r.in_window += 1;
                    r.latency_ms.push((done - due).as_secs_f64() * 1e3);
                    r.late_ms.push((sent - due).as_secs_f64() * 1e3);
                }
            }
            (r, reader)
        });
        let mut i = 0usize;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if before.is_none() && now >= warm_end {
                before = Some((ossm_obs::registry().snapshot(), ack_ms.len()));
            }
            let b = i % batches.len();
            let ok = ingest.ingest(i as u64 + 1, &batches[b], 0).is_ok();
            let took = now.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            if ok {
                multiplicity[b] += 1;
                acked_tx += batches[b].len() as u64;
                if now >= warm_end {
                    ack_ms.push(took);
                    window_tx += batches[b].len() as u64;
                }
            } else {
                report.failed += 1;
            }
            i += 1;
        }
        reads.join().expect("the reader thread panicked")
    });
    let after = ossm_obs::registry().snapshot();
    report.set_single("peak_rss_mb", crate::peak_rss_mb());
    report.attempted += reads.attempted;
    report.failed += reads.failed;
    // Every client retry is a failed attempt.
    let retries = ingest.retries() + reader.retries();
    report.attempted += retries;
    report.failed += retries;
    report.set("ossm_op_ms", Value::median_of(&reads.latency_ms));
    report.set("other_op_ms", Value::median_of(&ack_ms));

    // Gates: the server's count matches the client's tally, every served
    // bound dominates the exact support over exactly the acked data, and
    // a clean stop and reopen recover the same count.
    let stats = ingest.stats().map_err(client_error)?;
    report.gate(stats.acked_transactions == acked_tx, || {
        format!(
            "server acked {} transactions, clients tallied {acked_tx}",
            stats.acked_transactions
        )
    });
    let chunks: Vec<&[Itemset]> = stream.transactions().chunks(p.batch_tx).collect();
    for x in &probes {
        let exact: u64 = chunks
            .iter()
            .zip(&multiplicity)
            .filter(|(_, &m)| m > 0)
            .map(|(b, &m)| m * b.iter().filter(|t| x.is_subset_of(t)).count() as u64)
            .sum();
        report.attempted += 1;
        match reader.upper_bound(&ids(x)) {
            Ok(ub) => {
                report.gate(ub.value >= exact, || {
                    format!(
                        "ub({x}) = {} undercounts the exact support {exact}",
                        ub.value
                    )
                });
            }
            Err(e) => {
                report.gate(false, || format!("ub({x}) failed: {e}"));
            }
        }
    }
    drop((ingest, reader));
    let stopped = handle.stop();
    report.gate(stopped.is_ok(), || format!("stop() failed: {stopped:?}"));
    let (reopened, _) = serve(&config)?;
    let recovered = reopened.acked_transactions();
    report.gate(recovered == acked_tx, || {
        format!("reopen recovered {recovered} transactions, {acked_tx} were acked")
    });
    let stopped = reopened.stop();
    report.gate(stopped.is_ok(), || {
        format!("stop() after reopen failed: {stopped:?}")
    });
    if !args.trace {
        return Ok(());
    }

    let window_s = (end - warm_end).as_secs_f64();
    report.set_single("serve.ingest_tx_per_s", window_tx as f64 / window_s);
    let tail = |v: &[f64], q: f64| stats::percentile(v, q) / stats::median(v);
    report.set_single("serve.ack.p99_over_p50", tail(&ack_ms, 0.99));
    report.set_single("serve.ack.p999_over_p50", tail(&ack_ms, 0.999));
    report.set_single("serve.ub.p99_over_p50", tail(&reads.latency_ms, 0.99));
    report.set_single("serve.ub.p999_over_p50", tail(&reads.latency_ms, 0.999));
    report.set_single(
        "load.late_p99_over_interval",
        stats::percentile(&reads.late_ms, 0.99) / (interval.as_secs_f64() * 1e3),
    );
    if let Some((before, acks_before)) = &before {
        let delta = |name: &str| after.counter(name) - before.counter(name);
        let acks = (ack_ms.len() - acks_before).max(1) as f64;
        report.set_single(
            "serve.commit.fsyncs_per_ack",
            delta("srv.commit.fsyncs") as f64 / acks,
        );
        let groups = |s: &ossm_obs::Snapshot| {
            s.histograms
                .get("srv.ingest.batch_size")
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let ((c0, s0), (c1, s1)) = (groups(before), groups(&after));
        report.set_single("serve.commit.group_mean", ratio(s1 - s0, c1 - c0));
        report.set_single(
            "serve.shed.stale_read_ratio",
            delta("srv.shed.stale_reads") as f64 / reads.in_window.max(1) as f64,
        );
        report.set_single("serve.shed.overloaded", delta("srv.shed.overload") as f64);
    }
    report.set_single("serve.client.retries", retries as f64);

    // Traced pass: the commit path without TCP — stage each batch record
    // in a fresh WAL, fsync it, fold it into an IncrementalOssm, publish
    // a snapshot — then evaluate eq. (1) on the probes; once untraced and
    // once traced.
    let pass = |t: &mut Tracer, name: &str| -> io::Result<Ossm> {
        let wal_path = dir.join(format!("{name}.wal"));
        let (mut wal, _) = WriteAheadLog::open(&wal_path)?;
        let mut inc = IncrementalOssm::new(config.max_segments, LossCalculator::all_items())
            .expect("the server's segment budget is positive");
        let mut published = None;
        for (id, a) in aggregates.iter().enumerate() {
            let mut record = Vec::with_capacity(16 + 8 * p.items);
            record.extend_from_slice(&(id as u64 + 1).to_le_bytes());
            record.extend_from_slice(&a.transactions().to_le_bytes());
            for s in a.supports() {
                record.extend_from_slice(&s.to_le_bytes());
            }
            t.span("data.wal.stage", |_| wal.append_no_sync(&record))?;
            t.span("data.wal.fsync", |_| wal.sync())?;
            t.span("core.incremental.apply", |_| {
                inc.append_aggregate(a.clone());
            });
            published = Some(t.span("core.incremental.publish", |_| inc.snapshot()));
        }
        let snapshot = published.expect("the stream has batches");
        t.span("core.bound", |_| {
            for _ in 0..BOUND_REPS {
                for x in &probes {
                    std::hint::black_box(snapshot.upper_bound(std::hint::black_box(x)));
                }
            }
        });
        drop(wal);
        std::fs::remove_file(&wal_path)?;
        Ok(snapshot)
    };
    let untraced = Instant::now();
    pass(&mut Tracer::new(false), "untraced")?;
    let untraced_s = untraced.elapsed().as_secs_f64();
    let traced = Instant::now();
    let replayed = pass(tracer, "traced")?;
    let total_s = traced.elapsed().as_secs_f64();
    report.gate(replayed == map, || {
        "the traced commit-path replay built another map than the re-segmentation".into()
    });
    report.set_single("trace.total_s", total_s);
    report.set_single("trace.overhead_ratio", total_s / untraced_s);
    let selfs = tracer.self_seconds();
    let self_s = |span: &str| selfs.get(span).copied().unwrap_or(0.0);
    for (span, metric) in [
        ("data.wal.stage", "data.wal.stage.share"),
        ("data.wal.fsync", "data.wal.fsync.share"),
        ("core.incremental.apply", "core.incremental.apply.share"),
        ("core.incremental.publish", "core.incremental.publish.share"),
        ("core.bound", "core.bound.share"),
    ] {
        report.set_single(metric, self_s(span) / total_s);
    }
    report.set_single(
        "core.bound.ns_per_eval",
        self_s("core.bound") * 1e9 / (BOUND_REPS * probes.len()) as f64,
    );
    let commit_ms = (self_s("data.wal.stage")
        + self_s("data.wal.fsync")
        + self_s("core.incremental.apply")
        + self_s("core.incremental.publish"))
        * 1e3
        / aggregates.len() as f64;
    let mean_ack = stats::mean(&ack_ms);
    report.set_single("serve.residual.share", (mean_ack - commit_ms) / mean_ack);
    Ok(())
}
