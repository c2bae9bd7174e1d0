//! `ingest-wal`: an open loop at a fixed arrival rate against a
//! WAL-backed daemon, ~40% INGEST, ~10% BATCH INGEST of 8 and ~50% QUERY,
//! every trace fresh. Each acknowledgement waits for WAL durability and
//! every query misses the kernel cache. The schedule, not the daemon's
//! speed, fixes how many entries are ingested.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use kastio::index::protocol::{
    parse_batch_ingest_item, parse_request, render_query_reply, Request,
};
use kastio::trace::wal::WalRecord;
use kastio::workloads::export_dataset;
use kastio::{QueryResult, Trace, WalManager};

use super::query_hot::{layer_metrics, query_spans};
use super::{connections, sync_disks, CONNECTIONS};
use super::{
    fence_metrics, hello_rtt, load_in_process, serve_args, start_daemon, time_neighbour_evals, Ctx,
};
use crate::inputs::{corpus, wal_plan, WalOp, WalPlan, K};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile, windowed};
use crate::verify::{parse_query_reply, reply_error, Answer, Reference};
use crate::wire::{Conn, OpenLoopReply};

/// Daemon starts per untraced run; `setup_s` is their median. Each start
/// writes an establishing snapshot of the whole corpus into its own
/// directory.
const SETUP_STARTS: usize = 5;
/// Offered load, requests per second over both connections. A 20 s run
/// then sends over 1000 INGESTs, so their p99 has at least 10 samples
/// beyond it. Each run measures how busy each connection is
/// (`loadgen.conn_busy_share`); at this rate the write connection was busy
/// 17–27% of the time on the 2-vCPU machine the benchmark was sized on,
/// and 53% with another process writing and fsyncing 64 MiB files on the
/// same disk throughout.
const RATE: u64 = 135;
/// Open-loop warm-up before the measured phase, in seconds.
const WARMUP_SECONDS: f64 = 1.0;
/// A request sent more than this long after it fell due (waiting for its
/// connection, or for the sender itself) went out late.
const LATE_NS: u64 = 1_000_000;
/// A run in which more than this share of one connection's requests went
/// out late fell behind its schedule: a backlog, not a passing stall,
/// set their latencies. It is not reported. A stall in the device or the
/// host delays the requests due during it, which the latency tail shows;
/// only a connection that cannot keep up makes most requests late.
const MAX_LATE_SHARE: f64 = 0.5;
/// Every this many measured queries is checked against the reference
/// (a fresh query costs ~32 kernel evaluations to check).
const CHECK_EVERY: usize = 4;
/// Requests of the measured schedule replayed in process by the traced run.
const REPLAY_REQUESTS: usize = 1000;
/// `fdatasync` calls timed for `wal.fsync_floor_us`.
const FSYNC_PROBES: usize = 200;

/// Sends `plan` over the connections (each request on the connection its
/// op names); returns the replies in schedule order.
fn run_phase(conns: &mut [Conn], plan: &WalPlan, traced: bool) -> io::Result<Vec<OpenLoopReply>> {
    let mut schedules: Vec<Vec<(u64, String)>> = vec![Vec::new(); conns.len()];
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, planned) in plan.requests.iter().enumerate() {
        schedules[planned.op.conn()].push((planned.at_ns, plan.encode(&planned.op, traced)));
        order[planned.op.conn()].push(i);
    }
    let start = Instant::now() + Duration::from_millis(10);
    let per_conn: Vec<io::Result<Vec<OpenLoopReply>>> = std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(&schedules)
            .map(|(conn, schedule)| s.spawn(move || conn.open_loop(schedule, start)))
            .collect();
        threads.into_iter().map(|t| t.join().expect("load thread panicked")).collect()
    });
    let mut replies: Vec<Option<OpenLoopReply>> = vec![None; plan.requests.len()];
    for (indices, conn_replies) in order.iter().zip(per_conn) {
        for (&i, reply) in indices.iter().zip(conn_replies?) {
            replies[i] = Some(reply);
        }
    }
    Ok(replies.into_iter().map(|r| r.expect("every request was answered")).collect())
}

/// The corpus as the daemon holds it, rebuilt from the ingest replies.
/// INGEST replies name their id. The other new ids of a phase belong to
/// the BATCH INGESTs, which share one connection and so were applied one
/// after another, each batch's items in order: sorted, they split into
/// the batches in send order.
struct Ledger {
    entries: u64,
    reference: Reference,
}

impl Ledger {
    /// Accounts one phase's ingest replies; returns each ingest request's
    /// check, by request index.
    fn phase(
        &mut self,
        plan: &WalPlan,
        replies: &[OpenLoopReply],
    ) -> Vec<(usize, Result<(), String>)> {
        let mut checks = Vec::new();
        let mut ingested: Vec<(usize, u64, usize)> = Vec::new();
        let mut batches: Vec<(usize, u64, &[usize])> = Vec::new();
        for (i, (planned, reply)) in plan.requests.iter().zip(replies).enumerate() {
            let reply = &reply.reply;
            let parsed = match &planned.op {
                WalOp::Ingest(t) => {
                    parse_ack(reply, "OK id=", " name=").map(|id| ingested.push((i, id, *t)))
                }
                WalOp::Batch(items) => {
                    parse_ack(reply, &format!("OK batch={} entries=", items.len()), "\n")
                        .map(|entries| batches.push((i, entries, items)))
                }
                WalOp::Query(_) => continue,
            };
            checks.push((i, parsed));
        }
        let mut fail = |i: usize, why: String| {
            if let Some((_, check)) = checks.iter_mut().find(|(j, _)| *j == i) {
                *check = Err(why);
            }
        };
        let first = self.entries;
        self.entries += (ingested.len() + batches.iter().map(|b| b.2.len()).sum::<usize>()) as u64;
        let mut free: std::collections::BTreeSet<u64> = (first..self.entries).collect();
        for &(i, id, t) in &ingested {
            if !free.remove(&id) {
                fail(i, format!("INGEST acknowledged id {id}, already taken or out of range"));
            }
            self.add(id, plan, t);
        }
        let mut free = free.into_iter();
        for (i, entries, items) in batches {
            for &t in items {
                let id = free.next().expect("one free id per batch item");
                if id >= entries {
                    fail(
                        i,
                        format!("BATCH item id {id} is not below its reply's entries={entries}"),
                    );
                }
                self.add(id, plan, t);
            }
        }
        checks
    }

    fn add(&mut self, id: u64, plan: &WalPlan, t: usize) {
        let (label, trace) = &plan.traces[t];
        self.reference.add_entry(format!("e{id}"), label.clone(), trace.clone());
    }
}

/// How one connection kept up with its share of the measured schedule.
struct Backlog {
    conn: usize,
    requests: usize,
    /// Share of the requests that fell due while the connection was
    /// still waiting for an earlier reply.
    waited_share: f64,
    /// 99th percentile of that wait, in µs (0 for requests that found
    /// the connection free).
    wait_p99_us: f64,
    /// Share of the requests sent more than [`LATE_NS`] after they fell
    /// due, for whatever reason.
    late_share: f64,
    /// Share of the measured phase the connection spent with a request
    /// on the wire: its utilisation, whose inverse is its headroom.
    busy_share: f64,
}

impl Backlog {
    fn json(&self) -> String {
        format!(
            "{{\"conn\": {}, \"requests\": {}, \"waited_share\": {:.4}, \"wait_p99_us\": {:.1}, \"late_share\": {:.4}, \"busy_share\": {:.4}}}",
            self.conn,
            self.requests,
            self.waited_share,
            self.wait_p99_us,
            self.late_share,
            self.busy_share
        )
    }
}

/// Per-connection backlog of a measured phase of `seconds`.
fn connection_backlog(seconds: f64, plan: &WalPlan, replies: &[OpenLoopReply]) -> Vec<Backlog> {
    (0..CONNECTIONS)
        .map(|conn| {
            let mine: Vec<&OpenLoopReply> = plan
                .requests
                .iter()
                .zip(replies)
                .filter(|(planned, _)| planned.op.conn() == conn)
                .map(|(_, reply)| reply)
                .collect();
            let waits: Vec<f64> = mine.iter().map(|r| r.wait_ns as f64 / 1000.0).collect();
            let waited = waits.iter().filter(|&&w| w > 0.0).count();
            let late = mine.iter().filter(|r| r.wait_ns + r.lag_ns > LATE_NS).count();
            let busy_ns: u64 = mine.iter().map(|r| r.service_ns).sum();
            Backlog {
                conn,
                requests: mine.len(),
                waited_share: waited as f64 / mine.len().max(1) as f64,
                wait_p99_us: quantile(&waits, 0.99).unwrap_or(0.0),
                late_share: late as f64 / mine.len().max(1) as f64,
                busy_share: busy_ns as f64 / 1e9 / seconds,
            }
        })
        .collect()
}

/// The number between `prefix` and `until` in an acknowledgement.
fn parse_ack(reply: &str, prefix: &str, until: &str) -> Result<u64, String> {
    reply
        .strip_prefix(prefix)
        .and_then(|rest| rest.split_once(until))
        .and_then(|(n, _)| n.parse().ok())
        .ok_or_else(|| reply_error(reply))
}

/// Runs `ingest-wal`.
pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let corpus = corpus(ctx.seed);
    ctx.clean()?;
    let corpus_dir = ctx.fresh_dir("corpus")?;
    export_dataset(&corpus, &corpus_dir).map_err(io::Error::other)?;
    let starts = if ctx.traced { 1 } else { SETUP_STARTS };
    let saves: Vec<PathBuf> =
        (0..starts).map(|i| ctx.fresh_dir(&format!("save{i}"))).collect::<io::Result<_>>()?;
    sync_disks();
    let plans = [
        ("warmup", wal_plan(ctx.seed, 0, RATE, WARMUP_SECONDS)),
        ("measure", wal_plan(ctx.seed, 1, RATE, ctx.seconds)),
    ];
    let mut ledger = Ledger { entries: corpus.len() as u64, reference: Reference::default() };
    for e in corpus.iter() {
        ledger.reference.add_entry(e.name.clone(), e.category.tag().to_string(), e.trace.clone());
    }

    let (daemon, conn) =
        start_daemon(ctx, &mut report, starts, |i| Ok(serve_args(&corpus_dir, Some(&saves[i]))))?;
    let mut conns = connections(&daemon, conn)?;

    let mut measured = Vec::new();
    let mut fences = Vec::new();
    let mut cpu = 0.0;
    for (phase, plan) in &plans {
        let traced = ctx.traced && *phase == "measure";
        if *phase == "measure" {
            fences.push((conns[0].stats()?, conns[0].metrics()?));
            cpu = daemon.cpu_seconds()?;
        }
        let replies = run_phase(&mut conns, plan, traced)?;
        if *phase == "measure" {
            cpu = daemon.cpu_seconds()? - cpu;
            fences.push((conns[0].stats()?, conns[0].metrics()?));
        }
        for (i, check) in ledger.phase(plan, &replies) {
            report.check(phase, plan.requests[i].op.verb(), check);
        }
        let mut queries: Vec<(usize, Answer)> = Vec::new();
        for (i, (planned, reply)) in plan.requests.iter().zip(&replies).enumerate() {
            if let WalOp::Query(_) = planned.op {
                match parse_query_reply(&reply.reply, traced) {
                    Ok(answer) => queries.push((i, answer)),
                    Err(why) => report.fail(phase, "QUERY", why),
                }
            }
        }
        // Queries are checked once every ingest of the phase is mapped:
        // a query may see an entry whose acknowledgement came later.
        for (n, (i, answer)) in queries.into_iter().enumerate() {
            let check = if n % CHECK_EVERY == 0 {
                let WalOp::Query(t) = plan.requests[i].op else {
                    unreachable!("collected queries")
                };
                ledger.reference.check(&plan.traces[t].1, &answer, K)
            } else {
                Ok(())
            };
            report.check(phase, "QUERY", check);
        }
        if *phase == "measure" {
            measured = replies;
        }
    }
    let final_entries = conns[0].stats()?.get("entries").map_err(io::Error::other)?;
    if final_entries != ledger.entries {
        report.mismatch(format!(
            "STATS entries {final_entries} after the run, expected {} preloaded + {} acknowledged",
            corpus.len(),
            ledger.entries - corpus.len() as u64
        ));
    }

    let plan = &plans[1].1;
    let mut latencies: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut ingests_at: Vec<(f64, f64)> = Vec::new();
    let mut completions = Vec::new();
    for (planned, reply) in plan.requests.iter().zip(&measured) {
        let latency_ms = reply.latency_ns as f64 / 1e6;
        latencies.entry(planned.op.verb()).or_default().push(latency_ms);
        completions.push((planned.at_ns + reply.latency_ns) as f64 / 1e9);
        if let WalOp::Ingest(_) = planned.op {
            ingests_at.push((planned.at_ns as f64 / 1e9, latency_ms));
        }
    }
    // The schedule fixes the offered rate; the completed rate falls below
    // it only when the daemon cannot keep up.
    let last_s = completions.iter().copied().fold(0.0, f64::max);
    report.metric("client.throughput_per_s", measured.len() as f64 / last_s, measured.len());
    report.metric("cpu_ms_per_op", cpu * 1000.0 / measured.len() as f64, measured.len());
    report.metric("p50_ms", windowed(ctx.seconds, &completions, &ingests_at).p50, ingests_at.len());
    let ingests = latencies.remove("INGEST").unwrap_or_default();
    report.metric(
        "client.ingest_p99_us",
        quantile(&ingests, 0.99).unwrap_or(0.0) * 1000.0,
        ingests.len(),
    );
    let lags: Vec<f64> = measured.iter().map(|r| r.lag_ns as f64 / 1000.0).collect();
    let lag_p99 = quantile(&lags, 0.99).unwrap_or(0.0);
    report.metric("loadgen.lag_p99_us", lag_p99, lags.len());
    let backlog = connection_backlog(ctx.seconds, plan, &measured);
    let worst = |f: fn(&Backlog) -> f64| backlog.iter().map(f).fold(0.0, f64::max);
    report.metric("loadgen.conn_wait_p99_us", worst(|b| b.wait_p99_us), measured.len());
    report.metric("loadgen.conn_busy_share", worst(|b| b.busy_share), measured.len());
    report.notes.push((
        "connections",
        format!("[{}]", backlog.iter().map(Backlog::json).collect::<Vec<_>>().join(", ")),
    ));
    let late_share = worst(|b| b.late_share);
    if late_share > MAX_LATE_SHARE {
        report.invalid = Some(format!(
            "{:.0}% of one connection's requests went out more than {} ms late: the run fell behind its schedule",
            late_share * 100.0,
            LATE_NS / 1_000_000
        ));
    }
    let queries = latencies.remove("QUERY").unwrap_or_default();
    let batches = latencies.remove("BATCH").unwrap_or_default();
    let client_query_p50_us = median(&queries) * 1000.0;
    report.metric("client.query_p50_us", client_query_p50_us, queries.len());
    report.metric("client.ingest_p50_us", median(&ingests) * 1000.0, ingests.len());
    report.metric("client.batch_p50_us", median(&batches) * 1000.0, batches.len());
    fence_metrics(&mut report, &fences[0], &fences[1], client_query_p50_us)
        .map_err(io::Error::other)?;
    hello_rtt(&mut report, &mut conns[0])?;
    drop(conns);
    report.metric("peak_rss_mib", daemon.stop()?, 1);

    if ctx.traced {
        in_process(ctx, &mut report, &corpus_dir, plan)?;
    }
    Ok(report)
}

/// The in-process half of the traced run: replays the start of the
/// measured schedule, in order and unpaced, through the public calls the
/// daemon makes for each verb, against an index and write-ahead log of
/// its own.
fn in_process(
    ctx: &Ctx,
    report: &mut Report,
    corpus_dir: &std::path::Path,
    plan: &WalPlan,
) -> io::Result<()> {
    let index = load_in_process(report, corpus_dir)?;
    let wal_root = ctx.fresh_dir("inproc-wal")?;
    let wal = WalManager::open(&wal_root, 4, Duration::from_micros(2000))?;
    let mut tracer = Tracer::default();
    let mut queries: Vec<(u64, QueryResult, usize)> = Vec::new();
    let mut neighbours: Vec<(&Trace, Vec<String>)> = Vec::new();
    for (request, planned) in plan.requests.iter().take(REPLAY_REQUESTS).enumerate() {
        let request = request as u64;
        let line = plan.encode(&planned.op, false);
        tracer.request(request, planned.op.verb());
        let outcome = tracer.span("request", request, |t| -> Result<(), String> {
            let (header, items) = line.split_once('\n').unwrap_or((&line, ""));
            let parsed = t.span("protocol.parse", request, |_| -> Result<_, String> {
                let request = parse_request(header)?;
                let items: Result<Vec<_>, String> =
                    items.lines().map(parse_batch_ingest_item).collect();
                Ok((request, items?))
            })?;
            let ingests = match parsed {
                (Request::Ingest { label, trace }, _) => vec![(label, trace)],
                (Request::BatchIngest { count }, items) if count == items.len() => items,
                (Request::Query { trace, k, .. }, _) => {
                    let result = query_spans(t, &index, request, &trace, k);
                    t.span("protocol.render", request, |_| render_query_reply(&result));
                    let WalOp::Query(i) = planned.op else {
                        return Err("query op mismatch".into());
                    };
                    neighbours.push((
                        &plan.traces[i].1,
                        result.neighbors.iter().map(|n| n.name.clone()).collect(),
                    ));
                    queries.push((request, result, index.len()));
                    return Ok(());
                }
                (other, _) => return Err(format!("unexpected request {other:?}")),
            };
            // As the daemon does: ingest, journal, then wait for one
            // group commit covering the whole request.
            let mut last = 0;
            for (label, trace) in ingests {
                let record = (label.clone(), trace.clone());
                let id = t.span("index.ingest", request, |_| index.ingest_auto(label, trace));
                let id = id.map_err(|e| e.to_string())?.0;
                let record =
                    WalRecord { id, name: format!("e{id}"), label: record.0, trace: record.1 };
                last = t
                    .span("wal.append", request, |_| wal.append(&record))
                    .map_err(|e| e.to_string())?;
            }
            t.span("wal.durable_wait", request, |_| wal.wait_durable(last))
                .map_err(|e| e.to_string())
        });
        if let Err(why) = outcome {
            report.mismatch(format!("in-process replay of request {request}: {why}"));
        }
    }
    tracer.write_jsonl(&ctx.work.join(format!("spans-ingest-wal-{}.jsonl", ctx.seed)))?;
    layer_metrics(report, &tracer, &queries);
    for (span, metric) in [
        ("index.ingest", "index.ingest_us"),
        ("wal.append", "wal.append_us"),
        ("wal.durable_wait", "wal.durable_wait_us"),
    ] {
        let values = tracer.self_us(span, None);
        report.metric(metric, median(&values), values.len());
    }
    let tokens: Vec<f64> = plan
        .traces
        .iter()
        .take(REPLAY_REQUESTS)
        .map(|(_, t)| index.intern_trace(t).len() as f64)
        .collect();
    report.metric("core.tokens_per_trace", mean(&tokens), tokens.len());
    time_neighbour_evals(report, &index, &neighbours);

    // The device floor under the group commit: fdatasync of a small
    // append beside the log.
    let mut file =
        OpenOptions::new().create(true).append(true).open(wal_root.join("fsync-floor"))?;
    let mut syncs = Vec::with_capacity(FSYNC_PROBES);
    for _ in 0..FSYNC_PROBES {
        file.write_all(&[0u8; 4096])?;
        let started = Instant::now();
        file.sync_data()?;
        syncs.push(started.elapsed().as_nanos() as f64 / 1000.0);
    }
    report.metric("wal.fsync_floor_us", median(&syncs), syncs.len());
    Ok(())
}
