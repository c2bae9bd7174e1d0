//! `query-hot`: a read-only closed loop on two connections against a
//! fixed ~4096-entry corpus, queries drawn from 64 hot traces. After the
//! warm-up the kernel cache answers almost every pair, so protocol,
//! prefilter, cache and runtime do the work.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use kastio::index::protocol::{
    decode_trace_inline, encode_trace_inline, parse_request, render_mquery_reply,
    render_query_reply, Request,
};
use kastio::workloads::export_dataset;
use kastio::{PatternIndex, QueryResult, Trace};

use super::{connections, sync_disks, CONNECTIONS};
use super::{
    fence_metrics, hello_rtt, load_in_process, serve_args, start_daemon, time_neighbour_evals, Ctx,
};
use crate::inputs::{corpus, hot_set, hot_stream, HotOp, HotStream, K, MQUERY_ITEMS};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile, windowed};
use crate::verify::{parse_mquery_reply, parse_query_reply, Answer, Reference};
use crate::wire::{Conn, Stats};

/// Daemon starts per untraced run; `setup_s` is their median.
const SETUP_STARTS: usize = 5;
/// Closed-loop warm-up before the measured phase: touches every hot
/// trace many times, so the kernel cache holds the whole hot set.
const WARMUP: Duration = Duration::from_secs(1);
/// Requests of connection 0's stream replayed in process by the traced run.
const REPLAY_REQUESTS: usize = 3000;

/// One completed closed-loop request.
struct Done {
    op: HotOp,
    /// Completion time, seconds after the phase started.
    done_s: f64,
    latency_ns: u64,
    reply: String,
}

/// Runs both connections' streams as closed loops for `span`; returns the
/// completed requests and the wall time the phase took.
fn closed_loop(
    conns: &mut [Conn],
    streams: &mut [HotStream],
    wire: &[String],
    traced: bool,
    span: Duration,
) -> io::Result<(Vec<Done>, f64)> {
    let started = Instant::now();
    let until = started + span;
    let per_conn: Vec<io::Result<Vec<Done>>> = std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(conn, stream)| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    while Instant::now() < until {
                        let op = stream.next().expect("hot streams are endless");
                        let request = op.encode(wire, traced);
                        let sent = Instant::now();
                        let reply = conn.request(&request)?;
                        let latency_ns = sent.elapsed().as_nanos() as u64;
                        let done_s = started.elapsed().as_secs_f64();
                        done.push(Done { op, done_s, latency_ns, reply });
                    }
                    Ok(done)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("load thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for done in per_conn {
        all.extend(done?);
    }
    Ok((all, elapsed))
}

/// Checks every reply of a phase. The corpus never changes, so each hot
/// trace has one right answer: its first answer is checked against the
/// in-process reference, every later one must equal it.
struct Checker<'a> {
    hot: &'a [Trace],
    entries: u64,
    reference: Reference,
    canonical: HashMap<usize, Answer>,
}

impl Checker<'_> {
    fn answer(&mut self, i: usize, answer: Answer) -> Result<(), String> {
        match self.canonical.get(&i) {
            Some(canonical) if *canonical == answer => Ok(()),
            Some(_) => Err(format!("hot trace {i} got a different answer than before")),
            None => {
                self.reference.check(&self.hot[i], &answer, K)?;
                self.canonical.insert(i, answer);
                Ok(())
            }
        }
    }

    fn reply(&mut self, op: HotOp, reply: &str, traced: bool) -> Result<(), String> {
        match op {
            HotOp::Query(i) => self.answer(i, parse_query_reply(reply, traced)?),
            HotOp::MQuery(items) => {
                let answers = parse_mquery_reply(reply, MQUERY_ITEMS, traced)?;
                items.iter().zip(answers).try_for_each(|(&i, answer)| self.answer(i, answer))
            }
            HotOp::Stats => match Stats::parse(reply)?.get("entries")? {
                n if n == self.entries => Ok(()),
                n => Err(format!(
                    "STATS entries {n} during a read-only phase, expected {}",
                    self.entries
                )),
            },
        }
    }
}

fn verb(op: HotOp) -> &'static str {
    match op {
        HotOp::Query(_) => "QUERY",
        HotOp::MQuery(_) => "MQUERY",
        HotOp::Stats => "STATS",
    }
}

/// Runs `query-hot`.
pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let corpus = corpus(ctx.seed);
    ctx.clean()?;
    let corpus_dir = ctx.fresh_dir("corpus")?;
    export_dataset(&corpus, &corpus_dir).map_err(io::Error::other)?;
    sync_disks();
    let hot = hot_set(ctx.seed);
    let wire: Vec<String> = hot.iter().map(encode_trace_inline).collect();
    let mut checker = Checker {
        hot: &hot,
        entries: corpus.len() as u64,
        reference: Reference::default(),
        canonical: HashMap::new(),
    };
    for e in corpus.iter() {
        checker.reference.add_entry(e.name.clone(), e.category.tag().to_string(), e.trace.clone());
    }

    let args = serve_args(&corpus_dir, None);
    let starts = if ctx.traced { 1 } else { SETUP_STARTS };
    let (daemon, conn) = start_daemon(ctx, &mut report, starts, |_| Ok(args.clone()))?;
    let mut conns = connections(&daemon, conn)?;
    let mut streams: Vec<HotStream> = (0..CONNECTIONS).map(|c| hot_stream(ctx.seed, c)).collect();

    let (warm, _) = closed_loop(&mut conns, &mut streams, &wire, false, WARMUP)?;
    for done in &warm {
        let check = checker.reply(done.op, &done.reply, false);
        report.check("warmup", verb(done.op), check);
    }
    let before = (conns[0].stats()?, conns[0].metrics()?);
    let cpu_before = daemon.cpu_seconds()?;
    let span = Duration::from_secs_f64(ctx.seconds);
    let (measured, elapsed) = closed_loop(&mut conns, &mut streams, &wire, ctx.traced, span)?;
    let cpu = daemon.cpu_seconds()? - cpu_before;
    let after = (conns[0].stats()?, conns[0].metrics()?);

    let mut latencies: HashMap<&str, Vec<(f64, f64)>> = HashMap::new();
    for done in &measured {
        let check = checker.reply(done.op, &done.reply, ctx.traced);
        report.check("measure", verb(done.op), check);
        latencies
            .entry(verb(done.op))
            .or_default()
            .push((done.done_s, done.latency_ns as f64 / 1e6));
    }
    for (stats, when) in [(&before.0, "before"), (&after.0, "after")] {
        match stats.get("entries") {
            Ok(n) if n == checker.entries => {}
            other => report.mismatch(format!("STATS entries {when} the measured phase: {other:?}")),
        }
    }
    let queries = latencies.remove("QUERY").unwrap_or_default();
    let completions: Vec<f64> = measured.iter().map(|d| d.done_s).collect();
    let windows = windowed(elapsed, &completions, &queries);
    report.metric("client.throughput_per_s", windows.rate, measured.len());
    report.metric("p50_ms", windows.p50, queries.len());
    report.metric("cpu_ms_per_op", cpu * 1000.0 / measured.len() as f64, measured.len());
    let queries: Vec<f64> = queries.into_iter().map(|(_, ms)| ms).collect();
    report.metric(
        "client.query_p99_us",
        quantile(&queries, 0.99).unwrap_or(0.0) * 1000.0,
        queries.len(),
    );
    let client_query_p50_us = median(&queries) * 1000.0;

    let mqueries: Vec<f64> =
        latencies.remove("MQUERY").unwrap_or_default().into_iter().map(|(_, ms)| ms).collect();
    report.metric("client.query_p50_us", client_query_p50_us, queries.len());
    report.metric("client.mquery_p50_us", median(&mqueries) * 1000.0, mqueries.len());
    fence_metrics(&mut report, &before, &after, client_query_p50_us).map_err(io::Error::other)?;
    hello_rtt(&mut report, &mut conns[0])?;
    drop(conns);
    let peak_rss_mib = daemon.stop()?;
    report.metric("peak_rss_mib", peak_rss_mib, 1);

    if ctx.traced {
        in_process(ctx, &mut report, &corpus_dir, &hot, &wire, &checker.canonical)?;
    }
    Ok(report)
}

/// The in-process half of the traced run: replays connection 0's request
/// stream through the public layer calls, one span per call.
fn in_process(
    ctx: &Ctx,
    report: &mut Report,
    corpus_dir: &std::path::Path,
    hot: &[Trace],
    wire: &[String],
    canonical: &HashMap<usize, Answer>,
) -> io::Result<()> {
    let index = load_in_process(report, corpus_dir)?;
    // Warm the kernel cache as the daemon's was warm.
    for trace in hot {
        index.query(trace, K);
    }
    let mut tracer = Tracer::default();
    let mut queries: Vec<(u64, QueryResult, usize)> = Vec::new();
    for (request, op) in hot_stream(ctx.seed, 0).take(REPLAY_REQUESTS).enumerate() {
        let request = request as u64;
        let line = op.encode(wire, false);
        tracer.request(request, verb(op));
        let answers = match op {
            HotOp::Stats => continue,
            HotOp::Query(_) => tracer.span("request", request, |t| {
                let Ok(Request::Query { trace, k, .. }) =
                    t.span("protocol.parse", request, |_| parse_request(&line))
                else {
                    return Err("QUERY did not parse".to_string());
                };
                let result = query_spans(t, &index, request, &trace, k);
                let reply = t.span("protocol.render", request, |_| render_query_reply(&result));
                queries.push((request, result, index.len()));
                Ok(vec![parse_query_reply(&reply, false)?])
            }),
            HotOp::MQuery(_) => tracer.span("request", request, |t| {
                let traces =
                    t.span("protocol.parse", request, |_| -> Result<Vec<Trace>, String> {
                        let (header, items) =
                            line.split_once('\n').ok_or("MQUERY without items")?;
                        parse_request(header)?;
                        items.lines().map(decode_trace_inline).collect()
                    })?;
                let results: Vec<QueryResult> =
                    traces.iter().map(|trace| query_spans(t, &index, request, trace, K)).collect();
                let reply = t.span("protocol.render", request, |_| render_mquery_reply(&results));
                parse_mquery_reply(&reply, MQUERY_ITEMS, false)
            }),
        };
        let items: Vec<usize> = match op {
            HotOp::Query(i) => vec![i],
            HotOp::MQuery(items) => items.to_vec(),
            HotOp::Stats => unreachable!("skipped above"),
        };
        let same = answers.map(|a| items.iter().zip(&a).all(|(i, a)| canonical.get(i) == Some(a)));
        if same != Ok(true) {
            report.mismatch(format!(
                "in-process request {request} answers differently from the daemon"
            ));
        }
    }
    tracer.write_jsonl(&ctx.work.join(format!("spans-query-hot-{}.jsonl", ctx.seed)))?;
    layer_metrics(report, &tracer, &queries);
    let reconciled =
        ["runtime.queue_us", "protocol.parse_us", "index.query_us", "protocol.render_us"]
            .iter()
            .map(|name| report.value(name).unwrap_or(0.0))
            .sum::<f64>();
    let client = report.value("client.query_p50_us").unwrap_or(0.0);
    report.metric("reconcile.unattributed_us", client - reconciled, 1);

    let tokens: Vec<f64> = hot.iter().map(|t| index.intern_trace(t).len() as f64).collect();
    report.metric("core.tokens_per_trace", mean(&tokens), tokens.len());
    let neighbours: Vec<(&Trace, Vec<String>)> = canonical
        .iter()
        .map(|(&i, answer)| (&hot[i], answer.matches.iter().map(|m| m.name.clone()).collect()))
        .collect();
    time_neighbour_evals(report, &index, &neighbours);
    Ok(())
}

/// `core.intern` and `index.query` spans for one query trace.
pub fn query_spans(
    t: &mut Tracer,
    index: &PatternIndex,
    request: u64,
    trace: &Trace,
    k: usize,
) -> QueryResult {
    t.span("core.intern", request, |_| index.intern_trace(trace));
    t.span("index.query", request, |_| index.query(trace, k))
}

/// Per-layer medians over the replayed QUERY requests. `queries` holds
/// each one's request id, its result, whose stage timings split
/// `index.query`, and the corpus size it ran against.
pub fn layer_metrics(report: &mut Report, tracer: &Tracer, queries: &[(u64, QueryResult, usize)]) {
    for (span, metric) in [
        ("protocol.parse", "protocol.parse_us"),
        ("protocol.render", "protocol.render_us"),
        ("core.intern", "core.intern_us"),
        ("index.query", "index.query_us"),
    ] {
        let values = tracer.self_us(span, Some("QUERY"));
        report.metric(metric, median(&values), values.len());
    }
    let stage = |f: fn(&QueryResult) -> u64| -> Vec<f64> {
        queries.iter().map(|(_, r, _)| f(r) as f64 / 1000.0).collect()
    };
    let prefilter = stage(|r| r.timings.prefilter_ns);
    let n = queries.len();
    report.metric("prefilter.scan_us", median(&prefilter), n);
    let per_entry: Vec<f64> = queries
        .iter()
        .map(|(_, r, entries)| r.timings.prefilter_ns as f64 / *entries as f64)
        .collect();
    report.metric("prefilter.ns_per_entry", median(&per_entry), n);
    let keep: Vec<f64> =
        queries.iter().map(|(_, r, entries)| r.candidates as f64 / *entries as f64).collect();
    report.metric("prefilter.keep_ratio", mean(&keep), n);
    report.metric("cache.lookup_us", median(&stage(|r| r.timings.cache_ns)), n);
    report.metric("kernel.query_us", median(&stage(|r| r.timings.kernel_ns)), n);
    let intern = tracer.per_request_us("core.intern");
    let query = tracer.per_request_us("index.query");
    let other: Vec<f64> = queries
        .iter()
        .map(|(request, r, _)| {
            let stages =
                (r.timings.prefilter_ns + r.timings.cache_ns + r.timings.kernel_ns) as f64 / 1000.0;
            query[request] - intern[request] - stages
        })
        .collect();
    report.metric("index.query_other_us", median(&other), n);
}
