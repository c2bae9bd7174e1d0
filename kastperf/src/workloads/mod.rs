//! The three workloads, and what they share: the run context, daemon
//! set-up and the traced run's in-process index.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kastio::pattern::KastEvaluator;
use kastio::{IdString, IndexOptions, KastOptions, PatternIndex, PrefilterConfig, Trace};

use crate::proc::Daemon;
use crate::report::Report;
use crate::stats::median;
use crate::wire::Conn;

pub mod gram_paper;
pub mod ingest_wal;
pub mod query_hot;

/// Connections (and load threads) of the serving workloads: the two
/// cores of the machine the benchmark was sized on.
pub const CONNECTIONS: usize = 2;
/// A byte budget far above what the workloads use, so the daemon runs
/// with memory accounting on (`quota.mem_used_bytes`) but never sheds.
const MEMORY_BUDGET: &str = "1073741824";
/// HELLO round trips timed for `runtime.hello_rtt_us`.
const HELLO_PROBES: usize = 500;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `kastio` binary under test.
    pub kastio: PathBuf,
    /// Working directory of this run, inside the checkout.
    pub work: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
}

/// The directories a run fills; the run retires them when it ends.
const RUN_DIRS: [&str; 8] =
    ["corpus", "gram", "save0", "save1", "save2", "save3", "save4", "inproc-wal"];
/// Retired directories kept before [`Ctx::clean`] deletes them all.
const MAX_RETIRED: usize = 256;

impl Ctx {
    /// `<work>/<name>`, empty.
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.work.join(name);
        self.retire(&dir)?;
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Clears the run directories out of the way. A run calls it before it
    /// writes its inputs, for what an interrupted run left behind, and
    /// again when it ends, followed by [`sync_disks`].
    ///
    /// The directories are emptied and moved under `retired/`, not
    /// deleted. On ext4 without a journal, the inode allocator passes
    /// over inodes freed in the last minute, one lookup each, on every
    /// file it creates. Deleting a run's ~16k files would so slow down
    /// every file the next run creates, the `ingest-wal` daemon's
    /// establishing snapshot included, by as much as 3x depending on what
    /// ran just before. The truncated files keep their inodes but no
    /// data. When more than [`MAX_RETIRED`] directories have piled up,
    /// they are deleted at once, and the run after that sets up slower.
    pub fn clean(&self) -> io::Result<()> {
        let retired = self.work.join("retired");
        if std::fs::read_dir(&retired).map_or(0, Iterator::count) > MAX_RETIRED {
            std::fs::remove_dir_all(&retired)?;
        }
        for name in RUN_DIRS {
            self.retire(&self.work.join(name))?;
        }
        Ok(())
    }

    /// Truncates every file under `dir` and moves it to a new name under
    /// `<work>/retired`; nothing when `dir` does not exist.
    fn retire(&self, dir: &Path) -> io::Result<()> {
        if !dir.exists() {
            return Ok(());
        }
        truncate_files(dir)?;
        let retired = self.work.join("retired");
        std::fs::create_dir_all(&retired)?;
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("dir");
        std::fs::rename(dir, retired.join(format!("{name}-{stamp}-{}", std::process::id())))
    }
}

/// Truncates every regular file under `dir`, recursively.
fn truncate_files(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            truncate_files(&entry.path())?;
        } else if kind.is_file() {
            std::fs::OpenOptions::new().write(true).open(entry.path())?.set_len(0)?;
        }
    }
    Ok(())
}

/// Writes every dirty page back (`sync`), so the generated inputs and the
/// previous run's deletions reach the disk before set-up is timed, rather
/// than while the daemon snapshots and fsyncs. Best effort: without a
/// `sync` program set-up is merely noisier.
pub fn sync_disks() {
    let _ = std::process::Command::new("sync").status();
}

/// `kastio serve` arguments for a daemon preloaded from `corpus`,
/// durable under `save` with a write-ahead log when given.
pub fn serve_args(corpus: &Path, save: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--corpus".to_string(),
        corpus.display().to_string(),
        "--max-memory-bytes".to_string(),
        MEMORY_BUDGET.to_string(),
    ];
    if let Some(save) = save {
        args.extend(["--save".to_string(), save.display().to_string(), "--wal".to_string()]);
    }
    args
}

/// Starts the daemon `starts` times (`args(i)` for start `i`), keeping
/// the last one; records `setup_s` as the median set-up time.
pub fn start_daemon(
    ctx: &Ctx,
    report: &mut Report,
    starts: usize,
    mut args: impl FnMut(usize) -> io::Result<Vec<String>>,
) -> io::Result<(Daemon, Conn)> {
    let mut setups = Vec::with_capacity(starts);
    let mut last = None;
    for i in 0..starts {
        if let Some((daemon, _)) = last.take() {
            Daemon::stop(daemon)?;
            // The next start is not timed while this one's snapshot is
            // written back.
            sync_disks();
        }
        let (daemon, conn) = Daemon::start(&ctx.kastio, &args(i)?, &ctx.work.join("serve.log"))?;
        setups.push(daemon.setup_s);
        last = Some((daemon, conn));
    }
    report.metric("setup_s", median(&setups), setups.len());
    report.notes.push(("setup_s_samples", format!("{setups:?}")));
    Ok(last.expect("at least one start"))
}

/// The daemon's [`CONNECTIONS`] load connections: `first`, and new ones
/// that have completed a `HELLO`.
pub fn connections(daemon: &Daemon, first: Conn) -> io::Result<Vec<Conn>> {
    let mut conns = vec![first];
    while conns.len() < CONNECTIONS {
        let mut conn = Conn::connect(&daemon.addr)?;
        conn.hello()?;
        conns.push(conn);
    }
    Ok(conns)
}

/// Median `HELLO` round trip on an open, idle connection, in µs.
pub fn hello_rtt(report: &mut Report, conn: &mut Conn) -> io::Result<()> {
    let mut rtts = Vec::with_capacity(HELLO_PROBES);
    for _ in 0..HELLO_PROBES {
        let started = Instant::now();
        conn.hello()?;
        rtts.push(started.elapsed().as_nanos() as f64 / 1000.0);
    }
    report.metric("runtime.hello_rtt_us", median(&rtts), rtts.len());
    Ok(())
}

/// The options `kastio serve` builds its index with by default.
pub fn serve_index_options() -> IndexOptions {
    IndexOptions {
        kast: KastOptions::with_cut_weight(2),
        shards: 4,
        prefilter: PrefilterConfig::default(),
        ..IndexOptions::default()
    }
}

/// Loads `corpus` into an in-process index as the daemon does at
/// start-up, recording `persist.load_s`.
pub fn load_in_process(report: &mut Report, corpus: &Path) -> io::Result<PatternIndex> {
    let started = Instant::now();
    let index = kastio::load_index(corpus, serve_index_options()).map_err(io::Error::other)?;
    report.metric("persist.load_s", started.elapsed().as_secs_f64(), 1);
    Ok(index)
}

/// Times `KastEvaluator::raw` on each (query, returned neighbour) pair,
/// recording `kernel.eval_us`.
pub fn time_neighbour_evals(
    report: &mut Report,
    index: &PatternIndex,
    queries: &[(&Trace, Vec<String>)],
) {
    let strings: HashMap<String, IdString> =
        index.entries().into_iter().map(|e| (e.name, e.string)).collect();
    let mut pairs = Vec::new();
    for (trace, names) in queries {
        let query = index.intern_trace(trace);
        pairs.extend(names.iter().map(|name| (query.clone(), strings[name].clone())));
    }
    time_kernel_evals(report, &pairs);
}

/// Times `KastEvaluator::raw` on each pair, recording `kernel.eval_us`.
pub fn time_kernel_evals(report: &mut Report, pairs: &[(IdString, IdString)]) {
    let mut evaluator = KastEvaluator::new(KastOptions::with_cut_weight(2));
    let mut times = Vec::with_capacity(pairs.len());
    for (a, b) in pairs {
        let started = Instant::now();
        std::hint::black_box(evaluator.raw(std::hint::black_box(a), std::hint::black_box(b)));
        times.push(started.elapsed().as_nanos() as f64 / 1000.0);
    }
    report.metric("kernel.eval_us", median(&times), times.len());
}

/// The wire-side per-layer metrics of a serving run, from the `STATS`
/// and `METRICS` fences around its measured phase.
pub fn fence_metrics(
    report: &mut Report,
    before: &(crate::wire::Stats, crate::wire::Metrics),
    after: &(crate::wire::Stats, crate::wire::Metrics),
    client_query_p50_us: f64,
) -> Result<(), String> {
    let (stats_before, metrics_before) = before;
    let (stats, metrics) = after;
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let hits = stats.delta(stats_before, "cache_hits")?;
    let evals = stats.delta(stats_before, "kernel_evals")?;
    let queries = stats.delta(stats_before, "queries")?;
    report.metric("cache.hit_ratio", ratio(hits, hits + evals), (hits + evals) as usize);
    report.metric("kernel.evals_per_query", ratio(evals, queries), queries as usize);
    let records = stats.delta(stats_before, "wal_records")?;
    let fsyncs = stats.delta(stats_before, "wal_fsyncs")?;
    report.metric("wal.records_per_fsync", ratio(records, fsyncs), fsyncs as usize);
    report.metric("quota.mem_used_bytes", stats.get("mem_used_bytes")? as f64, 1);
    let server_query = metrics.delta_quantile_us(metrics_before, "query", 0.5);
    let server_ingest = metrics.delta_quantile_us(metrics_before, "ingest", 0.5);
    let served = |verb| stats.delta(stats_before, verb).map(|n| n as usize);
    report.metric("server.query_us", server_query, served("verb_query")?);
    report.metric("server.ingest_us", server_ingest, served("verb_ingest")?);
    report.metric("runtime.queue_us", client_query_p50_us - server_query, served("verb_query")?);
    Ok(())
}
