//! `gram-paper`: `kastio cluster` on a dataset with the paper's four
//! categories and mutation mix, scaled up. Kernel evaluation, the
//! normalised Gram matrix, PSD repair and single-linkage clustering do
//! all the work; no socket, WAL, prefilter or cache is involved.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use kastio::workloads::{export_dataset, import_dataset};
use kastio::{
    adjusted_rand_index, gram_matrix, hierarchical, pattern_string, psd_repair, purity, ByteMode,
    Dataset, DistanceMatrix, GramMode, KastKernel, KastOptions, Linkage, SquareMatrix,
    TokenInterner,
};

use super::{sync_disks, time_kernel_evals, Ctx};
use crate::inputs::{gram_dataset, Rng};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{mean, median};

/// In-process pipelines per untraced run that compute the expected
/// output; `setup_s` is the median of their times.
const SETUP_REPEATS: usize = 3;
/// Fewest cluster runs a measured phase makes, however short.
const MIN_RUNS: usize = 3;
/// Groups the CLI cuts the dendrogram into (its default).
const GROUPS: usize = 3;
/// The CLI's default cut weight.
const CUT_WEIGHT: u64 = 2;
/// In-process pipeline repetitions of the traced run.
const TRACED_REPEATS: usize = 3;
/// Kernel pairs timed for `kernel.eval_us`.
const KERNEL_PAIRS: usize = 2000;

/// What `kastio cluster` prints for a clustering: the header with the
/// clamped-eigenvalue count, each cluster's members, purity and ARI.
fn cluster_stdout(dataset: &Dataset, clamped: usize, labels: &[usize]) -> String {
    let mut out = format!(
        "{} examples, cut weight {CUT_WEIGHT}, {:?}, {GROUPS} clusters, {clamped} eigenvalues clamped\n",
        dataset.len(),
        ByteMode::Preserve,
    );
    for cluster in 0..GROUPS {
        let members: Vec<&str> = dataset
            .iter()
            .zip(labels)
            .filter(|(_, &l)| l == cluster)
            .map(|(e, _)| e.name.as_str())
            .collect();
        if !members.is_empty() {
            out +=
                &format!("cluster {cluster} ({} members): {}\n", members.len(), members.join(" "));
        }
    }
    let truth = dataset.labels();
    out += &format!("purity vs categories: {:.3}\n", purity(labels, &truth));
    out += &format!("ARI vs categories   : {:.3}\n", adjusted_rand_index(labels, &truth));
    out
}

/// The clustering pipeline of `kastio cluster`, in process, one span per
/// layer call; returns what the CLI should print.
fn pipeline(tracer: &mut Tracer, request: u64, dir: &Path) -> Result<String, String> {
    let dataset =
        tracer.span("trace.import", request, |_| import_dataset(dir)).map_err(|e| e.to_string())?;
    let strings = tracer.span("core.intern", request, |_| {
        let mut interner = TokenInterner::new();
        dataset
            .iter()
            .map(|e| interner.intern_string(&pattern_string(&e.trace, ByteMode::Preserve)))
            .collect::<Vec<_>>()
    });
    let kernel = KastKernel::new(KastOptions::with_cut_weight(CUT_WEIGHT));
    let gram = tracer
        .span("kernels.gram", request, |_| gram_matrix(&kernel, &strings, GramMode::Normalized, 0));
    let repair = tracer.span("linalg.psd_repair", request, |_| {
        psd_repair(&SquareMatrix::from_row_major(gram.n(), gram.as_slice().to_vec()))
    });
    let repair = repair.map_err(|e| e.to_string())?;
    let labels = tracer.span("cluster.hac", request, |_| {
        let distance = DistanceMatrix::from_gram(repair.matrix.n(), repair.matrix.as_slice());
        hierarchical(&distance, Linkage::Single).cut(GROUPS.min(dataset.len()))
    });
    Ok(cluster_stdout(&dataset, repair.clamped, &labels))
}

/// Runs `gram-paper`.
pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let dataset = gram_dataset(ctx.seed);
    ctx.clean()?;
    let dir = ctx.fresh_dir("gram")?;
    export_dataset(&dataset, &dir).map_err(io::Error::other)?;
    sync_disks();

    // Set-up: what `kastio cluster` should print, computed in process
    // through the library calls the CLI makes. It is user-space work like
    // the measured runs, where a daemon start (~40 ms, mostly spawning and
    // loading) moved with the machine's state several times as much.
    let repeats = if ctx.traced { 1 } else { SETUP_REPEATS };
    let mut tracer = Tracer::default();
    let mut setups = Vec::with_capacity(repeats);
    let mut expected = String::new();
    for request in 0..repeats as u64 {
        let started = Instant::now();
        let lines = pipeline(&mut tracer, request, &dir).map_err(io::Error::other)?;
        setups.push(started.elapsed().as_secs_f64());
        if request > 0 && lines != expected {
            report.mismatch(format!("in-process pipeline set-up {request} gave {lines:?}"));
        }
        expected = lines;
    }
    report.metric("setup_s", median(&setups), setups.len());
    let span = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while walls.len() < MIN_RUNS || started.elapsed() < span {
        let run = crate::proc::run_cluster(&ctx.kastio, &dir, &ctx.work.join("cluster.log"))?;
        let check = if !run.success {
            Err("kastio cluster exited non-zero".to_string())
        } else if run.stdout != expected {
            let (printed, wanted) = run
                .stdout
                .lines()
                .map(Some)
                .chain(std::iter::repeat(None))
                .zip(expected.lines().map(Some).chain(std::iter::repeat(None)))
                .find(|(a, b)| a != b)
                .expect("the outputs differ in some line");
            Err(format!("printed {printed:?} where the in-process pipeline gives {wanted:?}"))
        } else {
            Ok(())
        };
        report.check("measure", "CLUSTER", check);
        walls.push(run.wall_s * 1000.0);
        cpus.push(run.cpu_s * 1000.0);
        rss.push(run.peak_rss_mib);
    }
    let elapsed = started.elapsed().as_secs_f64();
    report.metric("client.throughput_per_s", walls.len() as f64 / elapsed, walls.len());
    report.metric("p50_ms", median(&walls), walls.len());
    report.metric("cpu_ms_per_op", median(&cpus), cpus.len());
    report.metric("peak_rss_mib", median(&rss), rss.len());

    if ctx.traced {
        let mut tracer = Tracer::default();
        for request in 0..TRACED_REPEATS as u64 {
            tracer.request(request, "CLUSTER");
            let lines = tracer.span("request", request, |t| pipeline(t, request, &dir));
            if lines.as_ref() != Ok(&expected) {
                report.mismatch(format!("in-process pipeline repeat {request} gave {lines:?}"));
            }
        }
        tracer.write_jsonl(&ctx.work.join(format!("spans-gram-paper-{}.jsonl", ctx.seed)))?;
        let seconds = |name: &str| median(&tracer.self_us(name, None)) / 1e6;
        let n = dataset.len() as f64;
        report.metric("trace.import_s", seconds("trace.import"), TRACED_REPEATS);
        report.metric("core.intern_us", seconds("core.intern") * 1e6 / n, TRACED_REPEATS);
        report.metric("kernels.gram_s", seconds("kernels.gram"), TRACED_REPEATS);
        report.metric(
            "kernels.gram_ns_per_pair",
            seconds("kernels.gram") * 1e9 / (n * (n + 1.0) / 2.0),
            TRACED_REPEATS,
        );
        report.metric("linalg.psd_repair_s", seconds("linalg.psd_repair"), TRACED_REPEATS);
        report.metric("cluster.hac_s", seconds("cluster.hac"), TRACED_REPEATS);

        let mut interner = TokenInterner::new();
        let strings: Vec<_> = dataset
            .iter()
            .map(|e| interner.intern_string(&pattern_string(&e.trace, ByteMode::Preserve)))
            .collect();
        let tokens: Vec<f64> = strings.iter().map(|s| s.len() as f64).collect();
        report.metric("core.tokens_per_trace", mean(&tokens), tokens.len());
        let mut rng = Rng::new(ctx.seed, 0x7061_6972);
        let pairs: Vec<_> = (0..KERNEL_PAIRS)
            .map(|_| {
                (
                    strings[rng.below(strings.len())].clone(),
                    strings[rng.below(strings.len())].clone(),
                )
            })
            .collect();
        time_kernel_evals(&mut report, &pairs);
    }
    Ok(report)
}
