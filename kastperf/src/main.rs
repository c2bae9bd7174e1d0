//! `kastperf --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! --kastio <binary> --work <dir>`: one run of one workload. The last
//! line of stdout is the result object; exit 0 only when every reply was
//! correct.

use std::path::PathBuf;
use std::process::ExitCode;

use kastperf::metrics::{END_TO_END, PER_LAYER};
use kastperf::report::{json_string, Report};
use kastperf::workloads::{gram_paper, ingest_wal, query_hot, sync_disks, Ctx};

const USAGE: &str = "usage: kastperf --workload query-hot|ingest-wal|gram-paper --seed N \
                     --seconds N --trace 0|1 --kastio <kastio binary> --work <work dir>";

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value.clone());
    }
    let mut take = |name: &str| values.remove(name).ok_or_else(|| format!("--{name} is required"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|_| "--seed needs an unsigned integer".to_string())?;
    let seconds: f64 =
        take("seconds")?.parse().map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let kastio = PathBuf::from(take("kastio")?);
    let work = PathBuf::from(take("work")?).join(&workload);
    if let Some(extra) = values.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args { workload, ctx: Ctx { kastio, work, seed, seconds, traced } })
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine's CPU time so far as (steal, total) in clock ticks, from
/// the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn run(args: &Args) -> std::io::Result<Report> {
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.work)?;
    let report = match args.workload.as_str() {
        "query-hot" => query_hot::run(ctx),
        "ingest-wal" => ingest_wal::run(ctx),
        "gram-paper" => gram_paper::run(ctx),
        other => Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    }?;
    ctx.clean()?;
    sync_disks();
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kastperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = cpu_ticks();
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("kastperf: {} run failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ctx = &args.ctx;
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = git_commit();
    // The share of the machine's CPU time the hypervisor gave to other
    // guests during the run: what makes timings of a shared machine drift.
    let steal = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    let notes = [
        ("workload", json_string(&args.workload)),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("traced", ctx.traced.to_string()),
        ("command", json_string(&argv.join(" "))),
        ("available_parallelism", parallelism.to_string()),
        ("commit", json_string(&commit)),
        ("cpu_steal_share", steal),
    ];
    report.notes.splice(0..0, notes);
    let provenance = report.provenance_json();
    let _ = std::fs::write(
        ctx.work.join(format!("run-{}-{}.json", ctx.seed, u8::from(ctx.traced))),
        &provenance,
    );

    println!(
        "kastperf {} seed={} seconds={} trace={} available_parallelism={parallelism} commit={commit}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    for m in &report.metrics {
        let unit = kastperf::metrics::unit(m.name).unwrap_or("?");
        println!("  {:<28} {:>16.4} {unit:<6} (n={})", m.name, m.value, m.samples);
    }
    for ((phase, verb), c) in &report.counts {
        println!("  {phase:<8} {verb:<7} sent={} ok={} failed={}", c.sent, c.ok, c.failed);
    }
    for why in report.mismatches.iter().chain(&report.errors) {
        eprintln!("kastperf: FAILED {why}");
    }
    println!("provenance {provenance}");
    if let Some(why) = &report.invalid {
        eprintln!("kastperf: run invalid, not reported: {why}");
        return ExitCode::from(3);
    }
    let listed: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    if !ctx.traced {
        for (name, _) in END_TO_END {
            assert!(report.value(name).is_some(), "{} did not measure {name}", args.workload);
        }
    }
    println!("{}", report.result_json(listed));
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
