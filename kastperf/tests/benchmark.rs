//! Tests of the benchmark against the real daemon. They need a release
//! `kastio` binary: `release/kastio` under `$CARGO_TARGET_DIR`,
//! `.bench_build` or `target` at the repository root
//! (`python3 kastperf/run.py …` or `cargo build --release` builds one).

use std::path::{Path, PathBuf};

use kastperf::inputs::corpus;
use kastperf::workloads::{query_hot, Ctx};

fn kastio_binary() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let candidates = std::env::var_os("CARGO_TARGET_DIR")
        .map(|d| root.join(d).join("release/kastio"))
        .into_iter()
        .chain(["target", ".bench_build"].map(|d| root.join(d).join("release/kastio")));
    let candidates: Vec<PathBuf> = candidates.collect();
    candidates.iter().find(|p| p.is_file()).cloned().unwrap_or_else(|| {
        panic!("no kastio binary at {candidates:?}; build it with `cargo build --release`")
    })
}

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("export dir is readable")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("exported file is readable"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn same_seed_gives_a_byte_identical_corpus() {
    let base = work_dir("corpus-determinism");
    let (a, b) = (base.join("a"), base.join("b"));
    kastio::workloads::export_dataset(&corpus(7), &a).expect("export a");
    kastio::workloads::export_dataset(&corpus(7), &b).expect("export b");
    let (fa, fb) = (dir_bytes(&a), dir_bytes(&b));
    assert_eq!(fa.len(), corpus(7).len() + 1, "one file per entry plus MANIFEST");
    assert!(fa == fb, "the same seed must export byte-identical corpora");
    assert_ne!(corpus(7), corpus(8), "another seed gives another corpus");
}

/// A short `query-hot` run against the daemon: every reply checks out,
/// and `STATS entries` never moves (the run records a mismatch if it
/// does, before, during or after the measured phase).
#[test]
fn query_hot_leaves_the_corpus_unchanged() {
    let ctx = Ctx {
        kastio: kastio_binary(),
        work: work_dir("query-hot"),
        seed: 3,
        seconds: 1.0,
        traced: false,
    };
    let report = query_hot::run(&ctx).expect("query-hot runs");
    assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    assert_eq!(report.failed(), 0, "{:?}", report.errors);
    let stats = report.counts.get(&("measure", "STATS")).copied().unwrap_or_default();
    assert!(stats.ok > 0, "the measured phase checked STATS: {:?}", report.counts);
    assert!(report.value("p50_ms").is_some_and(|p50| p50 > 0.0));
}
