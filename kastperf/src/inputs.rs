//! Every input of every workload, derived from `--seed` alone: the
//! preloaded corpus, the hot query set, the closed-loop and open-loop
//! request streams and the clustering dataset. The program under test
//! only ever sees what these functions generate.

use std::collections::HashSet;

use kastio::index::protocol::encode_trace_inline;
use kastio::workloads::mutate::mutate;
use kastio::{pattern_string, ByteMode, Dataset, DatasetShape, MutationConfig, Trace};

/// Mutated copies per base trace in the preloaded corpus: 22 bases ×
/// (1 + 185) = 4092 entries, above the index's 1024-entry threshold for
/// the per-shard parallel prefilter.
pub const CORPUS_COPIES: usize = 185;
/// Distinct traces `query-hot` draws its queries from. 64 traces × the
/// 32-candidate prefilter budget = 2048 pairs, which fits the index's
/// 4096-pair kernel cache.
pub const HOT_SET: usize = 64;
/// Mutated copies per base trace in the clustering dataset: 22 × 12 =
/// 264 traces, the paper's category and mutation mix scaled up until one
/// `kastio cluster` run takes about a second.
pub const GRAM_COPIES: usize = 11;
/// Neighbours requested by every QUERY and MQUERY.
pub const K: usize = 5;
/// Traces per MQUERY.
pub const MQUERY_ITEMS: usize = 4;
/// Items per BATCH INGEST.
pub const BATCH_ITEMS: usize = 8;

const CORPUS_SALT: u64 = 0x636f_7270_7573;
const HOT_SALT: u64 = 0x686f_7473_6574;
const STREAM_SALT: u64 = 0x7374_7265_616d;
const FRESH_SALT: u64 = 0x6672_6573_6800;
const GRAM_SALT: u64 = 0x6772_616d_0000;

/// SplitMix64: a small, fixed generator, so the inputs do not change when
/// the repository's own random-number shim does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-purpose `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.rotate_left(17))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The ~4096-entry corpus both serving workloads preload.
pub fn corpus(seed: u64) -> Dataset {
    let shape = DatasetShape { copies: CORPUS_COPIES, ..DatasetShape::paper() };
    Dataset::generate(shape, Rng::new(seed, CORPUS_SALT).next_u64())
}

/// The paper-mix dataset `gram-paper` clusters.
pub fn gram_dataset(seed: u64) -> Dataset {
    let shape = DatasetShape { copies: GRAM_COPIES, ..DatasetShape::paper() };
    Dataset::generate(shape, Rng::new(seed, GRAM_SALT).next_u64())
}

/// The 64 traces `query-hot` queries, drawn from a paper-mix dataset of
/// their own seed.
pub fn hot_set(seed: u64) -> Vec<Trace> {
    let shape = DatasetShape { copies: 2, ..DatasetShape::paper() };
    let dataset = Dataset::generate(shape, Rng::new(seed, HOT_SALT).next_u64());
    dataset.iter().take(HOT_SET).map(|e| e.trace.clone()).collect()
}

/// One `query-hot` operation; indices point into the hot set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotOp {
    /// `QUERY k=5` of one hot trace.
    Query(usize),
    /// `MQUERY k=5` of four hot traces.
    MQuery([usize; MQUERY_ITEMS]),
    /// `STATS`.
    Stats,
}

impl HotOp {
    /// The request bytes, newline-terminated; `traced` adds `trace=1`.
    pub fn encode(&self, wire: &[String], traced: bool) -> String {
        let flag = if traced { " trace=1" } else { "" };
        match self {
            HotOp::Query(i) => format!("QUERY k={K}{flag} {}\n", wire[*i]),
            HotOp::MQuery(items) => {
                let mut out = format!("MQUERY k={K}{flag} {MQUERY_ITEMS}\n");
                for &i in items {
                    out.push_str(&wire[i]);
                    out.push('\n');
                }
                out
            }
            HotOp::Stats => "STATS\n".to_string(),
        }
    }
}

/// The endless read-only mix of one `query-hot` connection: ~80% QUERY,
/// ~15% MQUERY, ~5% STATS, traces uniform over the hot set.
#[derive(Debug, Clone)]
pub struct HotStream(Rng);

/// The operation stream of `query-hot` connection `conn`.
pub fn hot_stream(seed: u64, conn: usize) -> HotStream {
    HotStream(Rng::new(seed ^ (conn as u64 + 1).wrapping_mul(0x1000_0001), STREAM_SALT))
}

impl Iterator for HotStream {
    type Item = HotOp;

    fn next(&mut self) -> Option<HotOp> {
        let rng = &mut self.0;
        let roll = rng.unit();
        Some(if roll < 0.80 {
            HotOp::Query(rng.below(HOT_SET))
        } else if roll < 0.95 {
            HotOp::MQuery(std::array::from_fn(|_| rng.below(HOT_SET)))
        } else {
            HotOp::Stats
        })
    }
}

/// One `ingest-wal` operation; indices point into [`WalPlan::traces`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `INGEST` of one fresh trace.
    Ingest(usize),
    /// `BATCH INGEST` of eight fresh traces.
    Batch(Vec<usize>),
    /// `QUERY k=5` of a fresh trace.
    Query(usize),
}

impl WalOp {
    /// The verb name used in per-verb accounting.
    pub fn verb(&self) -> &'static str {
        match self {
            WalOp::Ingest(_) => "INGEST",
            WalOp::Batch(_) => "BATCH",
            WalOp::Query(_) => "QUERY",
        }
    }

    /// INGEST and BATCH INGEST go to connection 0 and QUERY to
    /// connection 1, so only the write connection waits on the device.
    /// It applies its requests in send order, so the ids the daemon
    /// assigns follow from the replies (see `ingest_wal`).
    pub fn conn(&self) -> usize {
        match self {
            WalOp::Query(_) => 1,
            _ => 0,
        }
    }
}

/// A request of the open-loop schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Scheduled send time, nanoseconds after the phase starts.
    pub at_ns: u64,
    /// What to send.
    pub op: WalOp,
}

/// The `ingest-wal` schedule for one phase, plus every trace it sends.
#[derive(Debug, Clone)]
pub struct WalPlan {
    /// Requests in schedule order.
    pub requests: Vec<Planned>,
    /// Never-repeated traces, each with the category tag it is labelled with.
    pub traces: Vec<(String, Trace)>,
    /// `traces` in the inline wire form.
    pub wire: Vec<String>,
}

impl WalPlan {
    /// The request bytes of `op`, newline-terminated; `traced` adds
    /// `trace=1` to queries.
    pub fn encode(&self, op: &WalOp, traced: bool) -> String {
        match op {
            WalOp::Ingest(i) => format!("INGEST {} {}\n", self.traces[*i].0, self.wire[*i]),
            WalOp::Batch(items) => {
                let mut out = format!("BATCH INGEST {}\n", items.len());
                for &i in items {
                    out.push_str(&format!("{} {}\n", self.traces[i].0, self.wire[i]));
                }
                out
            }
            WalOp::Query(i) => {
                let flag = if traced { " trace=1" } else { "" };
                format!("QUERY k={K}{flag} {}\n", self.wire[*i])
            }
        }
    }
}

/// Mutants of the paper dataset whose pattern strings never repeat, so
/// every query built from them misses the kernel cache.
struct FreshTraces {
    bases: Vec<(String, Trace)>,
    rng: Rng,
    seen: HashSet<String>,
}

impl FreshTraces {
    fn new(seed: u64) -> FreshTraces {
        let mut rng = Rng::new(seed, FRESH_SALT);
        let bases = Dataset::paper(rng.next_u64())
            .iter()
            .map(|e| (e.category.tag().to_string(), e.trace.clone()))
            .collect();
        FreshTraces { bases, rng, seen: HashSet::new() }
    }

    fn next(&mut self) -> (String, Trace) {
        let config = MutationConfig::default();
        for _ in 0..10_000 {
            let (tag, base) = &self.bases[self.rng.below(self.bases.len())];
            let trace = mutate(base, &config, self.rng.next_u64());
            if self.seen.insert(pattern_string(&trace, ByteMode::Preserve).to_string()) {
                return (tag.clone(), trace);
            }
        }
        panic!("the mutation engine stopped producing new pattern strings");
    }
}

/// The `ingest-wal` schedule: `rate` requests per second for `seconds`,
/// ~40% INGEST, ~10% BATCH INGEST of 8, ~50% QUERY, every trace fresh.
/// `phase` separates the warm-up schedule from the measured one.
pub fn wal_plan(seed: u64, phase: u64, rate: u64, seconds: f64) -> WalPlan {
    let mut rng = Rng::new(seed ^ phase.wrapping_mul(0x5851_F42D_4C95_7F2D), STREAM_SALT);
    let mut fresh = FreshTraces::new(seed ^ phase);
    let count = (rate as f64 * seconds).round() as u64;
    let mut plan = WalPlan { requests: Vec::new(), traces: Vec::new(), wire: Vec::new() };
    let mut take = |plan: &mut WalPlan| {
        let (tag, trace) = fresh.next();
        plan.wire.push(encode_trace_inline(&trace));
        plan.traces.push((tag, trace));
        plan.traces.len() - 1
    };
    for i in 0..count {
        let roll = rng.unit();
        let op = if roll < 0.40 {
            WalOp::Ingest(take(&mut plan))
        } else if roll < 0.50 {
            WalOp::Batch((0..BATCH_ITEMS).map(|_| take(&mut plan)).collect())
        } else {
            WalOp::Query(take(&mut plan))
        };
        plan.requests.push(Planned { at_ns: i * 1_000_000_000 / rate, op });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        let hot = |seed| -> String {
            let wire: Vec<String> = hot_set(seed).iter().map(encode_trace_inline).collect();
            (0..2)
                .flat_map(|conn| hot_stream(seed, conn).take(500).collect::<Vec<_>>())
                .map(|op| op.encode(&wire, false))
                .collect()
        };
        assert_eq!(hot(3), hot(3));
        assert_ne!(hot(3), hot(4));

        let wal = |seed| -> Vec<(u64, String)> {
            let plan = wal_plan(seed, 1, 100, 2.0);
            plan.requests.iter().map(|r| (r.at_ns, plan.encode(&r.op, false))).collect()
        };
        assert_eq!(wal(3), wal(3));
        assert_ne!(wal(3), wal(4));
    }

    #[test]
    fn query_hot_stream_is_read_only_with_the_intended_mix() {
        let ops: Vec<HotOp> = hot_stream(11, 0).take(20_000).collect();
        let queries = ops.iter().filter(|op| matches!(op, HotOp::Query(_))).count();
        let mqueries = ops.iter().filter(|op| matches!(op, HotOp::MQuery(_))).count();
        assert!((15_500..16_500).contains(&queries), "{queries}");
        assert!((2_700..3_300).contains(&mqueries), "{mqueries}");
        let wire: Vec<String> = hot_set(11).iter().map(encode_trace_inline).collect();
        for op in &ops {
            let request = op.encode(&wire, false);
            assert!(
                ["QUERY ", "MQUERY ", "STATS"].iter().any(|verb| request.starts_with(verb)),
                "query-hot must never write: {request}"
            );
        }
    }

    #[test]
    fn wal_plan_traces_never_repeat() {
        let plan = wal_plan(5, 1, 200, 3.0);
        assert_eq!(plan.requests.len(), 600);
        let strings: HashSet<String> = plan
            .traces
            .iter()
            .map(|(_, t)| pattern_string(t, ByteMode::Preserve).to_string())
            .collect();
        assert_eq!(strings.len(), plan.traces.len());
        let queries = plan.requests.iter().filter(|r| matches!(r.op, WalOp::Query(_))).count();
        assert!((250..350).contains(&queries), "{queries}");
    }
}
