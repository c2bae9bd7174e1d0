//! The metric names `BENCHMARK.json` lists, with their units. An
//! untraced run prints exactly the end-to-end list, a traced run exactly
//! the per-layer list.

/// End-to-end metrics: what a user of the daemon or the clustering CLI
/// sees, and what its operator pays. Every workload reports all of them;
/// an operation is a request on the serving workloads and one `kastio
/// cluster` run on `gram-paper`, and `p50_ms` is the latency of the
/// workload's primary operation (QUERY on `query-hot`, INGEST on
/// `ingest-wal`).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("cpu_ms_per_op", "ms"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics of the traced run, timed or counted from outside
/// the program. A layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("core.intern_us", "us"),
    ("core.tokens_per_trace", "count"),
    ("prefilter.scan_us", "us"),
    ("prefilter.ns_per_entry", "ns"),
    ("prefilter.keep_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("kernel.eval_us", "us"),
    ("kernel.query_us", "us"),
    ("kernel.evals_per_query", "count"),
    ("index.query_us", "us"),
    ("index.query_other_us", "us"),
    ("index.ingest_us", "us"),
    ("wal.append_us", "us"),
    ("wal.durable_wait_us", "us"),
    ("wal.records_per_fsync", "count"),
    ("wal.fsync_floor_us", "us"),
    ("persist.load_s", "s"),
    ("runtime.hello_rtt_us", "us"),
    ("runtime.queue_us", "us"),
    ("server.query_us", "us"),
    ("server.ingest_us", "us"),
    ("quota.mem_used_bytes", "bytes"),
    ("trace.import_s", "s"),
    ("kernels.gram_s", "s"),
    ("kernels.gram_ns_per_pair", "ns"),
    ("linalg.psd_repair_s", "s"),
    ("cluster.hac_s", "s"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.conn_wait_p99_us", "us"),
    ("loadgen.conn_busy_share", "ratio"),
    ("client.throughput_per_s", "1/s"),
    ("client.query_p50_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.mquery_p50_us", "us"),
    ("client.ingest_p50_us", "us"),
    ("client.ingest_p99_us", "us"),
    ("client.batch_p50_us", "us"),
    ("reconcile.unattributed_us", "us"),
];

/// The unit of a listed metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists here and in `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().expect("name").to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
                    (name, unit.split('"').next().expect("unit").to_string())
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }
}
