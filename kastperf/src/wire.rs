//! The client side of the kastio line protocol: the request/reply call,
//! the open-loop sender, and parsers for the `STATS` and `METRICS`
//! replies. Reply framing is the protocol's own
//! [`protocol::read_reply`].

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use kastio::index::protocol;

/// Longest wait for a reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr` (`host:port`). A reply that takes longer than
    /// [`REPLY_TIMEOUT`] fails the run instead of hanging it.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends one request (newline-terminated, item lines included) and
    /// blocks for its reply.
    pub fn request(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        protocol::read_reply(&mut self.reader)
    }

    /// The `HELLO` handshake; an error unless the server speaks protocol 1.
    pub fn hello(&mut self) -> io::Result<()> {
        let reply = self.request("HELLO 1 kastperf\n")?;
        if reply.starts_with("OK kastio proto=1 ") {
            Ok(())
        } else {
            Err(io::Error::other(format!("HELLO refused: {}", reply.trim_end())))
        }
    }

    /// `STATS`, parsed.
    pub fn stats(&mut self) -> io::Result<Stats> {
        Stats::parse(&self.request("STATS\n")?).map_err(io::Error::other)
    }

    /// `METRICS`, parsed.
    pub fn metrics(&mut self) -> io::Result<Metrics> {
        Metrics::parse(&self.request("METRICS\n")?).map_err(io::Error::other)
    }

    /// Sends `schedule` (send times in nanoseconds after `start`, request
    /// bytes) as an open loop: requests fall due on the schedule whether
    /// or not earlier ones were answered, and each one's latency counts
    /// from its *scheduled* time, so a stall also charges the requests
    /// queued behind it. At most one request is on the wire at a time: a
    /// request that falls due while the previous one is unanswered waits
    /// in the sender and goes out the moment the reply arrives. (With
    /// several requests in flight, the daemon's replies would wait on
    /// Nagle's algorithm for the client's delayed ACKs.)
    pub fn open_loop(
        &mut self,
        schedule: &[(u64, String)],
        start: Instant,
    ) -> io::Result<Vec<OpenLoopReply>> {
        let mut out = Vec::with_capacity(schedule.len());
        // When the connection last became free to send.
        let mut free_since = start;
        for (at_ns, request) in schedule {
            let due = start + Duration::from_nanos(*at_ns);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let reply = self.request(request)?;
            let answered = Instant::now();
            out.push(OpenLoopReply {
                lag_ns: nanos(sent - due.max(free_since)),
                wait_ns: nanos(free_since.saturating_duration_since(due)),
                service_ns: nanos(answered - sent),
                latency_ns: nanos(answered - due),
                reply,
            });
            free_since = answered;
        }
        Ok(out)
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The outcome of one open-loop request.
#[derive(Debug, Clone)]
pub struct OpenLoopReply {
    /// The sender's own lateness: how long after the request was due
    /// *and* its connection was free it went out.
    pub lag_ns: u64,
    /// How long the request, once due, waited for the previous request
    /// on its connection to be answered: the connection's backlog.
    pub wait_ns: u64,
    /// Send to complete reply: how long the request held its connection.
    pub service_ns: u64,
    /// Scheduled send time to complete reply.
    pub latency_ns: u64,
    /// The reply.
    pub reply: String,
}

/// A parsed `STATS` reply.
#[derive(Debug, Clone, Default)]
pub struct Stats(BTreeMap<String, String>);

impl Stats {
    /// Parses `STAT <key> <value>` lines up to `END`.
    pub fn parse(reply: &str) -> Result<Stats, String> {
        let mut map = BTreeMap::new();
        for line in reply.lines() {
            if line == "END" {
                return Ok(Stats(map));
            }
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("STAT"), Some(key), Some(value)) => {
                    map.insert(key.to_string(), value.to_string());
                }
                _ => return Err(format!("bad STATS line `{line}`")),
            }
        }
        Err(format!("STATS reply without END: {reply}"))
    }

    /// A numeric value; an error when the key is missing or not a number.
    pub fn get(&self, key: &str) -> Result<u64, String> {
        self.0
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("STATS has no numeric `{key}`"))
    }

    /// How much the counter `key` grew from `before` to `self`. Only
    /// monotonic counters may be differenced; gauges are read as
    /// after-values with [`Stats::get`].
    pub fn delta(&self, before: &Stats, key: &str) -> Result<u64, String> {
        let (after, before) = (self.get(key)?, before.get(key)?);
        after.checked_sub(before).ok_or_else(|| format!("counter `{key}` went backwards"))
    }
}

/// The request-latency histograms of a parsed `METRICS` reply: per verb,
/// the count in each bucket (keyed by the bucket's upper bound in ns).
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, BTreeMap<u64, u64>>);

impl Metrics {
    /// Parses the `kastio_request_latency_ns_bucket` series. The
    /// exposition lists cumulative counts of non-empty buckets only.
    pub fn parse(reply: &str) -> Result<Metrics, String> {
        if !reply.starts_with("OK metrics\n") || !reply.ends_with("END\n") {
            return Err(format!("bad METRICS reply: {}", reply.lines().next().unwrap_or("")));
        }
        let mut cumulative: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        for line in reply.lines() {
            let Some(rest) = line.strip_prefix("kastio_request_latency_ns_bucket{verb=\"") else {
                continue;
            };
            let bad = || format!("bad histogram line `{line}`");
            let (verb, rest) = rest.split_once("\",le=\"").ok_or_else(bad)?;
            let (le, count) = rest.split_once("\"} ").ok_or_else(bad)?;
            let le = if le == "+Inf" { u64::MAX } else { le.parse().map_err(|_| bad())? };
            let count: u64 = count.parse().map_err(|_| bad())?;
            cumulative.entry(verb.to_string()).or_default().push((le, count));
        }
        let mut verbs = BTreeMap::new();
        for (verb, mut series) in cumulative {
            series.sort_unstable();
            let mut buckets = BTreeMap::new();
            let mut below = 0;
            for (le, count) in series {
                if count > below {
                    buckets.insert(le, count - below);
                }
                below = below.max(count);
            }
            verbs.insert(verb, buckets);
        }
        Ok(Metrics(verbs))
    }

    /// Quantile `q` (upper bucket bound, µs) of the requests of `verb`
    /// served between `before` and `self`; 0 when there were none.
    pub fn delta_quantile_us(&self, before: &Metrics, verb: &str, q: f64) -> f64 {
        let empty = BTreeMap::new();
        let after = self.0.get(verb).unwrap_or(&empty);
        let before = before.0.get(verb).unwrap_or(&empty);
        let delta: Vec<(u64, u64)> = after
            .iter()
            .map(|(&le, &n)| (le, n.saturating_sub(before.get(&le).copied().unwrap_or(0))))
            .collect();
        let total: u64 = delta.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (le, n) in delta {
            seen += n;
            if seen >= rank {
                return le as f64 / 1000.0;
            }
        }
        unreachable!("the ranks sum to the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_deltas_rebuild_the_interval_distribution() {
        let scrape = |buckets: &[(&str, u64)]| {
            let mut text = String::from("OK metrics\n");
            for (le, n) in buckets {
                text.push_str(&format!(
                    "kastio_request_latency_ns_bucket{{verb=\"query\",le=\"{le}\"}} {n}\n"
                ));
            }
            text.push_str("END\n");
            Metrics::parse(&text).expect("well-formed")
        };
        let before = scrape(&[("1000", 5), ("+Inf", 5)]);
        let after = scrape(&[("1000", 6), ("2000", 16), ("4000", 26), ("+Inf", 26)]);
        // The interval saw 1 request ≤1 µs, 10 ≤2 µs and 10 ≤4 µs.
        assert_eq!(after.delta_quantile_us(&before, "query", 0.5), 2.0);
        assert_eq!(after.delta_quantile_us(&before, "query", 0.99), 4.0);
        assert_eq!(after.delta_quantile_us(&before, "ingest", 0.5), 0.0);
    }

    #[test]
    fn stats_deltas_only_for_counters() {
        let before = Stats::parse("STAT queries 5\nSTAT mem_used_bytes 9\nEND\n").expect("ok");
        let after = Stats::parse("STAT queries 8\nSTAT mem_used_bytes 7\nEND\n").expect("ok");
        assert_eq!(after.delta(&before, "queries"), Ok(3));
        assert!(after.delta(&before, "mem_used_bytes").is_err(), "a gauge can fall");
        assert_eq!(after.get("mem_used_bytes"), Ok(7));
    }
}
