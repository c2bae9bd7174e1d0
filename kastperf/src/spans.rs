//! In-memory spans around the calls the traced run makes into each
//! layer's public functions.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `index.query`.
    pub name: &'static str,
    /// Nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds after the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The kind (verb) of each request id, for per-verb statistics.
    kinds: HashMap<u64, &'static str>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), kinds: HashMap::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags request `request` with its verb.
    pub fn request(&mut self, request: u64, kind: &'static str) {
        self.kinds.insert(request, kind);
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time in µs of every span named `name` on requests of verb
    /// `kind` (any verb when `None`): its duration minus what its child
    /// spans cover. Children run one after another inside their parent,
    /// so they cover the sum of their durations.
    pub fn self_us(&self, name: &str, kind: Option<&str>) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.name == name)
            .filter(|(s, _)| kind.is_none_or(|k| self.kinds.get(&s.request) == Some(&k)))
            .map(|(s, covered)| (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1000.0)
            .collect()
    }

    /// Total duration in µs of the spans named `name`, per request.
    pub fn per_request_us(&self, name: &str) -> HashMap<u64, f64> {
        let mut totals = HashMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(span.request).or_insert(0.0) +=
                (span.end_ns - span.start_ns) as f64 / 1000.0;
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let kind = self.kinds.get(&s.request).copied().unwrap_or("-");
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"verb\":\"{kind}\"}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        tracer.request(1, "QUERY");
        tracer.span("request", 1, |t| {
            t.span("child", 1, |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let parent = tracer.self_us("request", Some("QUERY"))[0];
        let child = tracer.self_us("child", None)[0];
        assert!(child >= 20_000.0, "{child}");
        assert!((5_000.0..20_000.0).contains(&parent), "{parent}");
        assert!(tracer.self_us("request", Some("INGEST")).is_empty());
        assert_eq!(tracer.spans[1].parent, Some(0));
    }
}
