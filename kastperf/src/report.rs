//! What a run measured and what it sent, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Requests of one verb in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests sent (or cluster runs started).
    pub sent: u64,
    /// Answered as expected.
    pub ok: u64,
    /// Refused, failed or answered wrongly.
    pub failed: u64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Per (phase, verb) request accounting.
    pub counts: BTreeMap<(&'static str, &'static str), Counts>,
    /// Whole-run correctness mismatches, each a failure of its own.
    pub mismatches: Vec<String>,
    /// The first few failed requests, for diagnosis.
    pub errors: Vec<String>,
    /// Set when the run cannot be reported (the open-loop sender fell
    /// behind its schedule).
    pub invalid: Option<String>,
    /// Extra provenance (`key`, JSON value).
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a metric listed in [`crate::metrics`].
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(crate::metrics::unit(name).is_some(), "metric `{name}` is not listed");
        self.metrics.push(Metric { name, value, samples });
    }

    /// Counts one request of `verb` in `phase` answered as expected.
    pub fn ok(&mut self, phase: &'static str, verb: &'static str) {
        let counts = self.counts.entry((phase, verb)).or_default();
        counts.sent += 1;
        counts.ok += 1;
    }

    /// Counts one request of `verb` in `phase` that failed, and why.
    pub fn fail(&mut self, phase: &'static str, verb: &'static str, why: String) {
        let counts = self.counts.entry((phase, verb)).or_default();
        counts.sent += 1;
        counts.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(format!("{phase} {verb}: {why}"));
        }
    }

    /// Counts `check`'s outcome for one request.
    pub fn check(&mut self, phase: &'static str, verb: &'static str, check: Result<(), String>) {
        match check {
            Ok(()) => self.ok(phase, verb),
            Err(why) => self.fail(phase, verb, why),
        }
    }

    /// The value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Records a correctness mismatch.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Requests (and cluster runs) attempted in every phase.
    pub fn attempted(&self) -> u64 {
        self.counts.values().map(|c| c.sent).sum()
    }

    /// Failed requests plus correctness mismatches.
    pub fn failed(&self) -> u64 {
        self.counts.values().map(|c| c.failed).sum::<u64>() + self.mismatches.len() as u64
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `listed`, a metric the run did not measure reading 0.
    pub fn result_json(&self, listed: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = listed
            .iter()
            .map(|(name, unit)| {
                let value = self.value(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// The provenance record: request accounting per phase and verb, every
    /// metric with its sample count, mismatches and `notes`.
    pub fn provenance_json(&self) -> String {
        let mut out = String::from("{");
        for (key, value) in &self.notes {
            write!(out, "\"{key}\": {value}, ").expect("String write");
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|((phase, verb), c)| {
                format!(
                    "{{\"phase\": \"{phase}\", \"verb\": \"{verb}\", \"sent\": {}, \"ok\": {}, \"failed\": {}}}",
                    c.sent, c.ok, c.failed
                )
            })
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                    m.name,
                    number(m.value),
                    crate::metrics::unit(m.name).unwrap_or("?"),
                    m.samples
                )
            })
            .collect();
        let strings = |list: &[String]| -> String {
            list.iter().map(|m| json_string(m)).collect::<Vec<_>>().join(", ")
        };
        write!(
            out,
            "\"counts\": [{}], \"metrics\": [{}], \"mismatches\": [{}], \"errors\": [{}]}}",
            counts.join(", "),
            metrics.join(", "),
            strings(&self.mismatches),
            strings(&self.errors)
        )
        .expect("String write");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values, which JSON cannot carry, become `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut report = Report::default();
        report.metric("p50_ms", 1.25, 10);
        report.ok("measure", "QUERY");
        report.fail("measure", "QUERY", "ERR busy".into());
        assert_eq!(
            report.result_json(&[("p50_ms", "ms"), ("p99_ms", "ms")]),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"p99_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        report.mismatch("bad \"x\"".into());
        assert_eq!(report.failed(), 2);
        assert!(report.provenance_json().contains("\"mismatches\": [\"bad \\\"x\\\"\"]"));
    }
}
