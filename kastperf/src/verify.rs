//! Reply parsing and the in-process reference the replies are checked
//! against.

use std::collections::HashMap;

use kastio::{
    pattern_string, ByteMode, IdString, KastKernel, KastOptions, StringKernel, TokenInterner, Trace,
};

/// One `MATCH` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Entry name.
    pub name: String,
    /// Entry label.
    pub label: String,
    /// Normalised similarity, parsed back to the bit-identical `f64`.
    pub similarity: f64,
}

/// The answer to one query: the vote label and the ranked matches.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Majority-vote label (`-` on an empty corpus).
    pub label: String,
    /// Neighbours, most similar first.
    pub matches: Vec<Match>,
}

/// Parses a `RESULT`/`OK matches=` header's `matches=<m> label=<l>` tail
/// and the `MATCH` lines that follow it.
fn parse_answer<'a>(
    header: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<Answer, String> {
    let (count, label) = header
        .strip_prefix("matches=")
        .and_then(|rest| rest.split_once(" label="))
        .ok_or_else(|| format!("bad result header `{header}`"))?;
    let count: usize = count.parse().map_err(|_| format!("bad match count in `{header}`"))?;
    let mut matches = Vec::with_capacity(count);
    for rank in 1..=count {
        let line = lines.next().ok_or("reply ends before its MATCH lines")?;
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["MATCH", r, name, label, similarity] if r.parse() == Ok(rank) => matches.push(Match {
                name: name.to_string(),
                label: label.to_string(),
                similarity: similarity
                    .parse()
                    .map_err(|_| format!("bad similarity in `{line}`"))?,
            }),
            _ => return Err(format!("bad MATCH line `{line}`")),
        }
    }
    Ok(Answer { label: label.to_string(), matches })
}

/// Checks an optional `TRACE` line and the `END` terminator.
fn finish_block<'a>(mut lines: impl Iterator<Item = &'a str>, traced: bool) -> Result<(), String> {
    let mut next = lines.next();
    if traced {
        match next {
            Some(line) if line.starts_with("TRACE total_us=") => next = lines.next(),
            other => return Err(format!("expected a TRACE line, got {other:?}")),
        }
    }
    match (next, lines.next()) {
        (Some("END"), None) => Ok(()),
        (line, _) => Err(format!("expected END, got {line:?}")),
    }
}

/// Parses a `QUERY` reply.
pub fn parse_query_reply(reply: &str, traced: bool) -> Result<Answer, String> {
    let mut lines = reply.lines();
    let header =
        lines.next().and_then(|l| l.strip_prefix("OK ")).ok_or_else(|| reply_error(reply))?;
    let answer = parse_answer(header, &mut lines)?;
    finish_block(lines, traced)?;
    Ok(answer)
}

/// Parses an `MQUERY` reply of `count` results.
pub fn parse_mquery_reply(reply: &str, count: usize, traced: bool) -> Result<Vec<Answer>, String> {
    let mut lines = reply.lines();
    if lines.next() != Some(&format!("OK queries={count}")[..]) {
        return Err(reply_error(reply));
    }
    let mut answers = Vec::with_capacity(count);
    for i in 1..=count {
        let header = lines
            .next()
            .and_then(|l| l.strip_prefix(&format!("RESULT {i} ")[..]))
            .ok_or_else(|| format!("missing RESULT {i}"))?;
        answers.push(parse_answer(header, &mut lines)?);
    }
    finish_block(lines, traced)?;
    Ok(answers)
}

/// The first line of an unexpected reply, for error messages.
pub fn reply_error(reply: &str) -> String {
    format!("unexpected reply `{}`", reply.lines().next().unwrap_or(""))
}

/// Computes what a correct daemon must answer, in this process: every
/// similarity the daemon reports must equal `KastKernel::normalized` on
/// the traces the benchmark sent, bit for bit.
#[derive(Debug)]
pub struct Reference {
    kernel: KastKernel,
    interner: TokenInterner,
    entries: HashMap<String, (String, Trace)>,
    interned: HashMap<String, IdString>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            // The daemon's defaults: cut weight 2, bytes preserved.
            kernel: KastKernel::new(KastOptions::with_cut_weight(2)),
            interner: TokenInterner::new(),
            entries: HashMap::new(),
            interned: HashMap::new(),
        }
    }
}

impl Reference {
    /// Registers a corpus entry under the name the daemon reports.
    pub fn add_entry(&mut self, name: String, label: String, trace: Trace) {
        self.entries.insert(name, (label, trace));
    }

    fn intern(&mut self, trace: &Trace) -> IdString {
        self.interner.intern_string(&pattern_string(trace, ByteMode::Preserve))
    }

    /// Checks `answer` to a k-NN query of `query` for `k` neighbours: the
    /// expected number of matches, in non-increasing similarity, each one
    /// a known entry with its label and its exact similarity.
    pub fn check(&mut self, query: &Trace, answer: &Answer, k: usize) -> Result<(), String> {
        if answer.matches.len() != k.min(self.entries.len()) {
            return Err(format!("{} matches, expected {k}", answer.matches.len()));
        }
        if answer.matches.windows(2).any(|w| w[0].similarity < w[1].similarity) {
            return Err("matches are not ranked by similarity".to_string());
        }
        let q = self.intern(query);
        for m in &answer.matches {
            let Some((label, trace)) = self.entries.get(&m.name).cloned() else {
                return Err(format!("unknown entry `{}`", m.name));
            };
            if label != m.label {
                return Err(format!(
                    "entry `{}` has label {label}, reply says {}",
                    m.name, m.label
                ));
            }
            let e = match self.interned.get(&m.name) {
                Some(e) => e.clone(),
                None => {
                    let e = self.intern(&trace);
                    self.interned.insert(m.name.clone(), e.clone());
                    e
                }
            };
            let expected = self.kernel.normalized(&q, &e);
            if expected.to_bits() != m.similarity.to_bits() {
                return Err(format!(
                    "similarity to `{}` is {}, KastKernel::normalized gives {expected}",
                    m.name, m.similarity
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_and_mquery_replies() {
        let reply = "OK matches=2 label=A\nMATCH 1 a A 1.5\nMATCH 2 b B 0.25\nEND\n";
        let answer = parse_query_reply(reply, false).expect("well-formed");
        assert_eq!(answer.label, "A");
        assert_eq!(answer.matches[1].similarity, 0.25);
        assert!(parse_query_reply(reply, true).is_err(), "a traced reply needs its TRACE line");
        let traced = "OK matches=1 label=A\nMATCH 1 a A 1\nTRACE total_us=5 parse_us=1\nEND\n";
        assert!(parse_query_reply(traced, true).is_ok());
        assert!(parse_query_reply("ERR busy\n", false).is_err());

        let multi = "OK queries=2\nRESULT 1 matches=1 label=A\nMATCH 1 a A 1\n\
                     RESULT 2 matches=0 label=-\nEND\n";
        let answers = parse_mquery_reply(multi, 2, false).expect("well-formed");
        assert_eq!(answers[1].matches.len(), 0);
        assert!(parse_mquery_reply(multi, 3, false).is_err());
    }

    #[test]
    fn reference_rejects_a_wrong_similarity() {
        let trace = kastio::parse_trace(&"h0 write 4096\n".repeat(8)).expect("valid trace");
        let mut reference = Reference::default();
        reference.add_entry("a".into(), "A".into(), trace.clone());
        let q = reference.intern(&trace);
        let exact = reference.kernel.normalized(&q, &q);
        let answer = |similarity| Answer {
            label: "A".into(),
            matches: vec![Match { name: "a".into(), label: "A".into(), similarity }],
        };
        assert_eq!(reference.check(&trace, &answer(exact), 5), Ok(()));
        assert!(reference.check(&trace, &answer(f64::from_bits(exact.to_bits() + 1)), 5).is_err());
    }
}
