//! In-memory span recorder for the traced runs.
//!
//! A span has a name, a start, an end, the span that encloses it and the
//! op it belongs to. Self time (duration minus the enclosed child spans) is
//! aggregated per name as spans close, so memory stays flat however many
//! ops run; the raw spans of the first [`RAW_OPS`] ops (and of the set-up)
//! are kept for the JSON artefact. Counters sit beside the spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Ops whose raw spans are kept for the artefact.
pub const RAW_OPS: u32 = 32;
/// Raw set-up spans kept for the artefact.
const RAW_SETUP_SPANS: usize = 512;
/// Op id of spans recorded outside any measured op.
pub const SETUP_OP: u32 = u32::MAX;

/// Per-name aggregate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Ran inside another span at least once.
    pub nested: bool,
}

#[derive(Clone, Copy, Debug)]
struct SpanRec {
    name: usize,
    op: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
struct Open {
    name: usize,
    start: Instant,
    child_ns: u64,
    raw: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use = "a span must be ended"]
#[derive(Debug)]
pub struct Span(usize);

/// The recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    agg: Vec<Agg>,
    stack: Vec<Open>,
    raw: Vec<SpanRec>,
    raw_setup: usize,
    op: u32,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; timestamps are relative to now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            agg: Vec::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            raw_setup: 0,
            op: SETUP_OP,
            counters: BTreeMap::new(),
        }
    }

    /// Attribute the following spans to op `op` ([`SETUP_OP`] for set-up).
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn intern(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.agg.push(Agg::default());
                self.names.len() - 1
            }
        }
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Span {
        let name = self.intern(name);
        let keep = if self.op == SETUP_OP {
            self.raw_setup < RAW_SETUP_SPANS
        } else {
            self.op < RAW_OPS
        };
        let raw = keep.then(|| {
            if self.op == SETUP_OP {
                self.raw_setup += 1;
            }
            self.raw.push(SpanRec {
                name,
                op: self.op,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().and_then(|o| o.raw),
            });
            self.raw.len() - 1
        });
        let start = Instant::now();
        if let Some(i) = raw {
            self.raw[i].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            raw,
        });
        Span(self.stack.len())
    }

    /// Close the innermost span, which must be `span`.
    pub fn end(&mut self, span: Span) {
        let end = Instant::now();
        assert_eq!(span.0, self.stack.len(), "spans must close innermost first");
        let open = self.stack.pop().expect("an open span");
        let dur = (end - open.start).as_nanos() as u64;
        let a = &mut self.agg[open.name];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            a.nested = true;
            parent.child_ns += dur;
        }
        if let Some(i) = open.raw {
            self.raw[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Add `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Aggregate of span `name` (all zero if it never ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.agg[i])
            .unwrap_or_default()
    }

    /// Mean self time per call of span `name`, in microseconds (0 if it
    /// never ran).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.calls == 0 {
            0.0
        } else {
            a.self_ns as f64 / a.calls as f64 / 1e3
        }
    }

    /// Self-time table of the spans inside `root` (one row per name,
    /// sorted by self time, with the per-op mean over `ops` ops and the
    /// share of `root`'s total), then the spans that ran outside any op
    /// root (set-up, replicas) with their per-call means.
    pub fn table(&self, root: &str, ops: u64) -> String {
        let root_total = self.agg(root).total_ns.max(1) as f64;
        let mut rows: Vec<(&str, Agg)> = self
            .names
            .iter()
            .copied()
            .zip(self.agg.iter().copied())
            .collect();
        rows.sort_by_key(|&(_, a)| std::cmp::Reverse(a.self_ns));
        let mut out = format!(
            "{:<40} {:>10} {:>12} {:>12} {:>8}\n",
            "span (self time)", "calls", "us/call", "us/op", "share"
        );
        for &(name, a) in rows.iter().filter(|(n, a)| a.nested || *n == root) {
            let name = if name == root { "(unattributed)" } else { name };
            let _ = writeln!(
                out,
                "{:<40} {:>10} {:>12.3} {:>12.3} {:>7.1}%",
                name,
                a.calls,
                a.self_ns as f64 / a.calls.max(1) as f64 / 1e3,
                a.self_ns as f64 / ops.max(1) as f64 / 1e3,
                100.0 * a.self_ns as f64 / root_total
            );
        }
        let outside: Vec<_> = rows
            .iter()
            .filter(|(n, a)| !a.nested && *n != root)
            .collect();
        if !outside.is_empty() {
            let _ = writeln!(out, "outside the op spans:");
            for &&(name, a) in &outside {
                let _ = writeln!(
                    out,
                    "{:<40} {:>10} {:>12.3}",
                    name,
                    a.calls,
                    a.self_ns as f64 / a.calls.max(1) as f64 / 1e3
                );
            }
        }
        out
    }

    /// The artefact: provenance, aggregates, counters and the retained raw
    /// spans, as JSON.
    pub fn to_json(&self, provenance: &[(&str, String)]) -> String {
        let mut out = String::from("{\n  \"provenance\": {");
        for (i, (k, v)) in provenance.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {}", json_str(k), json_str(v));
        }
        out.push_str("\n  },\n  \"aggregates\": {");
        for (i, (n, a)) in self.names.iter().zip(&self.agg).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(n),
                a.calls,
                a.total_ns,
                a.self_ns
            );
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {v}", json_str(n));
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.raw.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let op = if s.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {i}, \"name\": {}, \"op\": {op}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                json_str(self.names[s.name]),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_op(0);
        let root = t.begin("root");
        t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let (root, child) = (t.agg("root"), t.agg("child"));
        assert_eq!(root.calls, 1);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns + child.total_ns, root.total_ns);
        assert!(t.to_json(&[]).contains("\"parent\": 0"));
    }
}
