//! In-memory spans and per-pass counters for the traced run.
//!
//! A span records a layer call made from the benchmark's own code: its
//! name, an optional tag (the certified layer a `run_lease` belongs to),
//! start and end on one monotonic clock, the enclosing span and the pass
//! it ran in. Nothing is written until [`Tracer::write_jsonl`] at the end
//! of the run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `registry.run_lease`.
    pub name: &'static str,
    /// A sub-grouping of `name` (empty when none).
    pub tag: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The pass the span belongs to.
    pub pass: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u64,
    passes: BTreeSet<u64>,
    counts: BTreeMap<(u64, &'static str), f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            passes: BTreeSet::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts attributing spans and counts to `pass`.
    pub fn start_pass(&mut self, pass: u64) {
        self.pass = pass;
        self.passes.insert(pass);
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, tag);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `v` to counter `name` of the current pass.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry((self.pass, name)).or_insert(0.0) += v;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Per traced pass, the summed self time (ms) of the spans `pick`
    /// selects; passes without such spans contribute 0.
    pub fn pass_ms(&self, pick: impl Fn(&Span) -> bool) -> Vec<f64> {
        let own = self.self_ns();
        let mut per: BTreeMap<u64, u64> = self.passes.iter().map(|&p| (p, 0)).collect();
        for (s, ns) in self.spans.iter().zip(own) {
            if pick(s) {
                *per.entry(s.pass).or_insert(0) += ns;
            }
        }
        per.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Per traced pass, the total of counter `name` (0 where unset).
    pub fn pass_counts(&self, name: &str) -> Vec<f64> {
        self.passes
            .iter()
            .map(|&p| self.counts.get(&(p, name)).copied().unwrap_or(0.0))
            .collect()
    }

    /// Writes every span, one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"tag\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"pass\": {}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.pass
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.start_pass(0);
        t.spans = vec![
            span("request", 0, 100, None),
            span("stack_units", 10, 40, Some(0)),
            span("front_end", 15, 25, Some(1)),
            span("run_lease", 50, 60, Some(0)),
            span("request", 100, 130, None),
        ];
        assert_eq!(t.self_ns(), vec![60, 20, 10, 10, 30]);
        assert_eq!(t.pass_ms(|s| s.name == "request"), vec![90.0 / 1e6]);
        assert_eq!(t.pass_ms(|s| s.name == "absent"), vec![0.0]);
    }

    #[test]
    fn recorded_spans_nest_and_counters_split_by_pass() {
        let mut t = Tracer::new();
        t.start_pass(1);
        let outer = t.begin("outer", "");
        t.span("inner", "x", || std::hint::black_box(3 + 4));
        t.end(outer);
        t.count("store.writes", 2.0);
        t.start_pass(3);
        t.count("store.writes", 5.0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].tag, spans[1].pass), ("x", 1));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.pass_counts("store.writes"), vec![2.0, 5.0]);
        assert_eq!(t.pass_counts("absent"), vec![0.0, 0.0]);
    }
}
