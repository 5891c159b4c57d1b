//! Outside-in spans for the `--trace` run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (and, through [`ClassSink`], from the
//! `FixClass` spans the scheduled drivers already report to a
//! `TimingSink`). They stay in memory and are written out once, at exit.
//! A span's self time is its duration minus the part covered by its
//! children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use lll_obs::{TimingScope, TimingSink};

use crate::json::quote;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Index of the traced solve this span belongs to.
    pub solve: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    solve: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            solve: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Makes room for `n` more spans, so recording them allocates nothing.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Starts the next traced solve; later spans carry its index.
    pub fn begin_solve(&mut self) -> usize {
        self.solve += 1;
        self.solve
    }

    /// Runs `f` inside a new span (`f` gets the span's id, to parent
    /// spans of its own); returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            solve: self.solve,
        });
        let out = f(self, id);
        self.spans[id].end = self.now();
        (out, id)
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ms, self ms)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = (s.end - s.start) as f64 / 1e6;
            let own = (s.end - s.start).saturating_sub(child) as f64 / 1e6;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// One JSON object per span: `{name, start, end, parent, solve}`
    /// (times in nanoseconds since the run's epoch).
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":{},\"start\":{},\"end\":{},\"parent\":{},\"solve\":{}}}",
                quote(s.name),
                s.start,
                s.end,
                parent,
                s.solve
            )?;
        }
        w.flush()
    }
}

/// A `TimingSink` that turns the drivers' per-color-class spans into
/// `sweep.class` children of `parent`. The drivers report a class when it
/// ends, so its start is reconstructed from the reported duration.
pub struct ClassSink<'a> {
    pub tracer: &'a mut Tracer,
    pub parent: usize,
}

impl TimingSink for ClassSink<'_> {
    fn record_span(&mut self, scope: TimingScope, nanos: u64) {
        if scope == TimingScope::FixClass {
            let end = self.tracer.now();
            self.tracer.spans.push(Span {
                name: "sweep.class",
                start: end.saturating_sub(nanos),
                end,
                parent: Some(self.parent),
                solve: self.tracer.solve,
            });
        }
    }
}
