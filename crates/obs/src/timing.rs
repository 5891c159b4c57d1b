//! The side-band timing channel: monotonic-clock profiling that never
//! touches the deterministic event stream.
//!
//! Wall-clock data is inherently nondeterministic, so it must not appear in
//! the byte-identity-contracted JSONL event stream (DESIGN.md §3.7). This
//! module therefore mirrors the [`Recorder`](crate::Recorder) design on a
//! *separate* channel: instrumented code is generic over [`TimingSink`] and
//! guards every measurement with `if T::ENABLED { .. }`; the default
//! [`NullTiming`] has `ENABLED = false`, so untimed builds monomorphize to
//! exactly the pre-instrumentation code — not even `Instant::now()` is
//! called. An enabled sink receives `(scope, nanoseconds)` spans and the
//! stock [`TimingRecorder`] folds them straight into per-scope
//! [`Histogram`]s (one array store per span — no allocation on the hot
//! path), which serialize to their own `"type":"timing"` JSONL file, never
//! interleaved with event lines.

use crate::hist::Histogram;
use crate::schema::Fields;
use std::io::{self, Write};
use std::time::Instant;

/// What a timed span covers. The indices double as histogram slots in
/// [`TimingRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingScope {
    /// One whole `Simulator::run` / `run_auto` invocation.
    SimRun = 0,
    /// One communication round (delivery + all node steps).
    SimRound = 1,
    /// One worker's pass over one shard in `local::parallel` — the
    /// per-shard occupancy of a phase.
    ShardWork = 2,
    /// One whole fixer run (`Fixer2`/`Fixer3`).
    FixRun = 3,
    /// One fixing step (`fix_variable`).
    FixStep = 4,
    /// One color class's sweep inside a scheduled driver (all cells of
    /// the class, across every shard).
    FixClass = 5,
}

impl TimingScope {
    /// Every scope, in slot order.
    pub const ALL: [TimingScope; 6] = [
        TimingScope::SimRun,
        TimingScope::SimRound,
        TimingScope::ShardWork,
        TimingScope::FixRun,
        TimingScope::FixStep,
        TimingScope::FixClass,
    ];

    /// The scope's stable snake_case tag, as serialized in timing JSONL.
    pub fn name(self) -> &'static str {
        match self {
            TimingScope::SimRun => "sim_run",
            TimingScope::SimRound => "sim_round",
            TimingScope::ShardWork => "shard_work",
            TimingScope::FixRun => "fix_run",
            TimingScope::FixStep => "fix_step",
            TimingScope::FixClass => "fix_class",
        }
    }
}

/// A sink for timing spans. Instrumented code must guard every
/// measurement with `if T::ENABLED`, so a `false` makes timing free.
pub trait TimingSink {
    /// Whether this sink observes spans at all.
    const ENABLED: bool = true;

    /// Consume one span: `nanos` of monotonic wall-clock under `scope`.
    fn record_span(&mut self, scope: TimingScope, nanos: u64);
}

/// Timing disabled: all instrumentation compiles away.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTiming;

impl TimingSink for NullTiming {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record_span(&mut self, _scope: TimingScope, _nanos: u64) {}
}

/// Starts a span: reads the monotonic clock only when `T` is enabled.
#[inline]
pub fn span_start<T: TimingSink>() -> Option<Instant> {
    if T::ENABLED {
        Some(Instant::now())
    } else {
        None
    }
}

/// Nanoseconds elapsed since [`span_start`] (0 for a disabled sink's
/// `None` — but call sites guard with `if T::ENABLED`, so a disabled
/// build never reaches this).
#[inline]
pub fn span_nanos(started: Option<Instant>) -> u64 {
    started.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// The stock sink: one streaming [`Histogram`] per [`TimingScope`].
#[derive(Debug, Default, Clone)]
pub struct TimingRecorder {
    hists: [Histogram; TimingScope::ALL.len()],
}

impl TimingRecorder {
    /// A fresh recorder with empty histograms.
    pub fn new() -> Self {
        TimingRecorder::default()
    }

    /// The histogram for one scope.
    pub fn scope(&self, scope: TimingScope) -> &Histogram {
        &self.hists[scope as usize]
    }

    /// Total spans recorded across all scopes.
    pub fn spans(&self) -> u64 {
        self.hists.iter().map(Histogram::count).sum()
    }

    /// Merges another recorder (e.g. from a different shard or run)
    /// into this one; exact and order-independent.
    pub fn merge(&mut self, other: &TimingRecorder) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// One `"type":"timing"` JSONL line per non-empty scope (each with a
    /// trailing newline). This is the side-band stream format: written to
    /// its own file, never into the deterministic event stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for scope in TimingScope::ALL {
            let h = self.scope(scope);
            if h.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{{\"type\":\"timing\",\"scope\":\"{}\",\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"total_ns\":{}}}\n",
                scope.name(),
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
                // Keep the line parseable as u64 even for absurd totals.
                u64::try_from(h.sum()).unwrap_or(u64::MAX),
            ));
        }
        out
    }

    /// Writes [`TimingRecorder::to_jsonl`] to a sink.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())?;
        w.flush()
    }
}

/// One decoded `"type":"timing"` line, as [`TimingRecorder::to_jsonl`]
/// writes it: the histogram summary of one scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingLine {
    /// The scope the spans were recorded under.
    pub scope: TimingScope,
    /// Spans recorded.
    pub count: u64,
    /// Median span, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile span, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile span, nanoseconds.
    pub p99_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
    /// Sum of all spans, nanoseconds.
    pub total_ns: u64,
}

impl TimingLine {
    /// Decodes a timing line — the inverse of [`TimingRecorder::to_jsonl`].
    pub(crate) fn decode(f: &Fields<'_>) -> Result<TimingLine, String> {
        let name = f.string("scope")?;
        let scope = TimingScope::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("timing: unknown scope \"{name}\""))?;
        Ok(TimingLine {
            scope,
            count: f.u64("count")?,
            p50_ns: f.u64("p50_ns")?,
            p90_ns: f.u64("p90_ns")?,
            p99_ns: f.u64("p99_ns")?,
            max_ns: f.u64("max_ns")?,
            total_ns: f.u64("total_ns")?,
        })
    }
}

impl TimingSink for TimingRecorder {
    #[inline]
    fn record_span(&mut self, scope: TimingScope, nanos: u64) {
        self.hists[scope as usize].record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_timing_is_disabled_and_records_nothing() {
        const {
            assert!(!NullTiming::ENABLED);
            assert!(TimingRecorder::ENABLED);
        }
        // A disabled sink never even reads the clock.
        assert!(span_start::<NullTiming>().is_none());
        assert!(span_start::<TimingRecorder>().is_some());
    }

    #[test]
    fn recorder_buckets_by_scope_and_merges() {
        let mut a = TimingRecorder::new();
        let mut b = TimingRecorder::new();
        for i in 1..=100u64 {
            a.record_span(TimingScope::SimRound, i * 1_000);
            b.record_span(TimingScope::ShardWork, i * 500);
        }
        assert_eq!(a.scope(TimingScope::SimRound).count(), 100);
        assert_eq!(a.scope(TimingScope::ShardWork).count(), 0);
        a.merge(&b);
        assert_eq!(a.spans(), 200);
        assert_eq!(a.scope(TimingScope::ShardWork).count(), 100);
    }

    #[test]
    fn jsonl_lines_decode_back() {
        let mut t = TimingRecorder::new();
        t.record_span(TimingScope::SimRun, 1_234_567);
        t.record_span(TimingScope::FixStep, 42);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        for (line, scope) in text
            .lines()
            .zip([TimingScope::SimRun, TimingScope::FixStep])
        {
            match crate::schema::Line::decode(line) {
                Ok(crate::schema::Line::Timing(d)) => {
                    assert_eq!(d.scope, scope);
                    assert_eq!(d.count, 1);
                    assert_eq!(d.p50_ns, d.max_ns);
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_recorder_serializes_to_nothing() {
        assert!(TimingRecorder::new().to_jsonl().is_empty());
    }
}
