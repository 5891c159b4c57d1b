//! `lll-obs` — deterministic flight recorder + metrics layer.
//!
//! A zero-overhead-when-disabled event layer shared by the LOCAL simulator
//! (`lll-local`), the exact fixers (`lll-core`), and the bench harness
//! (`lll-bench`). Instrumented code is generic over [`Recorder`] and guards
//! every emission with `if R::ENABLED { .. }`; the default [`NullRecorder`]
//! has `ENABLED = false`, so the uninstrumented build is the status quo.
//!
//! Determinism contract (see DESIGN.md §3.7): events on the hot path carry
//! logical indices (round, step, node id) only — never wall-clock time — and
//! the parallel engine buffers per-shard events and merges them in static
//! shard order, so a recorded stream is byte-identical between `run` and
//! `run_auto` at every thread count. The only thread-dependent record is
//! the optional `meta` provenance line, which is explicitly excluded from
//! the byte-identity guarantee.
//!
//! Live telemetry (DESIGN.md §3.11) lives in [`metrics`]: a
//! [`MetricsRegistry`] of counters/gauges/histograms with
//! Prometheus text-format exposition — like [`timing`], a strictly
//! side-band channel that never feeds the deterministic stream.
//!
//! Recorded streams have one reader (DESIGN.md §3.7): [`schema`] decodes
//! each line once into a typed [`Line`] and feeds the folds. The
//! read/diagnose side (DESIGN.md §3.8) builds on it: [`hist`] —
//! log-bucketed streaming histograms; [`timing`] — the side-band
//! wall-clock channel (a [`TimingSink`] mirror of the recorder design, so
//! untimed builds still compile to the status quo and the deterministic
//! event stream never sees a clock); [`report`] and [`replay`] —
//! bounded-memory folds into a summary and into per-round/per-node/
//! per-step series; and [`diff`] — first-divergence triage over raw
//! lines. The `obs-report` binary surfaces all of them.
//!
//! Checkpoint/resume (DESIGN.md §3.12) promotes the stream from a tee to
//! the system of record: [`checkpoint`] defines the `#checkpoint` sidecar
//! format and fold digest, a checkpointing [`JsonlRecorder`] emits
//! sidecars every N progress events, and [`replay::RunState`] folds a
//! stream prefix back into resumable run state in bounded memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod provenance;
mod recorder;

pub mod checkpoint;
pub mod diff;
pub mod hist;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod schema;
pub mod timing;

pub use checkpoint::{Checkpoint, StreamDigest, CHECKPOINT_PREFIX};
pub use event::{Event, SCHEMA_VERSION};
pub use hist::Histogram;
pub use metrics::{Counter, Gauge, MetricHist, MetricsRegistry};
pub use provenance::Provenance;
pub use recorder::{
    BufRecorder, CounterRecorder, JsonlRecorder, NullRecorder, Recorder, SkipPrefixRecorder,
};
pub use schema::Line;
pub use timing::{NullTiming, TimingLine, TimingRecorder, TimingScope, TimingSink};
