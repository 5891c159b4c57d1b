//! The [`Recorder`] trait and its three implementations.
//!
//! Instrumented code is generic over `R: Recorder` and guards every emission
//! with `if R::ENABLED { ... }`. `ENABLED` is an associated constant, so for
//! [`NullRecorder`] (the default at every public entry point) the branch and
//! the event construction are statically eliminated — the monomorphized code
//! is the uninstrumented code.

use crate::checkpoint::{Checkpoint, StreamDigest};
use crate::event::Event;
use crate::provenance::Provenance;
use std::io::{self, Write};

/// A sink for [`Event`]s.
pub trait Recorder {
    /// Whether this recorder observes events at all. Instrumented code must
    /// guard event construction with `if R::ENABLED`, so a `false` here makes
    /// recording free.
    const ENABLED: bool = true;

    /// Consume one event.
    fn record(&mut self, event: &Event);
}

/// Recording disabled: all instrumentation compiles away.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &Event) {}
}

/// In-memory aggregation: counts and totals, no per-event storage except the
/// per-round delivery trajectory.
#[derive(Debug, Default, Clone)]
pub struct CounterRecorder {
    /// Total events observed.
    pub events: usize,
    /// Simulator runs observed (`sim_run_start` count).
    pub sim_runs: usize,
    /// Billed rounds summed over completed simulator runs.
    pub rounds: usize,
    /// Messages summed over completed simulator runs.
    pub messages: usize,
    /// Byte bill summed over all `round_end` events.
    pub bytes: usize,
    /// Node halts observed.
    pub node_halts: usize,
    /// Per-round delivery counts, truncated to billed rounds at each
    /// `sim_run_end` (the terminal decide-only round delivers nothing and is
    /// not billed).
    pub deliveries_per_round: Vec<usize>,
    /// Fixing steps observed.
    pub fix_steps: usize,
    /// Fixer runs observed.
    pub fix_runs: usize,
    /// Audit passes observed.
    pub audit_passes: usize,
    /// Audit violations observed.
    pub audit_violations: usize,
    /// Minimum `P*` headroom seen across all `fix_step` events
    /// (`f64::INFINITY` until the first step touches an event).
    pub min_headroom: f64,
    /// Experiments observed.
    pub experiments: usize,
    /// Experiment rows observed.
    pub experiment_rows: usize,
    /// Index into `deliveries_per_round` where the current sim run started.
    run_start: usize,
}

impl CounterRecorder {
    /// A fresh counter.
    pub fn new() -> Self {
        CounterRecorder {
            min_headroom: f64::INFINITY,
            ..CounterRecorder::default()
        }
    }

    /// Per-round deliveries of everything recorded so far.
    pub fn deliveries_per_round(&self) -> &[usize] {
        &self.deliveries_per_round
    }
}

impl Recorder for CounterRecorder {
    fn record(&mut self, event: &Event) {
        self.events += 1;
        match event {
            Event::SimRunStart { .. } => {
                self.sim_runs += 1;
                self.run_start = self.deliveries_per_round.len();
            }
            Event::RoundStart { .. } => {}
            Event::NodeHalt { .. } => self.node_halts += 1,
            Event::RoundEnd {
                delivered, bytes, ..
            } => {
                self.bytes += bytes;
                self.deliveries_per_round.push(*delivered);
            }
            Event::SimRunEnd { rounds, messages } => {
                self.rounds += rounds;
                self.messages += messages;
                // Drop the unbilled terminal decide-only round, if any.
                self.deliveries_per_round.truncate(self.run_start + rounds);
            }
            Event::FixRunStart { .. } => self.fix_runs += 1,
            Event::FixStep { headroom, .. } => {
                self.fix_steps += 1;
                for h in headroom {
                    if *h < self.min_headroom {
                        self.min_headroom = *h;
                    }
                }
            }
            Event::AuditPass { .. } => self.audit_passes += 1,
            Event::AuditViolation { .. } => self.audit_violations += 1,
            Event::FixRunEnd { .. } => {}
            Event::ExperimentStart { .. } => self.experiments += 1,
            Event::ExperimentRow { .. } => self.experiment_rows += 1,
            Event::ExperimentEnd { .. } => {}
        }
    }
}

/// Buffers events in memory for deferred, ordered replay into another
/// recorder.
///
/// This is the merged-stream identity primitive of the parallel fixing
/// sweep: each worker records its shard's events into a private
/// `BufRecorder`, and the coordinating thread replays the buffers in
/// static shard order after the join. Because shards cover contiguous
/// ranges of the (deterministic) work order and each buffer is filled in
/// that order, the replayed concatenation is byte-identical to the
/// sequential emission — the downstream recorder never observes a
/// thread boundary.
#[derive(Debug, Default, Clone)]
pub struct BufRecorder {
    events: Vec<Event>,
}

impl BufRecorder {
    /// An empty buffer.
    pub fn new() -> Self {
        BufRecorder::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The buffered events, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Replays every buffered event into `rec`, in recording order, and
    /// clears the buffer.
    pub fn replay_into<R: Recorder>(&mut self, rec: &mut R) {
        if R::ENABLED {
            for event in &self.events {
                rec.record(event);
            }
        }
        self.events.clear();
    }
}

impl Recorder for BufRecorder {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Checkpointing state carried by a [`JsonlRecorder`] with sidecar
/// emission enabled.
///
/// The counters mirror exactly what a [`RunState`](crate::replay::RunState)
/// fold of the recorder's own output would hold, so an emitted
/// [`Checkpoint`] is verifiable offline (`obs-report resume-check`) and a
/// resumed recorder seeded from one continues the sidecar cadence
/// byte-for-byte.
#[derive(Debug)]
struct CheckpointState {
    /// Emit a sidecar once `progress` reaches this many trigger events
    /// (`round_end` + `fix_step`).
    interval: u64,
    /// Trigger events since the last sidecar.
    progress: u64,
    /// `round_end` events written.
    round: u64,
    /// `fix_step` events written.
    step: u64,
    /// Event lines written (meta and sidecar lines excluded).
    events: u64,
    /// Bytes written, including meta and sidecar lines — the file offset
    /// the next line starts at.
    bytes: u64,
    /// Rolling digest over event lines.
    digest: StreamDigest,
}

/// Streams events as schema-versioned JSONL to any [`Write`] sink.
///
/// The optional provenance/meta line (written by [`JsonlRecorder::with_provenance`])
/// carries thread-count and host facts and is therefore *excluded* from the
/// cross-engine byte-identity contract; the event stream after it is
/// engine-invariant. Write errors are sticky: the first one is kept and all
/// later records become no-ops, and [`JsonlRecorder::finish`] returns it.
///
/// With [`JsonlRecorder::checkpoint_every`], the recorder additionally
/// emits a `#checkpoint ` sidecar line after every N progress events
/// (`round_end` + `fix_step`): the fold digest, logical coordinates, and
/// the sidecar's own byte offset (see [`Checkpoint`]). Sidecars are
/// schema-v2-additive — every reader skips `#`-prefixed lines — and the
/// event lines between them are unchanged, so a checkpointed stream with
/// sidecars stripped is byte-identical to an uncheckpointed one.
#[derive(Debug)]
pub struct JsonlRecorder<W: Write> {
    writer: W,
    lines: usize,
    error: Option<io::Error>,
    /// Request-correlation tag (pre-encoded JSON scalar text) spliced
    /// into every event line; `None` keeps the v1 byte layout.
    req: Option<String>,
    /// Bytes of the meta line written by `with_provenance` (0 if none) —
    /// the stream-head byte offset checkpoint counters start from.
    meta_bytes: u64,
    /// Sidecar emission state; `None` keeps the recorder a pure tee.
    ckpt: Option<CheckpointState>,
    /// The last sidecar written, for callers that persist resume points.
    last_ckpt: Option<Checkpoint>,
}

impl<W: Write> JsonlRecorder<W> {
    /// A recorder with no meta line — the whole output is the deterministic
    /// event stream.
    pub fn new(writer: W) -> Self {
        JsonlRecorder {
            writer,
            lines: 0,
            error: None,
            req: None,
            meta_bytes: 0,
            ckpt: None,
            last_ckpt: None,
        }
    }

    /// A recorder that tags every event line with a `req` correlation
    /// id (schema v2). `req` must be the JSON text of a scalar — serve
    /// request ids (null/string/integer) are by construction. Because
    /// the tag is a pure function of the request, a tagged stream stays
    /// byte-identical cold vs. warm and at every worker count.
    pub fn with_request(writer: W, req: impl Into<String>) -> Self {
        let mut rec = JsonlRecorder::new(writer);
        rec.req = Some(req.into());
        rec
    }

    /// A recorder whose first line is a `"type":"meta"` provenance record.
    pub fn with_provenance(mut writer: W, provenance: &Provenance) -> io::Result<Self> {
        let meta = provenance.to_jsonl();
        writeln!(writer, "{meta}")?;
        let mut rec = JsonlRecorder::new(writer);
        rec.lines = 1;
        rec.meta_bytes = meta.len() as u64 + 1;
        Ok(rec)
    }

    /// Enables `#checkpoint ` sidecar emission: one sidecar after every
    /// `interval` progress events (`round_end` + `fix_step`). Must be
    /// called before any event is recorded — counters start at the
    /// stream head (the meta line, if any, counts toward byte offsets
    /// but not toward the digest or event count).
    ///
    /// # Panics
    ///
    /// If `interval` is zero or events were already recorded.
    pub fn checkpoint_every(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        assert!(
            self.lines == 0 || (self.lines == 1 && self.meta_bytes > 0),
            "checkpoint_every must be called before any event is recorded"
        );
        self.ckpt = Some(CheckpointState {
            interval,
            progress: 0,
            round: 0,
            step: 0,
            events: 0,
            bytes: self.meta_bytes,
            digest: StreamDigest::new(),
        });
        self
    }

    /// A recorder that *resumes* an interrupted checkpointed stream:
    /// `writer` must be positioned at [`Checkpoint::resume_offset`] of
    /// `from` (the file truncated just past that sidecar line), and the
    /// counters are re-seeded from the sidecar so every subsequent event
    /// and sidecar line is byte-identical to what an uninterrupted
    /// recorder would have written.
    pub fn resumed(writer: W, interval: u64, from: &Checkpoint) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        let mut rec = JsonlRecorder::new(writer);
        rec.ckpt = Some(CheckpointState {
            interval,
            progress: 0,
            round: from.round,
            step: from.step,
            events: from.events,
            bytes: from.resume_offset(),
            digest: StreamDigest::from_value(from.digest),
        });
        rec
    }

    /// The last `#checkpoint ` sidecar written, if any.
    pub fn last_checkpoint(&self) -> Option<Checkpoint> {
        self.last_ckpt
    }

    /// The rolling event-line digest, if checkpointing is on. Its
    /// [`bytes`](StreamDigest::bytes) count is the event bytes this
    /// recorder has digested, each line once.
    pub fn digest(&self) -> Option<StreamDigest> {
        self.ckpt.as_ref().map(|ck| ck.digest)
    }

    /// Lines written so far (including the meta line, if any).
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Flushes and returns the underlying writer, surfacing any sticky error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Drops every event through the `k`-th progress event (`round_end` or
/// `fix_step`, the events a checkpointing [`JsonlRecorder`] counts),
/// then forwards the rest to the wrapped recorder verbatim.
///
/// This is the resume seam of both deterministic layers. A LOCAL
/// simulation and a fixing sweep are pure functions of their input, so
/// a resumed run re-executes from the start and drops the events the
/// durable prefix holds with this wrapper. A resumed simulation (in
/// `lll-local`) wraps its recorder with `k` = the checkpoint's `round`.
/// A resumed sweep (`lll-core`'s `dist::run`) runs the classes inside
/// the prefix unrecorded and forwards the buffered events of the class
/// the prefix ends in through this wrapper, with `k` = the prefix steps
/// in that class. The inner recorder (typically a
/// [`JsonlRecorder::resumed`]) only ever sees the continuation,
/// byte-identical to an uninterrupted run's tail.
///
/// Everything before the `k`-th progress event counts as prefix,
/// including the `sim_run_start`/`fix_run_start` bracket, so the bracket
/// is dropped whenever `k > 0`; `k = 0` forwards everything.
#[derive(Debug)]
pub struct SkipPrefixRecorder<'a, R: Recorder> {
    inner: &'a mut R,
    skip: u64,
}

impl<'a, R: Recorder> SkipPrefixRecorder<'a, R> {
    /// Wraps `inner`, swallowing everything up to and including the
    /// `k`-th progress event.
    pub fn new(inner: &'a mut R, k: u64) -> Self {
        SkipPrefixRecorder { inner, skip: k }
    }
}

impl<R: Recorder> Recorder for SkipPrefixRecorder<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn record(&mut self, event: &Event) {
        if self.skip == 0 {
            self.inner.record(event);
            return;
        }
        if let Event::RoundEnd { .. } | Event::FixStep { .. } = event {
            self.skip -= 1;
        }
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_jsonl_tagged(self.req.as_deref());
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
        let Some(ck) = &mut self.ckpt else {
            return;
        };
        ck.events += 1;
        ck.bytes += line.len() as u64 + 1;
        ck.digest.update_line(&line);
        match event {
            Event::RoundEnd { .. } => {
                ck.round += 1;
                ck.progress += 1;
            }
            Event::FixStep { .. } => {
                ck.step += 1;
                ck.progress += 1;
            }
            _ => {}
        }
        if ck.progress < ck.interval {
            return;
        }
        let sidecar = Checkpoint {
            round: ck.round,
            step: ck.step,
            events: ck.events,
            offset: ck.bytes,
            digest: ck.digest.value(),
        };
        let sidecar_line = sidecar.to_line();
        if let Err(e) = writeln!(self.writer, "{sidecar_line}") {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
        ck.bytes += sidecar_line.len() as u64 + 1;
        ck.progress = 0;
        self.last_ckpt = Some(sidecar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        const {
            assert!(!NullRecorder::ENABLED);
            assert!(CounterRecorder::ENABLED);
            assert!(JsonlRecorder::<Vec<u8>>::ENABLED);
        }
    }

    #[test]
    fn counter_truncates_unbilled_terminal_round() {
        let mut c = CounterRecorder::new();
        c.record(&Event::SimRunStart {
            nodes: 2,
            edges: 1,
            max_degree: 1,
            seed: 0,
        });
        for round in 1..=3 {
            c.record(&Event::RoundStart { round, running: 2 });
            c.record(&Event::RoundEnd {
                round,
                delivered: if round < 3 { 2 } else { 0 },
                bytes: if round < 3 { 8 } else { 0 },
                halted: 0,
                running: 2,
            });
        }
        // Terminal round delivered nothing: billed rounds = 2.
        c.record(&Event::SimRunEnd {
            rounds: 2,
            messages: 4,
        });
        assert_eq!(c.deliveries_per_round(), &[2, 2]);
        assert_eq!(c.rounds, 2);
        assert_eq!(c.messages, 4);
        assert_eq!(c.bytes, 16);
    }

    #[test]
    fn counter_tracks_min_headroom() {
        let mut c = CounterRecorder::new();
        assert_eq!(c.min_headroom, f64::INFINITY);
        c.record(&Event::FixStep {
            step: 0,
            variable: 0,
            value: 0,
            rank: 2,
            touched: vec![0, 1],
            inc: vec![1.0, 1.0],
            phi_product: vec![0.5, 0.5],
            headroom: vec![0.75, 1.25],
        });
        assert_eq!(c.min_headroom, 0.75);
        assert_eq!(c.fix_steps, 1);
    }

    #[test]
    fn skip_prefix_counts_rounds_and_steps_as_progress() {
        let step = |step| Event::FixStep {
            step,
            variable: step,
            value: 0,
            rank: 1,
            touched: vec![0],
            inc: vec![1.0],
            phi_product: vec![1.0],
            headroom: vec![],
        };
        let stream = [
            Event::FixRunStart {
                variables: 3,
                events: 1,
                max_rank: 1,
            },
            step(0),
            Event::AuditPass {
                step: 0,
                variable: 0,
            },
            Event::RoundEnd {
                round: 1,
                delivered: 0,
                bytes: 0,
                halted: 0,
                running: 1,
            },
            step(1),
            Event::AuditPass {
                step: 1,
                variable: 1,
            },
        ];
        for (k, kept) in [(0, 6), (1, 4), (2, 2), (3, 1), (9, 0)] {
            let mut c = CounterRecorder::new();
            let mut skip = SkipPrefixRecorder::new(&mut c, k);
            for event in &stream {
                skip.record(event);
            }
            assert_eq!(c.events, kept, "k = {k}");
        }
    }

    #[test]
    fn buf_recorder_replays_in_order_and_drains() {
        let mut buf = BufRecorder::new();
        buf.record(&Event::RoundStart {
            round: 1,
            running: 2,
        });
        buf.record(&Event::NodeHalt { round: 1, node: 0 });
        assert_eq!(buf.len(), 2);
        let mut jsonl = JsonlRecorder::new(Vec::new());
        buf.replay_into(&mut jsonl);
        assert!(buf.is_empty());
        let direct = {
            let mut r = JsonlRecorder::new(Vec::new());
            r.record(&Event::RoundStart {
                round: 1,
                running: 2,
            });
            r.record(&Event::NodeHalt { round: 1, node: 0 });
            r.finish().unwrap()
        };
        assert_eq!(jsonl.finish().unwrap(), direct);
    }

    #[test]
    fn jsonl_recorder_tags_every_line_with_req() {
        let mut r = JsonlRecorder::with_request(Vec::new(), "\"q0\"");
        r.record(&Event::FixRunEnd {
            steps: 1,
            violated: 0,
        });
        let text = String::from_utf8(r.finish().unwrap()).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"fix_run_end\",\"req\":\"q0\",\"steps\":1,\"violated\":0}\n"
        );
    }

    fn round_end(round: usize) -> Event {
        Event::RoundEnd {
            round,
            delivered: 2,
            bytes: 8,
            halted: 0,
            running: 2,
        }
    }

    #[test]
    fn checkpointing_recorder_emits_verifiable_sidecars() {
        let mut r = JsonlRecorder::new(Vec::new()).checkpoint_every(2);
        for round in 1..=5 {
            r.record(&round_end(round));
        }
        let last = r.last_checkpoint().expect("two sidecars were due");
        assert_eq!((last.round, last.step, last.events), (4, 0, 4));
        let text = String::from_utf8(r.finish().unwrap()).unwrap();
        let sidecars: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
        // 5 triggers at interval 2 → sidecars after rounds 2 and 4.
        assert_eq!(sidecars.len(), 2);
        let ck = Checkpoint::parse(sidecars[1]).unwrap();
        assert_eq!(ck, last);
        // The recorded offset is where the sidecar line actually starts.
        let at = text
            .lines()
            .take_while(|l| !l.starts_with('#') || Checkpoint::parse(l).unwrap() != ck)
            .map(|l| l.len() + 1)
            .sum::<usize>() as u64;
        assert_eq!(ck.offset, at);
        // The digest matches a fold over the event lines of the prefix.
        let mut d = StreamDigest::new();
        for l in text.lines().take(5).filter(|l| !l.starts_with('#')) {
            d.update_line(l);
        }
        assert_eq!(d.value(), ck.digest);
        // Stripping sidecars recovers the uncheckpointed stream.
        let mut plain = JsonlRecorder::new(Vec::new());
        for round in 1..=5 {
            plain.record(&round_end(round));
        }
        let plain = String::from_utf8(plain.finish().unwrap()).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain);
    }

    #[test]
    fn resumed_recorder_continues_byte_for_byte() {
        let mut full = JsonlRecorder::new(Vec::new()).checkpoint_every(2);
        for round in 1..=7 {
            full.record(&round_end(round));
        }
        let full = full.finish().unwrap();

        // Interrupted copy: killed after round 5, resumed from the
        // sidecar emitted after round 4.
        let mut head = JsonlRecorder::new(Vec::new()).checkpoint_every(2);
        for round in 1..=5 {
            head.record(&round_end(round));
        }
        let ck = head.last_checkpoint().unwrap();
        let mut bytes = head.finish().unwrap();
        bytes.truncate(ck.resume_offset() as usize);
        let mut tail = JsonlRecorder::resumed(Vec::new(), 2, &ck);
        for round in 5..=7 {
            tail.record(&round_end(round));
        }
        bytes.extend_from_slice(&tail.finish().unwrap());
        assert_eq!(bytes, full);
    }

    #[test]
    fn jsonl_recorder_streams_lines() {
        let mut r = JsonlRecorder::new(Vec::new());
        r.record(&Event::RoundStart {
            round: 1,
            running: 4,
        });
        r.record(&Event::SimRunEnd {
            rounds: 1,
            messages: 0,
        });
        assert_eq!(r.lines(), 2);
        let buf = r.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"type\":\"round_start\""));
    }
}
