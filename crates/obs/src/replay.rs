//! Streaming analytics over recorded JSONL: fold a stream line-by-line,
//! in bounded memory, into queryable time series.
//!
//! [`Replay`] never buffers the input — each line is decoded once by the
//! [`schema`](crate::schema) reader, folded into the accumulated series,
//! and dropped, so memory is proportional to the
//! *summary* (one point per round, halt, or fixing step), never to the raw
//! event count or the file size. The three series mirror the paper's
//! quantities of interest: the per-round message/byte bill (Corollary 1.2
//! round accounting), per-node halt timelines, and the φ-product /
//! pair-headroom trajectory `2 − φ_e^u − φ_e^v` per fixing step (the `P*`
//! potential of Lemmas 3.5–3.7). Each series exports as a
//! provenance-stamped CSV via [`Replay::rounds_csv`] and friends — the
//! `obs-report series` subcommand is a thin wrapper around them.
//!
//! The checkpoint/resume side (DESIGN.md §3.12) lives in [`RunState`]:
//! a second bounded-memory fold that reconstructs *resumable* run state
//! — the applied `(variable, value)` step sequence, round and audit
//! counters, the byte offset, and the rolling
//! [`StreamDigest`] — and verifies every
//! `#checkpoint ` sidecar it passes against its own counters. Both
//! folds read decoded lines, and [`Replay`] skips sidecars, so
//! checkpointed and plain streams replay identically.

use crate::checkpoint::{Checkpoint, StreamDigest};
use crate::event::Event;
use crate::schema::{Line, Record, Stop, StreamReader};

/// One `round_end` event: the per-round bill of one simulator run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPoint {
    /// Simulator run index within the stream (0-based).
    pub run: usize,
    /// Round number within the run (1-based, as recorded).
    pub round: u64,
    /// Messages delivered this round.
    pub delivered: u64,
    /// Bytes billed this round.
    pub bytes: u64,
    /// Nodes that halted this round.
    pub halted: u64,
    /// Nodes still running after the round.
    pub running: u64,
}

/// One `node_halt` event: when a node decided, per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaltPoint {
    /// Simulator run index within the stream (0-based).
    pub run: usize,
    /// Round in which the node halted.
    pub round: u64,
    /// The halting node's index.
    pub node: u64,
}

/// One `fix_step` event, reduced to the potential-function view.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPoint {
    /// Fixer run index within the stream (0-based).
    pub run: usize,
    /// Step index within the run (0-based, as recorded).
    pub step: u64,
    /// Variable fixed.
    pub variable: u64,
    /// Value chosen.
    pub value: u64,
    /// Rank (number of touched events).
    pub rank: u64,
    /// Smallest φ-product among the touched events (`NaN` if none).
    pub phi_min: f64,
    /// Largest φ-product among the touched events (`NaN` if none).
    pub phi_max: f64,
    /// Smallest pair headroom `2 − φ_e^u − φ_e^v` among the touched
    /// dependency edges (`NaN` if the step touches no edge).
    pub headroom_min: f64,
}

/// The smallest and largest non-NaN entry (`NaN` when there is none;
/// non-finite values are written as `null` and decode to NaN).
fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .filter(|x| !x.is_nan())
        .fold((f64::NAN, f64::NAN), |(lo, hi), &x| (x.min(lo), x.max(hi)))
}

/// CSV cell for a possibly-missing float.
fn csv_f64(x: f64) -> String {
    if x.is_nan() {
        String::new()
    } else {
        format!("{x:?}")
    }
}

/// A bounded-memory, line-at-a-time stream folder.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Lines folded (including any meta line).
    pub lines: usize,
    /// The raw meta line, if the stream opened with one.
    pub meta: Option<String>,
    /// Per-round series across all simulator runs, in stream order.
    pub rounds: Vec<RoundPoint>,
    /// Per-node halt timeline across all simulator runs, in stream order.
    pub halts: Vec<HaltPoint>,
    /// φ-product / headroom trajectory across all fixer runs.
    pub steps: Vec<StepPoint>,
    sim_runs_started: usize,
    fix_runs_started: usize,
}

impl Replay {
    /// An empty folder.
    pub fn new() -> Self {
        Replay::default()
    }

    /// Folds the next decoded line of the stream; blank and sidecar
    /// lines are not counted.
    pub fn fold(&mut self, rec: &Record<'_>) {
        let event = match &rec.line {
            Line::Blank | Line::Sidecar(_) => return,
            Line::Meta(_) => {
                self.meta = Some(rec.text.trim().to_owned());
                None
            }
            Line::Event { event, .. } => Some(event),
            Line::Timing(_) | Line::Unknown { .. } => None,
        };
        self.lines += 1;
        let sim_run = self.sim_runs_started.saturating_sub(1);
        match event {
            Some(Event::SimRunStart { .. }) => self.sim_runs_started += 1,
            Some(&Event::RoundEnd {
                round,
                delivered,
                bytes,
                halted,
                running,
            }) => self.rounds.push(RoundPoint {
                run: sim_run,
                round: round as u64,
                delivered: delivered as u64,
                bytes: bytes as u64,
                halted: halted as u64,
                running: running as u64,
            }),
            Some(&Event::NodeHalt { round, node }) => self.halts.push(HaltPoint {
                run: sim_run,
                round: round as u64,
                node: node as u64,
            }),
            Some(Event::FixRunStart { .. }) => self.fix_runs_started += 1,
            Some(Event::FixStep {
                step,
                variable,
                value,
                rank,
                phi_product,
                headroom,
                ..
            }) => {
                let (phi_min, phi_max) = min_max(phi_product);
                self.steps.push(StepPoint {
                    run: self.fix_runs_started.saturating_sub(1),
                    step: *step as u64,
                    variable: *variable as u64,
                    value: *value as u64,
                    rank: *rank as u64,
                    phi_min,
                    phi_max,
                    headroom_min: min_max(headroom).0,
                });
            }
            _ => {}
        }
    }

    /// The provenance stamp for exported CSVs: the source stream's own
    /// meta line when it has one (so the series carries the *producer's*
    /// context), plus the supplied fallback comment.
    fn stamp(&self, prov_comment: &str) -> String {
        let mut s = String::from(prov_comment);
        s.push('\n');
        if let Some(meta) = &self.meta {
            s.push_str("# source-meta: ");
            s.push_str(meta);
            s.push('\n');
        }
        s
    }

    /// The per-round message/byte series as a CSV document.
    pub fn rounds_csv(&self, prov_comment: &str) -> String {
        let mut out = self.stamp(prov_comment);
        out.push_str("run,round,delivered,bytes,halted,running\n");
        for p in &self.rounds {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                p.run, p.round, p.delivered, p.bytes, p.halted, p.running
            ));
        }
        out
    }

    /// The per-node halt timeline as a CSV document.
    pub fn halts_csv(&self, prov_comment: &str) -> String {
        let mut out = self.stamp(prov_comment);
        out.push_str("run,round,node\n");
        for p in &self.halts {
            out.push_str(&format!("{},{},{}\n", p.run, p.round, p.node));
        }
        out
    }

    /// The φ-product / pair-headroom trajectory as a CSV document
    /// (Figure-1-style potential data; empty cells where a step touched
    /// no event or no dependency edge).
    pub fn steps_csv(&self, prov_comment: &str) -> String {
        let mut out = self.stamp(prov_comment);
        out.push_str("run,step,variable,value,rank,phi_product_min,phi_product_max,headroom_min\n");
        for p in &self.steps {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                p.run,
                p.step,
                p.variable,
                p.value,
                p.rank,
                csv_f64(p.phi_min),
                csv_f64(p.phi_max),
                csv_f64(p.headroom_min),
            ));
        }
        out
    }
}

/// The resumable facts of a [`RunState`] frozen at a verified
/// `#checkpoint ` sidecar — everything a resume driver needs beyond the
/// step prefix (`RunState::steps()[..checkpoint.step]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumePoint {
    /// The sidecar record itself, as verified against the fold.
    pub checkpoint: Checkpoint,
    /// Audit events (`audit_pass` + `audit_violation`) folded by then.
    pub audits: u64,
    /// Simulator runs started by then.
    pub sim_runs: u64,
    /// `round_end` events of the *current* simulator run by then.
    pub sim_rounds: u64,
    /// Whether the current simulator run had completed by then.
    pub sim_run_complete: bool,
    /// Fixer runs started by then.
    pub fix_runs: u64,
    /// Whether the current fixer run had completed by then.
    pub fix_run_complete: bool,
}

/// A bounded-memory fold that reconstructs *resumable* run state from a
/// prefix of a recorded stream.
///
/// Where [`Replay`] accumulates analytics series, `RunState` keeps only
/// what a resume needs: the applied `(variable, value)` step sequence
/// (the fixers are pure functions of it — DESIGN.md §3.12), round /
/// audit / event counters, the byte offset after the last durable line,
/// and the rolling digest. Memory is `O(steps)`, independent of round
/// count and event volume.
///
/// Every `#checkpoint ` sidecar encountered is verified against the
/// fold's own counters and digest — a mismatch means the stream is
/// corrupt, not merely torn, and folding fails loudly.
///
/// The durable prefix follows the reader's torn-tail rule
/// ([`schema`](crate::schema)): a torn final line is never handed to the
/// fold, so [`RunState::bytes`] ends the durable prefix, while an
/// unterminated final line that decodes is folded as complete.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunState {
    steps: Vec<(u64, u64)>,
    events: u64,
    bytes: u64,
    round_ends: u64,
    sim_runs: u64,
    sim_rounds: u64,
    sim_run_complete: bool,
    fix_runs: u64,
    fix_run_complete: bool,
    audits: u64,
    digest: StreamDigest,
    last: Option<ResumePoint>,
}

impl RunState {
    /// An empty fold.
    pub fn new() -> Self {
        RunState {
            digest: StreamDigest::new(),
            ..RunState::default()
        }
    }

    /// Folds the next decoded line of the stream.
    ///
    /// # Errors
    ///
    /// A `#checkpoint ` sidecar whose counters or digest contradict the
    /// fold (a corrupt stream, not merely a torn one).
    pub fn fold(&mut self, rec: &Record<'_>) -> Result<(), String> {
        match &rec.line {
            Line::Blank | Line::Sidecar(None) | Line::Meta(_) => {}
            Line::Sidecar(Some(ck)) => {
                self.verify_checkpoint(ck, rec.lineno)?;
                self.last = Some(ResumePoint {
                    checkpoint: *ck,
                    audits: self.audits,
                    sim_runs: self.sim_runs,
                    sim_rounds: self.sim_rounds,
                    sim_run_complete: self.sim_run_complete,
                    fix_runs: self.fix_runs,
                    fix_run_complete: self.fix_run_complete,
                });
            }
            line => {
                if let Line::Event { event, .. } = line {
                    self.fold_event(event);
                }
                self.events += 1;
                self.digest.update_line(rec.text);
            }
        }
        self.bytes += rec.bytes;
        Ok(())
    }

    fn fold_event(&mut self, event: &Event) {
        match *event {
            Event::SimRunStart { .. } => {
                self.sim_runs += 1;
                self.sim_rounds = 0;
                self.sim_run_complete = false;
            }
            Event::RoundEnd { .. } => {
                self.round_ends += 1;
                self.sim_rounds += 1;
            }
            Event::SimRunEnd { .. } => self.sim_run_complete = true,
            Event::FixRunStart { .. } => {
                self.fix_runs += 1;
                self.fix_run_complete = false;
            }
            Event::FixStep {
                variable, value, ..
            } => self.steps.push((variable as u64, value as u64)),
            Event::AuditPass { .. } | Event::AuditViolation { .. } => self.audits += 1,
            Event::FixRunEnd { .. } => self.fix_run_complete = true,
            _ => {}
        }
    }

    fn verify_checkpoint(&self, ck: &Checkpoint, lineno: usize) -> Result<(), String> {
        let expect = (
            self.round_ends,
            self.steps.len() as u64,
            self.events,
            self.bytes,
            self.digest.value(),
        );
        let got = (ck.round, ck.step, ck.events, ck.offset, ck.digest);
        if expect != got {
            return Err(format!(
                "checkpoint at line {} contradicts the fold: sidecar says \
                 (round,step,events,offset,digest)=({},{},{},{},{:016x}) \
                 but the fold reached ({},{},{},{},{:016x}) — corrupt stream",
                lineno,
                got.0,
                got.1,
                got.2,
                got.3,
                got.4,
                expect.0,
                expect.1,
                expect.2,
                expect.3,
                expect.4
            ));
        }
        Ok(())
    }

    /// Folds a whole in-memory stream, tolerating a torn final line
    /// (the [`schema`](crate::schema) reader's rule): the tail is *not*
    /// folded and its start offset — the end of the durable prefix — is
    /// returned alongside the state.
    ///
    /// # Errors
    ///
    /// A line that does not decode, or a contradicted checkpoint, with
    /// its 1-based line number.
    pub fn from_stream(text: &str) -> Result<(RunState, Option<u64>), String> {
        let mut state = RunState::new();
        match StreamReader::default().read(text.as_bytes(), |rec| state.fold(rec)) {
            Ok(()) => Ok((state, None)),
            Err(Stop::Torn { offset, .. }) => Ok((state, Some(offset))),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The applied `(variable, value)` fixing steps, in stream order.
    pub fn steps(&self) -> &[(u64, u64)] {
        &self.steps
    }

    /// Event lines folded (meta and sidecar lines excluded).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Byte offset one past the last folded line — the length of the
    /// durable prefix.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// `round_end` events folded, across all simulator runs.
    pub fn rounds(&self) -> u64 {
        self.round_ends
    }

    /// Simulator runs started.
    pub fn sim_runs(&self) -> u64 {
        self.sim_runs
    }

    /// Whether the latest simulator run has its `sim_run_end`.
    pub fn sim_run_complete(&self) -> bool {
        self.sim_run_complete
    }

    /// Fixer runs started.
    pub fn fix_runs(&self) -> u64 {
        self.fix_runs
    }

    /// Whether the latest fixer run has its `fix_run_end`.
    pub fn fix_run_complete(&self) -> bool {
        self.fix_run_complete
    }

    /// Audit events (`audit_pass` + `audit_violation`) folded.
    pub fn audits(&self) -> u64 {
        self.audits
    }

    /// The rolling digest over the folded event lines.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// The last verified `#checkpoint ` sidecar and the resumable facts
    /// frozen at it.
    pub fn last_checkpoint(&self) -> Option<&ResumePoint> {
        self.last.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Replay {
        fn from_stream(text: &str) -> Result<Replay, String> {
            let mut r = Replay::new();
            StreamReader::default()
                .read(text.as_bytes(), |rec| {
                    r.fold(rec);
                    Ok(())
                })
                .map_err(|e| e.to_string())?;
            Ok(r)
        }
    }
    use crate::provenance::Provenance;

    fn sample_stream() -> String {
        let mut text = Provenance::capture().with_seed(9).to_jsonl();
        text.push('\n');
        for e in [
            Event::SimRunStart {
                nodes: 2,
                edges: 1,
                max_degree: 1,
                seed: 9,
            },
            Event::RoundStart {
                round: 1,
                running: 2,
            },
            Event::NodeHalt { round: 1, node: 1 },
            Event::RoundEnd {
                round: 1,
                delivered: 2,
                bytes: 8,
                halted: 1,
                running: 1,
            },
            Event::SimRunEnd {
                rounds: 1,
                messages: 2,
            },
            Event::FixRunStart {
                variables: 1,
                events: 2,
                max_rank: 2,
            },
            Event::FixStep {
                step: 0,
                variable: 0,
                value: 1,
                rank: 2,
                touched: vec![0, 1],
                inc: vec![1.0, 0.5],
                phi_product: vec![0.5, 0.75],
                headroom: vec![1.25, 0.75],
            },
            Event::FixRunEnd {
                steps: 1,
                violated: 0,
            },
        ] {
            text.push_str(&e.to_jsonl());
            text.push('\n');
        }
        text
    }

    #[test]
    fn folds_all_three_series() {
        let r = Replay::from_stream(&sample_stream()).unwrap();
        assert_eq!(r.lines, 9);
        assert!(r.meta.as_deref().unwrap().contains("\"seed\":9"));
        assert_eq!(r.rounds.len(), 1);
        assert_eq!(r.rounds[0].delivered, 2);
        assert_eq!(r.rounds[0].bytes, 8);
        assert_eq!(
            r.halts,
            vec![HaltPoint {
                run: 0,
                round: 1,
                node: 1
            }]
        );
        assert_eq!(r.steps.len(), 1);
        assert_eq!(r.steps[0].phi_min, 0.5);
        assert_eq!(r.steps[0].phi_max, 0.75);
        assert_eq!(r.steps[0].headroom_min, 0.75);
    }

    #[test]
    fn csv_exports_are_stamped_and_shaped() {
        let r = Replay::from_stream(&sample_stream()).unwrap();
        let prov = Provenance::capture().csv_comment();
        let rounds = r.rounds_csv(&prov);
        assert!(rounds.starts_with("# provenance:"));
        assert!(rounds.contains("# source-meta: {\"type\":\"meta\""));
        assert!(rounds.contains("run,round,delivered,bytes,halted,running"));
        assert!(rounds.contains("0,1,2,8,1,1"));
        let steps = r.steps_csv(&prov);
        assert!(steps.contains("0,0,0,1,2,0.5,0.75,0.75"));
        let halts = r.halts_csv(&prov);
        assert!(halts.ends_with("0,1,1\n"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Replay::from_stream("{oops").unwrap_err().contains("line 1"));
        assert!(Replay::from_stream("{\"x\":1}\n")
            .unwrap_err()
            .contains("type"));
        // A known event with a missing field is an error, not a zero.
        let e = Replay::from_stream("{\"type\":\"node_halt\",\"round\":1}\n").unwrap_err();
        assert!(e.contains("line 1") && e.contains("\"node\""), "{e}");
    }

    #[test]
    fn replay_skips_sidecar_lines() {
        let mut text = sample_stream();
        text.push_str("#checkpoint {\"round\":1,\"step\":1,\"events\":8,\"offset\":0,\"digest\":\"0000000000000000\"}\n");
        let with = Replay::from_stream(&text).unwrap();
        let without = Replay::from_stream(&sample_stream()).unwrap();
        assert_eq!(with, without);
    }

    /// A checkpointed recording of the sample events, for `RunState` tests.
    fn checkpointed_stream(interval: u64) -> String {
        use crate::recorder::{JsonlRecorder, Recorder};
        let mut rec = JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
        for e in sample_events() {
            rec.record(&e);
        }
        String::from_utf8(rec.finish().unwrap()).unwrap()
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SimRunStart {
                nodes: 2,
                edges: 1,
                max_degree: 1,
                seed: 9,
            },
            Event::RoundEnd {
                round: 1,
                delivered: 2,
                bytes: 8,
                halted: 1,
                running: 1,
            },
            Event::RoundEnd {
                round: 2,
                delivered: 0,
                bytes: 0,
                halted: 1,
                running: 0,
            },
            Event::SimRunEnd {
                rounds: 1,
                messages: 2,
            },
            Event::FixRunStart {
                variables: 2,
                events: 2,
                max_rank: 2,
            },
            Event::FixStep {
                step: 0,
                variable: 3,
                value: 1,
                rank: 2,
                touched: vec![0, 1],
                inc: vec![1.0, 0.5],
                phi_product: vec![0.5, 0.75],
                headroom: vec![1.25, 0.75],
            },
            Event::AuditPass {
                step: 0,
                variable: 3,
            },
            Event::FixStep {
                step: 1,
                variable: 5,
                value: 0,
                rank: 1,
                touched: vec![1],
                inc: vec![1.0],
                phi_product: vec![0.5],
                headroom: vec![],
            },
            Event::FixRunEnd {
                steps: 2,
                violated: 0,
            },
        ]
    }

    #[test]
    fn run_state_folds_and_verifies_checkpoints() {
        let text = checkpointed_stream(2);
        let (state, torn) = RunState::from_stream(&text).unwrap();
        assert_eq!(torn, None);
        assert_eq!(state.events(), 9);
        assert_eq!(state.rounds(), 2);
        assert_eq!(state.steps(), &[(3, 1), (5, 0)]);
        assert_eq!(state.audits(), 1);
        assert_eq!(state.bytes(), text.len() as u64);
        assert!(state.sim_run_complete());
        assert!(state.fix_run_complete());
        let rp = state.last_checkpoint().expect("interval 2 fires");
        // Triggers: round_end ×2 (sidecar), fix_step ×2 (sidecar).
        assert_eq!(rp.checkpoint.round, 2);
        assert_eq!(rp.checkpoint.step, 2);
        assert_eq!(rp.audits, 1);
        assert_eq!(rp.sim_runs, 1);
        assert!(rp.sim_run_complete);
        assert_eq!(rp.fix_runs, 1);
        assert!(!rp.fix_run_complete);
    }

    #[test]
    fn run_state_rejects_contradicted_checkpoint() {
        let text = checkpointed_stream(2);
        // Corrupt one event line inside the first checkpointed window:
        // same length, different bytes, so only the digest can tell.
        let bad = text.replacen("\"delivered\":2", "\"delivered\":3", 1);
        let err = RunState::from_stream(&bad).unwrap_err();
        assert!(err.contains("corrupt stream"), "{err}");
    }

    #[test]
    fn run_state_reports_torn_tail_offset() {
        let text = checkpointed_stream(2);
        // Cut inside the final line.
        let cut = &text[..text.len() - 5];
        let (state, torn) = RunState::from_stream(cut).unwrap();
        let torn = torn.expect("tail is torn");
        assert_eq!(torn, state.bytes());
        assert!(text[torn as usize..].starts_with("{\"type\":\"fix_run_end\""));
        assert!(!state.fix_run_complete());
        assert_eq!(state.steps().len(), 2);
    }

    #[test]
    fn run_state_matches_recorder_counters_at_checkpoint() {
        // The durable prefix up to the sidecar re-folds to exactly the
        // sidecar's counters (the resume-check invariant).
        let text = checkpointed_stream(3);
        let (full, _) = RunState::from_stream(&text).unwrap();
        let rp = *full.last_checkpoint().unwrap();
        let prefix = &text[..rp.checkpoint.resume_offset() as usize];
        let (state, torn) = RunState::from_stream(prefix).unwrap();
        assert_eq!(torn, None);
        assert_eq!(state.events(), rp.checkpoint.events);
        assert_eq!(state.rounds(), rp.checkpoint.round);
        assert_eq!(state.steps().len() as u64, rp.checkpoint.step);
        assert_eq!(state.digest(), rp.checkpoint.digest);
        assert_eq!(state.bytes(), rp.checkpoint.resume_offset());
        assert_eq!(state.last_checkpoint(), Some(&rp));
    }
}
