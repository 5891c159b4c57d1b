//! Streaming analytics over recorded JSONL: fold a stream line-by-line,
//! in bounded memory, into queryable time series.
//!
//! [`Replay`] never buffers the input — each line is parsed, folded into
//! the accumulated series, and dropped, so memory is proportional to the
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
//! folds skip `#`-prefixed sidecar lines, so checkpointed and plain
//! streams replay identically.

use crate::checkpoint::{is_sidecar, Checkpoint, StreamDigest};
use serde::Value;

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

fn uint(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::U64(n)) => *n,
        _ => 0,
    }
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn fold_min_max(v: Option<&Value>) -> (f64, f64) {
    let mut min = f64::NAN;
    let mut max = f64::NAN;
    if let Some(Value::Array(xs)) = v {
        for x in xs.iter().filter_map(float) {
            min = if min.is_nan() { x } else { min.min(x) };
            max = if max.is_nan() { x } else { max.max(x) };
        }
    }
    (min, max)
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

    /// Folds the next line of the stream. Blank lines are the caller's
    /// to skip; this expects one JSON object per call.
    ///
    /// # Errors
    ///
    /// A description of the malformed line (invalid JSON or missing
    /// `type` tag).
    pub fn fold_line(&mut self, line: &str) -> Result<(), String> {
        if is_sidecar(line) {
            // Checkpoint (and other) sidecar comments are not events.
            return Ok(());
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let ty = match v.get("type") {
            Some(Value::String(t)) => t.clone(),
            _ => return Err("missing \"type\" field".to_string()),
        };
        self.lines += 1;
        match ty.as_str() {
            "meta" => self.meta = Some(line.to_string()),
            "sim_run_start" => self.sim_runs_started += 1,
            "round_end" => self.rounds.push(RoundPoint {
                run: self.sim_runs_started.saturating_sub(1),
                round: uint(v.get("round")),
                delivered: uint(v.get("delivered")),
                bytes: uint(v.get("bytes")),
                halted: uint(v.get("halted")),
                running: uint(v.get("running")),
            }),
            "node_halt" => self.halts.push(HaltPoint {
                run: self.sim_runs_started.saturating_sub(1),
                round: uint(v.get("round")),
                node: uint(v.get("node")),
            }),
            "fix_run_start" => self.fix_runs_started += 1,
            "fix_step" => {
                let (phi_min, phi_max) = fold_min_max(v.get("phi_product"));
                let (headroom_min, _) = fold_min_max(v.get("headroom"));
                self.steps.push(StepPoint {
                    run: self.fix_runs_started.saturating_sub(1),
                    step: uint(v.get("step")),
                    variable: uint(v.get("variable")),
                    value: uint(v.get("value")),
                    rank: uint(v.get("rank")),
                    phi_min,
                    phi_max,
                    headroom_min,
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Folds a whole in-memory stream (tests and small files; the CLI
    /// streams files through [`Replay::fold_line`] instead).
    ///
    /// # Errors
    ///
    /// As [`Replay::fold_line`], prefixed with the 1-based line number.
    pub fn from_stream(text: &str) -> Result<Replay, String> {
        let mut r = Replay::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            r.fold_line(line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        Ok(r)
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
/// Torn tails are the caller's to detect (a final line without `\n`):
/// stop folding and treat [`RunState::bytes`] as the end of the durable
/// prefix. [`RunState::from_stream`] implements exactly that policy.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunState {
    steps: Vec<(u64, u64)>,
    lines: u64,
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
    meta: Option<String>,
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

    /// Folds the next *terminated* line of the stream (newline already
    /// stripped; blank lines are ignored). A torn final line must not be
    /// passed here — see the type-level docs.
    ///
    /// # Errors
    ///
    /// A description of the malformed line (invalid JSON, missing
    /// `type`, malformed `#checkpoint ` payload) or of a checkpoint
    /// whose counters contradict the fold (corrupt stream).
    pub fn fold_line(&mut self, line: &str) -> Result<(), String> {
        self.lines += 1;
        if line.trim().is_empty() {
            self.bytes += line.len() as u64 + 1;
            return Ok(());
        }
        if is_sidecar(line) {
            if line.starts_with(crate::checkpoint::CHECKPOINT_PREFIX) {
                let ck = Checkpoint::parse(line)?;
                self.verify_checkpoint(&ck)?;
                self.last = Some(ResumePoint {
                    checkpoint: ck,
                    audits: self.audits,
                    sim_runs: self.sim_runs,
                    sim_rounds: self.sim_rounds,
                    sim_run_complete: self.sim_run_complete,
                    fix_runs: self.fix_runs,
                    fix_run_complete: self.fix_run_complete,
                });
            }
            self.bytes += line.len() as u64 + 1;
            return Ok(());
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let ty = match v.get("type") {
            Some(Value::String(t)) => t.clone(),
            _ => return Err("missing \"type\" field".to_string()),
        };
        if ty == "meta" {
            self.meta = Some(line.to_string());
            self.bytes += line.len() as u64 + 1;
            return Ok(());
        }
        match ty.as_str() {
            "sim_run_start" => {
                self.sim_runs += 1;
                self.sim_rounds = 0;
                self.sim_run_complete = false;
            }
            "round_end" => {
                self.round_ends += 1;
                self.sim_rounds += 1;
            }
            "sim_run_end" => self.sim_run_complete = true,
            "fix_run_start" => {
                self.fix_runs += 1;
                self.fix_run_complete = false;
            }
            "fix_step" => self
                .steps
                .push((uint(v.get("variable")), uint(v.get("value")))),
            "audit_pass" | "audit_violation" => self.audits += 1,
            "fix_run_end" => self.fix_run_complete = true,
            _ => {}
        }
        self.events += 1;
        self.digest.update_line(line);
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn verify_checkpoint(&self, ck: &Checkpoint) -> Result<(), String> {
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
                self.lines,
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
    /// (no trailing `\n`): the tail is *not* folded and its start
    /// offset — the end of the durable prefix — is returned alongside
    /// the state.
    ///
    /// # Errors
    ///
    /// As [`RunState::fold_line`], prefixed with the 1-based line
    /// number.
    pub fn from_stream(text: &str) -> Result<(RunState, Option<u64>), String> {
        let mut state = RunState::new();
        for (idx, raw) in text.split_inclusive('\n').enumerate() {
            let line_no = idx + 1;
            match raw.strip_suffix('\n') {
                Some(line) => state
                    .fold_line(line)
                    .map_err(|e| format!("line {line_no}: {e}"))?,
                None => {
                    let torn_at = state.bytes;
                    return Ok((state, Some(torn_at)));
                }
            }
        }
        Ok((state, None))
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

    /// `round_end` events of the current (latest) simulator run.
    pub fn sim_rounds(&self) -> u64 {
        self.sim_rounds
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

    /// The raw meta line, if the stream carried one.
    pub fn meta(&self) -> Option<&str> {
        self.meta.as_deref()
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
    use crate::event::Event;
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
        assert!(Replay::from_stream("{\"x\":1}")
            .unwrap_err()
            .contains("type"));
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
