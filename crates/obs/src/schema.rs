//! The one reader of recorded JSONL streams.
//!
//! [`Line::decode`] decodes a line once into a typed [`Line`]. The
//! decoding *is* the schema check, and each decoder sits beside its
//! writer: events next to [`Event::to_jsonl`], the meta line next to
//! [`Provenance::to_jsonl`], timing lines next to
//! [`TimingRecorder::to_jsonl`](crate::TimingRecorder::to_jsonl), and
//! sidecars in [`Checkpoint::parse`]. [`StreamReader`] hands the decoded
//! lines to the folds — [`StreamValidator`] here, `Summary`, `Replay`
//! and `RunState` — under one torn-tail rule (DESIGN.md §3.7): an
//! unterminated final line counts as complete if it decodes and as torn
//! if it does not, and an unterminated sidecar is always torn.
//! [`StreamValidator`] adds the stream-level contract: the meta line
//! only first, and round and step indices advancing by exactly one.

use crate::checkpoint::{Checkpoint, CHECKPOINT_PREFIX};
use crate::event::Event;
use crate::provenance::Provenance;
use crate::timing::TimingLine;
use serde::Value;
use std::fmt;
use std::io::{self, BufRead};

/// One decoded line of a recorded stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// An empty or whitespace-only line.
    Blank,
    /// A `#` sidecar comment; `Some` for a `#checkpoint ` record.
    Sidecar(Option<Checkpoint>),
    /// The provenance meta line.
    Meta(Provenance),
    /// An event, with the JSON text of its `req` correlation tag.
    Event {
        /// The decoded event.
        event: Event,
        /// The tag's JSON text (e.g. `"q7"` or `12`), if the line has one.
        req: Option<String>,
    },
    /// A side-band timing summary line.
    Timing(TimingLine),
    /// A JSON object line whose `type` no decoder knows.
    Unknown {
        /// The line's `type` tag.
        ty: String,
        /// The JSON text of its `req` tag, if any.
        req: Option<String>,
    },
}

impl Line {
    /// Decodes one line (newline stripped; surrounding whitespace is
    /// ignored).
    ///
    /// # Errors
    ///
    /// What is malformed: the JSON, the `type`, a field of a known line,
    /// the `req` tag, the schema version, or a `#checkpoint ` payload.
    pub fn decode(text: &str) -> Result<Line, String> {
        let text = text.trim();
        if text.is_empty() {
            return Ok(Line::Blank);
        }
        if text.starts_with(CHECKPOINT_PREFIX) {
            return Checkpoint::parse(text).map(|ck| Line::Sidecar(Some(ck)));
        }
        if text.starts_with('#') {
            return Ok(Line::Sidecar(None));
        }
        let v: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
        if !matches!(v, Value::Object(_)) {
            return Err(format!("expected a JSON object, got {}", v.kind()));
        }
        let ty = match v.get("type") {
            Some(Value::String(t)) => t.as_str(),
            Some(other) => return Err(format!("\"type\" must be a string, got {}", other.kind())),
            None => return Err("missing \"type\" field".to_string()),
        };
        let f = Fields { ty, obj: &v };
        match ty {
            "meta" => return Provenance::decode(&f).map(Line::Meta),
            "timing" => return TimingLine::decode(&f).map(Line::Timing),
            _ => {}
        }
        // Optional request-correlation tag (schema v2): a scalar, on any
        // event line. v1 streams simply never carry it.
        let req = match v.get("req") {
            None => None,
            Some(tag @ (Value::Null | Value::String(_) | Value::U64(_) | Value::I64(_))) => {
                Some(serde_json::to_string(tag).map_err(|e| format!("{ty}: req: {e}"))?)
            }
            Some(other) => {
                return Err(format!(
                    "{ty}: field \"req\" must be a scalar, got {}",
                    other.kind()
                ))
            }
        };
        Ok(match Event::decode(&f)? {
            Some(event) => Line::Event { event, req },
            None => Line::Unknown {
                ty: ty.to_owned(),
                req,
            },
        })
    }

    /// The line's `type` tag; `None` for blank and sidecar lines.
    pub fn kind(&self) -> Option<&str> {
        match self {
            Line::Blank | Line::Sidecar(_) => None,
            Line::Meta(_) => Some("meta"),
            Line::Event { event, .. } => Some(event.kind()),
            Line::Timing(_) => Some("timing"),
            Line::Unknown { ty, .. } => Some(ty),
        }
    }
}

/// The fields of one JSON object line, read by name with their schema
/// kinds; every error names the line's type and the field.
pub(crate) struct Fields<'a> {
    pub(crate) ty: &'a str,
    pub(crate) obj: &'a Value,
}

impl<'a> Fields<'a> {
    fn get(&self, name: &str) -> Result<&'a Value, String> {
        self.obj
            .get(name)
            .ok_or_else(|| format!("{}: missing required field \"{name}\"", self.ty))
    }

    fn mistyped(&self, name: &str, v: &Value, expected: &str) -> String {
        format!(
            "{}: field \"{name}\" has kind {}, expected {expected}",
            self.ty,
            v.kind()
        )
    }

    /// `Some(read(name))` when the field is present, `None` when absent.
    pub(crate) fn optional<T>(
        &self,
        name: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.obj.get(name).map(|_| read(self, name)).transpose()
    }

    pub(crate) fn u64(&self, name: &str) -> Result<u64, String> {
        match self.get(name)? {
            Value::U64(n) => Ok(*n),
            v => Err(self.mistyped(name, v, "an unsigned integer")),
        }
    }

    pub(crate) fn usize(&self, name: &str) -> Result<usize, String> {
        let n = self.u64(name)?;
        usize::try_from(n).map_err(|_| format!("{}: field \"{name}\" overflows usize", self.ty))
    }

    pub(crate) fn string(&self, name: &str) -> Result<String, String> {
        match self.get(name)? {
            Value::String(s) => Ok(s.clone()),
            v => Err(self.mistyped(name, v, "a string")),
        }
    }

    /// The array `name`, each entry read by `entry`.
    fn array<T>(&self, name: &str, entry: impl Fn(&Value) -> Option<T>) -> Result<Vec<T>, String> {
        match self.get(name)? {
            Value::Array(xs) => xs.iter().map(entry).collect::<Option<_>>().ok_or_else(|| {
                format!(
                    "{}: field \"{name}\" has an entry of the wrong kind",
                    self.ty
                )
            }),
            v => Err(self.mistyped(name, v, "an array")),
        }
    }

    pub(crate) fn usizes(&self, name: &str) -> Result<Vec<usize>, String> {
        self.array(name, |x| match x {
            Value::U64(n) => usize::try_from(*n).ok(),
            _ => None,
        })
    }

    /// An array of floats: `null` (the writer's encoding of a
    /// non-finite value) decodes to NaN, and integer entries to floats.
    pub(crate) fn floats(&self, name: &str) -> Result<Vec<f64>, String> {
        self.array(name, |x| match x {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::Null => Some(f64::NAN),
            _ => None,
        })
    }
}

/// One decoded line with its place in the stream, as handed to a fold.
#[derive(Debug)]
pub struct Record<'a> {
    /// 1-based line number.
    pub lineno: usize,
    /// The raw line, without its newline.
    pub text: &'a str,
    /// The line's length in the stream, its newline included when it
    /// has one.
    pub bytes: u64,
    /// The decoded line.
    pub line: Line,
}

/// Why a [`StreamReader`] stopped before the end of its input.
#[derive(Debug)]
pub enum Stop {
    /// The source failed to read.
    Io(io::Error),
    /// A line failed to decode, or a fold rejected it.
    Bad {
        /// 1-based line number.
        lineno: usize,
        /// What was wrong.
        message: String,
    },
    /// The final line is torn: unterminated and undecodable, or an
    /// unterminated sidecar. Everything before it was folded.
    Torn {
        /// 1-based line number of the torn line.
        lineno: usize,
        /// Byte offset where it starts — the end of the durable prefix.
        offset: u64,
    },
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stop::Io(e) => write!(f, "read error: {e}"),
            Stop::Bad { lineno, message } => write!(f, "line {lineno}: {message}"),
            Stop::Torn { lineno, offset } => {
                write!(f, "line {lineno} is truncated at byte offset {offset}")
            }
        }
    }
}

/// Reads a stream line by line, decodes each line once, and hands it to
/// a fold. Memory is one line, whatever the stream's length. Start one
/// with `StreamReader::default()`.
///
/// The reader keeps its position, so a follower can read a growing file
/// in chunks: after [`Stop::Torn`] the position stays at the start of the
/// torn line, and the next [`StreamReader::read`] of the file from
/// [`StreamReader::offset`] picks it up once its producer finishes it.
#[derive(Debug, Default, Clone)]
pub struct StreamReader {
    lineno: usize,
    offset: u64,
}

impl StreamReader {
    /// Byte offset one past the last line read — the end of the durable
    /// prefix.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads `src` to its end, folding every line into `fold`.
    ///
    /// # Errors
    ///
    /// [`Stop::Io`] on a read error, [`Stop::Bad`] on a terminated line
    /// that does not decode or that `fold` rejects, and [`Stop::Torn`] on
    /// a torn final line.
    pub fn read<B: BufRead>(
        &mut self,
        mut src: B,
        mut fold: impl FnMut(&Record<'_>) -> Result<(), String>,
    ) -> Result<(), Stop> {
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = src.read_line(&mut buf).map_err(Stop::Io)?;
            if n == 0 {
                return Ok(());
            }
            let lineno = self.lineno + 1;
            let (text, terminated) = match buf.strip_suffix('\n') {
                Some(text) => (text, true),
                None => (buf.as_str(), false),
            };
            let torn = Stop::Torn {
                lineno,
                offset: self.offset,
            };
            let line = match Line::decode(text) {
                Ok(Line::Sidecar(_)) if !terminated => return Err(torn),
                Ok(line) => line,
                Err(_) if !terminated => return Err(torn),
                Err(message) => return Err(Stop::Bad { lineno, message }),
            };
            let rec = Record {
                lineno,
                text,
                bytes: n as u64,
                line,
            };
            fold(&rec).map_err(|message| Stop::Bad { lineno, message })?;
            self.lineno = lineno;
            self.offset += n as u64;
        }
    }
}

/// Stateful validator for a whole stream; feed it decoded lines in order.
#[derive(Debug, Default)]
pub struct StreamValidator {
    lines: usize,
    /// Round index of the current simulator run (0 right after `sim_run_start`).
    sim_round: Option<usize>,
    /// `true` between `round_start` and the matching `round_end`.
    in_round: bool,
    /// Step index expected next in the current fixer run.
    fix_next_step: Option<usize>,
    /// Step index of the last `fix_step`, for audit events.
    fix_last_step: Option<usize>,
}

impl StreamValidator {
    /// A fresh validator.
    pub fn new() -> Self {
        StreamValidator::default()
    }

    /// Checks the next line of the stream.
    ///
    /// # Errors
    ///
    /// A description of the violated invariant (the reader adds the
    /// line number).
    pub fn check(&mut self, rec: &Record<'_>) -> Result<(), String> {
        match &rec.line {
            Line::Blank => return Ok(()),
            Line::Unknown { ty, .. } => return Err(format!("unknown event type \"{ty}\"")),
            Line::Meta(_) if self.lines != 0 => {
                return Err("meta line allowed only as the first line".to_string())
            }
            // Sidecars, meta and timing lines carry no stream-level
            // invariants beyond decoding.
            Line::Sidecar(_) | Line::Meta(_) | Line::Timing(_) => {}
            Line::Event { event, .. } => self.check_event(event)?,
        }
        self.lines += 1;
        Ok(())
    }

    fn check_event(&mut self, event: &Event) -> Result<(), String> {
        let ty = event.kind();
        match *event {
            Event::SimRunStart { .. } => {
                self.sim_round = Some(0);
                self.in_round = false;
            }
            Event::RoundStart { round, .. } => {
                match self.sim_round {
                    Some(prev) if round == prev + 1 => self.sim_round = Some(round),
                    Some(prev) => {
                        return Err(format!(
                            "round_start round {round} does not follow round {prev}"
                        ))
                    }
                    None => return Err("round_start before sim_run_start".to_string()),
                }
                self.in_round = true;
            }
            Event::NodeHalt { round, .. } | Event::RoundEnd { round, .. } => {
                match self.sim_round {
                    Some(cur) if round == cur && self.in_round => {}
                    _ => {
                        return Err(format!(
                            "{ty} for round {round} outside an open round (current {:?})",
                            self.sim_round
                        ))
                    }
                }
                if matches!(event, Event::RoundEnd { .. }) {
                    self.in_round = false;
                }
            }
            Event::SimRunEnd { .. } => {
                if self.sim_round.is_none() {
                    return Err("sim_run_end before sim_run_start".to_string());
                }
                if self.in_round {
                    return Err("sim_run_end inside an open round".to_string());
                }
                self.sim_round = None;
            }
            Event::FixRunStart { .. } => {
                self.fix_next_step = Some(0);
                self.fix_last_step = None;
            }
            Event::FixStep { step, .. } => match self.fix_next_step {
                Some(expected) if step == expected => {
                    self.fix_next_step = Some(expected + 1);
                    self.fix_last_step = Some(step);
                }
                Some(expected) => return Err(format!("fix_step step {step}, expected {expected}")),
                None => return Err("fix_step before fix_run_start".to_string()),
            },
            Event::AuditPass { step, .. } | Event::AuditViolation { step, .. } => {
                match self.fix_last_step {
                    Some(last) if step == last => {}
                    other => {
                        return Err(format!(
                            "{ty} for step {step} does not match last fix_step {other:?}"
                        ))
                    }
                }
            }
            Event::FixRunEnd { .. } => {
                if self.fix_next_step.is_none() {
                    return Err("fix_run_end before fix_run_start".to_string());
                }
                self.fix_next_step = None;
                self.fix_last_step = None;
            }
            // Bench events carry no stream-level invariants.
            _ => {}
        }
        Ok(())
    }

    /// Final consistency checks; returns the number of accepted lines.
    ///
    /// # Errors
    ///
    /// The bracket the stream left open.
    pub fn finish(self) -> Result<usize, String> {
        if self.in_round {
            return Err("stream ended inside an open round".to_string());
        }
        if self.sim_round.is_some() {
            return Err("stream ended inside an open simulator run".to_string());
        }
        if self.fix_next_step.is_some() {
            return Err("stream ended inside an open fixer run".to_string());
        }
        Ok(self.lines)
    }
}

/// Validates a full in-memory stream; returns the accepted line count.
///
/// # Errors
///
/// The first decoding or stream-level violation, with its line number.
pub fn validate_stream(text: &str) -> Result<usize, String> {
    let mut v = StreamValidator::new();
    StreamReader::default()
        .read(text.as_bytes(), |rec| v.check(rec))
        .map_err(|e| e.to_string())?;
    v.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_stream() {
        let mut text = Provenance::capture().with_seed(3).to_jsonl();
        text.push('\n');
        let events = vec![
            Event::SimRunStart {
                nodes: 2,
                edges: 1,
                max_degree: 1,
                seed: 3,
            },
            Event::RoundStart {
                round: 1,
                running: 2,
            },
            Event::NodeHalt { round: 1, node: 0 },
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
                variables: 3,
                events: 2,
                max_rank: 2,
            },
            Event::FixStep {
                step: 0,
                variable: 0,
                value: 1,
                rank: 2,
                touched: vec![0],
                inc: vec![1.0],
                phi_product: vec![0.5],
                headroom: vec![1.0],
            },
            Event::AuditPass {
                step: 0,
                variable: 0,
            },
            Event::FixRunEnd {
                steps: 1,
                violated: 0,
            },
        ];
        for e in events {
            text.push_str(&e.to_jsonl());
            text.push('\n');
        }
        assert_eq!(validate_stream(&text), Ok(10));
    }

    #[test]
    fn rejects_round_index_jumps() {
        let text = [
            Event::SimRunStart {
                nodes: 1,
                edges: 0,
                max_degree: 0,
                seed: 0,
            }
            .to_jsonl(),
            Event::RoundStart {
                round: 2,
                running: 1,
            }
            .to_jsonl(),
        ]
        .join("\n");
        let e = validate_stream(&text).unwrap_err();
        assert!(e.contains("does not follow"), "{e}");
    }

    #[test]
    fn rejects_step_index_jumps() {
        let text = [
            Event::FixRunStart {
                variables: 1,
                events: 1,
                max_rank: 2,
            }
            .to_jsonl(),
            Event::FixStep {
                step: 1,
                variable: 0,
                value: 0,
                rank: 1,
                touched: vec![],
                inc: vec![],
                phi_product: vec![],
                headroom: vec![],
            }
            .to_jsonl(),
        ]
        .join("\n");
        let e = validate_stream(&text).unwrap_err();
        assert!(e.contains("expected 0"), "{e}");
    }

    #[test]
    fn rejects_meta_after_first_line() {
        let text = [
            Event::ExperimentStart {
                id: "E1".to_string(),
            }
            .to_jsonl(),
            Provenance::capture().to_jsonl(),
        ]
        .join("\n");
        let e = validate_stream(&text).unwrap_err();
        assert!(e.contains("first line"), "{e}");
    }

    #[test]
    fn accepts_v1_meta_and_tagged_lines() {
        // A v1 stream (schema 1, no `req`) still decodes under the v2
        // reader.
        let v1 = "{\"type\":\"meta\",\"schema\":1,\"git_rev\":\"x\",\"rustc\":\"y\",\
                  \"crate_version\":\"0.1.0\"}";
        assert!(matches!(Line::decode(v1), Ok(Line::Meta(p)) if p.schema == 1));
        // Tagged lines decode with any scalar tag, kept as its JSON text.
        for tag in ["\"q0\"", "12", "null"] {
            let line = format!("{{\"type\":\"node_halt\",\"req\":{tag},\"round\":1,\"node\":0}}");
            let decoded = Line::decode(&line).unwrap();
            assert_eq!(decoded.kind(), Some("node_halt"), "{line}");
            assert!(
                matches!(decoded, Line::Event { req: Some(r), .. } if r == tag),
                "{line}"
            );
        }
        // Non-scalar tags are rejected.
        assert!(
            Line::decode("{\"type\":\"node_halt\",\"req\":[1],\"round\":1,\"node\":0}")
                .unwrap_err()
                .contains("scalar")
        );
        // Future schema versions are rejected.
        assert!(Line::decode(&v1.replace("\"schema\":1", "\"schema\":99"))
            .unwrap_err()
            .contains("not supported"));
    }

    #[test]
    fn sidecar_lines_are_accepted_but_checkpoints_must_parse() {
        let good = "#checkpoint {\"round\":1,\"step\":0,\"events\":2,\"offset\":10,\
                    \"digest\":\"00000000000000ab\"}";
        let text = [
            Event::ExperimentStart {
                id: "E1".to_string(),
            }
            .to_jsonl(),
            good.to_string(),
            "# free-form sidecar comment".to_string(),
            Event::ExperimentEnd {
                id: "E1".to_string(),
                rows: 0,
            }
            .to_jsonl(),
        ]
        .join("\n");
        assert_eq!(validate_stream(&text), Ok(4));
        assert_eq!(Line::decode("# a comment"), Ok(Line::Sidecar(None)));
        assert!(matches!(Line::decode(good), Ok(Line::Sidecar(Some(_)))));
        let bad = text.replace(good, "#checkpoint {oops");
        let e = validate_stream(&bad).unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn rejects_unknown_types_and_missing_fields() {
        let e = validate_stream("{\"type\":\"mystery\"}").unwrap_err();
        assert!(e.contains("unknown event type"), "{e}");
        // Unknown types still decode, for the folds that count them.
        assert_eq!(
            Line::decode("{\"type\":\"mystery\"}").unwrap().kind(),
            Some("mystery")
        );
        assert!(Line::decode("{\"type\":\"node_halt\",\"round\":1}")
            .unwrap_err()
            .contains("missing required field"));
        assert!(
            Line::decode("{\"type\":\"node_halt\",\"round\":1,\"node\":-1}")
                .unwrap_err()
                .contains("expected an unsigned integer")
        );
        assert!(Line::decode("not json").is_err());
    }

    #[test]
    fn torn_tail_rule() {
        let done = Event::NodeHalt { round: 1, node: 0 }.to_jsonl();
        let count = |text: &str| {
            let mut n = 0;
            StreamReader::default()
                .read(text.as_bytes(), |_| {
                    n += 1;
                    Ok(())
                })
                .map(|()| n)
        };
        // An unterminated final line that decodes is complete.
        assert_eq!(count(&format!("{done}\n{done}")).unwrap(), 2);
        // One that does not decode is torn, at its start offset.
        let cut = format!("{done}\n{}", &done[..10]);
        assert!(matches!(
            count(&cut),
            Err(Stop::Torn { lineno: 2, offset }) if offset == done.len() as u64 + 1
        ));
        // An unterminated sidecar is always torn.
        assert!(matches!(
            count(&format!("{done}\n# note")),
            Err(Stop::Torn { lineno: 2, .. })
        ));
        // A terminated line that does not decode is bad, not torn.
        assert!(matches!(
            count(&format!("{}\n{done}\n", &done[..10])),
            Err(Stop::Bad { lineno: 1, .. })
        ));
    }
}
