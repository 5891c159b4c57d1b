//! Folding a JSONL stream into a human-readable summary.

use crate::event::Event;
use crate::schema::{Line, Record};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate view of one JSONL stream.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Total lines folded (including any meta line).
    pub lines: usize,
    /// Per-`type` event counts, sorted by tag.
    pub by_type: BTreeMap<String, usize>,
    /// Simulator runs completed.
    pub sim_runs: usize,
    /// Billed rounds summed over completed simulator runs.
    pub rounds: usize,
    /// Messages summed over completed simulator runs.
    pub messages: usize,
    /// Byte bill summed over all rounds.
    pub bytes: usize,
    /// Node halts observed.
    pub node_halts: usize,
    /// Fixer runs completed.
    pub fix_runs: usize,
    /// Fixing steps observed.
    pub fix_steps: usize,
    /// Audit verdicts.
    pub audit_passes: usize,
    /// Audit violations.
    pub audit_violations: usize,
    /// Minimum `P*` headroom observed, if any `fix_step` carried one.
    pub min_headroom: Option<f64>,
    /// Rows per experiment id, in first-seen order.
    pub experiments: Vec<(String, usize)>,
    /// Provenance facts from the meta line, if present.
    pub provenance: Vec<(String, String)>,
    /// Per-request aggregates, keyed by the JSON text of the `req`
    /// correlation tag (schema v2). Empty for untagged (v1) streams.
    pub by_request: BTreeMap<String, RequestStats>,
}

/// Aggregates for one `req` correlation id within a stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RequestStats {
    /// Lines carrying this tag.
    pub events: usize,
    /// Fixer runs completed under this tag.
    pub fix_runs: usize,
    /// Fixing steps under this tag.
    pub fix_steps: usize,
    /// Simulator runs completed under this tag.
    pub sim_runs: usize,
    /// Billed rounds summed over this tag's completed simulator runs.
    pub rounds: usize,
}

impl Summary {
    /// Folds one decoded line into the summary — the bounded-memory
    /// entry point: memory stays proportional to the summary, not the
    /// stream. Blank and sidecar lines are not counted.
    pub fn fold(&mut self, rec: &Record<'_>) {
        let line = &rec.line;
        let Some(ty) = line.kind() else {
            return;
        };
        self.lines += 1;
        *self.by_type.entry(ty.to_owned()).or_insert(0) += 1;
        let (event, req) = match line {
            Line::Event { event, req } => (Some(event), req),
            Line::Unknown { req, .. } => (None, req),
            _ => (None, &None),
        };
        if let Some(req) = req {
            let r = self.by_request.entry(req.clone()).or_default();
            r.events += 1;
            match event {
                Some(Event::FixRunEnd { .. }) => r.fix_runs += 1,
                Some(Event::FixStep { .. }) => r.fix_steps += 1,
                Some(Event::SimRunEnd { rounds, .. }) => {
                    r.sim_runs += 1;
                    r.rounds += rounds;
                }
                _ => {}
            }
        }
        if let Line::Meta(p) = line {
            self.provenance.extend(p.facts());
        }
        match event {
            Some(Event::RoundEnd { bytes, .. }) => self.bytes += bytes,
            Some(Event::NodeHalt { .. }) => self.node_halts += 1,
            Some(Event::SimRunEnd { rounds, messages }) => {
                self.sim_runs += 1;
                self.rounds += rounds;
                self.messages += messages;
            }
            Some(Event::FixStep { headroom, .. }) => {
                self.fix_steps += 1;
                // Non-finite entries (written as `null`) carry no minimum.
                for &h in headroom.iter().filter(|h| !h.is_nan()) {
                    self.min_headroom = Some(self.min_headroom.map_or(h, |m| m.min(h)));
                }
            }
            Some(Event::AuditPass { .. }) => self.audit_passes += 1,
            Some(Event::AuditViolation { .. }) => self.audit_violations += 1,
            Some(Event::FixRunEnd { .. }) => self.fix_runs += 1,
            Some(Event::ExperimentEnd { id, rows }) => self.experiments.push((id.clone(), *rows)),
            _ => {}
        }
    }

    /// The summary as a machine-readable JSON object (one line via
    /// [`serde_json::to_string`]) — the `summarize --json` payload.
    /// Field order is fixed; `by_request` is keyed by the tag's JSON
    /// text and sorted.
    pub fn to_json(&self) -> Value {
        let n = |v: usize| Value::U64(v as u64);
        let object = |fields: Vec<(&str, Value)>| {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let counts = |kv: &mut dyn Iterator<Item = (&String, &usize)>| {
            Value::Object(kv.map(|(k, c)| (k.clone(), n(*c))).collect())
        };
        let requests = self.by_request.iter().map(|(req, r)| {
            let stats = object(vec![
                ("events", n(r.events)),
                ("fix_runs", n(r.fix_runs)),
                ("fix_steps", n(r.fix_steps)),
                ("sim_runs", n(r.sim_runs)),
                ("rounds", n(r.rounds)),
            ]);
            (req.clone(), stats)
        });
        object(vec![
            ("lines", n(self.lines)),
            ("sim_runs", n(self.sim_runs)),
            ("rounds", n(self.rounds)),
            ("messages", n(self.messages)),
            ("bytes", n(self.bytes)),
            ("node_halts", n(self.node_halts)),
            ("fix_runs", n(self.fix_runs)),
            ("fix_steps", n(self.fix_steps)),
            ("audit_passes", n(self.audit_passes)),
            ("audit_violations", n(self.audit_violations)),
            (
                "min_headroom",
                self.min_headroom.map_or(Value::Null, Value::F64),
            ),
            ("by_type", counts(&mut self.by_type.iter())),
            (
                "experiments",
                counts(&mut self.experiments.iter().map(|(k, c)| (k, c))),
            ),
            ("by_request", Value::Object(requests.collect())),
        ])
    }

    /// Writes the `--by-request` section: one line per correlation tag,
    /// sorted by tag text. No output for untagged streams.
    pub fn write_by_request(&self, f: &mut impl fmt::Write) -> fmt::Result {
        if self.by_request.is_empty() {
            return Ok(());
        }
        writeln!(f, "  by request:")?;
        for (req, r) in &self.by_request {
            writeln!(
                f,
                "    {req:<18} {} event(s), {} fix run(s), {} step(s), {} sim run(s), {} round(s)",
                r.events, r.fix_runs, r.fix_steps, r.sim_runs, r.rounds
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "observability summary ({} lines)", self.lines)?;
        if !self.provenance.is_empty() {
            write!(f, "  provenance:")?;
            for (k, v) in &self.provenance {
                write!(f, " {k}={v}")?;
            }
            writeln!(f)?;
        }
        if self.sim_runs > 0 {
            writeln!(
                f,
                "  simulator: {} run(s), {} billed round(s), {} message(s), {} byte(s), {} halt(s)",
                self.sim_runs, self.rounds, self.messages, self.bytes, self.node_halts
            )?;
        }
        if self.fix_runs > 0 || self.fix_steps > 0 {
            write!(
                f,
                "  fixer: {} run(s), {} step(s), audits {} pass / {} fail",
                self.fix_runs, self.fix_steps, self.audit_passes, self.audit_violations
            )?;
            if let Some(h) = self.min_headroom {
                write!(f, ", min headroom {h:.6}")?;
            }
            writeln!(f)?;
        }
        for (id, rows) in &self.experiments {
            writeln!(f, "  experiment {id}: {rows} row(s)")?;
        }
        writeln!(f, "  events by type:")?;
        for (ty, n) in &self.by_type {
            writeln!(f, "    {ty:<18} {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StreamReader;

    impl Summary {
        fn from_stream(text: &str) -> Result<Summary, String> {
            let mut s = Summary::default();
            StreamReader::default()
                .read(text.as_bytes(), |rec| {
                    s.fold(rec);
                    Ok(())
                })
                .map_err(|e| e.to_string())?;
            Ok(s)
        }
    }

    #[test]
    fn a_known_event_with_a_missing_field_is_an_error() {
        // Read as 0 before the reader decoded lines; now it names the line.
        let e = Summary::from_stream("{\"type\":\"round_end\",\"round\":1}\n").unwrap_err();
        assert!(e.contains("line 1") && e.contains("delivered"), "{e}");
    }

    #[test]
    fn folds_counts_and_minima() {
        let text = [
            Event::SimRunStart {
                nodes: 2,
                edges: 1,
                max_degree: 1,
                seed: 0,
            }
            .to_jsonl(),
            Event::RoundStart {
                round: 1,
                running: 2,
            }
            .to_jsonl(),
            Event::RoundEnd {
                round: 1,
                delivered: 2,
                bytes: 8,
                halted: 0,
                running: 2,
            }
            .to_jsonl(),
            Event::SimRunEnd {
                rounds: 1,
                messages: 2,
            }
            .to_jsonl(),
            Event::FixStep {
                step: 0,
                variable: 1,
                value: 0,
                rank: 2,
                touched: vec![0, 1],
                inc: vec![1.0, 1.0],
                phi_product: vec![0.5, 0.5],
                headroom: vec![1.5, 0.25],
            }
            .to_jsonl(),
        ]
        .join("\n");
        let s = Summary::from_stream(&text).unwrap();
        assert_eq!(s.lines, 5);
        assert_eq!(s.sim_runs, 1);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 8);
        assert_eq!(s.fix_steps, 1);
        assert_eq!(s.min_headroom, Some(0.25));
        assert_eq!(s.by_type.get("round_end"), Some(&1));
        let rendered = s.to_string();
        assert!(rendered.contains("simulator: 1 run(s)"));
    }

    #[test]
    fn groups_tagged_lines_by_request() {
        let text = [
            Event::FixRunStart {
                variables: 2,
                events: 1,
                max_rank: 2,
            }
            .to_jsonl_tagged(Some("\"a\"")),
            Event::FixStep {
                step: 0,
                variable: 0,
                value: 1,
                rank: 2,
                touched: vec![0],
                inc: vec![1.0],
                phi_product: vec![0.5],
                headroom: vec![1.0],
            }
            .to_jsonl_tagged(Some("\"a\"")),
            Event::FixRunEnd {
                steps: 1,
                violated: 0,
            }
            .to_jsonl_tagged(Some("\"a\"")),
            Event::FixRunEnd {
                steps: 0,
                violated: 0,
            }
            .to_jsonl_tagged(Some("7")),
        ]
        .join("\n");
        let s = Summary::from_stream(&text).unwrap();
        assert_eq!(s.by_request.len(), 2);
        let a = &s.by_request["\"a\""];
        assert_eq!((a.events, a.fix_runs, a.fix_steps), (3, 1, 1));
        assert_eq!(s.by_request["7"].fix_runs, 1);
        let mut out = String::new();
        s.write_by_request(&mut out).unwrap();
        assert!(out.contains("by request:"));
        assert!(out.contains("\"a\""));
        let json = serde_json::to_string(&s.to_json()).unwrap();
        assert!(json.contains("\"by_request\""));
        assert!(json.contains("\"fix_steps\":1"));
    }
}
