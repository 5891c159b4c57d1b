//! Typed event vocabulary for the flight recorder.
//!
//! Events are plain data. Every event on the deterministic path carries
//! logical indices (round, step, node id) and never wall-clock time, so a
//! recorded stream is a pure function of the run's inputs. The JSONL
//! encoding is hand-rolled with a fixed field order per variant, which is
//! what makes byte-identity across engines a meaningful guarantee.
//! `Event::decode` reads a line back; it is the schema check for event
//! lines (`crate::schema`).

use crate::schema::Fields;

/// Version of the JSONL event schema. Bump on any change to field names,
/// field order, or variant tags; see DESIGN.md §3.7 for the versioning rules.
///
/// v2 (additive over v1): any event line may carry an optional `req`
/// field — a scalar correlation id, spliced directly after `type` —
/// attributing the event to the serve request that caused it. Untagged
/// lines are byte-identical to v1, and readers accept both versions
/// (DESIGN.md §3.11).
pub const SCHEMA_VERSION: u32 = 2;

/// A single recorded event from one of the three instrumented layers.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ---- simulator layer ----
    /// Emitted once before `init` messages are exchanged.
    SimRunStart {
        /// Number of nodes in the communication graph.
        nodes: usize,
        /// Number of edges in the communication graph.
        edges: usize,
        /// Maximum degree of the communication graph.
        max_degree: usize,
        /// Simulator seed (per-node RNGs are derived from this).
        seed: u64,
    },
    /// Emitted at the top of each round, before delivery.
    RoundStart {
        /// 1-based round index (matches the round bill).
        round: usize,
        /// Nodes still running (not yet halted) when the round begins.
        running: usize,
    },
    /// A node halted (produced its output) during `round`. Emitted in
    /// ascending node order within the round on both engines.
    NodeHalt {
        /// 1-based round index the halt happened in.
        round: usize,
        /// Node that halted.
        node: usize,
    },
    /// Emitted at the end of each round, after all nodes have stepped.
    RoundEnd {
        /// 1-based round index.
        round: usize,
        /// Messages delivered at the start of this round (message bill share).
        delivered: usize,
        /// Byte bill for this round: `delivered * size_of::<Message>()`.
        bytes: usize,
        /// Nodes that halted during this round.
        halted: usize,
        /// Nodes still running after this round.
        running: usize,
    },
    /// Emitted once after the run completes successfully.
    SimRunEnd {
        /// Billed rounds (terminal decide-only round excluded, as in `RunOutcome`).
        rounds: usize,
        /// Total messages delivered across the run.
        messages: usize,
    },

    // ---- fixer layer ----
    /// Emitted once when a fixing run starts.
    FixRunStart {
        /// Number of variables in the instance.
        variables: usize,
        /// Number of bad events in the instance.
        events: usize,
        /// Maximum event rank (2 for `Fixer2`, 3 for `Fixer3`).
        max_rank: usize,
    },
    /// One variable-fixing step. `touched` lists the events the fixed
    /// variable affects; `inc` and `phi_product` are indexed like `touched`,
    /// while `headroom` has one entry per dependency edge among the touched
    /// event pairs (0 entries at rank 1, 1 at rank 2, 3 at rank 3).
    FixStep {
        /// 0-based step index within the run.
        step: usize,
        /// Variable that was fixed.
        variable: usize,
        /// Value it was fixed to.
        value: usize,
        /// Rank of the update rule applied (1, 2 or 3).
        rank: usize,
        /// Event ids the fixed variable affects (its φ-update footprint).
        touched: Vec<usize>,
        /// Conditional-probability growth `Inc(e, x=value)` per touched event,
        /// evaluated against the pre-fix partial assignment.
        inc: Vec<f64>,
        /// φ-product mass `Π_{e∋v} φ_e^v` per touched event after the update.
        phi_product: Vec<f64>,
        /// `P*` headroom `2 − φ_e^u − φ_e^v` after the update, one entry per
        /// dependency edge among the touched event pairs (pair-sum slack;
        /// negative means the invariant broke).
        headroom: Vec<f64>,
    },
    /// Incremental or full audit accepted the state after `step`.
    AuditPass {
        /// Step the audit ran after.
        step: usize,
        /// Variable fixed at that step.
        variable: usize,
    },
    /// Audit rejected the state after `step`.
    AuditViolation {
        /// Step the audit ran after.
        step: usize,
        /// Variable fixed at that step.
        variable: usize,
        /// Events whose pair-sum bound `φ_e^u + φ_e^v ≤ 2` failed.
        pair_violations: Vec<usize>,
        /// Events whose conditional-probability bound failed.
        prob_violations: Vec<usize>,
    },
    /// Emitted once when a fixing run completes.
    FixRunEnd {
        /// Total fixing steps performed.
        steps: usize,
        /// Bad events violated under the final assignment (0 on success).
        violated: usize,
    },

    // ---- bench layer ----
    /// An experiment in the tables harness began.
    ExperimentStart {
        /// Experiment id (e.g. `"E15"`).
        id: String,
    },
    /// The experiment emitted one result row.
    ExperimentRow {
        /// Experiment id.
        id: String,
        /// 0-based row index.
        index: usize,
    },
    /// The experiment finished with `rows` rows.
    ExperimentEnd {
        /// Experiment id.
        id: String,
        /// Rows emitted.
        rows: usize,
    },
}

impl Event {
    /// The `type` tag this event serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SimRunStart { .. } => "sim_run_start",
            Event::RoundStart { .. } => "round_start",
            Event::NodeHalt { .. } => "node_halt",
            Event::RoundEnd { .. } => "round_end",
            Event::SimRunEnd { .. } => "sim_run_end",
            Event::FixRunStart { .. } => "fix_run_start",
            Event::FixStep { .. } => "fix_step",
            Event::AuditPass { .. } => "audit_pass",
            Event::AuditViolation { .. } => "audit_violation",
            Event::FixRunEnd { .. } => "fix_run_end",
            Event::ExperimentStart { .. } => "experiment_start",
            Event::ExperimentRow { .. } => "experiment_row",
            Event::ExperimentEnd { .. } => "experiment_end",
        }
    }

    /// [`Event::to_jsonl`] with an optional request-correlation tag:
    /// `req` (already-encoded JSON scalar text, e.g. `"q7"` or `12`) is
    /// spliced in directly after the `type` field, so a tagged line is
    /// the untagged line plus one field — and `to_jsonl_tagged(None)`
    /// is byte-identical to [`Event::to_jsonl`]. The tag must be a
    /// scalar's JSON text; serve request ids (null/string/integer)
    /// satisfy this by construction.
    pub fn to_jsonl_tagged(&self, req: Option<&str>) -> String {
        let mut s = self.to_jsonl();
        if let Some(req) = req {
            // Position just past `{"type":"<kind>"`.
            let at = "{\"type\":\"".len() + self.kind().len() + 1;
            s.insert_str(at, &format!(",\"req\":{req}"));
        }
        s
    }

    /// Serialize to one JSONL line (no trailing newline). Field order is
    /// fixed per variant — part of the schema, covered by byte-identity tests.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"type\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::SimRunStart {
                nodes,
                edges,
                max_degree,
                seed,
            } => {
                push_usize(&mut s, "nodes", *nodes);
                push_usize(&mut s, "edges", *edges);
                push_usize(&mut s, "max_degree", *max_degree);
                push_u64(&mut s, "seed", *seed);
            }
            Event::RoundStart { round, running } => {
                push_usize(&mut s, "round", *round);
                push_usize(&mut s, "running", *running);
            }
            Event::NodeHalt { round, node } => {
                push_usize(&mut s, "round", *round);
                push_usize(&mut s, "node", *node);
            }
            Event::RoundEnd {
                round,
                delivered,
                bytes,
                halted,
                running,
            } => {
                push_usize(&mut s, "round", *round);
                push_usize(&mut s, "delivered", *delivered);
                push_usize(&mut s, "bytes", *bytes);
                push_usize(&mut s, "halted", *halted);
                push_usize(&mut s, "running", *running);
            }
            Event::SimRunEnd { rounds, messages } => {
                push_usize(&mut s, "rounds", *rounds);
                push_usize(&mut s, "messages", *messages);
            }
            Event::FixRunStart {
                variables,
                events,
                max_rank,
            } => {
                push_usize(&mut s, "variables", *variables);
                push_usize(&mut s, "events", *events);
                push_usize(&mut s, "max_rank", *max_rank);
            }
            Event::FixStep {
                step,
                variable,
                value,
                rank,
                touched,
                inc,
                phi_product,
                headroom,
            } => {
                push_usize(&mut s, "step", *step);
                push_usize(&mut s, "variable", *variable);
                push_usize(&mut s, "value", *value);
                push_usize(&mut s, "rank", *rank);
                push_usize_array(&mut s, "touched", touched);
                push_f64_array(&mut s, "inc", inc);
                push_f64_array(&mut s, "phi_product", phi_product);
                push_f64_array(&mut s, "headroom", headroom);
            }
            Event::AuditPass { step, variable } => {
                push_usize(&mut s, "step", *step);
                push_usize(&mut s, "variable", *variable);
            }
            Event::AuditViolation {
                step,
                variable,
                pair_violations,
                prob_violations,
            } => {
                push_usize(&mut s, "step", *step);
                push_usize(&mut s, "variable", *variable);
                push_usize_array(&mut s, "pair_violations", pair_violations);
                push_usize_array(&mut s, "prob_violations", prob_violations);
            }
            Event::FixRunEnd { steps, violated } => {
                push_usize(&mut s, "steps", *steps);
                push_usize(&mut s, "violated", *violated);
            }
            Event::ExperimentStart { id } => {
                push_str(&mut s, "id", id);
            }
            Event::ExperimentRow { id, index } => {
                push_str(&mut s, "id", id);
                push_usize(&mut s, "index", *index);
            }
            Event::ExperimentEnd { id, rows } => {
                push_str(&mut s, "id", id);
                push_usize(&mut s, "rows", *rows);
            }
        }
        s.push('}');
        s
    }

    /// Decodes the event an object line carries — the inverse of
    /// [`Event::to_jsonl`], and the schema check for event lines: every
    /// field the writer writes must be present with its kind (extra
    /// fields are ignored). `None` for a `type` no variant serializes
    /// under.
    pub(crate) fn decode(f: &Fields<'_>) -> Result<Option<Event>, String> {
        // `tag => Variant { field: reader, .. }`, each field read with the
        // `Fields` method of its kind, in the writer's order.
        macro_rules! decode {
            ($($tag:literal => $variant:ident { $($field:ident: $read:ident),* },)*) => {
                match f.ty {
                    $($tag => Event::$variant { $($field: f.$read(stringify!($field))?),* },)*
                    _ => return Ok(None),
                }
            };
        }
        Ok(Some(decode! {
            "sim_run_start" => SimRunStart { nodes: usize, edges: usize, max_degree: usize, seed: u64 },
            "round_start" => RoundStart { round: usize, running: usize },
            "node_halt" => NodeHalt { round: usize, node: usize },
            "round_end" => RoundEnd {
                round: usize, delivered: usize, bytes: usize, halted: usize, running: usize
            },
            "sim_run_end" => SimRunEnd { rounds: usize, messages: usize },
            "fix_run_start" => FixRunStart { variables: usize, events: usize, max_rank: usize },
            "fix_step" => FixStep {
                step: usize, variable: usize, value: usize, rank: usize,
                touched: usizes, inc: floats, phi_product: floats, headroom: floats
            },
            "audit_pass" => AuditPass { step: usize, variable: usize },
            "audit_violation" => AuditViolation {
                step: usize, variable: usize, pair_violations: usizes, prob_violations: usizes
            },
            "fix_run_end" => FixRunEnd { steps: usize, violated: usize },
            "experiment_start" => ExperimentStart { id: string },
            "experiment_row" => ExperimentRow { id: string, index: usize },
            "experiment_end" => ExperimentEnd { id: string, rows: usize },
        }))
    }
}

fn push_key(s: &mut String, key: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
}

fn push_usize(s: &mut String, key: &str, v: usize) {
    push_key(s, key);
    s.push_str(itoa(v as u64).as_str());
}

fn push_u64(s: &mut String, key: &str, v: u64) {
    push_key(s, key);
    s.push_str(itoa(v).as_str());
}

fn itoa(v: u64) -> String {
    // std's Display for u64 is already allocation-light; keep it simple.
    format!("{v}")
}

/// Shortest round-trip float encoding; non-finite values (which only arise
/// from broken invariants) encode as `null` so the line stays valid JSON.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` never prints an exponent without a fraction, and always
        // prints a `.0` for integral values, so the output is valid JSON.
        s
    } else {
        "null".to_string()
    }
}

fn push_f64_array(s: &mut String, key: &str, vs: &[f64]) {
    push_key(s, key);
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&fmt_f64(*v));
    }
    s.push(']');
}

fn push_usize_array(s: &mut String, key: &str, vs: &[usize]) {
    push_key(s, key);
    s.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(itoa(*v as u64).as_str());
    }
    s.push(']');
}

pub(crate) fn push_str(s: &mut String, key: &str, v: &str) {
    push_key(s, key);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_field_order_is_fixed() {
        let e = Event::RoundEnd {
            round: 3,
            delivered: 10,
            bytes: 40,
            halted: 1,
            running: 7,
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"round_end\",\"round\":3,\"delivered\":10,\"bytes\":40,\"halted\":1,\"running\":7}"
        );
    }

    #[test]
    fn floats_round_trip_and_nonfinite_is_null() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn tagged_lines_splice_req_after_type() {
        let e = Event::NodeHalt { round: 1, node: 2 };
        assert_eq!(e.to_jsonl_tagged(None), e.to_jsonl());
        assert_eq!(
            e.to_jsonl_tagged(Some("\"q7\"")),
            "{\"type\":\"node_halt\",\"req\":\"q7\",\"round\":1,\"node\":2}"
        );
        assert_eq!(
            e.to_jsonl_tagged(Some("12")),
            "{\"type\":\"node_halt\",\"req\":12,\"round\":1,\"node\":2}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::ExperimentStart {
            id: "a\"b\\c\nd".to_string(),
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"experiment_start\",\"id\":\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn every_variant_decodes_back() {
        let samples = vec![
            Event::SimRunStart {
                nodes: 4,
                edges: 4,
                max_degree: 2,
                seed: 7,
            },
            Event::RoundStart {
                round: 1,
                running: 4,
            },
            Event::NodeHalt { round: 1, node: 2 },
            Event::RoundEnd {
                round: 1,
                delivered: 8,
                bytes: 32,
                halted: 0,
                running: 4,
            },
            Event::SimRunEnd {
                rounds: 5,
                messages: 40,
            },
            Event::FixRunStart {
                variables: 10,
                events: 5,
                max_rank: 2,
            },
            Event::FixStep {
                step: 0,
                variable: 3,
                value: 1,
                rank: 2,
                touched: vec![0, 2],
                inc: vec![1.5, 0.5],
                phi_product: vec![0.25, 0.75],
                headroom: vec![1.0, 0.5],
            },
            Event::AuditPass {
                step: 0,
                variable: 3,
            },
            Event::AuditViolation {
                step: 1,
                variable: 4,
                pair_violations: vec![2],
                prob_violations: vec![],
            },
            Event::FixRunEnd {
                steps: 10,
                violated: 0,
            },
            Event::ExperimentStart {
                id: "E15".to_string(),
            },
            Event::ExperimentRow {
                id: "E15".to_string(),
                index: 0,
            },
            Event::ExperimentEnd {
                id: "E15".to_string(),
                rows: 3,
            },
        ];
        for e in samples {
            let line = e.to_jsonl_tagged(Some("\"q\""));
            match crate::schema::Line::decode(&line) {
                Ok(crate::schema::Line::Event { event, req }) => {
                    assert_eq!(event, e, "{line}");
                    assert_eq!(req.as_deref(), Some("\"q\""), "{line}");
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }
}
