//! Request parsing and validation.
//!
//! One request per line, as a JSON object. Two payload forms:
//!
//! ```json
//! {"id":"r1","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}
//! {"id":7,"instance":{"variables":[{"affects":[0,1],"k":2}],
//!                     "events":[{"vars":[0],"values":[0]}]}}
//! ```
//!
//! plus the control form `{"id":...,"shutdown":true}`. Optional fields
//! on solve requests: `schedule_seed` (defaults to the engine's),
//! `obs` (path to tee a per-request JSONL recorder stream), and
//! `timeout_ms` (opt-in wall-clock deadline — see the engine docs for
//! why it is off by default). Unknown fields are rejected so typos
//! surface as typed errors instead of silently-ignored options.

use std::collections::HashMap;

use lll_core::{Instance, InstanceBuilder, MAX_BAD_TUPLES};
use serde::Value;

use crate::error::RequestError;

/// Wire schema version, reported in response provenance.
pub const SCHEMA_VERSION: u32 = 1;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve an instance.
    Solve(SolveRequest),
    /// Drain in-flight work, acknowledge, and stop serving.
    Shutdown {
        /// The request id, as JSON text.
        id: String,
    },
}

/// A validated solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The request id, echoed verbatim in the response, as JSON text
    /// (`"null"` when absent). Restricted to null/string/integer.
    pub id: String,
    /// What to solve.
    pub payload: Payload,
    /// Schedule-coloring seed; engine default when absent.
    pub schedule_seed: Option<u64>,
    /// Path to tee this request's recorder stream to, as JSONL.
    pub obs: Option<String>,
    /// Opt-in wall-clock deadline in milliseconds.
    pub timeout_ms: Option<u64>,
}

/// The instance payload of a solve request.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A DIMACS CNF formula (solved via the SAT front end).
    Dimacs(String),
    /// A general LLL instance in the JSON schema.
    Instance(JsonInstance),
}

/// A general LLL instance: variables with uniform domains, events as
/// conjunctions of `variable == value` literals.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonInstance {
    /// The variables, in index order.
    pub variables: Vec<JsonVariable>,
    /// The events, in index order (event count = `events.len()`).
    pub events: Vec<JsonEvent>,
}

/// One variable of a [`JsonInstance`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonVariable {
    /// Indices of the events this variable affects.
    pub affects: Vec<usize>,
    /// Uniform domain size (`k ≥ 2`).
    pub k: usize,
}

/// One event of a [`JsonInstance`]: occurs iff every listed variable
/// takes its listed value.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonEvent {
    /// Variable indices tested by this event.
    pub vars: Vec<usize>,
    /// Required values, aligned with `vars`.
    pub values: Vec<usize>,
}

/// Largest uniform domain a request may declare; a guard against
/// accidental `k`-bombs, far above anything the criterion admits.
pub const MAX_DOMAIN: usize = 1 << 16;

fn as_usize(v: &Value, what: &str) -> Result<usize, RequestError> {
    match v {
        Value::U64(n) => usize::try_from(*n)
            .map_err(|_| RequestError::parse(format!("{what} does not fit in usize"))),
        other => Err(RequestError::parse(format!(
            "{what} must be a non-negative integer, found {}",
            other.kind()
        ))),
    }
}

fn as_u64(v: &Value, what: &str) -> Result<u64, RequestError> {
    match v {
        Value::U64(n) => Ok(*n),
        other => Err(RequestError::parse(format!(
            "{what} must be a non-negative integer, found {}",
            other.kind()
        ))),
    }
}

fn as_usize_array(v: &Value, what: &str) -> Result<Vec<usize>, RequestError> {
    match v {
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, item)| as_usize(item, &format!("{what}[{i}]")))
            .collect(),
        other => Err(RequestError::parse(format!(
            "{what} must be an array, found {}",
            other.kind()
        ))),
    }
}

impl JsonInstance {
    /// Parses the `instance` payload object (shape only; semantic
    /// checks live in [`JsonInstance::validate`]).
    ///
    /// # Errors
    ///
    /// [`crate::ErrorKind::Parse`] on any shape violation.
    pub fn from_value(v: &Value) -> Result<JsonInstance, RequestError> {
        let Value::Object(fields) = v else {
            return Err(RequestError::parse(format!(
                "instance must be an object, found {}",
                v.kind()
            )));
        };
        let mut variables = None;
        let mut events = None;
        for (key, val) in fields {
            match key.as_str() {
                "variables" => {
                    let Value::Array(items) = val else {
                        return Err(RequestError::parse("instance.variables must be an array"));
                    };
                    let mut out = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        out.push(JsonVariable::from_value(item, i)?);
                    }
                    variables = Some(out);
                }
                "events" => {
                    let Value::Array(items) = val else {
                        return Err(RequestError::parse("instance.events must be an array"));
                    };
                    let mut out = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        out.push(JsonEvent::from_value(item, i)?);
                    }
                    events = Some(out);
                }
                other => {
                    return Err(RequestError::parse(format!(
                        "unknown instance field {other:?}"
                    )))
                }
            }
        }
        let variables =
            variables.ok_or_else(|| RequestError::parse("instance is missing \"variables\""))?;
        let events = events.ok_or_else(|| RequestError::parse("instance is missing \"events\""))?;
        Ok(JsonInstance { variables, events })
    }

    /// Semantic validation: every index in range, every event affected
    /// by at least one variable, and every variable an event tests
    /// listed among that event's affecting variables (otherwise the
    /// dependency graph would not describe the event).
    ///
    /// # Errors
    ///
    /// [`crate::ErrorKind::Invalid`] with the offending index.
    pub fn validate(&self) -> Result<(), RequestError> {
        let num_events = self.events.len();
        let mut affected = vec![false; num_events];
        for (x, var) in self.variables.iter().enumerate() {
            if var.affects.is_empty() {
                return Err(RequestError::invalid(format!(
                    "variable {x} affects no event"
                )));
            }
            if !(2..=MAX_DOMAIN).contains(&var.k) {
                return Err(RequestError::invalid(format!(
                    "variable {x} has domain size {}, need 2..={MAX_DOMAIN}",
                    var.k
                )));
            }
            let mut seen = var.affects.clone();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(RequestError::invalid(format!(
                    "variable {x} lists an event twice in affects"
                )));
            }
            for &e in &var.affects {
                if e >= num_events {
                    return Err(RequestError::invalid(format!(
                        "variable {x} affects event {e}, but there are only {num_events} events"
                    )));
                }
                affected[e] = true;
            }
        }
        for (e, ok) in affected.iter().enumerate() {
            if !ok {
                return Err(RequestError::invalid(format!(
                    "event {e} is affected by no variable"
                )));
            }
        }
        for (e, ev) in self.events.iter().enumerate() {
            if ev.vars.len() != ev.values.len() {
                return Err(RequestError::invalid(format!(
                    "event {e} has {} vars but {} values",
                    ev.vars.len(),
                    ev.values.len()
                )));
            }
            if ev.vars.is_empty() {
                return Err(RequestError::invalid(format!(
                    "event {e} tests no variable"
                )));
            }
            let mut seen = ev.vars.clone();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(RequestError::invalid(format!(
                    "event {e} tests a variable twice"
                )));
            }
            for (&x, &val) in ev.vars.iter().zip(&ev.values) {
                let Some(var) = self.variables.get(x) else {
                    return Err(RequestError::invalid(format!(
                        "event {e} tests variable {x}, but there are only {} variables",
                        self.variables.len()
                    )));
                };
                if val >= var.k {
                    return Err(RequestError::invalid(format!(
                        "event {e} requires variable {x} = {val}, outside its domain 0..{}",
                        var.k
                    )));
                }
                if !var.affects.contains(&e) {
                    return Err(RequestError::invalid(format!(
                        "event {e} tests variable {x}, which does not list it in affects"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the typed [`Instance`] (validates first). An event's bad
    /// tuples are its tested values with every value combination of its
    /// untested support variables.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorKind::Invalid`] from [`JsonInstance::validate`], for
    /// more than [`MAX_BAD_TUPLES`] such combinations, or from the
    /// instance builder.
    pub fn build_instance(&self) -> Result<Instance<f64>, RequestError> {
        self.validate()?;
        let mut b = InstanceBuilder::<f64>::new(self.events.len());
        let mut supports = vec![Vec::new(); self.events.len()];
        for (x, var) in self.variables.iter().enumerate() {
            b.add_uniform_variable(&var.affects, var.k);
            for &e in &var.affects {
                supports[e].push(x);
            }
        }
        for (e, (ev, support)) in self.events.iter().zip(&supports).enumerate() {
            // The tested values; the untested positions and value counts.
            let tested: HashMap<usize, usize> =
                ev.vars.iter().copied().zip(ev.values.clone()).collect();
            let (mut tuple, mut free) = (Vec::new(), Vec::new());
            for (pos, &x) in support.iter().enumerate() {
                tuple.push(tested.get(&x).copied().unwrap_or(0));
                if !tested.contains_key(&x) {
                    free.push((pos, self.variables[x].k));
                }
            }
            let count = free
                .iter()
                .try_fold(1usize, |n, &(_, k)| {
                    n.checked_mul(k).filter(|&n| n <= MAX_BAD_TUPLES)
                })
                .ok_or_else(|| {
                    RequestError::invalid(format!("event {e} has over {MAX_BAD_TUPLES} bad tuples"))
                })?;
            let tuples = (0..count).map(|idx| {
                let mut rest = idx;
                for &(pos, k) in &free {
                    tuple[pos] = rest % k;
                    rest /= k;
                }
                tuple.clone()
            });
            b.set_event_bad_tuples(e, tuples);
        }
        b.build()
            .map_err(|e| RequestError::invalid(format!("instance build: {e}")))
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "variables".to_owned(),
                Value::Array(
                    self.variables
                        .iter()
                        .map(|v| {
                            Value::Object(vec![
                                (
                                    "affects".to_owned(),
                                    Value::Array(
                                        v.affects.iter().map(|&e| Value::U64(e as u64)).collect(),
                                    ),
                                ),
                                ("k".to_owned(), Value::U64(v.k as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "events".to_owned(),
                Value::Array(
                    self.events
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                (
                                    "vars".to_owned(),
                                    Value::Array(
                                        e.vars.iter().map(|&x| Value::U64(x as u64)).collect(),
                                    ),
                                ),
                                (
                                    "values".to_owned(),
                                    Value::Array(
                                        e.values.iter().map(|&v| Value::U64(v as u64)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl JsonVariable {
    fn from_value(v: &Value, index: usize) -> Result<JsonVariable, RequestError> {
        let Value::Object(fields) = v else {
            return Err(RequestError::parse(format!(
                "variable {index} must be an object, found {}",
                v.kind()
            )));
        };
        let mut affects = None;
        let mut k = None;
        for (key, val) in fields {
            match key.as_str() {
                "affects" => {
                    affects = Some(as_usize_array(val, &format!("variable {index} affects"))?);
                }
                "k" => k = Some(as_usize(val, &format!("variable {index} k"))?),
                other => {
                    return Err(RequestError::parse(format!(
                        "unknown field {other:?} on variable {index}"
                    )))
                }
            }
        }
        Ok(JsonVariable {
            affects: affects.ok_or_else(|| {
                RequestError::parse(format!("variable {index} is missing \"affects\""))
            })?,
            k: k.ok_or_else(|| RequestError::parse(format!("variable {index} is missing \"k\"")))?,
        })
    }
}

impl JsonEvent {
    fn from_value(v: &Value, index: usize) -> Result<JsonEvent, RequestError> {
        let Value::Object(fields) = v else {
            return Err(RequestError::parse(format!(
                "event {index} must be an object, found {}",
                v.kind()
            )));
        };
        let mut vars = None;
        let mut values = None;
        for (key, val) in fields {
            match key.as_str() {
                "vars" => vars = Some(as_usize_array(val, &format!("event {index} vars"))?),
                "values" => {
                    values = Some(as_usize_array(val, &format!("event {index} values"))?);
                }
                other => {
                    return Err(RequestError::parse(format!(
                        "unknown field {other:?} on event {index}"
                    )))
                }
            }
        }
        Ok(JsonEvent {
            vars: vars
                .ok_or_else(|| RequestError::parse(format!("event {index} is missing \"vars\"")))?,
            values: values.ok_or_else(|| {
                RequestError::parse(format!("event {index} is missing \"values\""))
            })?,
        })
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`crate::ErrorKind::Parse`] for anything that is not a
    /// well-formed request object.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| RequestError::parse(format!("request is not valid JSON: {e}")))?;
        let Value::Object(fields) = &value else {
            return Err(RequestError::parse(format!(
                "request must be a JSON object, found {}",
                value.kind()
            )));
        };
        let mut id = "null".to_owned();
        let mut dimacs = None;
        let mut instance = None;
        let mut shutdown = false;
        let mut schedule_seed = None;
        let mut obs = None;
        let mut timeout_ms = None;
        for (key, val) in fields {
            match key.as_str() {
                "id" => {
                    match val {
                        Value::Null | Value::String(_) | Value::U64(_) | Value::I64(_) => {}
                        other => {
                            return Err(RequestError::parse(format!(
                                "id must be null, a string, or an integer, found {}",
                                other.kind()
                            )))
                        }
                    }
                    id = serde_json::to_string(val)
                        .map_err(|e| RequestError::parse(format!("id: {e}")))?;
                }
                "dimacs" => match val {
                    Value::String(s) => dimacs = Some(s.clone()),
                    other => {
                        return Err(RequestError::parse(format!(
                            "dimacs must be a string, found {}",
                            other.kind()
                        )))
                    }
                },
                "instance" => instance = Some(JsonInstance::from_value(val)?),
                "shutdown" => match val {
                    Value::Bool(true) => shutdown = true,
                    Value::Bool(false) => {}
                    other => {
                        return Err(RequestError::parse(format!(
                            "shutdown must be a boolean, found {}",
                            other.kind()
                        )))
                    }
                },
                "schedule_seed" => schedule_seed = Some(as_u64(val, "schedule_seed")?),
                "obs" => match val {
                    Value::String(s) => obs = Some(s.clone()),
                    other => {
                        return Err(RequestError::parse(format!(
                            "obs must be a string path, found {}",
                            other.kind()
                        )))
                    }
                },
                "timeout_ms" => timeout_ms = Some(as_u64(val, "timeout_ms")?),
                other => {
                    return Err(RequestError::parse(format!(
                        "unknown request field {other:?}"
                    )))
                }
            }
        }
        if shutdown {
            if dimacs.is_some() || instance.is_some() {
                return Err(RequestError::parse(
                    "a shutdown request cannot carry a payload",
                ));
            }
            return Ok(Request::Shutdown { id });
        }
        let payload = match (dimacs, instance) {
            (Some(d), None) => Payload::Dimacs(d),
            (None, Some(i)) => Payload::Instance(i),
            (None, None) => {
                return Err(RequestError::parse(
                    "request needs exactly one of \"dimacs\" or \"instance\"",
                ))
            }
            (Some(_), Some(_)) => {
                return Err(RequestError::parse(
                    "request carries both \"dimacs\" and \"instance\"",
                ))
            }
        };
        Ok(Request::Solve(SolveRequest {
            id,
            payload,
            schedule_seed,
            obs,
            timeout_ms,
        }))
    }

    /// Canonical JSON text of the request — `parse(to_json(r)) == r`
    /// for every valid request (pinned by the proptest battery).
    pub fn to_json(&self) -> String {
        let id_value = |id: &str| {
            serde_json::from_str::<Value>(id).expect("request ids are stored as JSON text")
        };
        let mut fields = Vec::new();
        match self {
            Request::Shutdown { id } => {
                fields.push(("id".to_owned(), id_value(id)));
                fields.push(("shutdown".to_owned(), Value::Bool(true)));
            }
            Request::Solve(req) => {
                fields.push(("id".to_owned(), id_value(&req.id)));
                match &req.payload {
                    Payload::Dimacs(text) => {
                        fields.push(("dimacs".to_owned(), Value::String(text.clone())));
                    }
                    Payload::Instance(inst) => {
                        fields.push(("instance".to_owned(), inst.to_value()));
                    }
                }
                if let Some(seed) = req.schedule_seed {
                    fields.push(("schedule_seed".to_owned(), Value::U64(seed)));
                }
                if let Some(obs) = &req.obs {
                    fields.push(("obs".to_owned(), Value::String(obs.clone())));
                }
                if let Some(ms) = req.timeout_ms {
                    fields.push(("timeout_ms".to_owned(), Value::U64(ms)));
                }
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("request values are finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The instance's former form: each event a conjunction predicate.
    fn predicate_form(inst: &JsonInstance) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(inst.events.len());
        for var in &inst.variables {
            b.add_uniform_variable(&var.affects, var.k);
        }
        for (e, ev) in inst.events.iter().enumerate() {
            let lits: Vec<(usize, usize)> =
                ev.vars.iter().copied().zip(ev.values.clone()).collect();
            b.set_event_predicate(e, move |vals| lits.iter().all(|&(x, v)| vals[x] == v));
        }
        b.build().unwrap()
    }

    #[test]
    fn bad_tuples_build_the_predicate_form() {
        let var = |affects: &[usize], k| JsonVariable {
            affects: affects.to_vec(),
            k,
        };
        let ev = |vars: &[usize], values: &[usize]| JsonEvent {
            vars: vars.to_vec(),
            values: values.to_vec(),
        };
        // Event 0 tests two of its four variables, out of order; event 1
        // tests one of three; event 2 all of its two.
        let inst = JsonInstance {
            variables: vec![
                var(&[0, 1], 3),
                var(&[0], 2),
                var(&[0, 2], 5),
                var(&[0, 1, 2], 4),
                var(&[1], 2),
            ],
            events: vec![ev(&[3, 1], &[2, 0]), ev(&[4], &[1]), ev(&[3, 2], &[0, 4])],
        };
        let built = inst.build_instance().unwrap();
        let old = predicate_form(&inst);
        for v in 0..3 {
            let (x, y) = (built.event(v), old.event(v));
            assert_eq!(x.support(), y.support(), "event {v}");
            assert!(x.bad_tuples().eq(y.bad_tuples()), "event {v}");
        }
        assert_eq!(built.event(0).bad_tuples().len(), 15);
    }
}
