//! The solving engine: request in, deterministic response out.
//!
//! Routing: instances of rank ≤ 2 go to the rank-2 fixer under an
//! edge-coloring schedule, rank 3 to the rank-3 fixer under a
//! distance-2 schedule (Theorems 1.1/1.3); rank > 3 is refused with an
//! `out_of_regime` error. Schedules come from the [`TopologyCache`]
//! keyed by graph fingerprint + seed, and the sweep runs through
//! [`dist::run`] — the same code path a cold run takes, so a
//! cache hit cannot change a byte of the response or of a teed
//! recorder stream.
//!
//! Per-request solves are single-threaded; parallelism lives one
//! level up, across the requests of a batch (see [`crate::server`]).
//!
//! Timeouts are opt-in (`timeout_ms`) and checked when the solve
//! completes: a request past its deadline gets a structured `timeout`
//! error instead of its result. The check is cooperative — a sweep is
//! never aborted mid-flight — so requests without a deadline remain
//! purely deterministic, and `max_events`/`max_line_bytes` are the
//! deterministic work bounds.

use std::fs::File;
use std::io::BufWriter;
use std::time::{Duration, Instant};

use lll_apps::sat::CnfFormula;
use lll_core::dist::{self, DistError, DistReport, Schedule, ScheduleKind, Sweep};
use lll_core::Instance;
use lll_obs::{JsonlRecorder, NullRecorder, Recorder, TimingScope, TimingSink};
use serde::Value;

use crate::cache::TopologyCache;
use crate::error::RequestError;
use crate::metrics::ServeMetrics;
use crate::request::{Payload, Request, SolveRequest, SCHEMA_VERSION};
use crate::response::{OkResponse, Response};

/// Engine configuration. All of it is deterministic input: two engines
/// with the same config produce byte-identical responses for the same
/// requests, regardless of `cache_capacity` (which only changes *when*
/// work happens, not what it computes).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Schedule seed used when a request does not carry one.
    pub default_seed: u64,
    /// Schedule-cache entry bound with LRU eviction (`None` =
    /// unbounded; `Some(0)` turns the cache off).
    pub cache_capacity: Option<usize>,
    /// Largest number of events a request may declare.
    pub max_events: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            default_seed: 5,
            cache_capacity: None,
            max_events: 1 << 20,
        }
    }
}

/// A snapshot of the engine's counters, for stderr reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered (ok + error + shutdown).
    pub requests: u64,
    /// Successful solves.
    pub ok: u64,
    /// Error responses.
    pub errors: u64,
    /// Schedule-cache hits.
    pub cache_hits: u64,
    /// Schedule-cache misses (schedules computed).
    pub cache_misses: u64,
    /// Schedule-cache LRU evictions.
    pub cache_evictions: u64,
    /// p50 request latency in microseconds (0 when no requests).
    pub p50_micros: u64,
    /// p99 request latency in microseconds (0 when no requests).
    pub p99_micros: u64,
}

/// The long-lived solving engine shared by all workers.
pub struct Engine {
    config: EngineConfig,
    cache: TopologyCache,
    metrics: ServeMetrics,
}

impl Engine {
    /// An engine with the given configuration and an empty cache.
    pub fn new(config: EngineConfig) -> Engine {
        let cache = TopologyCache::with_capacity(config.cache_capacity);
        Engine {
            config,
            cache,
            metrics: ServeMetrics::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The live metrics bundle.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Parses and answers one request line. Never panics on input;
    /// every failure is a typed error response.
    pub fn solve_line(&self, line: &str) -> Response {
        let start = Instant::now();
        let response = match Request::parse(line) {
            Ok(Request::Shutdown { id }) => Response::Shutdown { id },
            Ok(Request::Solve(req)) => self.respond(&req),
            Err(e) => Response::error(salvage_id(line), e),
        };
        self.note(&response, start.elapsed());
        response
    }

    /// Answers an already-parsed solve request.
    pub fn respond(&self, req: &SolveRequest) -> Response {
        match self.solve(req) {
            Ok(ok) => Response::Ok(ok),
            Err(error) => Response::error(req.id.clone(), error),
        }
    }

    /// Counter + latency snapshot.
    pub fn stats(&self) -> EngineStats {
        let hist = self.metrics.latency_micros.merged();
        EngineStats {
            requests: self.metrics.requests.value(),
            ok: self.metrics.ok.value(),
            errors: self.metrics.errors(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            p50_micros: if hist.is_empty() { 0 } else { hist.p50() },
            p99_micros: if hist.is_empty() { 0 } else { hist.p99() },
        }
    }

    /// The one-line stderr stats form shared by the exit report, the
    /// interval snapshot, and the `SIGUSR1` dump.
    pub fn stats_line(&self) -> String {
        let stats = self.stats();
        format!(
            "{} requests ({} ok, {} errors), cache {} hits / {} misses / {} evictions \
             ({} schedules, ~{} bytes), p50 {}us p99 {}us",
            stats.requests,
            stats.ok,
            stats.errors,
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            self.cache.len(),
            self.cache.approx_bytes(),
            stats.p50_micros,
            stats.p99_micros,
        )
    }

    /// Syncs externally-tracked totals (cache counters, memory gauges)
    /// into the registry and renders the Prometheus text exposition.
    pub fn render_metrics(&self) -> String {
        self.metrics.cache_hits.sync_total(self.cache.hits());
        self.metrics.cache_misses.sync_total(self.cache.misses());
        self.metrics
            .cache_evictions
            .sync_total(self.cache.evictions());
        self.metrics
            .cache_entries
            .set(i64::try_from(self.cache.len()).unwrap_or(i64::MAX));
        self.metrics
            .cache_bytes
            .set(i64::try_from(self.cache.approx_bytes()).unwrap_or(i64::MAX));
        self.metrics.sync_memory();
        self.metrics.sync_numeric();
        self.metrics.registry().render()
    }

    /// Number of schedules currently cached.
    pub fn cached_schedules(&self) -> usize {
        self.cache.len()
    }

    fn note(&self, response: &Response, elapsed: Duration) {
        self.metrics.requests.inc();
        match response {
            Response::Ok(_) => self.metrics.ok.inc(),
            Response::Error { error, .. } => self.metrics.note_error(error.kind),
            Response::Shutdown { .. } => self.metrics.shutdowns.inc(),
        }
        self.metrics
            .latency_micros
            .record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    fn solve(&self, req: &SolveRequest) -> Result<OkResponse, RequestError> {
        let start = Instant::now();
        let inst = self.build_instance(req)?;
        let g = inst.dependency_graph();
        let rank = inst.max_rank();
        let seed = req.schedule_seed.unwrap_or(self.config.default_seed);
        let kind = match rank {
            0..=2 => ScheduleKind::Edge,
            3 => ScheduleKind::Distance2,
            r => {
                return Err(RequestError::out_of_regime(format!(
                    "instance has rank {r}; the fixers cover rank <= 3"
                )))
            }
        };
        let schedule = self
            .cache
            .get_or_compute(g, seed, kind, || match kind {
                ScheduleKind::Edge => Schedule::edge(g, seed, 1),
                ScheduleKind::Distance2 => Schedule::distance2(g, seed, 1),
            })
            .map_err(|e| RequestError::internal(format!("schedule coloring failed: {e}")))?;

        // The sweep histograms are fed by a side-band timing sink
        // (DESIGN.md §3.11): spans are recorded *about* the sweep but
        // never read by it, so telemetry cannot perturb a byte of the
        // response or of the teed stream below.
        let mut sink = MetricsTiming {
            metrics: &self.metrics,
        };
        let report = match &req.obs {
            None => run_scheduled(&inst, &schedule, &mut NullRecorder, &mut sink)?,
            Some(path) => {
                let file = File::create(path).map_err(|e| {
                    RequestError::io(format!("cannot create obs tee {path:?}: {e}"))
                })?;
                // No provenance meta line: the stream must be
                // byte-identical cold vs. warm and at every worker
                // count, and the meta line carries host facts. Every
                // line is tagged with the request id (already JSON
                // text) as its `req` correlation field — a pure
                // function of the request, so the tag is identical
                // across engines, thread counts, and cache states.
                let mut rec = JsonlRecorder::with_request(BufWriter::new(file), req.id.clone());
                let report = run_scheduled(&inst, &schedule, &mut rec, &mut sink);
                let writer = rec
                    .finish()
                    .map_err(|e| RequestError::io(format!("obs tee {path:?}: {e}")))?;
                writer
                    .into_inner()
                    .map_err(|e| RequestError::io(format!("obs tee {path:?}: {e}")))?;
                report?
            }
        };

        if let Some(ms) = req.timeout_ms {
            if start.elapsed() >= Duration::from_millis(ms) {
                return Err(RequestError::timeout(format!(
                    "deadline of {ms} ms exceeded"
                )));
            }
        }

        let violated = inst
            .violated_events(report.fix.assignment())
            .map_err(|e| RequestError::internal(format!("post-check: {e}")))?
            .len();
        let fixer = if kind == ScheduleKind::Edge { 2 } else { 3 };
        Ok(OkResponse {
            id: req.id.clone(),
            assignment: report.fix.assignment().to_vec(),
            steps: report.fix.num_steps(),
            rounds: report.rounds,
            coloring_rounds: report.coloring_rounds,
            classes: report.num_classes,
            violated,
            fingerprint: format!("{:016x}", g.fingerprint()),
            provenance: format!(
                "schema={SCHEMA_VERSION} engine=lll-serve/{} fixer={fixer} seed={seed} \
                 nodes={} edges={} max_degree={}",
                env!("CARGO_PKG_VERSION"),
                g.num_nodes(),
                g.num_edges(),
                g.max_degree(),
            ),
        })
    }

    fn build_instance(&self, req: &SolveRequest) -> Result<Instance<f64>, RequestError> {
        match &req.payload {
            Payload::Dimacs(text) => {
                let cnf: CnfFormula = text
                    .parse()
                    .map_err(|e| RequestError::parse(format!("DIMACS: {e}")))?;
                if cnf.clauses().len() > self.config.max_events {
                    return Err(RequestError::oversized(format!(
                        "{} clauses exceed the limit of {}",
                        cnf.clauses().len(),
                        self.config.max_events
                    )));
                }
                cnf.to_instance::<f64>()
                    .map_err(|e| RequestError::invalid(format!("DIMACS: {e}")))
            }
            Payload::Instance(ji) => {
                if ji.events.len() > self.config.max_events {
                    return Err(RequestError::oversized(format!(
                        "{} events exceed the limit of {}",
                        ji.events.len(),
                        self.config.max_events
                    )));
                }
                ji.build_instance()
            }
        }
    }
}

/// A [`TimingSink`] that folds sweep spans into the engine's metric
/// histograms, in microseconds. Write-only from the solve's point of
/// view — the sweep never reads it back.
struct MetricsTiming<'a> {
    metrics: &'a ServeMetrics,
}

impl TimingSink for MetricsTiming<'_> {
    fn record_span(&mut self, scope: TimingScope, nanos: u64) {
        match scope {
            TimingScope::FixRun => self.metrics.sweep_micros.record(nanos / 1_000),
            TimingScope::FixClass => self.metrics.class_micros.record(nanos / 1_000),
            _ => {}
        }
    }
}

/// The enforced single-worker sweep along `schedule` (its kind selects
/// the fixer), with driver errors mapped to request errors.
fn run_scheduled<R: Recorder, S: TimingSink>(
    inst: &Instance<f64>,
    schedule: &Schedule,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, RequestError> {
    dist::run(inst, schedule, &Sweep::default(), rec, sink).map_err(|e| match e {
        DistError::Fixer(f) => RequestError::out_of_regime(f.to_string()),
        other => RequestError::internal(other.to_string()),
    })
}

/// Best-effort id recovery for lines that fail request parsing but are
/// themselves valid JSON objects with a scalar `id` — so clients can
/// correlate even schema-violation errors.
fn salvage_id(line: &str) -> String {
    if let Ok(value) = serde_json::from_str::<Value>(line) {
        if let Some(id @ (Value::Null | Value::String(_) | Value::U64(_) | Value::I64(_))) =
            value.get("id")
        {
            if let Ok(text) = serde_json::to_string(id) {
                return text;
            }
        }
    }
    "null".to_owned()
}
