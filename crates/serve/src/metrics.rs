//! Live telemetry: the daemon's metrics bundle and its exporter.
//!
//! [`ServeMetrics`] registers every counter, gauge, and latency
//! summary the daemon exposes on one [`MetricsRegistry`]; the
//! [`Engine`] owns the bundle and feeds it from the
//! request path. Everything here is strictly side-band (DESIGN.md
//! §3.11): metric writes are sharded relaxed atomics that never gate,
//! reorder, or feed back into a solve, so the response stream and any
//! teed recorder stream stay byte-identical with telemetry on or off.
//!
//! [`spawn_telemetry`] runs the export side on one background thread:
//! a Prometheus text-format scrape endpoint on a Unix socket (answering
//! plain HTTP GETs), rolling-window rotation for the `*_window_p50/p99`
//! gauges, and operator snapshots to stderr — on a fixed interval
//! and/or when the owner raises the dump flag (the binary wires that
//! flag to `SIGUSR1`).

use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lll_obs::{Counter, Gauge, MetricHist, MetricsRegistry};

use crate::engine::Engine;
use crate::error::ErrorKind;

/// How often the exporter advances the rolling-window ring.
const ROTATE_EVERY: Duration = Duration::from_secs(5);

/// Exporter poll tick: accept latency and shutdown latency ceiling.
const TICK: Duration = Duration::from_millis(50);

/// Every metric the daemon exposes, registered on one registry.
///
/// Counters whose source of truth lives outside the registry (the
/// topology cache's own atomics) are mirrored in at render time via
/// [`Counter::sync_total`]; everything else is written directly from
/// the request path.
pub struct ServeMetrics {
    registry: MetricsRegistry,
    /// Requests answered (ok + error + shutdown).
    pub requests: Counter,
    /// Successful solves.
    pub ok: Counter,
    /// Shutdown acknowledgements.
    pub shutdowns: Counter,
    /// Error responses, one labelled series per [`ErrorKind`], aligned
    /// with [`ErrorKind::ALL`].
    errors_by_kind: Vec<Counter>,
    /// Schedule-cache hits (mirror of the cache's counter).
    pub cache_hits: Counter,
    /// Schedule-cache misses (mirror).
    pub cache_misses: Counter,
    /// Schedule-cache LRU evictions (mirror).
    pub cache_evictions: Counter,
    /// End-to-end request latency, microseconds.
    pub latency_micros: MetricHist,
    /// Whole fixing-sweep duration per request, microseconds
    /// ([`TimingScope::FixRun`](lll_obs::TimingScope) spans).
    pub sweep_micros: MetricHist,
    /// Per-color-class sweep duration, microseconds
    /// ([`TimingScope::FixClass`](lll_obs::TimingScope) spans).
    pub class_micros: MetricHist,
    /// Schedules currently cached.
    pub cache_entries: Gauge,
    /// Approximate resident bytes of cached graphs + schedules.
    pub cache_bytes: Gauge,
    /// Requests of the current batch not yet answered.
    pub queue_depth: Gauge,
    /// Bytes of request lines currently being solved.
    pub inflight_bytes: Gauge,
    /// Bytes of the parallel engine's two message slabs (last run).
    pub slab_bytes: Gauge,
    /// Port slots per message slab (last run).
    pub slab_slots: Gauge,
    /// Worker shards the slab was cut into (last run).
    pub slab_shards: Gauge,
    /// Slots of the widest shard — the load-balance worst case.
    pub slab_max_shard_slots: Gauge,
    /// Peak resident set size of the daemon process in bytes.
    pub peak_rss_bytes: Gauge,
    /// Exact-arithmetic results that spilled into a wider `BigInt`
    /// representation tier (mirror of `lll_numeric::tier_counters`).
    pub tier_promotes: Counter,
    /// Exact-arithmetic results that canonicalized back into a narrower
    /// `BigInt` tier (mirror).
    pub tier_demotes: Counter,
}

impl ServeMetrics {
    /// Registers the full metric set on a fresh registry. Every series
    /// exists from the start (error kinds are pre-registered at zero),
    /// so a scrape's shape never depends on traffic history.
    pub fn new() -> ServeMetrics {
        let registry = MetricsRegistry::new();
        let requests = registry.counter("lll_serve_requests_total", "Requests answered");
        let ok = registry.counter("lll_serve_ok_total", "Successful solves");
        let shutdowns = registry.counter("lll_serve_shutdowns_total", "Shutdown acknowledgements");
        let errors_by_kind = ErrorKind::ALL
            .iter()
            .map(|kind| {
                registry.counter_with(
                    "lll_serve_errors_total",
                    "Error responses by kind",
                    &[("kind", kind.as_str())],
                )
            })
            .collect();
        let cache_hits = registry.counter("lll_serve_cache_hits_total", "Schedule cache hits");
        let cache_misses =
            registry.counter("lll_serve_cache_misses_total", "Schedule cache misses");
        let cache_evictions = registry.counter(
            "lll_serve_cache_evictions_total",
            "Schedule cache evictions",
        );
        let latency_micros = registry.histogram(
            "lll_serve_latency_micros",
            "End-to-end request latency in microseconds",
        );
        let sweep_micros = registry.histogram(
            "lll_serve_sweep_micros",
            "Fixing sweep duration per request in microseconds",
        );
        let class_micros = registry.histogram(
            "lll_serve_class_micros",
            "Per-color-class sweep duration in microseconds",
        );
        let cache_entries = registry.gauge("lll_serve_cache_entries", "Schedules currently cached");
        let cache_bytes = registry.gauge(
            "lll_serve_cache_bytes",
            "Approximate bytes held by the schedule cache",
        );
        let queue_depth = registry.gauge(
            "lll_serve_queue_depth",
            "Requests of the current batch not yet answered",
        );
        let inflight_bytes = registry.gauge(
            "lll_serve_inflight_bytes",
            "Bytes of request lines currently being solved",
        );
        let slab_bytes = registry.gauge(
            "lll_engine_slab_bytes",
            "Bytes of the parallel engine's two message slabs (last run)",
        );
        let slab_slots = registry.gauge(
            "lll_engine_slab_slots",
            "Port slots per message slab (last run)",
        );
        let slab_shards = registry.gauge(
            "lll_engine_slab_shards",
            "Worker shards the slab was cut into (last run)",
        );
        let slab_max_shard_slots = registry.gauge(
            "lll_engine_slab_max_shard_slots",
            "Slots of the widest slab shard (last run)",
        );
        let peak_rss_bytes = registry.gauge(
            "lll_process_peak_rss_bytes",
            "Peak resident set size of the daemon process in bytes",
        );
        let tier_promotes = registry.counter(
            "lll_numeric_tier_promotes_total",
            "BigInt results promoted into a wider representation tier",
        );
        let tier_demotes = registry.counter(
            "lll_numeric_tier_demotes_total",
            "BigInt results demoted into a narrower representation tier",
        );
        ServeMetrics {
            registry,
            requests,
            ok,
            shutdowns,
            errors_by_kind,
            cache_hits,
            cache_misses,
            cache_evictions,
            latency_micros,
            sweep_micros,
            class_micros,
            cache_entries,
            cache_bytes,
            queue_depth,
            inflight_bytes,
            slab_bytes,
            slab_slots,
            slab_shards,
            slab_max_shard_slots,
            peak_rss_bytes,
            tier_promotes,
            tier_demotes,
        }
    }

    /// Syncs the `BigInt` representation-tier transition counters from
    /// the process-wide `lll_numeric` atomics. Tier residency is a
    /// leading indicator for exact-arithmetic cost: a promote-rate jump
    /// means operands are outgrowing the stack-resident fast paths.
    pub fn sync_numeric(&self) {
        let tiers = lll_numeric::tier_counters();
        self.tier_promotes.sync_total(tiers.promote);
        self.tier_demotes.sync_total(tiers.demote);
    }

    /// Syncs the slab-engine memory gauges from the process-wide
    /// engine gauges (`lll_local::gauges`). Zeroes before the first
    /// parallel run; RSS is skipped where the platform has no procfs.
    pub fn sync_memory(&self) {
        let slab = lll_local::gauges::slab_snapshot();
        self.slab_bytes
            .set(i64::try_from(slab.slab_bytes).unwrap_or(i64::MAX));
        self.slab_slots
            .set(i64::try_from(slab.slots).unwrap_or(i64::MAX));
        self.slab_shards
            .set(i64::try_from(slab.shards).unwrap_or(i64::MAX));
        self.slab_max_shard_slots
            .set(i64::try_from(slab.max_shard_slots).unwrap_or(i64::MAX));
        if let Some(rss) = lll_local::gauges::peak_rss_bytes() {
            self.peak_rss_bytes
                .set(i64::try_from(rss).unwrap_or(i64::MAX));
        }
    }

    /// Increments the error counter for `kind`.
    pub fn note_error(&self, kind: ErrorKind) {
        let i = ErrorKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("every kind is in ALL");
        self.errors_by_kind[i].inc();
    }

    /// Total error responses across all kinds.
    pub fn errors(&self) -> u64 {
        self.errors_by_kind.iter().map(Counter::value).sum()
    }

    /// The underlying registry (window rotation, rendering).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

/// Telemetry-thread configuration.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Unix-socket path for the Prometheus scrape endpoint.
    pub socket: Option<String>,
    /// Interval between stderr stats snapshots (`None` = only on the
    /// dump flag).
    pub stats_interval: Option<Duration>,
}

impl TelemetryConfig {
    /// Whether any telemetry output is configured. With nothing
    /// configured the thread still rotates histogram windows and
    /// serves the dump flag.
    pub fn is_active(&self) -> bool {
        self.socket.is_some() || self.stats_interval.is_some()
    }
}

/// A running telemetry thread; dropping without
/// [`TelemetryHandle::shutdown`] leaves the thread running.
pub struct TelemetryHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl TelemetryHandle {
    /// Stops the thread and removes the scrape socket, joining before
    /// returning so no late scrape touches a dead engine.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Spawns the telemetry thread: scrape endpoint (if configured),
/// window rotation, and stderr snapshots on `config.stats_interval`
/// or whenever `dump` is raised (the binary sets it from `SIGUSR1`).
///
/// # Errors
///
/// Fails only if the scrape socket cannot be bound.
pub fn spawn_telemetry(
    engine: Arc<Engine>,
    config: TelemetryConfig,
    dump: Arc<AtomicBool>,
) -> std::io::Result<TelemetryHandle> {
    let listener = match &config.socket {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            Some(listener)
        }
        None => None,
    };
    let socket_path = config.socket.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_seen = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut last_rotate = Instant::now();
        let mut last_stats = Instant::now();
        while !stop_seen.load(Ordering::Relaxed) {
            if let Some(listener) = &listener {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => answer_scrape(stream, &engine),
                        Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
            if last_rotate.elapsed() >= ROTATE_EVERY {
                engine.metrics().registry().rotate_windows();
                last_rotate = Instant::now();
            }
            let interval_due = config
                .stats_interval
                .is_some_and(|every| last_stats.elapsed() >= every);
            if dump.swap(false, Ordering::Relaxed) || interval_due {
                eprintln!("lll-serve: {}", engine.stats_line());
                last_stats = Instant::now();
            }
            std::thread::sleep(TICK);
        }
        if let Some(path) = &socket_path {
            let _ = std::fs::remove_file(path);
        }
    });
    Ok(TelemetryHandle { stop, thread })
}

/// Answers one scrape connection with a minimal HTTP/1.0 response
/// carrying the text exposition. The request bytes are drained
/// best-effort (plain `connect`-and-read clients send none) and never
/// parsed — every connection gets the full exposition.
fn answer_scrape(mut stream: UnixStream, engine: &Engine) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut request = [0u8; 1024];
    let _ = stream.read(&mut request);
    let body = engine.render_metrics();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
