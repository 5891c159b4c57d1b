//! A live-telemetry metrics registry: named counters, gauges, and
//! [`Histogram`]-backed latency summaries with Prometheus text-format
//! exposition.
//!
//! The registry is the *mutable* counterpart of the flight recorder:
//! where the recorder captures the deterministic event stream, the
//! registry aggregates nondeterministic operational state (request
//! counts, latencies, memory footprints) for a scrape endpoint. Like
//! the timing channel it is strictly side-band — nothing here may feed
//! back into the deterministic path (DESIGN.md §3.11).
//!
//! Each metric is one cell: a counter is one relaxed atomic, a
//! histogram one mutex over its cumulative [`Histogram`] and a small
//! ring of rolling windows, held only for a record or a read. The
//! windows let a scrape report *recent* p50/p99 next to the cumulative
//! quantiles; the exporter advances the ring by calling
//! [`MetricsRegistry::rotate_windows`] on its own clock.

use crate::hist::Histogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Rolling-window ring length: quantiles labelled "window" cover the
/// last `WINDOW_SLOTS` rotations (the exporter rotates every few
/// seconds, so this is on the order of the last half minute).
const WINDOW_SLOTS: usize = 4;

struct CounterCore {
    name: &'static str,
    labels: String,
    help: &'static str,
    value: AtomicU64,
}

/// A monotone counter handle. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<CounterCore>);

impl Counter {
    /// Adds `n`. One relaxed atomic add.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Mirrors an externally-tracked monotone total into this counter.
    /// For counters whose source of truth lives outside the registry —
    /// e.g. the topology cache's own hit/miss atomics — and is synced
    /// at scrape time.
    pub fn sync_total(&self, total: u64) {
        self.0.value.store(total, Ordering::Relaxed);
    }
}

struct GaugeCore {
    name: &'static str,
    labels: String,
    help: &'static str,
    value: AtomicI64,
}

/// A gauge handle: a settable signed value. Cloning shares the value.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCore>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negatively) to the gauge.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A histogram's one cell: the cumulative histogram plus the rolling
/// ring.
struct HistCells {
    cumulative: Histogram,
    windows: [Histogram; WINDOW_SLOTS],
    /// Current window slot (monotone; slot index is `epoch % WINDOW_SLOTS`).
    epoch: usize,
}

struct HistCore {
    name: &'static str,
    help: &'static str,
    cells: Mutex<HistCells>,
}

/// A histogram handle (summary metric). Cloning shares the cell.
#[derive(Clone)]
pub struct MetricHist(Arc<HistCore>);

impl MetricHist {
    /// Records one sample: one short lock and two array stores
    /// (cumulative + current window).
    #[inline]
    pub fn record(&self, value: u64) {
        let mut cells = self.cells();
        let slot = cells.epoch % WINDOW_SLOTS;
        cells.cumulative.record(value);
        cells.windows[slot].record(value);
    }

    /// A copy of the cumulative histogram.
    pub fn merged(&self) -> Histogram {
        self.cells().cumulative.clone()
    }

    /// The rolling-window histogram: all ring slots merged — the last
    /// `WINDOW_SLOTS` rotations, including the current partial window.
    pub fn window(&self) -> Histogram {
        let cells = self.cells();
        let mut out = Histogram::new();
        for w in &cells.windows {
            out.merge(w);
        }
        out
    }

    fn rotate(&self) {
        let mut cells = self.cells();
        cells.epoch += 1;
        let slot = cells.epoch % WINDOW_SLOTS;
        cells.windows[slot] = Histogram::new();
    }

    fn cells(&self) -> MutexGuard<'_, HistCells> {
        self.0.cells.lock().expect("metric histogram")
    }
}

enum Metric {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Hist(Arc<HistCore>),
}

impl Metric {
    fn name(&self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::Hist(h) => h.name,
        }
    }
}

/// A registry of named metrics, rendered in registration order.
///
/// Registration takes a lock; the returned handles never touch it
/// again — hot-path writes go straight to the metric's own cell.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers a counter with no labels.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers a counter carrying a fixed label set. Several counters
    /// may share a `name` with different labels; `# HELP`/`# TYPE` are
    /// emitted once per name.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Counter {
        let core = Arc::new(CounterCore {
            name,
            labels: render_labels(labels),
            help,
            value: AtomicU64::new(0),
        });
        self.metrics
            .lock()
            .expect("registry lock")
            .push(Metric::Counter(Arc::clone(&core)));
        Counter(core)
    }

    /// Registers a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let core = Arc::new(GaugeCore {
            name,
            labels: String::new(),
            help,
            value: AtomicI64::new(0),
        });
        self.metrics
            .lock()
            .expect("registry lock")
            .push(Metric::Gauge(Arc::clone(&core)));
        Gauge(core)
    }

    /// Registers a histogram, exported as a Prometheus summary plus
    /// `<name>_window_p50`/`_p99` rolling-window gauges.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> MetricHist {
        let core = Arc::new(HistCore {
            name,
            help,
            cells: Mutex::new(HistCells {
                cumulative: Histogram::new(),
                windows: [const { Histogram::new() }; WINDOW_SLOTS],
                epoch: 0,
            }),
        });
        self.metrics
            .lock()
            .expect("registry lock")
            .push(Metric::Hist(Arc::clone(&core)));
        MetricHist(core)
    }

    /// Advances every histogram's rolling-window ring by one slot. The
    /// exporter calls this on its own clock (every few seconds), so
    /// window quantiles cover roughly the last
    /// `WINDOW_SLOTS × rotation period`.
    pub fn rotate_windows(&self) {
        for metric in self.metrics.lock().expect("registry lock").iter() {
            if let Metric::Hist(h) = metric {
                MetricHist(Arc::clone(h)).rotate();
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers once per metric name,
    /// then one sample line per handle. Histograms render as summaries
    /// (`{quantile="…"}`, `_sum`, `_count`) plus rolling-window
    /// `_window_p50`/`_window_p99` gauges.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let metrics = self.metrics.lock().expect("registry lock");
        let mut last_name = "";
        for metric in metrics.iter() {
            let name = metric.name();
            if name != last_name {
                let (ty, help) = match metric {
                    Metric::Counter(c) => ("counter", c.help),
                    Metric::Gauge(g) => ("gauge", g.help),
                    Metric::Hist(h) => ("summary", h.help),
                };
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
                last_name = name;
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        c.labels,
                        c.value.load(Ordering::Relaxed)
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        g.labels,
                        g.value.load(Ordering::Relaxed)
                    ));
                }
                Metric::Hist(h) => {
                    let handle = MetricHist(Arc::clone(h));
                    let merged = handle.merged();
                    let window = handle.window();
                    for (q, v) in [
                        (0.5, merged.p50()),
                        (0.9, merged.p90()),
                        (0.99, merged.p99()),
                    ] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{q}\"}} {}\n",
                            if merged.is_empty() { 0 } else { v }
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum {}\n",
                        u64::try_from(merged.sum()).unwrap_or(u64::MAX)
                    ));
                    out.push_str(&format!("{name}_count {}\n", merged.count()));
                    out.push_str(&format!(
                        "# TYPE {name}_window_p50 gauge\n{name}_window_p50 {}\n",
                        window.p50()
                    ));
                    out.push_str(&format!(
                        "# TYPE {name}_window_p99 gauge\n{name}_window_p99 {}\n",
                        window.p99()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("lll_test_total", "test counter");
        let h = reg.histogram("lll_test_micros", "test histogram");
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (c, h, done) = (c.clone(), h.clone(), &done);
                s.spawn(move || {
                    for v in 0..1000 {
                        c.inc();
                        h.record(v);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
            // A scraper reading and rotating while the writers run.
            s.spawn(|| {
                while done.load(Ordering::Relaxed) < 8 {
                    assert!(reg.render().contains("lll_test_micros_count "));
                    reg.rotate_windows();
                }
            });
        });
        assert_eq!(c.value(), 8000);
        assert_eq!(h.merged().count(), 8000);
        let text = reg.render();
        assert!(text.contains("lll_test_total 8000\n"));
        assert!(text.contains("lll_test_micros_count 8000\n"));
    }

    #[test]
    fn labelled_counters_share_one_header() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("lll_errors_total", "errors", &[("kind", "parse")]);
        let b = reg.counter_with("lll_errors_total", "errors", &[("kind", "io")]);
        a.add(3);
        b.add(2);
        let text = reg.render();
        assert_eq!(text.matches("# TYPE lll_errors_total counter").count(), 1);
        assert!(text.contains("lll_errors_total{kind=\"parse\"} 3\n"));
        assert!(text.contains("lll_errors_total{kind=\"io\"} 2\n"));
    }

    #[test]
    fn gauges_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("lll_queue_depth", "queue depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.value(), 4);
        assert!(reg.render().contains("lll_queue_depth 4\n"));
    }

    #[test]
    fn sync_total_mirrors_external_counters() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("lll_cache_hits_total", "hits");
        c.sync_total(41);
        c.sync_total(42);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn histogram_quantiles_and_summary_lines() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lll_latency_micros", "request latency");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let merged = h.merged();
        assert_eq!(merged.count(), 1000);
        assert!((500..=517).contains(&merged.p50()));
        let text = reg.render();
        assert!(text.contains("# TYPE lll_latency_micros summary"));
        assert!(text.contains("lll_latency_micros{quantile=\"0.5\"}"));
        assert!(text.contains("lll_latency_micros_count 1000\n"));
        assert!(text.contains("lll_latency_micros_window_p50"));
    }

    #[test]
    fn window_rotation_forgets_old_samples() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lll_w", "window test");
        h.record(1_000_000);
        // After a full ring of rotations the old sample has been
        // cleared from every window slot; the cumulative view keeps it.
        for _ in 0..WINDOW_SLOTS {
            reg.rotate_windows();
        }
        h.record(10);
        assert_eq!(h.window().count(), 1);
        assert_eq!(h.window().max(), 10);
        assert_eq!(h.merged().count(), 2);
        assert_eq!(h.merged().max(), 1_000_000);
    }

    #[test]
    fn render_lines_are_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("lll_a_total", "a").inc();
        reg.gauge("lll_b", "b").set(-5);
        reg.histogram("lll_c_micros", "c").record(3);
        for line in reg.render().lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value.parse::<i64>().is_ok(), "{line}");
        }
    }
}
