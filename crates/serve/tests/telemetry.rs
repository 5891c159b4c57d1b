//! Telemetry battery: the side-band contract, the LRU cache bound,
//! and the exposition format.
//!
//! The tentpole invariant under test: enabling metrics, scraping them
//! mid-run, bounding the cache — none of it may change a response byte
//! or a teed recorder stream, at any worker count. Metrics are *about*
//! the deterministic path, never *in* it (DESIGN.md §3.11).

use std::sync::atomic::{AtomicBool, Ordering};

use lll_serve::{serve, Engine, EngineConfig, Response, ServeConfig};

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("lll-serve-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name).to_str().expect("utf-8 path").to_owned()
}

/// A DIMACS request over the ring formula; `n` selects the graph shape
/// (so distinct `n` = distinct fingerprint = distinct cache entry).
fn dimacs_request(id: &str, n: usize, obs: Option<&str>) -> String {
    let cnf = lll_apps::sat::ring_formula(n, 5, 7);
    let mut fields = vec![
        ("id".to_owned(), serde::Value::String(id.to_owned())),
        ("dimacs".to_owned(), serde::Value::String(cnf.to_string())),
    ];
    if let Some(path) = obs {
        fields.push(("obs".to_owned(), serde::Value::String(path.to_owned())));
    }
    serde_json::to_string(&serde::Value::Object(fields)).unwrap()
}

fn ok_json(engine: &Engine, request: &str) -> String {
    match engine.solve_line(request) {
        r @ Response::Ok(_) => r.to_json(),
        other => panic!("expected ok response, got {other:?}"),
    }
}

/// The eviction regression: a capacity-1 cache cycling through three
/// shapes must evict and recompute — and every recomputed response
/// must be byte-identical to an unbounded engine's, because a schedule
/// is a pure function of `(graph, seed)`. Eviction may cost work,
/// never correctness.
#[test]
fn bounded_cache_evicts_and_recomputes_identically() {
    let bounded = Engine::new(EngineConfig {
        cache_capacity: Some(1),
        ..EngineConfig::default()
    });
    let unbounded = Engine::new(EngineConfig::default());
    let shapes = [16usize, 20, 24];
    // Two full passes: pass 2 re-solves shapes the LRU has evicted.
    for pass in 0..2 {
        for &n in &shapes {
            let req = dimacs_request(&format!("e{n}"), n, None);
            assert_eq!(
                ok_json(&bounded, &req),
                ok_json(&unbounded, &req),
                "pass {pass} shape {n}: eviction changed response bytes"
            );
            assert_eq!(bounded.cached_schedules(), 1, "capacity bound violated");
        }
    }
    let stats = bounded.stats();
    assert_eq!(stats.cache_hits, 0, "capacity 1 cannot hit across 3 shapes");
    assert_eq!(stats.cache_misses, 6, "every solve recomputed");
    assert_eq!(
        stats.cache_evictions, 5,
        "each insert past the first evicts"
    );
    // The unbounded engine hit on the second pass and never evicted.
    assert_eq!(unbounded.stats().cache_hits, 3);
    assert_eq!(unbounded.stats().cache_evictions, 0);
}

#[test]
fn capacity_zero_caches_nothing_but_still_answers() {
    let engine = Engine::new(EngineConfig {
        cache_capacity: Some(0),
        ..EngineConfig::default()
    });
    let req = dimacs_request("z", 16, None);
    let first = ok_json(&engine, &req);
    let second = ok_json(&engine, &req);
    assert_eq!(first, second);
    assert_eq!(engine.cached_schedules(), 0);
    assert_eq!(engine.stats().cache_misses, 2);
    assert_eq!(engine.stats().cache_evictions, 0);

    // The uncached path runs its misses concurrently: served at 4
    // workers, the bytes match a cached engine's and nothing is stored.
    let input: String = (0..16)
        .map(|i| dimacs_request(&format!("z{i}"), 16 + 4 * (i % 2), None) + "\n")
        .collect();
    let serve_at = |engine: &Engine, threads| {
        let mut out = Vec::new();
        let config = ServeConfig {
            threads,
            batch: 8,
            ..ServeConfig::default()
        };
        serve(engine, input.as_bytes(), &mut out, &config).expect("in-memory serve");
        out
    };
    let cold = Engine::new(EngineConfig {
        cache_capacity: Some(0),
        ..EngineConfig::default()
    });
    assert_eq!(
        serve_at(&cold, 4),
        serve_at(&Engine::new(EngineConfig::default()), 1)
    );
    let stats = cold.stats();
    assert_eq!(
        (stats.requests, stats.cache_hits, stats.cache_misses),
        (16, 0, 16)
    );
    assert_eq!(cold.cached_schedules(), 0);
}

/// Validates one rendered exposition against the text-format grammar:
/// comment lines are `# HELP` / `# TYPE`, sample lines are
/// `name[{labels}] value` with an integer value, and every `# TYPE`
/// names a type the format defines.
fn assert_well_formed_exposition(text: &str) {
    assert!(!text.is_empty(), "empty exposition");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let ty = rest.rsplit(' ').next().unwrap();
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&ty),
                "bad TYPE: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "bad comment line: {line}");
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        assert!(!name_part.is_empty(), "empty metric name: {line}");
        let bare = name_part.split('{').next().unwrap();
        assert!(
            bare.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name {bare:?} in {line}"
        );
        assert!(value.parse::<i64>().is_ok(), "non-integer sample: {line}");
    }
}

#[test]
fn exposition_is_well_formed_and_complete() {
    let engine = Engine::new(EngineConfig {
        cache_capacity: Some(2),
        ..EngineConfig::default()
    });
    engine.solve_line(&dimacs_request("m0", 16, None));
    engine.solve_line(&dimacs_request("m1", 20, None));
    engine.solve_line(r#"{"id":"bad","dimacs":"p cnf"}"#);
    let text = engine.render_metrics();
    assert_well_formed_exposition(&text);
    // Every series exists regardless of traffic; the counters the
    // traffic did touch carry the expected totals.
    for needle in [
        "lll_serve_requests_total 3\n",
        "lll_serve_ok_total 2\n",
        "lll_serve_errors_total{kind=\"parse\"} 1\n",
        "lll_serve_errors_total{kind=\"timeout\"} 0\n",
        "lll_serve_errors_total{kind=\"internal\"} 0\n",
        "lll_serve_cache_misses_total 2\n",
        "lll_serve_cache_entries 2\n",
        "lll_serve_latency_micros_count 3\n",
        "lll_serve_sweep_micros_count 2\n",
        "lll_serve_shutdowns_total 0\n",
        "lll_engine_slab_bytes",
        "lll_engine_slab_slots",
        "lll_engine_slab_shards",
        "lll_engine_slab_max_shard_slots",
        "lll_process_peak_rss_bytes",
        "lll_numeric_tier_promotes_total",
        "lll_numeric_tier_demotes_total",
    ] {
        assert!(
            text.contains(needle),
            "exposition is missing {needle:?}:\n{text}"
        );
    }
    // Memory gauges are live: a warm cache occupies bytes.
    let bytes_line = text
        .lines()
        .find(|l| l.starts_with("lll_serve_cache_bytes "))
        .expect("cache bytes gauge");
    let bytes: i64 = bytes_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(bytes > 0, "cached schedules occupy no bytes? {bytes_line}");
    // Where procfs exists, the peak-RSS gauge reads the allocator truth.
    #[cfg(target_os = "linux")]
    {
        let rss_line = text
            .lines()
            .find(|l| l.starts_with("lll_process_peak_rss_bytes "))
            .expect("peak RSS gauge");
        let rss: i64 = rss_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(rss > 0, "implausible peak RSS: {rss_line}");
    }
}

/// Per-request attribution: every solve feeds exactly one latency and
/// one sweep sample, and every line of its teed stream carries the
/// request id as its `req` correlation field.
#[test]
fn sweep_spans_and_request_tags_line_up() {
    let engine = Engine::new(EngineConfig::default());
    for (i, n) in [16usize, 20, 24].iter().enumerate() {
        let obs = scratch(&format!("tags-{i}.jsonl"));
        let req = dimacs_request(&format!("tag{i}"), *n, Some(&obs));
        ok_json(&engine, &req);
        let stream = std::fs::read_to_string(&obs).expect("obs stream");
        assert!(!stream.is_empty());
        for line in stream.lines() {
            assert!(
                line.contains(&format!("\"req\":\"tag{i}\"")),
                "untagged line in request tag{i}'s stream: {line}"
            );
        }
    }
    assert_eq!(engine.metrics().requests.value(), 3);
    assert_eq!(engine.metrics().ok.value(), 3);
    assert_eq!(engine.metrics().latency_micros.merged().count(), 3);
    assert_eq!(engine.metrics().sweep_micros.merged().count(), 3);
    assert!(engine.metrics().class_micros.merged().count() >= 3);
}

/// The tentpole differential: the same request stream served at 1, 2,
/// and 8 workers, with a scraper hammering the metrics renderer the
/// whole time — stdout bytes and every teed stream must match the
/// quiet 1-worker baseline exactly.
#[test]
fn scraping_cannot_perturb_responses_or_obs_streams() {
    let mut input = String::new();
    for i in 0..8 {
        let obs = scratch(&format!("scrape-base-{i}.jsonl"));
        input.push_str(&dimacs_request(
            &format!("s{i}"),
            16 + 2 * (i % 3),
            Some(&obs),
        ));
        input.push('\n');
    }
    // Quiet baseline: one worker, no scrapes.
    let baseline_engine = Engine::new(EngineConfig::default());
    let mut baseline_out = Vec::new();
    serve(
        &baseline_engine,
        input.as_bytes(),
        &mut baseline_out,
        &ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("baseline serve");
    let baseline_streams: Vec<String> = (0..8)
        .map(|i| std::fs::read_to_string(scratch(&format!("scrape-base-{i}.jsonl"))).unwrap())
        .collect();

    for threads in [1usize, 2, 8] {
        let mut run_input = String::new();
        for i in 0..8 {
            let obs = scratch(&format!("scrape-t{threads}-{i}.jsonl"));
            run_input.push_str(&dimacs_request(
                &format!("s{i}"),
                16 + 2 * (i % 3),
                Some(&obs),
            ));
            run_input.push('\n');
        }
        let engine = Engine::new(EngineConfig::default());
        let stop = AtomicBool::new(false);
        let mut out = Vec::new();
        std::thread::scope(|s| {
            let scraper_engine = &engine;
            let scraper_stop = &stop;
            s.spawn(move || {
                let mut scrapes = 0u64;
                while !scraper_stop.load(Ordering::Relaxed) {
                    let text = scraper_engine.render_metrics();
                    assert!(!text.is_empty());
                    scraper_engine.metrics().registry().rotate_windows();
                    scrapes += 1;
                }
                assert!(scrapes > 0);
            });
            serve(
                &engine,
                run_input.as_bytes(),
                &mut out,
                &ServeConfig {
                    threads,
                    ..ServeConfig::default()
                },
            )
            .expect("scraped serve");
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            String::from_utf8(out).unwrap(),
            String::from_utf8(baseline_out.clone()).unwrap(),
            "stdout diverged from quiet baseline at {threads} workers"
        );
        for (i, baseline_stream) in baseline_streams.iter().enumerate() {
            let stream =
                std::fs::read_to_string(scratch(&format!("scrape-t{threads}-{i}.jsonl"))).unwrap();
            assert_eq!(
                &stream, baseline_stream,
                "obs stream {i} diverged under scraping at {threads} workers"
            );
        }
    }
}
