//! Cache-correctness differential battery.
//!
//! For each graph family: solve a request cold (cache disabled), then
//! again through a warmed fingerprint cache, and assert the response
//! bytes, assignments, step bills, and teed recorder streams are all
//! byte-identical. A cache hit must be invisible in every observable
//! channel; divergences are triaged with `obs::diff::first_divergence`
//! so a broken contract names the first divergent event instead of
//! dumping blobs.

use lll_serve::{Engine, EngineConfig, Response};

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("lll-serve-cachediff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name).to_str().expect("utf-8 path").to_owned()
}

/// A rank-3 DIMACS request (ring formula: d = 4, shared vars rank 3).
fn dimacs_request(id: &str, polarity_seed: u64, obs: Option<&str>) -> String {
    let cnf = lll_apps::sat::ring_formula(24, 5, polarity_seed);
    let mut fields = vec![
        ("id".to_owned(), serde::Value::String(id.to_owned())),
        ("dimacs".to_owned(), serde::Value::String(cnf.to_string())),
    ];
    if let Some(path) = obs {
        fields.push(("obs".to_owned(), serde::Value::String(path.to_owned())));
    }
    serde_json::to_string(&serde::Value::Object(fields)).unwrap()
}

/// A rank-2 JSON-instance request (ring of binary events).
fn ring_instance_request(id: &str, n: usize, obs: Option<&str>) -> String {
    let variables: Vec<serde::Value> = (0..n)
        .map(|i| {
            serde::Value::Object(vec![
                (
                    "affects".to_owned(),
                    serde::Value::Array(vec![
                        serde::Value::U64(i as u64),
                        serde::Value::U64(((i + 1) % n) as u64),
                    ]),
                ),
                ("k".to_owned(), serde::Value::U64(3)),
            ])
        })
        .collect();
    let events: Vec<serde::Value> = (0..n)
        .map(|i| {
            serde::Value::Object(vec![
                (
                    "vars".to_owned(),
                    serde::Value::Array(vec![
                        serde::Value::U64(((i + n - 1) % n) as u64),
                        serde::Value::U64(i as u64),
                    ]),
                ),
                (
                    "values".to_owned(),
                    serde::Value::Array(vec![serde::Value::U64(0), serde::Value::U64(0)]),
                ),
            ])
        })
        .collect();
    let instance = serde::Value::Object(vec![
        ("variables".to_owned(), serde::Value::Array(variables)),
        ("events".to_owned(), serde::Value::Array(events)),
    ]);
    let mut fields = vec![
        ("id".to_owned(), serde::Value::String(id.to_owned())),
        ("instance".to_owned(), instance),
    ];
    if let Some(path) = obs {
        fields.push(("obs".to_owned(), serde::Value::String(path.to_owned())));
    }
    serde_json::to_string(&serde::Value::Object(fields)).unwrap()
}

fn triage(name: &str, cold: &str, warm: &str) -> String {
    let cold_lines = cold.lines().map(str::to_owned).collect::<Vec<_>>();
    let warm_lines = warm.lines().map(str::to_owned).collect::<Vec<_>>();
    match lll_obs::diff::first_divergence(cold_lines.into_iter(), warm_lines.into_iter(), 2) {
        Some(d) => format!("{name}: first divergence: {d:?}"),
        None => format!("{name}: streams differ only in framing"),
    }
}

fn assert_cold_equals_warm(name: &str, requests: &[String]) {
    let cold_engine = Engine::new(EngineConfig {
        cache_capacity: Some(0),
        ..EngineConfig::default()
    });
    let warm_engine = Engine::new(EngineConfig::default());

    // Prime the warm cache with every request shape (responses discarded).
    for (i, req) in requests.iter().enumerate() {
        let prime = req.replace("OBS_PATH", &scratch(&format!("{name}-{i}-prime.jsonl")));
        warm_engine.solve_line(&prime);
    }
    assert!(
        warm_engine.cached_schedules() >= 1,
        "{name}: priming populated no schedule"
    );

    for (i, req) in requests.iter().enumerate() {
        let cold_obs = scratch(&format!("{name}-{i}-cold.jsonl"));
        let warm_obs = scratch(&format!("{name}-{i}-warm.jsonl"));
        let cold_req = req.replace("OBS_PATH", &cold_obs);
        let warm_req = req.replace("OBS_PATH", &warm_obs);

        let cold = cold_engine.solve_line(&cold_req);
        let warm = warm_engine.solve_line(&warm_req);

        // Response objects and wire bytes (modulo the obs path, which
        // is an input, not an output — it never appears in responses).
        match (&cold, &warm) {
            (Response::Ok(c), Response::Ok(w)) => {
                assert_eq!(c.assignment, w.assignment, "{name} req {i}: assignment");
                assert_eq!(c.steps, w.steps, "{name} req {i}: steps");
                assert_eq!(c.rounds, w.rounds, "{name} req {i}: rounds");
                assert_eq!(c.fingerprint, w.fingerprint, "{name} req {i}");
                assert_eq!(c.provenance, w.provenance, "{name} req {i}");
            }
            other => panic!("{name} req {i}: non-ok responses: {other:?}"),
        }
        let cold_json = cold.to_json().replace(&cold_obs, "OBS_PATH");
        let warm_json = warm.to_json().replace(&warm_obs, "OBS_PATH");
        assert_eq!(cold_json, warm_json, "{name} req {i}: response bytes");

        // Teed recorder streams, byte for byte.
        let cold_stream = std::fs::read_to_string(&cold_obs).expect("cold obs stream");
        let warm_stream = std::fs::read_to_string(&warm_obs).expect("warm obs stream");
        assert!(
            !cold_stream.is_empty(),
            "{name} req {i}: cold stream is empty"
        );
        assert_eq!(
            cold_stream,
            warm_stream,
            "{name} req {i}: obs streams diverge — {}",
            triage(name, &cold_stream, &warm_stream)
        );
    }

    // The warm engine really was warm: after priming, every solve hit.
    assert_eq!(
        warm_engine.stats().cache_misses as usize,
        warm_engine.cached_schedules(),
        "{name}: warm engine recomputed a schedule after priming"
    );
}

#[test]
fn rank3_dimacs_cold_equals_warm() {
    // Same graph shape, five different polarity patterns.
    let requests: Vec<String> = (0..5)
        .map(|seed| dimacs_request(&format!("d{seed}"), seed, Some("OBS_PATH")))
        .collect();
    assert_cold_equals_warm("rank3-dimacs", &requests);
}

#[test]
fn rank2_instance_cold_equals_warm() {
    let requests: Vec<String> = [16usize, 48]
        .iter()
        .map(|&n| ring_instance_request(&format!("r{n}"), n, Some("OBS_PATH")))
        .collect();
    assert_cold_equals_warm("rank2-ring", &requests);
}

#[test]
fn hit_equals_miss_within_one_engine() {
    let engine = Engine::new(EngineConfig::default());
    let a = scratch("within-a.jsonl");
    let b = scratch("within-b.jsonl");
    let first = engine.solve_line(&dimacs_request("x", 9, Some(&a)));
    let misses = engine.stats().cache_misses;
    let second = engine.solve_line(&dimacs_request("x", 9, Some(&b)));
    assert_eq!(engine.stats().cache_misses, misses, "second solve missed");
    assert!(engine.stats().cache_hits >= 1);
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
        "hit and miss recorder streams diverge"
    );
}

#[test]
fn different_seeds_do_not_share_schedules() {
    let engine = Engine::new(EngineConfig::default());
    let base = dimacs_request("s", 3, None);
    let with_seed = |seed: u64| {
        base.replace(
            "\"dimacs\"",
            &format!("\"schedule_seed\":{seed},\"dimacs\""),
        )
    };
    engine.solve_line(&with_seed(1));
    engine.solve_line(&with_seed(2));
    assert_eq!(engine.cached_schedules(), 2, "seeds must not collide");
    engine.solve_line(&with_seed(1));
    assert_eq!(engine.cached_schedules(), 2);
    assert_eq!(engine.stats().cache_hits, 1);
}
