//! End-to-end protocol test: drives the `lll-serve` binary over a
//! pipe with a batch of mixed valid / invalid / oversized requests and
//! pins the per-request responses, error payloads, and exit codes.
//!
//! Response lines are pinned byte-for-byte where the payload is small
//! enough to read — the determinism contract says these bytes are a
//! pure function of the request and the engine configuration, so this
//! test doubles as a canary for accidental nondeterminism (thread
//! counts, cache state, or timing leaking into responses).

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_lll-serve");
const SCRAPE_BIN: &str = env!("CARGO_BIN_EXE_lll-metrics-scrape");

/// Runs the daemon with `args`, writes `input` to stdin, closes it,
/// and returns (stdout lines, exit code).
fn run(args: &[&str], input: &str) -> (Vec<String>, i32) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lll-serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon exit");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (
        stdout.lines().map(str::to_owned).collect(),
        out.status.code().expect("no signal"),
    )
}

#[test]
fn mixed_batch_pins_responses_and_exit_code() {
    let input = concat!(
        // Valid rank-2 CNF.
        r#"{"id":"q0","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#,
        "\n",
        // Not JSON at all.
        "not json\n",
        // JSON, but not an object.
        "[1,2,3]\n",
        // Unknown field (typo'd payload key), id still salvaged.
        r#"{"id":"q1","dimcas":"x"}"#,
        "\n",
        // Missing payload.
        r#"{"id":42}"#,
        "\n",
        // Malformed DIMACS.
        r#"{"id":"q2","dimacs":"p cnf 2 1\n1 2"}"#,
        "\n",
        // Semantically invalid instance: event tests a foreign variable.
        r#"{"id":"q3","instance":{"variables":[{"affects":[0],"k":2}],"events":[{"vars":[1],"values":[0]}]}}"#,
        "\n",
        // Out of regime: at-threshold formula (two width-1 clauses
        // sharing the variable: p = 1/2, d = 1, p * 2^d = 1).
        r#"{"id":"q4","dimacs":"p cnf 1 2\n1 0\n-1 0\n"}"#,
        "\n",
        // Forced timeout (opt-in zero deadline).
        r#"{"id":"q5","timeout_ms":0,"dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#,
        "\n",
        // Clean shutdown with an id.
        r#"{"id":"bye","shutdown":true}"#,
        "\n",
        // After the shutdown: with --batch 1 the shutdown is always
        // its own batch, so this line is deterministically unread.
        r#"{"id":"late","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#,
        "\n",
    );
    let (lines, code) = run(&["--batch", "1"], input);
    assert_eq!(code, 0, "clean shutdown");

    let expected_q0 = concat!(
        r#"{"id":"q0","status":"ok","assignment":[0,1],"steps":2,"rounds":3,"#,
        r#""coloring_rounds":0,"classes":2,"violated":0,"fingerprint":"0f869412e0fcd667","#,
        r#""provenance":"schema=1 engine=lll-serve/0.1.0 fixer=2 seed=5 nodes=2 edges=1 max_degree=1"}"#
    );
    assert_eq!(lines[0], expected_q0);
    assert!(
        lines[1].starts_with(r#"{"id":null,"status":"error","error":{"kind":"parse","#),
        "line 1: {}",
        lines[1]
    );
    assert!(
        lines[2].starts_with(r#"{"id":null,"status":"error","error":{"kind":"parse","#),
        "line 2: {}",
        lines[2]
    );
    assert_eq!(
        lines[3],
        r#"{"id":"q1","status":"error","error":{"kind":"parse","message":"unknown request field \"dimcas\""}}"#
    );
    assert_eq!(
        lines[4],
        r#"{"id":42,"status":"error","error":{"kind":"parse","message":"request needs exactly one of \"dimacs\" or \"instance\""}}"#
    );
    assert_eq!(
        lines[5],
        r#"{"id":"q2","status":"error","error":{"kind":"parse","message":"DIMACS: bad application input: unterminated final clause"}}"#
    );
    assert_eq!(
        lines[6],
        r#"{"id":"q3","status":"error","error":{"kind":"invalid","message":"event 0 tests variable 1, but there are only 1 variables"}}"#
    );
    assert!(
        lines[7].starts_with(r#"{"id":"q4","status":"error","error":{"kind":"out_of_regime","#),
        "line 7: {}",
        lines[7]
    );
    assert_eq!(
        lines[8],
        r#"{"id":"q5","status":"error","error":{"kind":"timeout","message":"deadline of 0 ms exceeded"}}"#
    );
    assert_eq!(lines[9], r#"{"id":"bye","status":"shutdown"}"#);
    // Nothing after the shutdown acknowledgement… unless the late
    // request rode in the same batch (batch=4 makes it a later batch).
    assert_eq!(lines.len(), 10, "shutdown stopped the stream: {lines:?}");
}

#[test]
fn oversized_lines_are_skipped_and_reported() {
    let big = format!(
        "{{\"id\":\"fat\",\"dimacs\":\"{}\"}}\n",
        "c padding ".repeat(40)
    );
    let input = format!(
        "{big}{}\n",
        r#"{"id":"after","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#
    );
    let (lines, code) = run(&["--max-line-bytes", "128"], &input);
    assert_eq!(code, 0, "EOF after draining is clean");
    assert_eq!(
        lines[0],
        r#"{"id":null,"status":"error","error":{"kind":"oversized","message":"request line exceeds 128 bytes"}}"#
    );
    // The pipeline is not wedged: the next request still solves.
    assert!(
        lines[1].starts_with(r#"{"id":"after","status":"ok","#),
        "line 1: {}",
        lines[1]
    );
    assert_eq!(lines.len(), 2);
}

#[test]
fn oversized_instances_are_refused() {
    let input = concat!(
        r#"{"id":"cap","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#,
        "\n"
    );
    let (lines, code) = run(&["--max-events", "1"], input);
    assert_eq!(code, 0);
    assert_eq!(
        lines[0],
        r#"{"id":"cap","status":"error","error":{"kind":"oversized","message":"2 clauses exceed the limit of 1"}}"#
    );
}

/// One clause over 64 variables has one bad tuple, so it is as cheap
/// to build and solve as a short one; enumerating its `2^64` value
/// combinations would never finish.
#[test]
fn a_width_64_clause_solves_in_well_under_a_second() {
    let literals: Vec<String> = (1..=64).map(|x| x.to_string()).collect();
    let input = format!(
        "{{\"id\":\"w64\",\"dimacs\":\"p cnf 64 1\\n{} 0\\n\"}}\n",
        literals.join(" ")
    );
    let start = Instant::now();
    let (lines, code) = run(&[], &input);
    let elapsed = start.elapsed();
    assert_eq!(code, 0);
    assert!(
        lines[0].starts_with(r#"{"id":"w64","status":"ok","#),
        "line 0: {}",
        lines[0]
    );
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

/// Event 0 tests one of nine 4-valued variables, so its bad set is
/// `4^8 = 65536` tuples, past `MAX_BAD_TUPLES`: a typed `invalid`
/// error, after which the same engine answers the next request.
#[test]
fn an_event_expanding_past_the_bound_is_invalid_and_the_engine_goes_on() {
    let variables = [r#"{"affects":[0],"k":4}"#; 9].join(",");
    let input = format!(
        "{{\"id\":\"wide\",\"instance\":{{\"variables\":[{variables}],\"events\":[{{\"vars\":[0],\"values\":[0]}}]}}}}\n{}\n",
        r#"{"id":"next","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#
    );
    let (lines, code) = run(&["--batch", "1"], &input);
    assert_eq!(code, 0);
    assert_eq!(
        lines[0],
        r#"{"id":"wide","status":"error","error":{"kind":"invalid","message":"event 0 has over 32768 bad tuples"}}"#
    );
    assert!(
        lines[1].starts_with(r#"{"id":"next","status":"ok","#),
        "line 1: {}",
        lines[1]
    );
    assert_eq!(lines.len(), 2);
}

#[test]
fn usage_errors_exit_2() {
    let (_, code) = run(&["--frobnicate"], "");
    assert_eq!(code, 2);
    let out = Command::new(BIN)
        .args(["--threads"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "missing value is a usage error");
}

#[test]
fn help_exits_0_and_documents_exit_codes() {
    let out = Command::new(BIN).arg("--help").output().expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in ["EXIT CODES", "shutdown", "--cache-capacity", "--socket"] {
        assert!(text.contains(needle), "help is missing {needle:?}");
    }
}

#[test]
fn eof_without_requests_is_clean() {
    let (lines, code) = run(&[], "");
    assert_eq!(code, 0);
    assert!(lines.is_empty());
}

/// Scrapes the daemon's metrics socket with the workspace's own
/// scrape binary, retrying briefly while the socket comes up.
fn scrape(socket: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let out = Command::new(SCRAPE_BIN)
            .arg(socket)
            .output()
            .expect("spawn lll-metrics-scrape");
        if out.status.code() == Some(0) {
            return String::from_utf8(out.stdout).expect("exposition is UTF-8");
        }
        assert!(
            Instant::now() < deadline,
            "metrics socket {socket} never came up: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sample(exposition: &str, series: &str) -> i64 {
    exposition
        .lines()
        .find(|l| l.strip_prefix(series).is_some_and(|r| r.starts_with(' ')))
        .unwrap_or_else(|| panic!("exposition has no series {series:?}:\n{exposition}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("integer sample")
}

/// Live-scrape test: drive the daemon with a mixed batch, scrape the
/// `--metrics` socket mid-session, and pin the exported counters
/// against the known per-request outcomes. The response lines
/// themselves must be exactly the no-telemetry bytes.
#[test]
fn metrics_socket_pins_per_request_counters() {
    let dir = std::env::temp_dir().join(format!("lll-serve-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("metrics.sock");
    let socket = socket.to_str().expect("utf-8 path");

    let mut child = Command::new(BIN)
        .args(["--batch", "1", "--metrics", socket, "--cache-capacity", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lll-serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut read_line = || {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read response");
        line
    };

    // 2 ok solves (same shape: 1 miss + 1 hit), 1 parse error, 1
    // timeout error — answered before we scrape, so the counters are
    // settled.
    let ok_req = r#"{"id":"q0","dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}"#;
    let expected_ok = concat!(
        r#"{"id":"q0","status":"ok","assignment":[0,1],"steps":2,"rounds":3,"#,
        r#""coloring_rounds":0,"classes":2,"violated":0,"fingerprint":"0f869412e0fcd667","#,
        r#""provenance":"schema=1 engine=lll-serve/0.1.0 fixer=2 seed=5 nodes=2 edges=1 max_degree=1"}"#
    );
    for _ in 0..2 {
        writeln!(stdin, "{ok_req}").expect("write request");
        assert_eq!(
            read_line().trim_end(),
            expected_ok,
            "telemetry changed bytes"
        );
    }
    writeln!(stdin, "not json").expect("write request");
    assert!(read_line().contains(r#""kind":"parse""#));
    writeln!(
        stdin,
        r#"{{"id":"t","timeout_ms":0,"dimacs":"p cnf 2 2\n1 2 0\n-1 2 0\n"}}"#
    )
    .expect("write request");
    assert!(read_line().contains(r#""kind":"timeout""#));

    let text = scrape(socket);
    assert_eq!(sample(&text, "lll_serve_requests_total"), 4);
    assert_eq!(sample(&text, "lll_serve_ok_total"), 2);
    assert_eq!(sample(&text, "lll_serve_errors_total{kind=\"parse\"}"), 1);
    assert_eq!(sample(&text, "lll_serve_errors_total{kind=\"timeout\"}"), 1);
    assert_eq!(
        sample(&text, "lll_serve_errors_total{kind=\"internal\"}"),
        0
    );
    // The timeout request still solves (the deadline check is
    // cooperative), so it hits the cached schedule too: 1 miss, 2 hits.
    assert_eq!(sample(&text, "lll_serve_cache_hits_total"), 2);
    assert_eq!(sample(&text, "lll_serve_cache_misses_total"), 1);
    assert_eq!(sample(&text, "lll_serve_cache_entries"), 1);
    assert_eq!(sample(&text, "lll_serve_latency_micros_count"), 4);
    // 3 solves ran a sweep (2 ok + the cooperative-timeout one).
    assert_eq!(sample(&text, "lll_serve_sweep_micros_count"), 3);
    assert!(sample(&text, "lll_serve_cache_bytes") > 0);
    assert_eq!(sample(&text, "lll_serve_shutdowns_total"), 0);

    writeln!(stdin, r#"{{"id":"bye","shutdown":true}}"#).expect("write request");
    drop(stdin);
    let status = child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0));
    assert!(
        !std::path::Path::new(socket).exists(),
        "metrics socket not removed on shutdown"
    );
}

#[test]
fn responses_identical_at_every_worker_count() {
    // Protocol-level replay of the determinism contract: same input
    // stream, worker counts 1 / 2 / 8, byte-identical stdout.
    let mut input = String::new();
    for i in 0..12 {
        let cnf = lll_apps::sat::ring_formula(16, 5, i);
        input.push_str(&format!(
            "{{\"id\":{i},\"dimacs\":{}}}\n",
            serde_json::to_string(&cnf.to_string()).unwrap()
        ));
    }
    input.push_str("garbage line\n");
    let (base, code) = run(&["--threads", "1", "--batch", "6"], &input);
    assert_eq!(code, 0);
    assert_eq!(base.len(), 13);
    for threads in ["2", "8"] {
        let (lines, code) = run(&["--threads", threads, "--batch", "6"], &input);
        assert_eq!(code, 0);
        assert_eq!(lines, base, "stdout diverged at {threads} workers");
    }
    // And with the cache disabled: cold bytes == warm bytes.
    let (cold, code) = run(
        &["--threads", "2", "--batch", "6", "--cache-capacity", "0"],
        &input,
    );
    assert_eq!(code, 0);
    assert_eq!(cold, base, "cache state leaked into responses");
}
