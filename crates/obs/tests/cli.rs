//! End-to-end tests of the `obs-report` binary: the exit-code contract
//! (0 ok / 1 schema violation or divergence / 2 I/O error / 3 truncated
//! stream), bounded-memory streaming of real files, and the `series` and
//! `diff` subcommands.

#![forbid(unsafe_code)]

use lll_obs::Event;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const BIN: &str = env!("CARGO_BIN_EXE_obs-report");

static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch path for this test process.
fn scratch(name: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("obs-report-test-{}-{n}-{name}", std::process::id()))
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn obs-report")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A small, schema-valid stream: one simulator run plus one fixer run.
fn valid_stream() -> String {
    let mut text = String::new();
    for e in valid_events() {
        text.push_str(&e.to_jsonl());
        text.push('\n');
    }
    text
}

/// The events behind [`valid_stream`], for recording through a
/// checkpointing recorder.
fn valid_events() -> Vec<Event> {
    vec![
        Event::SimRunStart {
            nodes: 2,
            edges: 1,
            max_degree: 1,
            seed: 7,
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
            variables: 1,
            events: 1,
            max_rank: 2,
        },
        Event::FixStep {
            step: 0,
            variable: 0,
            value: 1,
            rank: 1,
            touched: vec![0],
            inc: vec![1.0],
            phi_product: vec![0.5],
            headroom: vec![1.5],
        },
        Event::FixRunEnd {
            steps: 1,
            violated: 0,
        },
    ]
}

/// [`valid_stream`] recorded through a checkpointing recorder: the same
/// event lines plus `#checkpoint ` sidecars every `interval` progress
/// events.
fn checkpointed_stream(interval: u64) -> String {
    use lll_obs::{JsonlRecorder, Recorder};
    let mut rec = JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
    for e in valid_events() {
        rec.record(&e);
    }
    String::from_utf8(rec.finish().unwrap()).unwrap()
}

#[test]
fn valid_stream_exits_zero() {
    let path = scratch("valid.jsonl");
    std::fs::write(&path, valid_stream()).unwrap();
    let p = path.to_str().unwrap();
    for args in [vec!["--validate", p], vec!["summarize", "--validate", p]] {
        let out = run(&args);
        assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("schema OK"), "{text}");
        assert!(text.contains("simulator: 1 run(s)"), "{text}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn schema_violation_exits_one() {
    // round 2 does not follow round 0: a stream-level violation.
    let mut text = Event::SimRunStart {
        nodes: 1,
        edges: 0,
        max_degree: 0,
        seed: 0,
    }
    .to_jsonl();
    text.push('\n');
    text.push_str(
        &Event::RoundStart {
            round: 2,
            running: 1,
        }
        .to_jsonl(),
    );
    text.push('\n');
    let path = scratch("violation.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = run(&["--validate", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("does not follow"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_exits_two() {
    let out = run(&["--validate", "/nonexistent/trace.jsonl"]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
}

#[test]
fn usage_error_exits_two() {
    assert_eq!(exit_code(&run(&[])), 2);
    assert_eq!(exit_code(&run(&["diff", "only-one-file"])), 2);
    assert_eq!(exit_code(&run(&["series", "no-out-flag.jsonl"])), 2);
}

#[test]
fn truncated_final_line_warns_and_exits_three() {
    // A valid stream whose writer died mid-line: final line has no
    // newline and is not valid JSON.
    let mut text = valid_stream();
    text.push_str("{\"type\":\"sim_run_start\",\"nodes\":4,\"ed");
    let path = scratch("truncated.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("truncated"), "{}", stderr(&out));
    // Everything before the torn line was still summarized.
    assert!(
        stdout(&out).contains("simulator: 1 run(s)"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn complete_final_line_without_newline_is_fine() {
    // No trailing newline but the line parses: a normally-closed stream
    // from a writer that skips the final newline. Not truncation.
    let text = valid_stream();
    let path = scratch("no-trailing-newline.jsonl");
    std::fs::write(&path, text.trim_end()).unwrap();
    let out = run(&["--validate", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

/// The three read modes that validate, on one file: their exit codes.
fn validating_exit_codes(path: &str) -> Vec<i32> {
    [
        vec!["validate", path],
        vec!["summarize", "--validate", path],
        vec!["--validate", path],
    ]
    .iter()
    .map(|args| exit_code(&run(args)))
    .collect()
}

#[test]
fn every_validating_mode_gives_one_verdict_on_a_tail() {
    // A complete final line without its newline decodes: complete.
    let complete = scratch("tail-complete.jsonl");
    std::fs::write(&complete, valid_stream().trim_end()).unwrap();
    // A torn final line does not decode: truncated.
    let torn = scratch("tail-torn.jsonl");
    let mut text = valid_stream();
    text.push_str("{\"type\":\"sim_run_start\",\"nodes\":4,\"ed");
    std::fs::write(&torn, &text).unwrap();
    // An unterminated sidecar is always torn, even a parseable one.
    let sidecar = scratch("tail-sidecar.jsonl");
    let text = checkpointed_stream(1);
    let last = text.rfind("#checkpoint").unwrap();
    let end = last + text[last..].find('\n').unwrap();
    std::fs::write(&sidecar, &text[..end]).unwrap();
    for (path, code) in [(&complete, 0), (&torn, 3), (&sidecar, 3)] {
        let p = path.to_str().unwrap();
        assert_eq!(validating_exit_codes(p), [code; 3], "{p}");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn a_malformed_known_event_is_an_error_in_every_mode() {
    // Line 4 is `round_end`: drop one field, then mistype another.
    let missing = valid_stream().replace("\"delivered\":2,", "");
    let mistyped = valid_stream().replace("\"halted\":1,", "\"halted\":\"1\",");
    for (text, field) in [(missing, "delivered"), (mistyped, "halted")] {
        let path = scratch("malformed.jsonl");
        std::fs::write(&path, &text).unwrap();
        let p = path.to_str().unwrap();
        let out_dir = scratch("malformed-series");
        let o = out_dir.to_str().unwrap();
        for args in [
            vec!["summarize", p],
            vec!["summarize", "--json", p],
            vec!["summarize", "--validate", p],
            vec![p],
            vec!["validate", p],
            vec!["series", "--out", o, p],
            vec!["tail", "--interval-ms", "10", "--idle-exit-ms", "50", p],
            vec!["resume-check", p, p],
        ] {
            let out = run(&args);
            let err = stderr(&out);
            assert_eq!(exit_code(&out), 1, "{args:?}: {err}");
            assert!(
                err.contains("line 4") && err.contains(field),
                "{args:?}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&out_dir).ok();
    }
}

#[test]
fn series_writes_stamped_csvs() {
    let path = scratch("trace.jsonl");
    std::fs::write(&path, valid_stream()).unwrap();
    let out_dir = scratch("series-out");
    let out = run(&[
        "series",
        "--out",
        out_dir.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let stem = path.file_stem().unwrap().to_str().unwrap();
    let rounds = std::fs::read_to_string(out_dir.join(format!("{stem}_rounds.csv"))).unwrap();
    assert!(rounds.starts_with("# provenance:"), "{rounds}");
    assert!(rounds.contains("run,round,delivered,bytes,halted,running"));
    assert!(rounds.contains("0,1,2,8,1,1"), "{rounds}");
    let steps = std::fs::read_to_string(out_dir.join(format!("{stem}_steps.csv"))).unwrap();
    assert!(steps.contains("phi_product_min"), "{steps}");
    assert!(out_dir.join(format!("{stem}_halts.csv")).exists());
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

/// The same stream as [`valid_stream`], with every line tagged with a
/// `req` correlation field (schema v2).
fn tagged_stream(req: &str) -> String {
    valid_stream()
        .lines()
        .map(|line| {
            let (head, tail) = line.split_once(',').expect("every event has >= 2 fields");
            format!("{head},\"req\":{req},{tail}\n")
        })
        .collect()
}

#[test]
fn summarize_json_pins_exit_codes_and_shape() {
    // Exit 0: valid stream, one JSON object on stdout.
    let path = scratch("json-ok.jsonl");
    std::fs::write(&path, valid_stream()).unwrap();
    let out = run(&["summarize", "--validate", "--json", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 1, "one JSON line per file: {text}");
    assert!(!text.contains("schema OK"), "json mode is machine-only");
    let v: serde::Value = serde_json::from_str(text.trim()).expect("summary is JSON");
    assert_eq!(
        v.get("file"),
        Some(&serde::Value::String(path.to_str().unwrap().to_owned()))
    );
    assert_eq!(v.get("lines"), Some(&serde::Value::U64(8)));
    assert_eq!(v.get("sim_runs"), Some(&serde::Value::U64(1)));
    assert_eq!(v.get("fix_steps"), Some(&serde::Value::U64(1)));
    assert!(v.get("by_type").is_some());
    assert!(v.get("by_request").is_some());
    std::fs::remove_file(&path).ok();

    // Exit 1: stream-level schema violation under --validate.
    let bad = scratch("json-bad.jsonl");
    let mut text = Event::SimRunStart {
        nodes: 1,
        edges: 0,
        max_degree: 0,
        seed: 0,
    }
    .to_jsonl();
    text.push('\n');
    text.push_str(
        &Event::RoundStart {
            round: 2,
            running: 1,
        }
        .to_jsonl(),
    );
    text.push('\n');
    std::fs::write(&bad, &text).unwrap();
    let out = run(&["summarize", "--validate", "--json", bad.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    std::fs::remove_file(&bad).ok();

    // Exit 2: unreadable input.
    let out = run(&["summarize", "--json", "/nonexistent/trace.jsonl"]);
    assert_eq!(exit_code(&out), 2);

    // Exit 3: truncated final line — but the complete prefix is still
    // summarized, as JSON.
    let torn = scratch("json-torn.jsonl");
    let mut text = valid_stream();
    text.push_str("{\"type\":\"sim_run_start\",\"nod");
    std::fs::write(&torn, &text).unwrap();
    let out = run(&["summarize", "--json", torn.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    let v: serde::Value = serde_json::from_str(stdout(&out).trim()).expect("summary is JSON");
    assert_eq!(v.get("lines"), Some(&serde::Value::U64(8)));
    std::fs::remove_file(&torn).ok();
}

#[test]
fn summarize_by_request_groups_tagged_streams() {
    let path = scratch("tagged.jsonl");
    let mut text = tagged_stream("\"q0\"");
    text.push_str(&tagged_stream("17"));
    std::fs::write(&path, &text).unwrap();
    let out = run(&[
        "summarize",
        "--validate",
        "--by-request",
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("by request:"), "{text}");
    assert!(text.contains("\"q0\""), "{text}");
    assert!(
        text.contains("1 fix run(s), 1 step(s), 1 sim run(s)"),
        "{text}"
    );
    // And the JSON form carries the same grouping.
    let out = run(&["summarize", "--json", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0);
    let v: serde::Value = serde_json::from_str(stdout(&out).trim()).unwrap();
    match v.get("by_request") {
        Some(serde::Value::Object(reqs)) => {
            assert_eq!(reqs.len(), 2, "two distinct correlation ids");
        }
        other => panic!("by_request is not an object: {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tail_follows_appends_and_exits_clean() {
    let path = scratch("tail.jsonl");
    let full = valid_stream();
    let lines: Vec<&str> = full.lines().collect();
    let (head, tail) = lines.split_at(4);
    std::fs::write(&path, format!("{}\n", head.join("\n"))).unwrap();

    let child = Command::new(BIN)
        .args([
            "tail",
            "--interval-ms",
            "20",
            "--idle-exit-ms",
            "500",
            path.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn obs-report tail");
    // Let it fold the first chunk, then append the rest mid-flight.
    std::thread::sleep(std::time::Duration::from_millis(150));
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(f, "{}", tail.join("\n")).unwrap();
    drop(f);
    let out = child.wait_with_output().expect("tail exit");
    assert_eq!(out.status.code(), Some(0), "idle timeout is a clean exit");
    let text = String::from_utf8_lossy(&out.stdout);
    // Two reprints (one per chunk), final state covers all 8 lines.
    assert!(text.contains("== tail"), "{text}");
    assert!(text.matches("== tail").count() >= 2, "{text}");
    assert!(text.contains("(8 lines)"), "{text}");
    assert!(text.contains("simulator: 1 run(s)"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn tail_with_pending_partial_line_exits_three() {
    let path = scratch("tail-torn.jsonl");
    let mut text = valid_stream();
    text.push_str("{\"type\":\"fix_run_start\",\"var");
    std::fs::write(&path, &text).unwrap();
    let out = run(&[
        "tail",
        "--interval-ms",
        "20",
        "--idle-exit-ms",
        "200",
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("unfinished"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn tail_usage_errors_exit_two() {
    assert_eq!(exit_code(&run(&["tail"])), 2);
    let a = scratch("tail-a.jsonl");
    let b = scratch("tail-b.jsonl");
    std::fs::write(&a, valid_stream()).unwrap();
    std::fs::write(&b, valid_stream()).unwrap();
    assert_eq!(
        exit_code(&run(&["tail", a.to_str().unwrap(), b.to_str().unwrap()])),
        2,
        "tail takes exactly one file"
    );
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn diff_identical_exits_zero_divergent_exits_one() {
    let a_path = scratch("a.jsonl");
    let b_path = scratch("b.jsonl");
    std::fs::write(&a_path, valid_stream()).unwrap();
    std::fs::write(&b_path, valid_stream()).unwrap();
    let out = run(&["diff", a_path.to_str().unwrap(), b_path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("identical"), "{}", stdout(&out));

    // Mutate one field of one event in b.
    let mutated = valid_stream().replace("\"delivered\":2", "\"delivered\":3");
    assert_ne!(mutated, valid_stream());
    std::fs::write(&b_path, mutated).unwrap();
    let out = run(&[
        "diff",
        "--context",
        "1",
        a_path.to_str().unwrap(),
        b_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("streams diverge at event index 3"), "{text}");
    assert!(text.contains("delivered"), "{text}");
    std::fs::remove_file(&a_path).ok();
    std::fs::remove_file(&b_path).ok();
}

#[test]
fn diff_ignores_checkpoint_sidecars() {
    let a_path = scratch("plain.jsonl");
    let b_path = scratch("checkpointed.jsonl");
    std::fs::write(&a_path, valid_stream()).unwrap();
    std::fs::write(&b_path, checkpointed_stream(1)).unwrap();
    let out = run(&["diff", a_path.to_str().unwrap(), b_path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    std::fs::remove_file(&a_path).ok();
    std::fs::remove_file(&b_path).ok();
}

#[test]
fn validate_stats_prints_awk_friendly_shape() {
    let text = checkpointed_stream(1);
    let path = scratch("stats.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = run(&["validate", "--stats", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let line = stdout(&out);
    for key in [
        "events=8",
        &format!("bytes={}", text.len()),
        "rounds=1",
        "steps=1",
        "sim_runs=1",
        "fix_runs=1",
        "checkpoints=1",
        "last_checkpoint_round=1",
        "torn=0",
    ] {
        assert!(line.contains(key), "missing {key} in: {line}");
    }
    std::fs::remove_file(&path).ok();

    // A plain stream reports no checkpoint as -1.
    let plain = scratch("stats-plain.jsonl");
    std::fs::write(&plain, valid_stream()).unwrap();
    let out = run(&["validate", "--stats", plain.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("last_checkpoint_round=-1"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_file(&plain).ok();
}

#[test]
fn validate_rejects_contradicted_checkpoint() {
    // Same-length mutation inside the checkpointed window: schema-valid,
    // only the fold digest can catch it.
    let text = checkpointed_stream(2).replace("\"delivered\":2", "\"delivered\":3");
    let path = scratch("corrupt.jsonl");
    std::fs::write(&path, &text).unwrap();
    let out = run(&["validate", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("corrupt stream"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_sidecar_line_reports_byte_offset() {
    let text = checkpointed_stream(1);
    let cut_line_start = text.rfind("#checkpoint").unwrap();
    let torn = &text[..cut_line_start + 15];
    let path = scratch("torn-sidecar.jsonl");
    std::fs::write(&path, torn).unwrap();
    for args in [
        vec!["validate", path.to_str().unwrap()],
        vec!["summarize", path.to_str().unwrap()],
    ] {
        let out = run(&args);
        assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("byte offset {cut_line_start}")),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_meta_line_reports_byte_offset_zero() {
    let meta = lll_obs::Provenance::capture().with_seed(3).to_jsonl();
    let path = scratch("torn-meta.jsonl");
    std::fs::write(&path, &meta[..meta.len() / 2]).unwrap();
    let out = run(&["validate", path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("byte offset 0"), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_check_verifies_a_triple() {
    let full_text = checkpointed_stream(1);
    let prefix_path = scratch("rc-prefix.jsonl");
    let full_path = scratch("rc-full.jsonl");
    // The interrupted copy: killed mid-way through the final event line,
    // after the last sidecar.
    std::fs::write(&prefix_path, &full_text[..full_text.len() - 10]).unwrap();
    std::fs::write(&full_path, &full_text).unwrap();
    let out = run(&[
        "resume-check",
        prefix_path.to_str().unwrap(),
        full_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("resume-check OK"), "{}", stdout(&out));

    // A continuation from a different run diverges before the boundary.
    let other = full_text.replace("\"delivered\":2", "\"delivered\":3");
    std::fs::write(&full_path, &other).unwrap();
    let out = run(&[
        "resume-check",
        prefix_path.to_str().unwrap(),
        full_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));

    // A prefix with no checkpoint has nothing to resume from.
    std::fs::write(&prefix_path, valid_stream()).unwrap();
    std::fs::write(&full_path, &full_text).unwrap();
    let out = run(&[
        "resume-check",
        prefix_path.to_str().unwrap(),
        full_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("nothing to resume from"),
        "{}",
        stderr(&out)
    );

    // Usage: exactly two files.
    assert_eq!(exit_code(&run(&["resume-check", "one.jsonl"])), 2);
    std::fs::remove_file(&prefix_path).ok();
    std::fs::remove_file(&full_path).ok();
}
