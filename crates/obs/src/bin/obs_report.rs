//! `obs-report` — validate, summarize, export, and diff recorded JSONL
//! streams.
//!
//! ```text
//! obs-report [--validate] <file.jsonl>...            summary (legacy form)
//! obs-report summarize [--validate] [--json] [--by-request] <file.jsonl>...
//! obs-report validate [--stats] <file.jsonl>...      schema + fold check
//! obs-report series --out <dir> <file.jsonl>...      per-round/halt/step CSVs
//! obs-report diff [--context K] <a.jsonl> <b.jsonl>  first-divergence triage
//! obs-report resume-check <prefix.jsonl> <full.jsonl>  verify a resume triple
//! obs-report tail [--interval-ms N] [--idle-exit-ms N] <file.jsonl>
//! ```
//!
//! `summarize --json` prints one machine-readable JSON object per input
//! file instead of the human summary; `--by-request` appends the
//! per-`req` correlation-tag section (schema v2 streams). `tail`
//! follows a growing file, folding complete lines incrementally and
//! reprinting the live summary; `--idle-exit-ms N` makes it exit once
//! the file has been quiet for `N` ms (useful in scripts and tests).
//!
//! Every mode but `diff` reads each input once, in bounded memory,
//! through the one [`StreamReader`] loop, which decodes each line once
//! for all the folds a mode runs; `diff` compares raw lines. A line that
//! does not decode is a schema violation in every mode, and the reader's
//! torn-tail rule gives every mode one verdict per file: an unterminated
//! final line that does not decode, or an unterminated sidecar, is
//! reported as *truncated* — with the byte offset where the durable
//! prefix ends — after everything before it was processed.
//!
//! `validate` folds each line through the schema validator *and* the
//! checkpoint-aware [`RunState`] fold (which verifies every sidecar's
//! counters and digest against the events before it); `--stats` prints
//! one awk-friendly `key=value` line per file. `resume-check` verifies a
//! (prefix, checkpoint, continuation) triple offline: the interrupted
//! file's durable prefix must reach a checkpoint, and the continued
//! stream must extend that prefix byte-for-byte through it (DESIGN.md
//! §3.12).
//!
//! # Exit codes (the contract CI relies on)
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | success (for `diff`: streams identical after `meta`)       |
//! | 1    | schema violation / malformed line (for `diff`: divergence) |
//! | 2    | I/O error (unreadable file, usage error)                   |
//! | 3    | truncated final line (crashed producer; rest was processed)|
//!
//! When several inputs fail differently, the first failure's code wins.
//! The codes are pinned by `crates/obs/tests/cli.rs`.

use lll_obs::diff::first_divergence;
use lll_obs::replay::{Replay, RunState};
use lll_obs::report::Summary;
use lll_obs::schema::{Line, Record, Stop, StreamReader, StreamValidator};
use lll_obs::Provenance;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::ExitCode;

/// Success.
const EXIT_OK: u8 = 0;
/// Schema violation, malformed line, or (for `diff`) a divergence.
const EXIT_SCHEMA: u8 = 1;
/// I/O or usage error.
const EXIT_IO: u8 = 2;
/// Truncated final line: the producer crashed mid-write.
const EXIT_TRUNCATED: u8 = 3;

const USAGE: &str = "usage: obs-report [--validate] <file.jsonl>...
       obs-report summarize [--validate] [--json] [--by-request] <file.jsonl>...
       obs-report validate [--stats] <file.jsonl>...
       obs-report series --out <dir> <file.jsonl>...
       obs-report diff [--context K] <a.jsonl> <b.jsonl>
       obs-report resume-check <prefix.jsonl> <full.jsonl>
       obs-report tail [--interval-ms N] [--idle-exit-ms N] <file.jsonl>
exit codes: 0 ok; 1 schema violation (diff: divergent); 2 I/O error; 3 truncated stream";

/// First-failure-wins exit code accumulator.
struct Exit(u8);

impl Exit {
    fn set(&mut self, code: u8) {
        if self.0 == EXIT_OK {
            self.0 = code;
        }
    }
}

/// Reads `path` through the one stream reader into `fold` and reports
/// how it ended: [`EXIT_OK`], [`EXIT_SCHEMA`] for a line that does not
/// decode or that `fold` rejects, [`EXIT_IO`] for a read error, and
/// [`EXIT_TRUNCATED`] for a torn final line — with a warning naming the
/// byte offset where the durable prefix ends; earlier lines are still
/// folded.
fn read_file(path: &str, fold: impl FnMut(&Record<'_>) -> Result<(), String>) -> u8 {
    match File::open(path) {
        Ok(file) => exit_code(
            path,
            StreamReader::default().read(BufReader::new(file), fold),
        ),
        Err(e) => {
            eprintln!("obs-report: {path}: {e}");
            EXIT_IO
        }
    }
}

/// The exit code of one read, reporting a failure on stderr.
fn exit_code(path: &str, read: Result<(), Stop>) -> u8 {
    match read {
        Ok(()) => EXIT_OK,
        Err(Stop::Torn { lineno, offset }) => {
            eprintln!(
                "obs-report: {path}: warning: line {lineno} is truncated at byte offset \
                 {offset} (crashed producer?); {} complete line(s) / {offset} byte(s) were \
                 processed",
                lineno - 1
            );
            EXIT_TRUNCATED
        }
        Err(e) => {
            eprintln!("obs-report: {path}: {e}");
            if matches!(e, Stop::Io(_)) {
                EXIT_IO
            } else {
                EXIT_SCHEMA
            }
        }
    }
}

/// Prints the human summary, with the per-request section on request.
fn print_summary(summary: &Summary, by_request: bool) {
    print!("{summary}");
    if by_request {
        let mut section = String::new();
        summary
            .write_by_request(&mut section)
            .expect("String sink never fails");
        print!("{section}");
    }
}

/// The summarize mode (also the legacy no-subcommand form): streaming
/// validation (optional) + streaming summary per input file.
fn run_summarize(a: &Args) -> u8 {
    let (json, by_request) = (a.has("--json"), a.has("--by-request"));
    let mut exit = Exit(EXIT_OK);
    for path in &a.paths {
        let mut validator = a.has("--validate").then(StreamValidator::new);
        let mut summary = Summary::default();
        let mut code = read_file(path, |rec| {
            if let Some(v) = validator.as_mut() {
                v.check(rec)?;
            }
            summary.fold(rec);
            Ok(())
        });
        if code == EXIT_OK {
            if let Some(v) = validator.take() {
                match v.finish() {
                    Ok(lines) => {
                        if !json {
                            println!("{path}: schema OK ({lines} lines)");
                        }
                    }
                    Err(e) => {
                        eprintln!("obs-report: {path}: schema violation: {e}");
                        code = EXIT_SCHEMA;
                    }
                }
            }
        }
        if code == EXIT_OK || code == EXIT_TRUNCATED {
            if json {
                let mut obj = match summary.to_json() {
                    serde::Value::Object(fields) => fields,
                    _ => unreachable!("Summary::to_json returns an object"),
                };
                obj.insert(0, ("file".to_owned(), serde::Value::String(path.clone())));
                match serde_json::to_string(&serde::Value::Object(obj)) {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        eprintln!("obs-report: {path}: cannot encode summary: {e}");
                        code = EXIT_IO;
                    }
                }
            } else {
                println!("== {path} ==");
                print_summary(&summary, by_request);
            }
        }
        exit.set(code);
    }
    exit.0
}

/// The tail mode: follow a growing JSONL file, folding complete lines
/// incrementally and reprinting the summary whenever new data arrives.
/// A torn final line is held back until the producer finishes it. With
/// `--idle-exit-ms N`, exits once the file has been quiet for `N` ms —
/// code 0 normally, 3 if a torn final line is still pending (crashed
/// producer).
fn run_tail(path: &str, interval_ms: u64, idle_exit_ms: Option<u64>, by_request: bool) -> u8 {
    use std::io::{Seek, SeekFrom};
    let Ok(mut file) = File::open(path).map_err(|e| eprintln!("obs-report: {path}: {e}")) else {
        return EXIT_IO;
    };
    let mut summary = Summary::default();
    let mut reader = StreamReader::default();
    let mut idle = std::time::Duration::ZERO;
    let interval = std::time::Duration::from_millis(interval_ms.max(1));
    loop {
        if let Err(e) = file.seek(SeekFrom::Start(reader.offset())) {
            eprintln!("obs-report: {path}: seek: {e}");
            return EXIT_IO;
        }
        let mut folded = 0usize;
        let read = reader.read(BufReader::new(&mut file), |rec| {
            folded += usize::from(rec.line != Line::Blank);
            summary.fold(rec);
            Ok(())
        });
        let pending = match read {
            Ok(()) => false,
            Err(Stop::Torn { .. }) => true,
            Err(e) => return exit_code(path, Err(e)),
        };
        if folded > 0 {
            idle = std::time::Duration::ZERO;
            println!("== tail {path} ({} lines) ==", summary.lines);
            print_summary(&summary, by_request);
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        } else {
            idle += interval;
            if let Some(limit) = idle_exit_ms {
                if idle >= std::time::Duration::from_millis(limit) {
                    if !pending {
                        return EXIT_OK;
                    }
                    eprintln!(
                        "obs-report: {path}: warning: unfinished final line after idle \
                         timeout (crashed producer?)"
                    );
                    return EXIT_TRUNCATED;
                }
            }
        }
        std::thread::sleep(interval);
    }
}

/// The series mode: fold each input with [`Replay`] and write the three
/// provenance-stamped CSV series next to `--out`.
fn run_series(out_dir: &Path, paths: &[String]) -> u8 {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("obs-report: {}: {e}", out_dir.display());
        return EXIT_IO;
    }
    let prov = Provenance::capture().csv_comment();
    let mut exit = Exit(EXIT_OK);
    for path in paths {
        let mut replay = Replay::new();
        let code = read_file(path, |rec| {
            replay.fold(rec);
            Ok(())
        });
        exit.set(code);
        if code != EXIT_OK && code != EXIT_TRUNCATED {
            continue;
        }
        let stem = Path::new(path).file_stem().map_or_else(
            || "stream".to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        for (suffix, body) in [
            ("rounds", replay.rounds_csv(&prov)),
            ("halts", replay.halts_csv(&prov)),
            ("steps", replay.steps_csv(&prov)),
        ] {
            let target = out_dir.join(format!("{stem}_{suffix}.csv"));
            if let Err(e) = std::fs::write(&target, body) {
                eprintln!("obs-report: {}: {e}", target.display());
                exit.set(EXIT_IO);
                continue;
            }
            println!("(wrote {})", target.display());
        }
    }
    exit.0
}

/// The diff mode: bisect two streams to their first divergent event.
fn run_diff(context: usize, a_path: &str, b_path: &str) -> u8 {
    let open = |p: &str| {
        File::open(p)
            .map(BufReader::new)
            .map_err(|e| eprintln!("obs-report: {p}: {e}"))
    };
    let (Ok(a), Ok(b)) = (open(a_path), open(b_path)) else {
        return EXIT_IO;
    };
    // map_while(Result::ok) treats a mid-stream read error as stream end;
    // that still yields a correct "diverges at index i" for the triage
    // use case, and open errors (the common I/O failure) were classified
    // above.
    let div = first_divergence(
        a.lines().map_while(Result::ok),
        b.lines().map_while(Result::ok),
        context,
    );
    match div {
        None => {
            println!("{a_path} and {b_path}: identical event streams");
            EXIT_OK
        }
        Some(d) => {
            println!("== diff {a_path} {b_path} ==");
            print!("{d}");
            EXIT_SCHEMA
        }
    }
}

/// Folds `path` through the checkpoint-aware [`RunState`] fold; returns
/// the state and the exit code of the read.
fn fold_run_state(path: &str) -> (RunState, u8) {
    let mut state = RunState::new();
    let code = read_file(path, |rec| state.fold(rec));
    (state, code)
}

/// The validate mode: one read per file through the schema validator
/// and the checkpoint-aware `RunState` fold (which verifies every
/// `#checkpoint ` sidecar against the events before it). With
/// `--stats`, prints one awk-friendly `key=value` line per file;
/// `last_checkpoint_round` is `-1` when the stream carries no
/// checkpoint.
fn run_validate(stats: bool, paths: &[String]) -> u8 {
    let mut exit = Exit(EXIT_OK);
    for path in paths {
        let mut validator = StreamValidator::new();
        let mut state = RunState::new();
        let mut code = read_file(path, |rec| {
            validator.check(rec)?;
            state.fold(rec)
        });
        if code == EXIT_OK {
            if let Err(e) = validator.finish() {
                eprintln!("obs-report: {path}: schema violation: {e}");
                code = EXIT_SCHEMA;
            }
        }
        if code == EXIT_OK || code == EXIT_TRUNCATED {
            if stats {
                let last_ck_round = state
                    .last_checkpoint()
                    .map_or(-1i64, |rp| rp.checkpoint.round as i64);
                println!(
                    "{path}: events={} bytes={} rounds={} steps={} sim_runs={} \
                     fix_runs={} audits={} checkpoints={} last_checkpoint_round={} \
                     digest={:016x} torn={}",
                    state.events(),
                    state.bytes(),
                    state.rounds(),
                    state.steps().len(),
                    state.sim_runs(),
                    state.fix_runs(),
                    state.audits(),
                    u64::from(state.last_checkpoint().is_some()),
                    last_ck_round,
                    state.digest(),
                    u64::from(code == EXIT_TRUNCATED),
                );
            } else {
                println!(
                    "{path}: schema OK ({} event(s), {} byte(s))",
                    state.events(),
                    state.bytes()
                );
            }
        }
        exit.set(code);
    }
    exit.0
}

/// Byte-compares the first `limit` bytes of two files in bounded
/// memory. Returns the offset of the first mismatch, if any.
fn compare_prefix(a_path: &str, b_path: &str, limit: u64) -> Result<Option<u64>, String> {
    fn bytes(
        path: &str,
        limit: u64,
    ) -> Result<impl Iterator<Item = Result<u8, String>> + '_, String> {
        use std::io::Read;
        let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let bytes = BufReader::new(file).take(limit).bytes();
        Ok(bytes.map(move |b| b.map_err(|e| format!("{path}: {e}"))))
    }
    let (mut a, mut b) = (bytes(a_path, limit)?, bytes(b_path, limit)?);
    for offset in 0..limit {
        match (a.next().transpose()?, b.next().transpose()?) {
            (Some(x), Some(y)) if x == y => {}
            (None, None) => {
                return Err(format!(
                    "both files end at byte {offset}, before the checkpoint boundary {limit}"
                ))
            }
            _ => return Ok(Some(offset)),
        }
    }
    Ok(None)
}

/// The resume-check mode: verifies a (prefix, checkpoint, continuation)
/// triple offline. `prefix` is the interrupted run's stream (its torn
/// tail, if any, is ignored past the last checkpoint); `full` is the
/// continued (or reference) stream from the same recorder lineage.
///
/// Checks: the prefix's durable part reaches a `#checkpoint ` sidecar
/// whose counters and digest the fold verified; the full stream is
/// complete (no torn tail) and folds clean — re-verifying that same
/// sidecar against its own events; and the two files are byte-identical
/// through the checkpoint boundary, so the continuation really extends
/// the checkpointed prefix rather than some other run.
fn run_resume_check(prefix_path: &str, full_path: &str) -> u8 {
    let (prefix_state, prefix_code) = fold_run_state(prefix_path);
    if prefix_code != EXIT_OK && prefix_code != EXIT_TRUNCATED {
        return prefix_code;
    }
    let Some(rp) = prefix_state.last_checkpoint().copied() else {
        eprintln!(
            "obs-report: {prefix_path}: no #checkpoint sidecar in the durable prefix \
             ({} byte(s)); nothing to resume from",
            prefix_state.bytes()
        );
        return EXIT_SCHEMA;
    };
    let (full_state, full_code) = fold_run_state(full_path);
    if full_code != EXIT_OK {
        if full_code == EXIT_TRUNCATED {
            eprintln!("obs-report: {full_path}: continued stream is itself truncated");
        }
        return full_code;
    }
    let boundary = rp.checkpoint.resume_offset();
    if full_state.bytes() < boundary {
        eprintln!(
            "obs-report: {full_path}: continued stream ends at byte {} — before the \
             checkpoint boundary {boundary}",
            full_state.bytes()
        );
        return EXIT_SCHEMA;
    }
    match compare_prefix(prefix_path, full_path, boundary) {
        Ok(None) => {}
        Ok(Some(at)) => {
            eprintln!(
                "obs-report: resume-check: {prefix_path} and {full_path} diverge at byte \
                 {at}, before the checkpoint boundary {boundary} — the continuation does \
                 not extend the checkpointed prefix"
            );
            return EXIT_SCHEMA;
        }
        Err(e) => {
            eprintln!("obs-report: resume-check: {e}");
            return EXIT_IO;
        }
    }
    println!(
        "resume-check OK: checkpoint at {} verified; continuation adds {} event(s) / {} \
         byte(s) beyond it ({} step(s), {} round(s) total)",
        rp.checkpoint,
        full_state.events() - rp.checkpoint.events,
        full_state.bytes() - boundary,
        full_state.steps().len(),
        full_state.rounds(),
    );
    EXIT_OK
}

/// One subcommand's arguments: its boolean flags that are present, the
/// value of each of its `--option value` pairs, and every other argument
/// as an input path.
#[derive(Default)]
struct Args {
    flags: Vec<String>,
    options: Vec<(String, String)>,
    paths: Vec<String>,
}

impl Args {
    /// Splits `args` by the subcommand's `flags` and `options`; `None`
    /// when an option lacks its value.
    fn parse(args: &[String], flags: &[&str], options: &[&str]) -> Option<Args> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if flags.contains(&a.as_str()) {
                out.flags.push(a.clone());
            } else if options.contains(&a.as_str()) {
                out.options.push((a.clone(), it.next()?.clone()));
            } else {
                out.paths.push(a.clone());
            }
        }
        Some(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The last value given for `option` (`Some(None)` when absent);
    /// `None` when it does not parse.
    fn value<T: std::str::FromStr>(&self, option: &str) -> Option<Option<T>> {
        match self.options.iter().rev().find(|(o, _)| o == option) {
            Some((_, v)) => v.parse().ok().map(Some),
            None => Some(None),
        }
    }
}

/// Runs `command` (`""` for the legacy summary form); `None` on a usage
/// error.
fn run(command: &str, a: &Args) -> Option<u8> {
    let paths = &a.paths;
    Some(match command {
        "summarize" | "" if !paths.is_empty() => run_summarize(a),
        "validate" if !paths.is_empty() => run_validate(a.has("--stats"), paths),
        "series" if !paths.is_empty() => {
            run_series(Path::new(&a.value::<String>("--out")??), paths)
        }
        "tail" if paths.len() == 1 => run_tail(
            &paths[0],
            a.value("--interval-ms")?.unwrap_or(200),
            a.value("--idle-exit-ms")?,
            a.has("--by-request"),
        ),
        "diff" if paths.len() == 2 => {
            run_diff(a.value("--context")?.unwrap_or(3), &paths[0], &paths[1])
        }
        "resume-check" if paths.len() == 2 => run_resume_check(&paths[0], &paths[1]),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("summarize" | "validate" | "series" | "tail" | "diff" | "resume-check")) => {
            (c, &args[1..])
        }
        _ => ("", &args[..]),
    };
    let (flags, options): (&[&str], &[&str]) = match command {
        "summarize" => (&["--validate", "--json", "--by-request"], &[]),
        "validate" => (&["--stats"], &[]),
        "series" => (&[], &["--out"]),
        "tail" => (&["--by-request"], &["--interval-ms", "--idle-exit-ms"]),
        "diff" => (&[], &["--context"]),
        "resume-check" => (&[], &[]),
        _ => (&["--validate"], &[]),
    };
    let code = Args::parse(rest, flags, options)
        .and_then(|a| run(command, &a))
        .unwrap_or_else(|| {
            eprintln!("obs-report: missing or malformed arguments\n{USAGE}");
            EXIT_IO
        });
    ExitCode::from(code)
}
