//! Checkpointed-run driver for the CI resume smoke (DESIGN.md §3.12).
//!
//! ```text
//! ckpt run    --out run.jsonl --n 512 --interval 8 [--threads T] [--kill-after-events K]
//! ckpt resume --out run.jsonl --n 512 --interval 8 [--threads T]
//! ```
//!
//! `run` records the deterministic rank-2 scheduled sweep (the E14
//! workload shape: ring of `n` events, fixed instance and schedule
//! seeds) straight into `--out` with a `#checkpoint` sidecar every
//! `--interval` progress events. The file handle is *unbuffered* on
//! purpose: every event line is durable the moment it is recorded, so
//! `--kill-after-events K` — which calls `std::process::abort()` after
//! the `K`-th event, no destructors, no flush — leaves exactly the
//! prefix a real crash would.
//!
//! `resume` folds the surviving file, truncates it to the last
//! checkpoint's resume offset (dropping the unreplicated tail a crash
//! may have left beyond the sidecar, torn or whole), and continues the
//! run in place. The contract under test: the resumed file is
//! byte-identical to one produced by an uninterrupted `run` — CI
//! enforces that with `cmp` and `obs-report resume-check`.
//!
//! Exit codes: 0 success, 2 usage or I/O error. (`--kill-after-events`
//! aborts, so that path exits via `SIGABRT` by design.)

use std::fs::OpenOptions;
use std::io::{Read as _, Seek, SeekFrom};
use std::process::ExitCode;

use lll_bench::workloads::random_rank2_instance;
use lll_core::dist::{self, DistReport, ResumeCursor, Schedule, Sweep};
use lll_core::Instance;
use lll_graphs::gen::ring;
use lll_obs::replay::RunState;
use lll_obs::{Event, JsonlRecorder, NullTiming, Recorder};

/// Forwards every event to the wrapped recorder, then aborts the
/// process once `remaining` reaches zero — after the inner recorder
/// has durably written the event (and any sidecar it triggered), like
/// a crash landing between two instructions.
struct KillSwitch<'a, R: Recorder> {
    inner: &'a mut R,
    remaining: u64,
}

impl<R: Recorder> Recorder for KillSwitch<'_, R> {
    const ENABLED: bool = R::ENABLED;

    fn record(&mut self, event: &Event) {
        self.inner.record(event);
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            std::process::abort();
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ckpt <run|resume> --out <file.jsonl> [--n N] [--interval I] \
         [--threads T] [--kill-after-events K]"
    );
    ExitCode::from(2)
}

/// The fixed workload both modes reconstruct: same instance and
/// schedule seeds as the `SWEEP` pseudo-experiment, so every
/// invocation with the same `--n` continues the same logical run.
fn workload(n: usize) -> (Instance<f64>, Schedule) {
    let g = ring(n);
    let inst = random_rank2_instance(&g, 8, 0.9, 7);
    let schedule =
        Schedule::edge(inst.dependency_graph(), 5, 1).expect("schedule coloring converges");
    (inst, schedule)
}

fn report_line(mode: &str, report: &DistReport) {
    println!(
        "ckpt {mode}: {} classes, {} rounds, assignment fixed",
        report.num_classes, report.rounds
    );
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(mode) = args.next() else {
        return usage();
    };
    let mut out: Option<String> = None;
    let mut n = 512usize;
    let mut interval = 8u64;
    let mut threads = 1usize;
    let mut kill_after: Option<u64> = None;
    while let Some(arg) = args.next() {
        let mut grab = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let parsed = match arg.as_str() {
            "--out" => grab().map(|v| out = Some(v)),
            "--n" => grab().and_then(|v| v.parse().map(|v| n = v).map_err(|e| format!("--n: {e}"))),
            "--interval" => grab().and_then(|v| {
                v.parse()
                    .map(|v| interval = v)
                    .map_err(|e| format!("--interval: {e}"))
            }),
            "--threads" => grab().and_then(|v| {
                v.parse()
                    .map(|v| threads = v)
                    .map_err(|e| format!("--threads: {e}"))
            }),
            "--kill-after-events" => grab().and_then(|v| {
                v.parse()
                    .map(|v| kill_after = Some(v))
                    .map_err(|e| format!("--kill-after-events: {e}"))
            }),
            _ => Err(format!("unknown argument {arg}")),
        };
        if let Err(e) = parsed {
            eprintln!("ckpt: {e}");
            return usage();
        }
    }
    let Some(out) = out else {
        eprintln!("ckpt: --out is required");
        return usage();
    };
    if interval == 0 || n == 0 || threads == 0 {
        eprintln!("ckpt: --n, --interval and --threads must be positive");
        return usage();
    }
    let (inst, schedule) = workload(n);
    let fresh = Sweep {
        threads,
        ..Sweep::default()
    };
    match mode.as_str() {
        "run" => {
            let file = match OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&out)
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("ckpt: cannot create {out}: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut rec = JsonlRecorder::new(file).checkpoint_every(interval);
            let report = match kill_after {
                Some(k) if k > 0 => {
                    let mut rec = KillSwitch {
                        inner: &mut rec,
                        remaining: k,
                    };
                    dist::run(&inst, &schedule, &fresh, &mut rec, &mut NullTiming)
                }
                _ => dist::run(&inst, &schedule, &fresh, &mut rec, &mut NullTiming),
            };
            match (report, rec.finish()) {
                (Ok(report), Ok(_)) => {
                    report_line("run", &report);
                    ExitCode::SUCCESS
                }
                (Err(e), _) => {
                    eprintln!("ckpt: run failed: {e}");
                    ExitCode::from(2)
                }
                (_, Err(e)) => {
                    eprintln!("ckpt: stream write failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "resume" => {
            let mut file = match OpenOptions::new().read(true).write(true).open(&out) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("ckpt: cannot open {out}: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut text = String::new();
            if let Err(e) = file.read_to_string(&mut text) {
                eprintln!("ckpt: cannot read {out}: {e}");
                return ExitCode::from(2);
            }
            // Tolerate a torn tail: fold what parses; everything past
            // the last durable checkpoint is dropped below anyway.
            let state = match RunState::from_stream(&text) {
                Ok((state, _torn)) => state,
                Err(e) => {
                    eprintln!("ckpt: {out} does not fold: {e}");
                    return ExitCode::from(2);
                }
            };
            let cut = state
                .last_checkpoint()
                .map_or(0, |rp| rp.checkpoint.resume_offset());
            if let Err(e) = file
                .set_len(cut)
                .and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ()))
            {
                eprintln!("ckpt: cannot truncate {out}: {e}");
                return ExitCode::from(2);
            }
            let report = if cut == 0 {
                // Killed before the first checkpoint: nothing durable
                // to resume from, start the run over in place.
                let mut rec = JsonlRecorder::new(file).checkpoint_every(interval);
                let report = dist::run(&inst, &schedule, &fresh, &mut rec, &mut NullTiming);
                (report, rec.finish())
            } else {
                let ck = state.last_checkpoint().expect("cut > 0").checkpoint;
                let Some(cursor) = ResumeCursor::from_run_state(&state) else {
                    eprintln!("ckpt: {out} has a checkpoint its fold cannot seat a cursor on");
                    return ExitCode::from(2);
                };
                let mut rec = JsonlRecorder::resumed(file, interval, &ck);
                let resumed = Sweep {
                    resume: cursor,
                    ..fresh
                };
                let report = dist::run(&inst, &schedule, &resumed, &mut rec, &mut NullTiming);
                (report, rec.finish())
            };
            match report {
                (Ok(report), Ok(_)) => {
                    report_line("resume", &report);
                    ExitCode::SUCCESS
                }
                (Err(e), _) => {
                    eprintln!("ckpt: resume failed: {e}");
                    ExitCode::from(2)
                }
                (_, Err(e)) => {
                    eprintln!("ckpt: stream write failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
