//! Differential battery for checkpoint/resume (DESIGN.md §3.12).
//!
//! The resume contract promises that a run killed at an arbitrary
//! checkpoint and resumed from its `#checkpoint` sidecar is
//! indistinguishable from a run that was never interrupted: the
//! concatenation of the surviving prefix and the resumed continuation
//! is byte-identical to the uninterrupted stream, and the final
//! assignment/report are equal — at every worker count, with auditing
//! off or on. This battery drives the kill-at-checkpoint-k ×
//! t ∈ {1, 2, 8} × {plain, recorded, audited} grid over the E14-shaped
//! workloads (random rank-2 and rank-3 instances, not the hand-built
//! unit-test rings) and, on divergence, triages with `lll_obs::diff`
//! so the failure names the first divergent event instead of dumping
//! two streams.

use lll_bench::workloads::{random_rank2_instance, random_rank3_instance};
use lll_core::dist::{self, DistReport, ResumeCursor, Schedule, Sweep};
use lll_core::Instance;
use lll_graphs::gen::{hyper_ring, ring};
use lll_obs::diff::diff_streams;
use lll_obs::replay::RunState;
use lll_obs::{Checkpoint, JsonlRecorder, NullRecorder, NullTiming, Recorder, CHECKPOINT_PREFIX};

const THREADS: [usize; 3] = [1, 2, 8];

/// Every `#checkpoint` sidecar of a recorded stream, in order.
fn checkpoints_in(bytes: &[u8]) -> Vec<Checkpoint> {
    std::str::from_utf8(bytes)
        .expect("stream is utf-8")
        .lines()
        .filter(|l| l.starts_with(CHECKPOINT_PREFIX))
        .map(|l| Checkpoint::parse(l).expect("recorder writes valid sidecars"))
        .collect()
}

/// Folds the surviving prefix back into run state, asserting the cut
/// is clean (a prefix ending right after a sidecar is never torn).
fn fold_prefix(prefix: &[u8]) -> RunState {
    let (state, torn) = RunState::from_stream(std::str::from_utf8(prefix).expect("utf-8"))
        .expect("checkpoint prefix folds cleanly");
    assert!(torn.is_none(), "prefix cut at a checkpoint is never torn");
    state
}

/// Asserts byte-identity of `(prefix + continuation)` against the
/// uninterrupted stream; on failure bisects to the first divergent
/// event with `lll_obs::diff` so the report names the event index,
/// kind and field.
fn assert_rejoined(prefix: &[u8], tail: &[u8], full: &[u8], what: &str) {
    let mut joined = prefix.to_vec();
    joined.extend_from_slice(tail);
    if joined == full {
        return;
    }
    let joined = String::from_utf8_lossy(&joined).into_owned();
    let full = String::from_utf8_lossy(full).into_owned();
    match diff_streams(&joined, &full, 3) {
        Some(d) => panic!("{what}:\n{d}"),
        None => panic!("{what}: streams differ in bytes but not in events (sidecar/meta bytes?)"),
    }
}

fn assert_reports_agree(resumed: &DistReport, full: &DistReport, what: &str) {
    assert_eq!(
        resumed.fix.assignment(),
        full.fix.assignment(),
        "{what}: final assignment diverged"
    );
    assert_eq!(resumed.rounds, full.rounds, "{what}: rounds diverged");
    assert_eq!(
        resumed.num_classes, full.num_classes,
        "{what}: class count diverged"
    );
}

/// An enforced sweep along `schedule` on `threads` workers, audited
/// against `audit` when given, resumed from `resume`, recorded into `rec`.
fn sweep<R: Recorder>(
    inst: &Instance<f64>,
    schedule: &Schedule,
    threads: usize,
    audit: Option<(&f64, &f64)>,
    resume: ResumeCursor<'_>,
    rec: &mut R,
) -> DistReport {
    let sweep = Sweep {
        threads,
        audit,
        resume,
        ..Sweep::default()
    };
    dist::run(inst, schedule, &sweep, rec, &mut NullTiming).expect("below threshold")
}

/// `plain` mode: the continuation runs with no recorder at all — the
/// durable prefix is only consulted for the cursor, and what must
/// survive the kill is the *computation*, pinned by the final report.
#[test]
fn plain_resume_recovers_the_uninterrupted_report() {
    let interval = 4;
    let g = ring(96);
    let inst = random_rank2_instance(&g, 8, 0.9, 7);
    let schedule = Schedule::edge(inst.dependency_graph(), 5, 1).expect("coloring converges");
    let fresh = ResumeCursor::default();
    let full = sweep(&inst, &schedule, 1, None, fresh, &mut NullRecorder);
    let mut rec = JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
    sweep(&inst, &schedule, 1, None, fresh, &mut rec);
    let bytes = rec.finish().expect("in-memory writer never fails");
    let checkpoints = checkpoints_in(&bytes);
    assert!(
        checkpoints.len() >= 3,
        "want a kill grid, got {checkpoints:?}"
    );
    for (k, ck) in checkpoints.iter().enumerate() {
        let prefix = &bytes[..ck.resume_offset() as usize];
        let state = fold_prefix(prefix);
        let cursor = ResumeCursor::from_run_state(&state).expect("prefix has a checkpoint");
        for t in THREADS {
            let resumed = sweep(&inst, &schedule, t, None, cursor, &mut NullRecorder);
            assert_reports_agree(
                &resumed,
                &full,
                &format!(
                    "plain kill at checkpoint {k} (step {}), threads {t}",
                    ck.step
                ),
            );
        }
    }
}

/// `recorded` mode: the continuation streams into a resumed recorder
/// and the rejoined stream must equal the uninterrupted one byte for
/// byte, for a kill at *every* checkpoint and every thread count.
#[test]
fn recorded_resume_rejoins_byte_for_byte() {
    let interval = 4;
    let g = ring(96);
    let inst2 = random_rank2_instance(&g, 8, 0.9, 7);
    let sched2 = Schedule::edge(inst2.dependency_graph(), 5, 1).expect("coloring converges");
    let mut rec = JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
    let full2 = sweep(&inst2, &sched2, 1, None, ResumeCursor::default(), &mut rec);
    let bytes2 = rec.finish().expect("in-memory writer never fails");

    let h = hyper_ring(48);
    let inst3 = random_rank3_instance(&h, 8, 0.9, 7);
    let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).expect("coloring converges");
    let mut rec = JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
    let full3 = sweep(&inst3, &sched3, 1, None, ResumeCursor::default(), &mut rec);
    let bytes3 = rec.finish().expect("in-memory writer never fails");

    for (rank2, inst, schedule, bytes, full) in [
        (true, &inst2, &sched2, &bytes2, &full2),
        (false, &inst3, &sched3, &bytes3, &full3),
    ] {
        let checkpoints = checkpoints_in(bytes);
        assert!(
            checkpoints.len() >= 3,
            "want a kill grid, got {checkpoints:?}"
        );
        for (k, ck) in checkpoints.iter().enumerate() {
            let prefix = &bytes[..ck.resume_offset() as usize];
            let state = fold_prefix(prefix);
            let cursor = ResumeCursor::from_run_state(&state).expect("prefix has a checkpoint");
            for t in THREADS {
                let mut tail = JsonlRecorder::resumed(Vec::new(), interval, ck);
                let resumed = sweep(inst, schedule, t, None, cursor, &mut tail);
                let fixer = if rank2 { "fixer2" } else { "fixer3" };
                assert_rejoined(
                    prefix,
                    &tail.finish().expect("in-memory writer never fails"),
                    bytes,
                    &format!(
                        "{fixer} kill at checkpoint {k} (step {}), threads {t}",
                        ck.step
                    ),
                );
                assert_reports_agree(
                    &resumed,
                    full,
                    &format!("{fixer} checkpoint {k}, threads {t}"),
                );
            }
        }
    }
}

/// `audited` mode: the kill grid over an audited run, rank 2 on an edge
/// schedule and rank 3 on a distance-2 schedule. Interval 1 puts a
/// sidecar after every fixing step, which forces the hardest boundary:
/// a prefix ending exactly at a class boundary with that class's audit
/// event still owed — the resumed run must emit the owed verdict before
/// continuing.
#[test]
fn audited_resume_rebuilds_verdicts_byte_for_byte() {
    let g = ring(64);
    let inst2 = random_rank2_instance(&g, 8, 0.9, 7);
    let sched2 = Schedule::edge(inst2.dependency_graph(), 5, 1).expect("coloring converges");
    let h = hyper_ring(48);
    let inst3 = random_rank3_instance(&h, 8, 0.9, 7);
    let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).expect("coloring converges");
    for (fixer, inst, schedule) in [("fixer2", &inst2, &sched2), ("fixer3", &inst3, &sched3)] {
        let p = inst.max_event_probability();
        let audit = Some((&p, &1e-9));
        let mut rec = JsonlRecorder::new(Vec::new()).checkpoint_every(1);
        let full = sweep(inst, schedule, 1, audit, ResumeCursor::default(), &mut rec);
        let bytes = rec.finish().expect("in-memory writer never fails");
        let checkpoints = checkpoints_in(&bytes);
        assert!(
            checkpoints.len() >= 3,
            "want a kill grid, got {checkpoints:?}"
        );
        for (k, ck) in checkpoints.iter().enumerate() {
            let prefix = &bytes[..ck.resume_offset() as usize];
            let state = fold_prefix(prefix);
            let cursor = ResumeCursor::from_run_state(&state).expect("prefix has a checkpoint");
            for t in THREADS {
                let mut tail = JsonlRecorder::resumed(Vec::new(), 1, ck);
                let resumed = sweep(inst, schedule, t, audit, cursor, &mut tail);
                assert_rejoined(
                    prefix,
                    &tail.finish().expect("in-memory writer never fails"),
                    &bytes,
                    &format!(
                        "audited {fixer} kill at checkpoint {k} (step {}), threads {t}",
                        ck.step
                    ),
                );
                assert_reports_agree(
                    &resumed,
                    &full,
                    &format!("audited {fixer} checkpoint {k}, threads {t}"),
                );
            }
        }
    }
}
