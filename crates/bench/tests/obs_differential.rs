//! Differential tests for the flight recorder.
//!
//! The determinism contract (DESIGN.md §3.7) promises that the event
//! stream after the meta line is a pure function of the workload: the
//! parallel engine must produce the byte-identical JSONL at every
//! thread count, and recording must never perturb what is computed —
//! the `NullRecorder` path is the exact code the unrecorded entry
//! points compile to, and every other recorder only observes.

use lll_bench::experiments::TraceWorkload;
use lll_local::RunOutcome;
use lll_obs::diff::diff_streams;
use lll_obs::schema::validate_stream;
use lll_obs::{
    CounterRecorder, JsonlRecorder, NullRecorder, NullTiming, TimingRecorder, TimingScope,
};

const N: usize = 192;

fn jsonl_at(threads: usize) -> Vec<u8> {
    let mut rec = JsonlRecorder::new(Vec::new());
    TraceWorkload::new(N).record(threads, &mut rec, &mut NullTiming);
    rec.finish().expect("in-memory stream never fails")
}

/// Like [`jsonl_at`] but with a live timing sink attached; returns the
/// event stream and the populated sink.
fn timed_jsonl_at(threads: usize) -> (Vec<u8>, TimingRecorder) {
    let mut rec = JsonlRecorder::new(Vec::new());
    let mut timing = TimingRecorder::new();
    TraceWorkload::new(N).record(threads, &mut rec, &mut timing);
    (rec.finish().expect("in-memory stream never fails"), timing)
}

/// Asserts byte-identity, and on failure bisects to the first divergent
/// event with `lll_obs::diff` so the report names the event index, kind
/// and field instead of dumping two multi-megabyte blobs.
fn assert_streams_identical(a: &[u8], b: &[u8], what: &str) {
    if a == b {
        return;
    }
    let a = String::from_utf8_lossy(a);
    let b = String::from_utf8_lossy(b);
    match diff_streams(&a, &b, 3) {
        Some(d) => panic!("{what}:\n{d}"),
        None => panic!("{what}: streams differ in bytes but not in events (meta/whitespace?)"),
    }
}

fn outcome_fields(o: &RunOutcome<u64>) -> (Vec<u64>, usize, usize, Vec<usize>) {
    (
        o.outputs.clone(),
        o.rounds,
        o.messages,
        o.messages_per_round().to_vec(),
    )
}

#[test]
fn event_stream_is_byte_identical_across_thread_counts() {
    let sequential = jsonl_at(1);
    for threads in [2, 8] {
        assert_streams_identical(
            &jsonl_at(threads),
            &sequential,
            &format!("parallel stream diverged at {threads} threads"),
        );
    }
    let text = String::from_utf8(sequential).expect("stream is utf-8");
    validate_stream(&text).expect("stream passes schema validation");
}

#[test]
fn timing_enabled_stream_is_byte_identical_at_every_thread_count() {
    // The side-band contract (DESIGN.md §3.8): attaching a live timing
    // profiler must not change one byte of the deterministic event
    // stream, at any thread count — wall-clock flows only into the
    // sink's own channel.
    let untimed = jsonl_at(1);
    for threads in [1, 2, 8] {
        let (timed, timing) = timed_jsonl_at(threads);
        assert_streams_identical(
            &timed,
            &untimed,
            &format!("timing-enabled stream diverged at {threads} threads"),
        );
        // The sink did observe the run (so the identity above is not
        // vacuous): one sim_run span per simulator invocation, and
        // round spans for every billed round.
        assert_eq!(timing.scope(TimingScope::SimRun).count(), 2);
        assert!(timing.scope(TimingScope::SimRound).count() > 0);
        // The workload runs the slab engine at every thread count, one
        // worker included, and it reports per-shard occupancy.
        assert!(
            timing.scope(TimingScope::ShardWork).count() > 0,
            "slab engine must report per-shard occupancy at {threads} threads"
        );
        // Timing lines live in their own schema-valid stream.
        validate_stream(&timing.to_jsonl()).expect("timing side-band passes schema validation");
    }
}

#[test]
fn null_recorder_is_a_no_op_on_outcomes() {
    let mut null = NullRecorder;
    let (nl, nr) = TraceWorkload::new(N).record(1, &mut null, &mut NullTiming);
    let mut counter = CounterRecorder::new();
    let (cl, cr) = TraceWorkload::new(N).record(1, &mut counter, &mut NullTiming);
    let mut jsonl = JsonlRecorder::new(Vec::new());
    let (jl, jr) = TraceWorkload::new(N).record(1, &mut jsonl, &mut NullTiming);

    assert_eq!(outcome_fields(&nl), outcome_fields(&cl));
    assert_eq!(outcome_fields(&nr), outcome_fields(&cr));
    assert_eq!(outcome_fields(&nl), outcome_fields(&jl));
    assert_eq!(outcome_fields(&nr), outcome_fields(&jr));
}

#[test]
fn messages_per_round_is_pinned_to_the_recorded_deliveries() {
    let mut counter = CounterRecorder::new();
    let (lin, red) = TraceWorkload::new(N).record(1, &mut counter, &mut NullTiming);

    let mut expected = lin.messages_per_round().to_vec();
    expected.extend_from_slice(red.messages_per_round());
    assert_eq!(counter.deliveries_per_round, expected);
    assert_eq!(
        counter.messages,
        lin.messages + red.messages,
        "round_end deliveries must sum to the billed message totals"
    );
    assert_eq!(counter.sim_runs, 2);
    assert_eq!(counter.rounds, lin.rounds + red.rounds);
}
