//! Differential battery for the color-class-parallel fixing sweep: the
//! `threads` knob on the distributed fixer drivers must change nothing
//! observable — not the assignment, not the round/class bill, not a
//! single byte of the recorded `--obs` stream, and not the audit
//! verdict — at any worker count, on any topology.
//!
//! Coverage: rank-2 instances on rings, a torus and a random regular
//! graph (edge variables, node events); rank-3 instances on hyper-rings
//! and random 3-uniform hypergraphs (hyperedge variables, node events).
//! Each family runs through `dist::run` plain, recorded (byte-identity
//! via in-memory `JsonlRecorder<Vec<u8>>` streams), and audited
//! (verdicts — including the exact `PStarViolated` error under an
//! impossible bound — must match the sequential ones). One rank-2 and
//! one rank-3 family also run exactly on `BigRational`, audited with
//! zero tolerance, recorded and byte-compared. The sequential
//! fixers' audited `run_with` is also held to the same stream with and
//! without a timing sink.
//!
//! Worker counts default to `{1, 2, 3, 8}`; CI overrides the list via
//! `LLL_DIFF_THREADS` (comma-separated) to pin a single count per job.

use std::env;

use sharp_lll::core::dist::{self, DistError, DistReport, Schedule, ScheduleKind, Sweep};
use sharp_lll::core::{FixReport, Fixer2, Fixer3, Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, random_3_uniform, random_regular, ring, torus};
use sharp_lll::graphs::{Graph, Hypergraph};
use sharp_lll::numeric::{BigRational, Num};
use sharp_lll::obs::{
    JsonlRecorder, NullRecorder, NullTiming, Recorder, TimingRecorder, TimingScope,
};

/// Worker counts to exercise; `LLL_DIFF_THREADS=2` (or `1,2,3,8`, …)
/// overrides, so CI can run the battery once per pinned count.
fn thread_counts() -> Vec<usize> {
    match env::var("LLL_DIFF_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("LLL_DIFF_THREADS is a comma-separated list of positive integers")
            })
            .collect(),
        Err(_) => vec![1, 2, 3, 8],
    }
}

/// Rank-2 instance on an arbitrary graph: one `k`-valued variable per
/// edge affecting its two endpoint events; the bad event at a node is
/// "every incident edge drew 0" (probability `k^-deg`, so `k = 3`
/// stays below `2^-d` up to degree 4).
fn rank2_instance<T: Num>(g: &Graph, k: usize) -> Instance<T> {
    let n = g.num_nodes();
    let mut b = InstanceBuilder::<T>::new(n);
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in g.edges() {
        let x = b.add_uniform_variable(&[u, v], k);
        incident[u].push(x);
        incident[v].push(x);
    }
    for (node, vars) in incident.into_iter().enumerate() {
        assert!(!vars.is_empty(), "battery graphs have no isolated nodes");
        b.set_event_predicate(node, move |vals| vars.iter().all(|&x| vals[x] == 0));
    }
    b.build().expect("valid instance")
}

/// Rank-3 instance on a 3-uniform hypergraph: one `k`-valued variable
/// per hyperedge affecting its nodes; the bad event at a node is
/// "every incident hyperedge drew 0" (probability `k^-deg`).
fn rank3_instance<T: Num>(h: &Hypergraph, k: usize) -> Instance<T> {
    let n = h.num_nodes();
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..h.num_edges())
        .map(|e| b.add_uniform_variable(h.edge(e).nodes(), k))
        .collect();
    for node in 0..n {
        let incident: Vec<usize> = h.incident(node).iter().map(|&e| vars[e]).collect();
        assert!(
            !incident.is_empty(),
            "battery hypergraphs have no isolated nodes"
        );
        b.set_event_predicate(node, move |vals| incident.iter().all(|&x| vals[x] == 0));
    }
    b.build().expect("valid instance")
}

/// The battery, tagged for failure messages: rank-2 families swept by
/// an edge schedule, rank-3 families by a distance-2 schedule.
fn families() -> Vec<(String, ScheduleKind, Instance<f64>)> {
    let edge = |name: &str, g: &Graph| {
        let tag = format!("fixer2 on {name}");
        (tag, ScheduleKind::Edge, rank2_instance(g, 3))
    };
    let node = |name: &str, h: &Hypergraph, k| {
        let tag = format!("fixer3 on {name}");
        (tag, ScheduleKind::Distance2, rank3_instance(h, k))
    };
    vec![
        edge("ring(64)", &ring(64)),
        edge("ring(7)", &ring(7)),
        edge("torus(6x8)", &torus(6, 8)),
        edge(
            "4-regular(48)",
            &random_regular(48, 4, 11).expect("generator succeeds"),
        ),
        node("hyper_ring(48)", &hyper_ring(48), 3),
        node("hyper_ring(9)", &hyper_ring(9), 3),
        node(
            "3-uniform(45,deg3)",
            &random_3_uniform(45, 3, 9).expect("generator succeeds"),
            5,
        ),
    ]
}

/// The first family swept by a `kind` schedule.
fn first(kind: ScheduleKind) -> (String, Instance<f64>) {
    let (tag, _, inst) = families()
        .into_iter()
        .find(|f| f.1 == kind)
        .expect("the battery has both kinds");
    (tag, inst)
}

fn assert_reports_agree(tag: &str, threads: usize, seq: &DistReport, par: &DistReport) {
    assert_eq!(seq.rounds, par.rounds, "{tag} rounds at {threads} threads");
    assert_eq!(
        seq.coloring_rounds, par.coloring_rounds,
        "{tag} coloring rounds at {threads} threads"
    );
    assert_eq!(
        seq.num_classes, par.num_classes,
        "{tag} classes at {threads} threads"
    );
    assert_eq!(
        seq.fix.num_steps(),
        par.fix.num_steps(),
        "{tag} steps at {threads} threads"
    );
    assert_eq!(
        seq.fix.assignment(),
        par.fix.assignment(),
        "{tag} assignment at {threads} threads"
    );
}

/// Byte-compares two in-memory recorded streams; on divergence the
/// panic message carries the `obs::diff` first-divergence triage
/// (event index, kind, field-level delta, context), not just a length.
fn assert_streams_identical(tag: &str, threads: usize, seq: &[u8], par: &[u8]) {
    if seq == par {
        return;
    }
    let seq = std::str::from_utf8(seq).expect("stream is utf-8");
    let par = std::str::from_utf8(par).expect("stream is utf-8");
    let triage = match sharp_lll::obs::diff::diff_streams(seq, par, 3) {
        Some(d) => d.to_string(),
        None => "streams differ only in bytes outside any event line".to_string(),
    };
    panic!("{tag}: recorded sweep diverges at {threads} threads\n{triage}");
}

fn record<R>(run: impl FnOnce(&mut JsonlRecorder<Vec<u8>>) -> R) -> (R, Vec<u8>) {
    let mut rec = JsonlRecorder::new(Vec::new());
    let out = run(&mut rec);
    (out, rec.finish().expect("in-memory stream never fails"))
}

/// One seeded, enforced solve with the `kind` schedule colored on
/// `threads` simulator workers and swept on as many, audited against
/// `audit` when given, recorded into `rec`.
fn solve<T: Num, R: Recorder>(
    inst: &Instance<T>,
    kind: ScheduleKind,
    seed: u64,
    threads: usize,
    audit: Option<(&T, &T)>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let g = inst.dependency_graph();
    let schedule = match kind {
        ScheduleKind::Edge => Schedule::edge(g, seed, threads),
        ScheduleKind::Distance2 => Schedule::distance2(g, seed, threads),
    }?;
    let sweep = Sweep {
        threads,
        audit,
        ..Sweep::default()
    };
    dist::run(inst, &schedule, &sweep, rec, &mut NullTiming)
}

#[test]
fn plain_sweeps_match_reference() {
    for (tag, kind, inst) in families() {
        let seq = solve(&inst, kind, 17, 1, None, &mut NullRecorder).expect("solves");
        assert!(seq.fix.is_success(), "{tag} reference run succeeds");
        for threads in thread_counts() {
            let par = solve(&inst, kind, 17, threads, None, &mut NullRecorder).expect("solves");
            assert_reports_agree(&tag, threads, &seq, &par);
        }
    }
}

#[test]
fn recorded_sweeps_are_byte_identical() {
    for (tag, kind, inst) in families() {
        let tag = format!("recorded {tag}");
        let (seq, seq_bytes) = record(|rec| solve(&inst, kind, 5, 1, None, rec).expect("solves"));
        for threads in thread_counts() {
            let (par, par_bytes) =
                record(|rec| solve(&inst, kind, 5, threads, None, rec).expect("solves"));
            assert_reports_agree(&tag, threads, &seq, &par);
            assert_streams_identical(&tag, threads, &seq_bytes, &par_bytes);
        }
    }
}

#[test]
fn audited_sweeps_match_reference() {
    for (tag, kind, inst) in families() {
        let tag = format!("audited {tag}");
        let p = inst.max_event_probability();
        let audit = Some((&p, &1e-9));
        let seq = solve(&inst, kind, 5, 1, audit, &mut NullRecorder)
            .expect("audit passes at the true bound");
        for threads in thread_counts() {
            let par = solve(&inst, kind, 5, threads, audit, &mut NullRecorder)
                .expect("audit passes at the true bound");
            assert_reports_agree(&tag, threads, &seq, &par);
        }
    }
}

#[test]
fn audited_recorded_sweeps_are_byte_identical() {
    let (tag, inst) = first(ScheduleKind::Edge);
    let tag = format!("audited recorded {tag}");
    let p = inst.max_event_probability();
    let audit = Some((&p, &1e-9));
    let (seq, seq_bytes) = record(|rec| {
        solve(&inst, ScheduleKind::Edge, 5, 1, audit, rec).expect("audit passes at the true bound")
    });
    for threads in thread_counts() {
        let (par, par_bytes) = record(|rec| {
            solve(&inst, ScheduleKind::Edge, 5, threads, audit, rec)
                .expect("audit passes at the true bound")
        });
        assert_reports_agree(&tag, threads, &seq, &par);
        assert_streams_identical(&tag, threads, &seq_bytes, &par_bytes);
    }
}

#[test]
fn exact_audited_recorded_sweeps_are_byte_identical() {
    // On `BigRational` with zero tolerance, the audit checks `P*` exactly
    // after every step, and the rank-3 steps decompose exactly; the
    // recorded stream and the assignment must not depend on the worker
    // count.
    let cases = [
        (
            "exact fixer2 on ring(64)",
            ScheduleKind::Edge,
            rank2_instance::<BigRational>(&ring(64), 3),
        ),
        (
            "exact fixer3 on hyper_ring(48)",
            ScheduleKind::Distance2,
            rank3_instance::<BigRational>(&hyper_ring(48), 3),
        ),
    ];
    for (tag, kind, inst) in cases {
        let (p, zero) = (inst.max_event_probability(), BigRational::zero());
        let audit = Some((&p, &zero));
        let (seq, seq_bytes) =
            record(|rec| solve(&inst, kind, 5, 1, audit, rec).expect("P* holds exactly"));
        assert!(seq.fix.is_success(), "{tag} reference run succeeds");
        for threads in thread_counts() {
            let (par, par_bytes) =
                record(|rec| solve(&inst, kind, 5, threads, audit, rec).expect("P* holds exactly"));
            assert_reports_agree(tag, threads, &seq, &par);
            assert_streams_identical(tag, threads, &seq_bytes, &par_bytes);
        }
    }
}

#[test]
fn audit_failures_are_identical_at_every_thread_count() {
    // An impossibly tight claimed bound must produce the *same*
    // `PStarViolated` error — same step, same variable, same violation
    // counts — no matter how many workers swept the class.
    let inst = rank2_instance(&ring(40), 3);
    let tight = inst.max_event_probability() / 2.0;
    let audit = Some((&tight, &0.0));
    let base = solve(&inst, ScheduleKind::Edge, 5, 1, audit, &mut NullRecorder)
        .expect_err("the true probability exceeds the claimed bound");
    assert!(matches!(base, DistError::Fixer(_)), "audit verdict error");
    for threads in thread_counts() {
        let err = solve(
            &inst,
            ScheduleKind::Edge,
            5,
            threads,
            audit,
            &mut NullRecorder,
        )
        .expect_err("the true probability exceeds the claimed bound");
        assert_eq!(
            format!("{base:?}"),
            format!("{err:?}"),
            "audit failure at {threads} threads"
        );
    }
}

/// Checks that an audited sequential run records the same stream timed
/// (`timed`, into a `TimingRecorder`) as untimed (`quiet`), and that the
/// sink saw one step span per variable.
fn assert_timing_is_side_band(
    tag: &str,
    inst: &Instance<f64>,
    timed: impl FnOnce(&mut JsonlRecorder<Vec<u8>>, &mut TimingRecorder) -> FixReport,
    quiet: impl FnOnce(&mut JsonlRecorder<Vec<u8>>) -> FixReport,
) {
    let mut timing = TimingRecorder::new();
    let (timed, timed_bytes) = record(|rec| timed(rec, &mut timing));
    let (quiet, quiet_bytes) = record(quiet);
    assert_eq!(timed.assignment(), quiet.assignment(), "{tag}");
    assert_streams_identical(tag, 1, &quiet_bytes, &timed_bytes);
    let text = String::from_utf8(timed_bytes).expect("stream is utf-8");
    let m = inst.num_variables();
    let audits = text
        .lines()
        .filter(|l| l.contains("\"audit_pass\""))
        .count();
    assert_eq!(audits, m, "{tag}: one audit event per step");
    assert_eq!(
        timing.scope(TimingScope::FixStep).count(),
        m as u64,
        "{tag}"
    );
    assert_eq!(timing.scope(TimingScope::FixRun).count(), 1, "{tag}");
}

#[test]
fn audited_timed_sequential_runs_record_the_untimed_stream() {
    // `run_with` takes an audit and a timing sink at once; the sink is
    // side-band, so the recorded stream (audit events included) must be
    // byte-identical to the same call with `NullTiming`.
    let (_, inst) = first(ScheduleKind::Edge);
    let p = inst.max_event_probability();
    let (audit, order) = (Some((&p, &1e-9)), 0..inst.num_variables());
    let fixer = || Fixer2::new(&inst).expect("below threshold");
    assert_timing_is_side_band(
        "fixer2",
        &inst,
        |rec, timing| {
            fixer()
                .run_with(order.clone(), audit, rec, timing)
                .expect("P* holds")
        },
        |rec| {
            fixer()
                .run_with(order.clone(), audit, rec, &mut NullTiming)
                .expect("P* holds")
        },
    );

    let (_, inst) = first(ScheduleKind::Distance2);
    let p = inst.max_event_probability();
    let (audit, order) = (Some((&p, &1e-9)), 0..inst.num_variables());
    let fixer = || Fixer3::new(&inst).expect("below threshold");
    assert_timing_is_side_band(
        "fixer3",
        &inst,
        |rec, timing| {
            fixer()
                .run_with(order.clone(), audit, rec, timing)
                .expect("P* holds")
        },
        |rec| {
            fixer()
                .run_with(order.clone(), audit, rec, &mut NullTiming)
                .expect("P* holds")
        },
    );
}
