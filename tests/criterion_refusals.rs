//! The sharp-criterion refusal is one error value, however the driver
//! is configured.
//!
//! `dist::run` enumerates the per-event probabilities once per solve and
//! checks `p < 2^-d` on that pass; `Fixer2::new`/`Fixer3::new` check it
//! through `Instance::max_event_probability`. Both build the error in
//! the same place, so every `CriterionCheck::Enforce` run must return
//! exactly `DistError::Fixer(Fixer{2,3}::new(..).unwrap_err())` — fresh
//! or resumed, audited or not, recorded or not, timed or not, on either
//! schedule kind: at the threshold (sinkless orientation, `p·2^d = 1`),
//! above it, and — because the rank check still runs first — on a
//! rank-4 instance, which must report `RankTooLarge` although it
//! violates the criterion too. A refused solve records nothing.

use sharp_lll::apps::sinkless::sinkless_orientation_instance;
use sharp_lll::core::dist::{self, DistError, ResumeCursor, Schedule, ScheduleKind, Sweep};
use sharp_lll::core::{Fixer2, Fixer3, FixerError, Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{ring, torus};
use sharp_lll::numeric::{BigRational, Num};
use sharp_lll::obs::{JsonlRecorder, NullRecorder, NullTiming, TimingRecorder};

const SEED: u64 = 3;
const THREADS: usize = 2;

/// The refusal of every enforced `dist::run` configuration on a
/// `kind` schedule, labelled for failure messages. Each recorded or
/// timed run must leave its recorder and sink empty.
fn refusals<T: Num>(inst: &Instance<T>, kind: ScheduleKind) -> Vec<(String, DistError)> {
    let g = inst.dependency_graph();
    let schedule = match kind {
        ScheduleKind::Edge => Schedule::edge(g, SEED, THREADS),
        ScheduleKind::Distance2 => Schedule::distance2(g, SEED, THREADS),
    }
    .expect("schedule");
    let (p, tol) = (T::from_ratio(1, 2), T::zero());
    let prefix = [(0, 0)];
    let mut out = Vec::new();
    for resumed in [false, true] {
        for audited in [false, true] {
            for (recorded, timed) in [(false, false), (false, true), (true, false), (true, true)] {
                let sweep = Sweep {
                    threads: THREADS,
                    audit: audited.then_some((&p, &tol)),
                    resume: if resumed {
                        ResumeCursor::new(&prefix, 0, true)
                    } else {
                        ResumeCursor::default()
                    },
                    ..Sweep::default()
                };
                let (mut rec, mut sink) = (JsonlRecorder::new(Vec::new()), TimingRecorder::new());
                let result = match (recorded, timed) {
                    (false, false) => {
                        dist::run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
                    }
                    (false, true) => {
                        dist::run(inst, &schedule, &sweep, &mut NullRecorder, &mut sink)
                    }
                    (true, false) => dist::run(inst, &schedule, &sweep, &mut rec, &mut NullTiming),
                    (true, true) => dist::run(inst, &schedule, &sweep, &mut rec, &mut sink),
                };
                let label = format!(
                    "{kind:?} resumed={resumed} audited={audited} recorded={recorded} timed={timed}"
                );
                assert_eq!(rec.lines(), 0, "{label}: a refused solve recorded events");
                assert_eq!(sink.spans(), 0, "{label}: a refused solve recorded spans");
                out.push((label.clone(), result.expect_err(&label)));
            }
        }
    }
    out
}

/// Asserts every configuration on both schedule kinds refuses with the
/// error its fixer's constructor returns; returns the two constructor
/// errors.
fn assert_drivers_match_constructors<T: Num>(inst: &Instance<T>) -> (FixerError, FixerError) {
    let e2 = Fixer2::new(inst).expect_err("Fixer2::new must refuse");
    let e3 = Fixer3::new(inst).expect_err("Fixer3::new must refuse");
    for (kind, expected) in [(ScheduleKind::Edge, &e2), (ScheduleKind::Distance2, &e3)] {
        let table = refusals(inst, kind);
        assert_eq!(table.len(), 16);
        for (label, err) in table {
            assert_eq!(err, DistError::Fixer(expected.clone()), "{label}");
        }
    }
    (e2, e3)
}

#[test]
fn sinkless_orientation_is_refused_identically_at_the_threshold() {
    // 4-regular: p = 2^-4 and d = 4, so p·2^d is exactly 1.
    let g = torus(4, 4);
    let exact = sinkless_orientation_instance::<BigRational>(&g).unwrap();
    assert_eq!(exact.criterion_value(), BigRational::one());
    let (e2, e3) = assert_drivers_match_constructors(&exact);
    let at_threshold = FixerError::CriterionViolated {
        p_times_2_to_d: 1.0,
    };
    assert_eq!(e2, at_threshold);
    assert_eq!(e3, at_threshold);

    let fast = sinkless_orientation_instance::<f64>(&g).unwrap();
    let (e2, e3) = assert_drivers_match_constructors(&fast);
    assert_eq!(e2, at_threshold);
    assert_eq!(e3, at_threshold);
}

/// `ring(n)` with a fair 4-valued variable per edge; an event occurs iff
/// either incident variable is 0: `p = 7/16`, `d = 2`, `p·2^d = 7/4`.
fn above_threshold<T: Num>() -> Instance<T> {
    let g = ring(12);
    let mut b = InstanceBuilder::<T>::new(g.num_nodes());
    let vars: Vec<usize> = (0..g.num_edges())
        .map(|eid| {
            let (u, v) = g.edge(eid);
            b.add_uniform_variable(&[u, v], 4)
        })
        .collect();
    for v in 0..g.num_nodes() {
        let incident: Vec<usize> = g.incident_edges(v).iter().map(|&e| vars[e]).collect();
        b.set_event_predicate(v, move |vals| incident.iter().any(|&x| vals[x] == 0));
    }
    b.build().unwrap()
}

#[test]
fn above_the_threshold_every_driver_reports_the_constructor_error() {
    let exact = above_threshold::<BigRational>();
    assert_eq!(exact.criterion_value(), BigRational::from_ratio(7, 4));
    let (e2, e3) = assert_drivers_match_constructors(&exact);
    let expected = FixerError::CriterionViolated {
        p_times_2_to_d: 1.75,
    };
    assert_eq!((e2, e3), (expected.clone(), expected.clone()));

    let (e2, e3) = assert_drivers_match_constructors(&above_threshold::<f64>());
    assert_eq!((e2, e3), (expected.clone(), expected));
}

#[test]
fn rank_violations_are_reported_before_the_criterion() {
    // One 2-valued variable shared by four events: rank 4, and p·2^d =
    // 1/2 · 2^3 = 4 violates the criterion as well.
    let mut b = InstanceBuilder::<BigRational>::new(4);
    let x = b.add_uniform_variable(&[0, 1, 2, 3], 2);
    for v in 0..4 {
        b.set_event_predicate(v, move |vals| vals[x] == v % 2);
    }
    let inst = b.build().unwrap();
    assert_eq!(inst.max_rank(), 4);
    assert!(!inst.satisfies_exponential_criterion());
    let (e2, e3) = assert_drivers_match_constructors(&inst);
    assert_eq!(
        e2,
        FixerError::RankTooLarge {
            found: 4,
            supported: 2
        }
    );
    assert_eq!(
        e3,
        FixerError::RankTooLarge {
            found: 4,
            supported: 3
        }
    );
}
