//! The sharp-criterion refusal is one error value, whichever entry point
//! reports it.
//!
//! The distributed drivers enumerate the per-event probabilities once per
//! solve and check `p < 2^-d` on that pass; `Fixer2::new`/`Fixer3::new`
//! check it through `Instance::max_event_probability`. Both build the
//! error in the same place, so every `CriterionCheck::Enforce` driver
//! must return exactly `DistError::Fixer(Fixer{2,3}::new(..).unwrap_err())`:
//! at the threshold (sinkless orientation, `p·2^d = 1`), above it, and —
//! because the rank check still runs first — on a rank-4 instance, which
//! must report `RankTooLarge` although it violates the criterion too.
//! A refused solve records nothing.

use sharp_lll::apps::sinkless::sinkless_orientation_instance;
use sharp_lll::core::dist::{self, CriterionCheck, DistError, ResumeCursor, Schedule};
use sharp_lll::core::{Fixer2, Fixer3, FixerError, Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{ring, torus};
use sharp_lll::numeric::{BigRational, Num};
use sharp_lll::obs::{JsonlRecorder, NullTiming};

const SEED: u64 = 3;
const THREADS: usize = 2;

/// Every `CriterionCheck::Enforce` entry point of the rank-2 family, in
/// declaration order, labelled for failure messages. Each recorded run
/// must leave its recorder empty.
fn rank2_entry_points<T: Num>(inst: &Instance<T>) -> Vec<(&'static str, DistError)> {
    let schedule = Schedule::edge(inst.dependency_graph(), SEED, THREADS).expect("schedule");
    let p = T::from_ratio(1, 2);
    let tol = T::zero();
    let cursor = ResumeCursor::new(&[], 0, false);
    let check = CriterionCheck::Enforce;
    let mut rec = JsonlRecorder::new(Vec::new());
    let results = vec![
        ("fixer2", dist::distributed_fixer2(inst, SEED, check)),
        (
            "fixer2_parallel",
            dist::distributed_fixer2_parallel(inst, SEED, check, THREADS),
        ),
        (
            "fixer2_recorded",
            dist::distributed_fixer2_recorded(inst, SEED, check, THREADS, &mut rec),
        ),
        (
            "fixer2_audited",
            dist::distributed_fixer2_audited(inst, SEED, check, THREADS, &p, &tol),
        ),
        (
            "fixer2_audited_recorded",
            dist::distributed_fixer2_audited_recorded(
                inst, SEED, check, THREADS, &p, &tol, &mut rec,
            ),
        ),
        (
            "fixer2_scheduled",
            dist::distributed_fixer2_scheduled(inst, &schedule, check, THREADS),
        ),
        (
            "fixer2_scheduled_recorded",
            dist::distributed_fixer2_scheduled_recorded(inst, &schedule, check, THREADS, &mut rec),
        ),
        (
            "fixer2_scheduled_traced",
            dist::distributed_fixer2_scheduled_traced(
                inst,
                &schedule,
                check,
                THREADS,
                &mut rec,
                &mut NullTiming,
            ),
        ),
        (
            "fixer2_scheduled_resumed",
            dist::distributed_fixer2_scheduled_resumed(
                inst, &schedule, check, THREADS, &cursor, &mut rec,
            ),
        ),
        (
            "fixer2_scheduled_resumed_audited",
            dist::distributed_fixer2_scheduled_resumed_audited(
                inst, &schedule, check, THREADS, &p, &tol, &cursor, &mut rec,
            ),
        ),
    ];
    assert_eq!(rec.lines(), 0, "a refused rank-2 solve recorded events");
    results
        .into_iter()
        .map(|(name, r)| (name, r.expect_err(name)))
        .collect()
}

/// The rank-3 counterpart of [`rank2_entry_points`].
fn rank3_entry_points<T: Num>(inst: &Instance<T>) -> Vec<(&'static str, DistError)> {
    let schedule = Schedule::distance2(inst.dependency_graph(), SEED, THREADS).expect("schedule");
    let p = T::from_ratio(1, 2);
    let tol = T::zero();
    let cursor = ResumeCursor::new(&[], 0, false);
    let check = CriterionCheck::Enforce;
    let mut rec = JsonlRecorder::new(Vec::new());
    let results = vec![
        ("fixer3", dist::distributed_fixer3(inst, SEED, check)),
        (
            "fixer3_parallel",
            dist::distributed_fixer3_parallel(inst, SEED, check, THREADS),
        ),
        (
            "fixer3_recorded",
            dist::distributed_fixer3_recorded(inst, SEED, check, THREADS, &mut rec),
        ),
        (
            "fixer3_audited",
            dist::distributed_fixer3_audited(inst, SEED, check, THREADS, &p, &tol),
        ),
        (
            "fixer3_audited_recorded",
            dist::distributed_fixer3_audited_recorded(
                inst, SEED, check, THREADS, &p, &tol, &mut rec,
            ),
        ),
        (
            "fixer3_scheduled",
            dist::distributed_fixer3_scheduled(inst, &schedule, check, THREADS),
        ),
        (
            "fixer3_scheduled_recorded",
            dist::distributed_fixer3_scheduled_recorded(inst, &schedule, check, THREADS, &mut rec),
        ),
        (
            "fixer3_scheduled_traced",
            dist::distributed_fixer3_scheduled_traced(
                inst,
                &schedule,
                check,
                THREADS,
                &mut rec,
                &mut NullTiming,
            ),
        ),
        (
            "fixer3_scheduled_resumed",
            dist::distributed_fixer3_scheduled_resumed(
                inst, &schedule, check, THREADS, &cursor, &mut rec,
            ),
        ),
        (
            "fixer3_scheduled_resumed_audited",
            dist::distributed_fixer3_scheduled_resumed_audited(
                inst, &schedule, check, THREADS, &p, &tol, &cursor, &mut rec,
            ),
        ),
    ];
    assert_eq!(rec.lines(), 0, "a refused rank-3 solve recorded events");
    results
        .into_iter()
        .map(|(name, r)| (name, r.expect_err(name)))
        .collect()
}

/// Asserts every driver of both families refuses with the error its
/// fixer's constructor returns; returns the two constructor errors.
fn assert_drivers_match_constructors<T: Num>(inst: &Instance<T>) -> (FixerError, FixerError) {
    let e2 = Fixer2::new(inst).expect_err("Fixer2::new must refuse");
    let e3 = Fixer3::new(inst).expect_err("Fixer3::new must refuse");
    for (name, err) in rank2_entry_points(inst) {
        assert_eq!(err, DistError::Fixer(e2.clone()), "{name}");
    }
    for (name, err) in rank3_entry_points(inst) {
        assert_eq!(err, DistError::Fixer(e3.clone()), "{name}");
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
