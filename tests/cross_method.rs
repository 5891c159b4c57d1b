//! Cross-method integration: every solving method in the workspace —
//! the sharp-threshold fixers, the generic conditional-expectation
//! fallback, the auto-dispatcher, and all three Moser–Tardos variants —
//! run against the *same* instances and verified against each other.

use sharp_lll::core::dist::{
    self, distributed_fg, CriterionCheck, DistError, DistReport, Schedule, Sweep,
};
use sharp_lll::core::{solve_deterministically, Fixer2, Fixer3, Instance, InstanceBuilder};
use sharp_lll::graphs::gen::hyper_ring;
use sharp_lll::mt::dist::distributed_mt;
use sharp_lll::mt::{parallel_mt, sequential_mt, Selection};
use sharp_lll::numeric::Num;
use sharp_lll::obs::{NullRecorder, NullTiming};

/// The rank-3 distributed driver (Corollary 1.4): a seeded distance-2
/// schedule, then the default sweep (criterion enforced, one worker).
fn distributed3<T: Num>(inst: &Instance<T>, seed: u64) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, 1)?;
    let (rec, sink) = (&mut NullRecorder, &mut NullTiming);
    dist::run(inst, &schedule, &Sweep::default(), rec, sink)
}

fn ring_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
        .collect();
    for i in 0..n {
        let (l, r) = (vars[(i + n - 1) % n], vars[i]);
        b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
    }
    b.build().expect("valid instance")
}

fn hyper_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
    let h = hyper_ring(n);
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), k))
        .collect();
    for j in 0..n {
        let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
        b.set_event_predicate(j, move |vals| {
            vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
        });
    }
    b.build().expect("valid instance")
}

#[test]
fn every_method_solves_the_same_rank2_instance() {
    let inst = ring_instance::<f64>(36, 4); // p·2^d = 1/4
    let mut solutions = Vec::new();
    solutions.push((
        "fixer2",
        Fixer2::new(&inst)
            .unwrap()
            .run_default()
            .unwrap()
            .assignment()
            .to_vec(),
    ));
    solutions.push((
        "fixer3",
        Fixer3::new(&inst)
            .unwrap()
            .run_default()
            .unwrap()
            .assignment()
            .to_vec(),
    ));
    solutions.push((
        "auto",
        solve_deterministically(&inst)
            .unwrap()
            .assignment()
            .to_vec(),
    ));
    solutions.push((
        "mt-seq",
        sequential_mt(&inst, 1, 1 << 20).unwrap().assignment,
    ));
    solutions.push((
        "mt-par",
        parallel_mt(&inst, 1, 1 << 20, Selection::IdMinima)
            .unwrap()
            .assignment,
    ));
    solutions.push((
        "mt-msg",
        distributed_mt(&inst, 1, 1 << 20, 1).unwrap().assignment,
    ));
    for (name, assignment) in solutions {
        assert!(
            inst.no_event_occurs(&assignment).unwrap(),
            "{name} produced a violating assignment"
        );
    }
}

#[test]
fn deterministic_methods_agree_on_rank3_applicability() {
    let inst = hyper_instance::<f64>(18, 3); // p·2^d = 16/27
    assert!(inst.satisfies_exponential_criterion());
    // The sharp machinery applies...
    let sharp = distributed3(&inst, 2).unwrap();
    assert!(sharp.fix.is_success());
    // ...while the generic criterion refuses the same instance
    // (Enforce), yet its unchecked sweep still completes and the auto
    // dispatcher routes to the sharp fixer.
    assert!(distributed_fg(&inst, 2, CriterionCheck::Enforce, 1).is_err());
    let auto = solve_deterministically(&inst).unwrap();
    assert!(auto.is_success());
}

#[test]
fn deterministic_and_randomized_agree_on_boundary_refusals() {
    // At the threshold: all deterministic guarantees off, randomization on.
    let inst = ring_instance::<f64>(24, 2); // p·2^d = 1
    assert!(solve_deterministically(&inst).is_err());
    let mt = sequential_mt(&inst, 7, 1 << 22).unwrap();
    assert!(inst.no_event_occurs(&mt.assignment).unwrap());
}

#[test]
fn methods_work_on_exact_backend_too() {
    use sharp_lll::numeric::BigRational;
    let inst = ring_instance::<BigRational>(12, 3);
    let report = solve_deterministically(&inst).unwrap();
    assert!(report.is_success());
    let d = distributed3(&inst, 0).unwrap();
    assert!(d.fix.is_success());
}
