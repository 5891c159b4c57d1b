//! Differential test: the incremental `P*` auditor must report exactly
//! what a full [`audit_p_star`] rescan reports, after **every** fixing
//! step of random E5-style rank-3 traces — below the threshold (where
//! both must stay clean) and above it (where violations appear and the
//! violation *sets* must still match element-for-element).

use std::collections::BTreeSet;

use lll_core::{audit_p_star, Fixer3, IncrementalAuditor, Instance, InstanceBuilder};
use lll_graphs::gen::hyper_ring;
use lll_graphs::Hypergraph;
use lll_numeric::BigRational;
use lll_obs::{NullRecorder, NullTiming};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn pack_index(values: &[usize], radix: usize) -> usize {
    values.iter().rev().fold(0, |acc, &v| acc * radix + v)
}

/// Miniature copy of the bench crate's rank-3 workload generator (the
/// bench crate depends on this one, so it cannot be a dev-dependency).
fn random_rank3(h: &Hypergraph, k: usize, t: f64, seed: u64) -> Instance<BigRational> {
    let d = h.max_dependency_degree();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::<BigRational>::new(h.num_nodes());
    let vars: Vec<usize> = (0..h.num_edges())
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), k))
        .collect();
    for v in 0..h.num_nodes() {
        let total = k.pow(h.degree(v) as u32);
        let bad_count = ((t * total as f64 / 2f64.powi(d as i32)).floor() as usize).min(total);
        let mut bad: BTreeSet<usize> = BTreeSet::new();
        while bad.len() < bad_count {
            bad.insert(rng.random_range(0..total));
        }
        let mut support: Vec<usize> = h.incident(v).iter().map(|&i| vars[i]).collect();
        support.sort_unstable();
        b.set_event_predicate(v, move |vals| {
            let values: Vec<usize> = support.iter().map(|&x| vals[x]).collect();
            bad.contains(&pack_index(&values, k))
        });
    }
    b.build().expect("generated instance is valid")
}

fn shuffled_order(num_vars: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..num_vars).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    order
}

/// Runs one greedy trace and asserts report equality at every step.
fn assert_incremental_matches_full(inst: &Instance<BigRational>, order_seed: u64) {
    let p = inst.max_event_probability();
    let zero = BigRational::zero();
    let mut fixer = Fixer3::new_unchecked(inst).expect("rank-3 instance");
    let mut auditor = IncrementalAuditor::new(inst, fixer.partial(), fixer.phi(), &p, &zero);
    // The initial full scan must match a fresh rescan too.
    assert_eq!(
        auditor.report(),
        audit_p_star(inst, fixer.partial(), fixer.phi(), &p, &zero)
    );
    for x in shuffled_order(inst.num_variables(), order_seed) {
        fixer.fix_variable(x).expect("finite costs");
        let incremental = auditor.reverify(inst, fixer.partial(), fixer.phi(), x);
        let full = audit_p_star(inst, fixer.partial(), fixer.phi(), &p, &zero);
        assert_eq!(
            incremental, full,
            "incremental and full audits disagree after fixing variable {x}"
        );
    }
}

#[test]
fn incremental_matches_full_below_threshold() {
    // Below the threshold both audits must agree *and* stay clean
    // (Theorem 1.3's invariant).
    for seed in 0..4u64 {
        let h = hyper_ring(12 + 3 * seed as usize);
        let inst = random_rank3(&h, 8, 0.9, seed);
        assert!(inst.satisfies_exponential_criterion());
        assert_incremental_matches_full(&inst, seed + 100);
        // And the audited `run_with` succeeds end-to-end.
        let p = inst.max_event_probability();
        let order = shuffled_order(inst.num_variables(), seed + 100);
        let report = Fixer3::new(&inst)
            .expect("below threshold")
            .run_with(
                order,
                Some((&p, &BigRational::zero())),
                &mut NullRecorder,
                &mut NullTiming,
            )
            .expect("P* holds below the threshold");
        assert!(report.is_success());
    }
}

#[test]
fn incremental_matches_full_above_threshold() {
    // Above the threshold the unchecked greedy process may break P*; the
    // two audits must report the *same* violation sets step by step.
    for seed in 0..4u64 {
        let h = hyper_ring(12);
        let inst = random_rank3(&h, 4, 3.0, seed);
        assert!(!inst.satisfies_exponential_criterion());
        assert_incremental_matches_full(&inst, seed + 7);
    }
}

#[test]
fn audited_runs_report_the_failing_step() {
    // With p_bound artificially halved, the very first audit after a fix
    // (or even the initial state) breaks; the audited run must surface a
    // typed PStarViolated error rather than succeed.
    let h = hyper_ring(12);
    let inst = random_rank3(&h, 8, 0.9, 1);
    let p = inst.max_event_probability();
    let tight = &p / &BigRational::from_ratio(2, 1);
    let order = shuffled_order(inst.num_variables(), 3);
    let err = Fixer3::new(&inst)
        .expect("below threshold")
        .run_with(
            order,
            Some((&tight, &BigRational::zero())),
            &mut NullRecorder,
            &mut NullTiming,
        )
        .expect_err("halved probability bound must violate P*");
    let msg = err.to_string();
    assert!(
        msg.contains("property P* broken"),
        "unexpected error: {msg}"
    );
}
