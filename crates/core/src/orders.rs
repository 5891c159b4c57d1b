//! Fixing-order adversaries.
//!
//! Theorems 1.1 and 1.3 hold for *any* order in which the variables are
//! fixed — the paper notes the order may even be chosen by an
//! **adaptive** adversary who watches the process. This module provides
//! that adversary: static order families plus adaptive strategies that
//! inspect the fixer's live state (the potential `φ` and the partial
//! assignment) to pick the most hostile next variable.
//!
//! The experiment `E11` and several tests run the fixers to completion
//! under these adversaries and re-verify success and property `P*`.

use std::cmp::Reverse;

use lll_numeric::Num;
use lll_obs::NullRecorder;

use crate::fixer::inc_or_zero;
use crate::instance::{Instance, PartialAssignment, ValueProbs};
use crate::sweep::ClassFixer;
use crate::triples::representability_score;
use crate::{FixReport, Fixer2, Fixer3, FixerError};

/// A static order family over `m` variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticOrder {
    /// `0, 1, 2, …` — the default.
    Identity,
    /// `m-1, m-2, …`.
    Reversed,
    /// `0, s, 2s, … (mod m)` for a stride `s` coprime to `m`.
    Stride(usize),
}

impl StaticOrder {
    /// Materialises the order as a permutation of `0..m`.
    ///
    /// # Panics
    ///
    /// Panics if a stride is not coprime to `m` (the walk would not be a
    /// permutation).
    pub fn materialize(self, m: usize) -> Vec<usize> {
        match self {
            StaticOrder::Identity => (0..m).collect(),
            StaticOrder::Reversed => (0..m).rev().collect(),
            StaticOrder::Stride(s) => {
                assert!(
                    m == 0 || gcd(s % m.max(1), m) == 1,
                    "stride must be coprime to m"
                );
                (0..m).map(|i| (i * s) % m).collect()
            }
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Runs [`Fixer2`] under an adaptive adversary that always picks the
/// unfixed variable whose *best available* weighted increase sum is
/// largest — i.e. the variable for which even the fixer's best response
/// is worst.
///
/// Returns the report; below the threshold Theorem 1.1 still guarantees
/// success.
///
/// # Errors
///
/// [`FixerError::NonFiniteCost`] if a fixing step computes an
/// incomparable cost (see [`Fixer2::fix_variable`]).
pub fn run_fixer2_adaptive_worst<T: Num>(fixer: Fixer2<'_, T>) -> Result<FixReport, FixerError> {
    // Ties go to the highest-index variable.
    run_adaptive(fixer, |f, x| (fixer2_best_cost(f, x), x))
}

/// The cost the fixer would pay for its best value of `x` right now
/// (the adversary's damage estimate).
fn fixer2_best_cost<T: Num>(fixer: &Fixer2<'_, T>, x: usize) -> T {
    let inst = fixer.instance();
    let var = inst.variable(x);
    let g = inst.dependency_graph();
    let k = var.num_values();
    let passes = passes(inst, fixer.partial(), x);
    let inc = |i: usize, y: usize| inc_or_zero(passes[i].prob(y), passes[i].old());
    match *var.affects() {
        [_] => (0..k)
            .map(|y| inc(0, y))
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .expect("k >= 1"),
        [u, v] => {
            let eid = g.edge_id(u, v).expect("co-affected events are adjacent");
            let s = fixer
                .phi()
                .get(eid, u)
                .expect("u is an endpoint of its edge")
                .clone();
            let t = fixer
                .phi()
                .get(eid, v)
                .expect("v is an endpoint of its edge")
                .clone();
            (0..k)
                .map(|y| inc(0, y) * s.clone() + inc(1, y) * t.clone())
                .min_by(|a, b| a.partial_cmp(b).expect("finite"))
                .expect("k >= 1")
        }
        _ => unreachable!("Fixer2 validated rank <= 2"),
    }
}

/// Runs [`Fixer3`] under an adaptive adversary that always picks the
/// unfixed variable whose best candidate triple has the *smallest*
/// representability margin — the variable closest to exhausting the
/// geometry of `S_rep`.
///
/// # Errors
///
/// [`FixerError::NonFiniteCost`] if a fixing step computes an
/// incomparable cost (see [`Fixer3::fix_variable`]).
pub fn run_fixer3_adaptive_worst<T: Num>(fixer: Fixer3<'_, T>) -> Result<FixReport, FixerError> {
    // Ties go to the lowest-index variable.
    run_adaptive(fixer, fixer3_key)
}

/// The rank-3 adversary's ranking key: smallest margin first, then
/// lowest index.
fn fixer3_key<T: Num>(fixer: &Fixer3<'_, T>, x: usize) -> (Reverse<T>, Reverse<usize>) {
    (Reverse(fixer3_best_margin(fixer, x)), Reverse(x))
}

/// Fixes every variable of `fixer`, each step picking the
/// [`most_hostile`] unfixed one under `key`.
fn run_adaptive<T: Num, F: ClassFixer<T>, K: PartialOrd>(
    mut fixer: F,
    key: impl Fn(&F, usize) -> K,
) -> Result<FixReport, FixerError> {
    for _ in 0..fixer.instance().num_variables() {
        let next = most_hostile(&fixer, &key);
        fixer.fix_cell(&[next], &mut NullRecorder)?;
    }
    Ok(fixer.into_report())
}

/// The unfixed variable with the largest `key`. Keys carry the
/// variable index as a tie-break, so the maximum is unique.
fn most_hostile<T: Num, F: ClassFixer<T>, K: PartialOrd>(
    fixer: &F,
    key: impl Fn(&F, usize) -> K,
) -> usize {
    (0..fixer.instance().num_variables())
        .filter(|&x| fixer.partial().get(x).is_none())
        .map(|x| (key(fixer, x), x))
        .max_by(|(a, _), (b, _)| a.partial_cmp(b).expect("finite scores"))
        .map(|(_, x)| x)
        .expect("an unfixed variable remains")
}

/// The best representability score over the values of `x` given the
/// fixer's current state (rank-3 variables; lower = more hostile).
/// Rank-1/2 variables get a large margin — they cannot strain the
/// triple geometry.
fn fixer3_best_margin<T: Num>(fixer: &Fixer3<'_, T>, x: usize) -> T {
    let inst = fixer.instance();
    let var = inst.variable(x);
    let [u, v, w] = *var.affects() else {
        return T::from_ratio(i64::MAX, 1);
    };
    let g = inst.dependency_graph();
    let e = g.edge_id(u, v).expect("adjacent");
    let e1 = g.edge_id(u, w).expect("adjacent");
    let e2 = g.edge_id(v, w).expect("adjacent");
    let phi = fixer.phi();
    let at = |eid: usize, node: usize| {
        phi.get(eid, node)
            .expect("node is an endpoint of its edge")
            .clone()
    };
    let a = at(e, u) * at(e1, u);
    let b = at(e, v) * at(e2, v);
    let c = at(e1, w) * at(e2, w);
    let passes = passes(inst, fixer.partial(), x);
    let inc = |i: usize, y: usize| inc_or_zero(passes[i].prob(y), passes[i].old());
    (0..var.num_values())
        .map(|y| {
            representability_score(
                &(inc(0, y) * a.clone()),
                &(inc(1, y) * b.clone()),
                &(inc(2, y) * c.clone()),
            )
        })
        .max_by(|s1, s2| s1.partial_cmp(s2).expect("finite scores"))
        .expect("k >= 1")
}

/// One bucketed pass over each event `x` affects (in `affects` order).
fn passes<T: Num>(inst: &Instance<T>, partial: &PartialAssignment, x: usize) -> Vec<ValueProbs<T>> {
    inst.variable(x)
        .affects()
        .iter()
        .map(|&ev| {
            let mut probs = ValueProbs::default();
            inst.probability_by_value(ev, partial, x, &mut probs);
            probs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit_p_star;
    use crate::instance::{Instance, InstanceBuilder};
    use lll_numeric::BigRational;

    fn ring_instance(n: usize, k: usize) -> Instance<BigRational> {
        let mut b = InstanceBuilder::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
            .collect();
        for i in 0..n {
            let (l, r) = (vars[(i + n - 1) % n], vars[i]);
            b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
        }
        b.build().unwrap()
    }

    fn hyper_ring_instance(n: usize, k: usize) -> Instance<BigRational> {
        let mut b = InstanceBuilder::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n, (i + 2) % n], k))
            .collect();
        for j in 0..n {
            let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
            b.set_event_predicate(j, move |vals| {
                vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn static_orders_are_permutations() {
        for order in [
            StaticOrder::Identity,
            StaticOrder::Reversed,
            StaticOrder::Stride(7),
        ] {
            let mut v = order.materialize(10);
            v.sort_unstable();
            assert_eq!(v, (0..10).collect::<Vec<_>>());
        }
        assert_eq!(StaticOrder::Identity.materialize(0), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn stride_must_be_coprime() {
        StaticOrder::Stride(4).materialize(10);
    }

    #[test]
    fn fixer2_survives_static_and_adaptive_adversaries() {
        let inst = ring_instance(10, 3);
        for order in [
            StaticOrder::Identity,
            StaticOrder::Reversed,
            StaticOrder::Stride(7),
        ] {
            let report = Fixer2::new(&inst)
                .expect("below threshold")
                .run(order.materialize(inst.num_variables()))
                .unwrap();
            assert!(report.is_success(), "{order:?}");
        }
        let report =
            run_fixer2_adaptive_worst(Fixer2::new(&inst).expect("below threshold")).unwrap();
        assert!(report.is_success(), "adaptive adversary");
    }

    #[test]
    fn fixer3_survives_adaptive_adversary_with_p_star() {
        let inst = hyper_ring_instance(9, 3);
        let report =
            run_fixer3_adaptive_worst(Fixer3::new(&inst).expect("below threshold")).unwrap();
        assert!(report.is_success());
        // And stepwise: re-run manually with audits.
        let p = inst.max_event_probability();
        let mut fixer = Fixer3::new(&inst).expect("below threshold");
        for _ in 0..inst.num_variables() {
            let next = most_hostile(&fixer, fixer3_key);
            fixer.fix_variable(next).unwrap();
            let audit = audit_p_star(
                &inst,
                fixer.partial(),
                fixer.phi(),
                &p,
                &BigRational::zero(),
            );
            assert!(
                audit.holds(),
                "P* broken under adaptive adversary: {audit:?}"
            );
        }
        assert!(fixer.into_report().is_success());
    }

    #[test]
    fn adaptive_adversaries_keep_their_tie_breaks() {
        // On symmetric rings every unfixed variable scores the same at
        // the start, so the order is all tie-break: rank 2 takes the
        // last maximum, rank 3 the first minimum.
        let order = |steps: &[crate::FixStepRecord]| -> Vec<usize> {
            steps.iter().map(|s| s.variable).collect()
        };
        let report =
            run_fixer2_adaptive_worst(Fixer2::new(&ring_instance(10, 3)).unwrap()).unwrap();
        assert_eq!(order(report.steps()), (0..10).rev().collect::<Vec<_>>());
        let report =
            run_fixer3_adaptive_worst(Fixer3::new(&hyper_ring_instance(9, 3)).unwrap()).unwrap();
        assert_eq!(order(report.steps()), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn adaptive_margin_is_finite_for_rank3_and_huge_for_lower_ranks() {
        let mut b = InstanceBuilder::<BigRational>::new(3);
        let r2 = b.add_uniform_variable(&[0, 1], 4);
        let r3 = b.add_uniform_variable(&[0, 1, 2], 4);
        b.set_event_predicate(0, move |vals| vals[r2] == 0 && vals[r3] == 0);
        let inst = b.build().unwrap();
        let fixer = Fixer3::new(&inst).expect("below threshold");
        let m2 = fixer3_best_margin(&fixer, r2);
        let m3 = fixer3_best_margin(&fixer, r3);
        assert!(m2 > m3, "rank-2 variables must rank as harmless");
    }
}
