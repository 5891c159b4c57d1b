//! The generic derandomization the paper compares against (the Remark
//! after Conjecture 1.5).
//!
//! The paper notes that under the much stronger criterion
//! `p < 2^-Ω(d²·log d)` one can skip all the representable-triple
//! machinery: treat a distance-2 coloring with `C = O(d²)` colors as a
//! `(C, 0)`-network decomposition and run the Fischer–Ghaffari
//! conditional-expectation derandomization on it. This module implements
//! that algorithm in its single-node-cluster form:
//!
//! * iterate the color classes; in class `i` every node `v` of that
//!   color fixes **all** of its still-unfixed incident variables, one at
//!   a time, each time choosing the value minimising
//!   `Σ_{u ∈ N[v]} Pr[E_u | θ]` — by conditional expectation this sum
//!   never increases;
//! * consequently a single class step can inflate an individual event's
//!   conditional probability by a factor of at most `|N[v]| ≤ d + 1`,
//!   and after all `C` classes every event satisfies
//!   `Pr[E_u | full] ≤ p·(d+1)^C`;
//! * so `p·(d+1)^C < 1` certifies success — a criterion of the shape
//!   `2^-O(d²·log d)`, *exponentially more demanding* than the sharp
//!   `p < 2^-d` of Theorems 1.1/1.3. Experiment E13 measures exactly
//!   this gap, which is the paper's motivation in executable form.
//!
//! This fixer works for **any** variable rank (no `r ≤ 3` restriction) —
//! the trade-off the paper's conjecture hopes to beat.

use lll_numeric::Num;

use crate::error::FixerError;
use crate::instance::{Instance, PartialAssignment};
use crate::{FixReport, FixStepRecord};

/// Result of the criterion analysis for the conditional-expectation
/// fixer.
#[derive(Debug, Clone, PartialEq)]
pub struct FgCriterion {
    /// Number of scheduling classes `C` the bound is computed for.
    pub classes: usize,
    /// The certified bound `p·(d+1)^C` (as `f64` for display; the
    /// decision itself is made in the backend's arithmetic).
    pub bound: f64,
    /// Whether `p·(d+1)^C < 1` holds.
    pub holds: bool,
}

/// Checks the conditional-expectation criterion `p·(d+1)^C < 1` for a
/// given class count.
pub fn fg_criterion<T: Num>(inst: &Instance<T>, classes: usize) -> FgCriterion {
    let d1 = T::from_ratio(inst.max_dependency_degree() as i64 + 1, 1);
    let mut bound = inst.max_event_probability();
    for _ in 0..classes {
        bound = bound * d1.clone();
    }
    FgCriterion {
        classes,
        bound: bound.to_f64(),
        holds: bound < T::one(),
    }
}

/// The sequential conditional-expectation (Fischer–Ghaffari-style)
/// fixer.
///
/// `classes` assigns every event node to a scheduling class. The
/// certified bound `p·(d+1)^C` requires a **distance-2 partition**
/// (same-class nodes pairwise at distance ≥ 3): then at most one fixer
/// node per class touches any given event, and the inductive bound
/// `Pr[E_u | after class i] ≤ p·(d+1)^i` holds. Arbitrary partitions
/// still execute (each single-variable choice is individually sound)
/// but only as a heuristic. Node order inside a class is by index; each
/// node fixes all of its still-unfixed incident variables by greedy
/// sum-minimisation over its closed neighborhood.
#[derive(Debug, Clone)]
pub struct FgFixer<'i, T> {
    inst: &'i Instance<T>,
    partial: PartialAssignment,
    steps: Vec<FixStepRecord>,
}

impl<'i, T: Num> FgFixer<'i, T> {
    /// Creates the fixer, validating `p·(d+1)^C < 1` for the class count
    /// that will be used.
    ///
    /// # Errors
    ///
    /// [`FixerError::CriterionViolated`] when the (strong) criterion
    /// fails — in particular on many instances the sharp-threshold
    /// fixers handle comfortably.
    pub fn new(inst: &'i Instance<T>, num_classes: usize) -> Result<FgFixer<'i, T>, FixerError> {
        let crit = fg_criterion(inst, num_classes);
        if !crit.holds {
            return Err(FixerError::CriterionViolated {
                p_times_2_to_d: crit.bound,
            });
        }
        Ok(FgFixer::new_unchecked(inst))
    }

    /// Creates the fixer without any criterion check.
    pub fn new_unchecked(inst: &'i Instance<T>) -> FgFixer<'i, T> {
        FgFixer {
            inst,
            partial: PartialAssignment::new(inst.num_variables()),
            steps: Vec::new(),
        }
    }

    /// Current partial assignment.
    pub fn partial(&self) -> &PartialAssignment {
        &self.partial
    }

    /// The sum `Σ_{u ∈ N[v]} Pr[E_u | θ]` the conditional-expectation
    /// argument controls.
    fn neighborhood_sum(&self, v: usize, extra: Option<(usize, usize)>) -> T {
        let g = self.inst.dependency_graph();
        let mut sum = match extra {
            Some((x, y)) => self.inst.probability_with(v, &self.partial, x, y),
            None => self.inst.probability(v, &self.partial),
        };
        for &u in g.neighbors(v) {
            sum = sum
                + match extra {
                    Some((x, y)) => self.inst.probability_with(u, &self.partial, x, y),
                    None => self.inst.probability(u, &self.partial),
                };
        }
        sum
    }

    /// Node `v` fixes all of its still-unfixed incident variables.
    pub fn fix_node(&mut self, v: usize) {
        let incident: Vec<usize> = (0..self.inst.num_variables())
            .filter(|&x| self.inst.variable(x).affects().contains(&v))
            .collect();
        for x in incident {
            if self.partial.get(x).is_some() {
                continue;
            }
            let k = self.inst.variable(x).num_values();
            let best = (0..k)
                .map(|y| (self.neighborhood_sum(v, Some((x, y))), y))
                .min_by(|(a, _), (b, _)| a.partial_cmp(b).expect("finite sums"))
                .expect("k >= 1")
                .1;
            self.partial.fix(x, best);
            self.steps.push(FixStepRecord {
                variable: x,
                value: best,
            });
        }
    }

    /// Runs the process over the given class partition (`classes[v]` is
    /// the class of event node `v`) and reports the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `classes` does not cover every event.
    pub fn run(mut self, classes: &[usize]) -> FixReport {
        assert_eq!(classes.len(), self.inst.num_events(), "one class per event");
        let num_classes = classes.iter().copied().max().map_or(0, |c| c + 1);
        for class in 0..num_classes {
            for (v, &c) in classes.iter().enumerate() {
                if c == class {
                    self.fix_node(v);
                }
            }
        }
        // Variables whose events were all un-classed cannot remain: every
        // event has a class. (Rank-0 variables are rejected at build.)
        assert!(
            self.partial.is_complete(),
            "class sweep fixes every variable"
        );
        let assignment = self.partial.into_complete();
        let violated = self
            .inst
            .violated_events(&assignment)
            .expect("assignment is complete and in range");
        FixReport::new(assignment, violated, self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use lll_coloring::distance2_coloring;
    use lll_local::Simulator;
    use lll_numeric::BigRational;

    /// Hyper-ring instance with very rare events (k large), so even the
    /// strong FG criterion holds.
    fn sparse_hyper_ring(n: usize, k: usize) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(n);
        for i in 0..n {
            b.add_uniform_variable(&[i, (i + 1) % n, (i + 2) % n], k);
        }
        // Event j occurs iff its three variables are all 0.
        for j in 0..n {
            b.set_event_bad_tuples(j, [[0, 0, 0]]);
        }
        b.build().unwrap()
    }

    #[test]
    fn criterion_math() {
        let inst = sparse_hyper_ring(12, 3); // p = 1/27, d = 4
                                             // 2 classes: 1/27 · 25 < 1; 3 classes: 125/27 > 1.
        assert!(fg_criterion(&inst, 2).holds);
        assert!(!fg_criterion(&inst, 3).holds);
        let c = fg_criterion(&inst, 3);
        assert!((c.bound - 125.0 / 27.0).abs() < 1e-9);
    }

    #[test]
    fn solves_with_a_real_distance2_coloring_when_events_are_rare_enough() {
        // Need p·(d+1)^C < 1 with C ≈ 25 classes and d = 4: p < 5^-25 —
        // use k-ary variables with k³ > 5^25 ⇒ k ≥ 2^14. Instead,
        // shrink the class count by using the trivial partition into few
        // classes on a path-like instance.
        // Here: a small hyper-ring, k = 40 (p = 1/64000), and the real
        // distance-2 coloring of its dependency graph (9 colors needed
        // at most; criterion 5^9/64000 ≈ 30 > 1 — still fails!). This
        // demonstrates how demanding the generic criterion is; the test
        // asserts the documented refusal, then runs unchecked and
        // observes that the heuristic still succeeds here.
        let inst = sparse_hyper_ring(12, 40);
        let g = inst.dependency_graph();
        let sim = Simulator::with_shuffled_ids(g, 3);
        let col = distance2_coloring(&sim, 10_000).unwrap();
        let crit = fg_criterion(&inst, col.palette);
        assert!(
            !crit.holds,
            "the generic criterion is very demanding: {crit:?}"
        );
        let report = FgFixer::new_unchecked(&inst).run(&col.colors);
        assert!(report.is_success());
    }

    #[test]
    fn certified_run_with_distance2_classes() {
        // v mod 5 is a distance-2 partition of the hyper-ring(10)
        // dependency graph (same class ⇒ index gap 5 ⇒ distance 3 under
        // steps ±1, ±2). Criterion for C = 5 classes, d = 4:
        // p·5^5 < 1 ⇔ k³ > 3125 ⇔ k ≥ 15; use k = 16.
        let inst = sparse_hyper_ring(10, 16);
        let fixer = FgFixer::new(&inst, 5).unwrap();
        let classes: Vec<usize> = (0..10).map(|v| v % 5).collect();
        // distance-2 check: same-class nodes are ≥ 3 apart.
        let g = inst.dependency_graph();
        for u in 0..10 {
            for v in (u + 1)..10 {
                if classes[u] == classes[v] {
                    assert!(g.bfs_distances(u)[v] >= 3);
                }
            }
        }
        let report = fixer.run(&classes);
        assert!(report.is_success());
    }

    #[test]
    fn refuses_instances_the_sharp_fixer_accepts() {
        // The paper's point, executable: an instance below the *sharp*
        // threshold but far above the generic criterion.
        let inst = sparse_hyper_ring(12, 3); // p·2^d = 16/27 < 1
        assert!(inst.satisfies_exponential_criterion());
        assert!(crate::Fixer3::new(&inst).is_ok());
        // A genuine distance-2 schedule needs ≥ 5 classes here; the
        // generic criterion already fails at 3.
        assert!(matches!(
            FgFixer::new(&inst, 5),
            Err(FixerError::CriterionViolated { .. })
        ));
    }

    #[test]
    fn exact_backend_and_rank_freedom() {
        // FG handles rank-4 variables, which Fixer3 rejects.
        let mut b = InstanceBuilder::<BigRational>::new(4);
        let x = b.add_uniform_variable(&[0, 1, 2, 3], 64);
        b.set_event_predicate(0, move |vals| vals[x] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1);
        b.set_event_predicate(2, move |vals| vals[x] == 2);
        b.set_event_predicate(3, move |vals| vals[x] == 3);
        let inst = b.build().unwrap();
        assert!(crate::Fixer3::new(&inst).is_err());
        // p = 1/64, d = 3, one class: 1/64·4 < 1.
        let report = FgFixer::new(&inst, 1).unwrap().run(&[0, 0, 0, 0]);
        assert!(report.is_success());
    }
}
