//! The rank-3 step (Theorem 1.3) — the paper's main contribution.
//!
//! Bookkeeping is the potential `φ : (edge, endpoint) → [0, 2]` of
//! property `P*` (Definition 3.1). To fix a rank-3 variable `X` on the
//! hyperedge `{u, v, w}` (dependency edges `e = {u,v}`, `e' = {u,w}`,
//! `e'' = {v,w}`), form the current product triple
//!
//! ```text
//! (a, b, c) = (φ_e^u·φ_{e'}^u,  φ_e^v·φ_{e''}^v,  φ_{e'}^w·φ_{e''}^w) ∈ S_rep
//! ```
//!
//! and, for every value `y` of `X`, the scaled triple
//! `s_y = (Inc(u,y)·a, Inc(v,y)·b, Inc(w,y)·c)`. Lemma 3.2 — via the
//! incurvedness of `S_rep` (Lemma 3.7) and the averaging argument of
//! Lemma 3.9 — guarantees that some `s_y` is representable; fixing
//! `X = y` and splicing a decomposition of `s_y` into `φ` preserves
//! `P*`. This module chooses the `y` whose triple is *most robustly*
//! representable (highest [`representability_score`]), which the
//! ablation experiment compares against first-feasible selection.
//!
//! Rank-2 and rank-1 variables take the rank ≤ 2 step (module
//! `rank2`), matching the paper's "virtual third event" reduction
//! without materialising virtual nodes.

use lll_numeric::Num;

use super::{buffers, inc_or_zero, non_finite, shared_edge, Fixer};
use crate::error::FixerError;
use crate::triples::{decompose, representability_score};

/// How the fixer chooses among the values whose triples are
/// representable (ablation A1; the default is [`ValueRule::BestScore`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueRule {
    /// Pick the value with the maximum representability score (deepest
    /// inside `S_rep`) — numerically robust.
    #[default]
    BestScore,
    /// Pick the first value (smallest index) whose triple is
    /// representable — the minimal rule the existence proof supports.
    FirstFeasible,
}

impl<T: Num, const R: usize> Fixer<'_, T, R> {
    /// The rank-3 step described in the module docs; returns the chosen
    /// value.
    pub(super) fn fix_rank3(
        &mut self,
        x: usize,
        (u, v, w): (usize, usize, usize),
    ) -> Result<usize, FixerError> {
        let e = shared_edge(self.inst, u, v)?;
        let e1 = shared_edge(self.inst, u, w)?;
        let e2 = shared_edge(self.inst, v, w)?;
        let at = |eid: usize, node: usize| self.phi.get(eid, node).cloned();
        let a = at(e, u)? * at(e1, u)?;
        let b = at(e, v)? * at(e2, v)?;
        let c = at(e1, w)? * at(e2, w)?;

        let values = 0..self.inst.variable(x).num_values();
        let by_value = buffers(&mut self.by_value)?;
        for (probs, ev) in by_value.iter_mut().zip([u, v, w]) {
            self.inst.probability_by_value(ev, &self.partial, x, probs);
        }
        let [bu, bv, bw] = &*by_value;
        let (old_u, old_v, old_w) = (bu.old(), bv.old(), bw.old());
        // Candidate triples, most robustly representable first, each
        // carrying its post-fix probabilities for the audit cache. Every
        // component and score is checked for self-comparability here, so
        // the comparison closures below cannot see a NaN.
        #[allow(clippy::type_complexity)]
        let mut candidates: Vec<(T, usize, (T, T, T), (T, T, T))> =
            Vec::with_capacity(values.len());
        let checked = |s: T, event: usize| {
            if non_finite(&s) {
                return Err(FixerError::NonFiniteCost { variable: x, event });
            }
            Ok(s)
        };
        for y in values {
            let p_u = bu.prob(y);
            let sa = checked(T::mul_div(p_u.clone(), a.clone(), old_u.clone()), u)?;
            let p_v = bv.prob(y);
            let sb = checked(T::mul_div(p_v.clone(), b.clone(), old_v.clone()), v)?;
            // An impossible `w` reports p = Inc = 0.
            let p_w = if old_w.is_zero() {
                T::zero()
            } else {
                bw.prob(y)
            };
            let sc = checked(inc_or_zero(p_w.clone(), old_w) * c.clone(), w)?;
            let score = representability_score(&sa, &sb, &sc);
            if non_finite(&score) {
                return Err(FixerError::NonFiniteCost {
                    variable: x,
                    event: u,
                });
            }
            candidates.push((score, y, (sa, sb, sc), (p_u, p_v, p_w)));
        }
        match self.rule {
            ValueRule::BestScore => candidates.sort_by(|(s1, y1, ..), (s2, y2, ..)| {
                s2.partial_cmp(s1).expect("finite scores").then(y1.cmp(y2))
            }),
            ValueRule::FirstFeasible => {
                // Keep index order, but move non-representable triples to
                // the back (still sorted by score there) so the fallback
                // below remains the best available option.
                candidates.sort_by(|(s1, y1, ..), (s2, y2, ..)| {
                    let r1 = *s1 >= T::zero();
                    let r2 = *s2 >= T::zero();
                    r2.cmp(&r1)
                        .then(if r1 && r2 {
                            y1.cmp(y2)
                        } else {
                            s2.partial_cmp(s1).expect("finite scores")
                        })
                        .then(y1.cmp(y2))
                });
            }
        }

        for (_, y, (sa, sb, sc), (p_u, p_v, p_w)) in &candidates {
            if let Some(d) = decompose(sa, sb, sc) {
                self.phi.set(e, u, d.a1)?;
                self.phi.set(e1, u, d.a2)?;
                self.phi.set(e, v, d.b1)?;
                self.phi.set(e2, v, d.b3)?;
                self.phi.set(e1, w, d.c2)?;
                self.phi.set(e2, w, d.c3)?;
                self.post_probs[u] = Some(p_u.clone());
                self.post_probs[v] = Some(p_v.clone());
                self.post_probs[w] = Some(p_w.clone());
                return Ok(*y);
            }
        }

        // Above the threshold (or, for f64, on a razor-thin boundary) no
        // candidate decomposes: fall back to a multiplicative update that
        // keeps sub-property (2) — each node's φ-product scales by its
        // Inc — but may break the pair sums of sub-property (1).
        self.invariant_intact = false;
        let (_, y, (sa, sb, sc), (p_u, p_v, p_w)) =
            candidates.into_iter().next().expect("k >= 1 values");
        self.post_probs[u] = Some(p_u);
        self.post_probs[v] = Some(p_v);
        self.post_probs[w] = Some(p_w);
        let scale = |target: T, denom: &T| {
            if denom.is_zero() {
                T::zero()
            } else {
                target / denom.clone()
            }
        };
        let new_a1 = scale(sa, self.phi.get(e1, u)?);
        self.phi.set(e, u, new_a1)?;
        let new_b1 = scale(sb, self.phi.get(e2, v)?);
        self.phi.set(e, v, new_b1)?;
        let new_c2 = scale(sc, self.phi.get(e2, w)?);
        self.phi.set(e1, w, new_c2)?;
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_p_star;
    use crate::instance::{Instance, InstanceBuilder};
    use crate::Fixer3;
    use lll_numeric::BigRational;
    use lll_obs::NullTiming;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};

    /// Hyper-ring instance: variable i (k-valued, fair) affects events
    /// {i, i+1, i+2}; the event at node j occurs iff its three variables
    /// all take value 0. p = k^-3, d = 4 ⇒ criterion needs k³ > 16.
    fn hyper_ring_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(n);
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
    fn solves_hyper_ring_below_threshold() {
        let inst = hyper_ring_instance::<BigRational>(12, 3); // 1/27 · 2^4 < 1
        assert_eq!(inst.max_dependency_degree(), 4);
        assert!(inst.satisfies_exponential_criterion());
        let report = Fixer3::new(&inst).unwrap().run_default().unwrap();
        assert!(
            report.is_success(),
            "violated: {:?}",
            report.violated_events()
        );
        assert!(inst.no_event_occurs(report.assignment()).unwrap());
    }

    #[test]
    fn order_oblivious_with_exact_p_star_audit() {
        let inst = hyper_ring_instance::<BigRational>(9, 3);
        let p = inst.max_event_probability();
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..5 {
            let mut order: Vec<usize> = (0..inst.num_variables()).collect();
            order.shuffle(&mut rng);
            let mut fixer = Fixer3::new(&inst).unwrap();
            for &x in &order {
                fixer.fix_variable(x).unwrap();
                let audit = audit_p_star(
                    &inst,
                    fixer.partial(),
                    fixer.phi(),
                    &p,
                    &BigRational::zero(),
                );
                assert!(
                    audit.holds(),
                    "trial {trial}: P* broken after fixing {x}: {audit:?}"
                );
            }
            assert!(fixer.invariant_intact());
            let report = fixer.into_report();
            assert!(report.is_success(), "trial {trial}");
        }
    }

    #[test]
    fn first_feasible_rule_also_succeeds() {
        let inst = hyper_ring_instance::<BigRational>(10, 3);
        let report = Fixer3::new(&inst)
            .unwrap()
            .with_rule(ValueRule::FirstFeasible)
            .run_default()
            .unwrap();
        assert!(report.is_success());
    }

    #[test]
    fn mixed_ranks_in_one_instance() {
        // Rank 1, 2 and 3 variables together; events demand specific
        // joint values, each with probability at most 1/27; d = 2.
        let mut b = InstanceBuilder::<BigRational>::new(3);
        let r1 = b.add_uniform_variable(&[0], 27);
        let r2 = b.add_uniform_variable(&[0, 1], 9);
        let r3 = b.add_uniform_variable(&[0, 1, 2], 3);
        b.set_event_predicate(0, move |vals| {
            vals[r1] == 0 && vals[r2] == 0 && vals[r3] == 0
        });
        b.set_event_predicate(1, move |vals| vals[r2] == 1 && vals[r3] == 1);
        b.set_event_predicate(2, move |vals| vals[r3] == 2);
        let inst = b.build().unwrap();
        assert_eq!(inst.max_rank(), 3);
        // p = max(1/2187, 1/27, 1/3) = 1/3... too big for d = 2 (needs
        // < 1/4): sharpen event 2 to a rarer predicate below.
        let mut b = InstanceBuilder::<BigRational>::new(3);
        let r1 = b.add_uniform_variable(&[0], 27);
        let r2 = b.add_uniform_variable(&[0, 1], 9);
        let r3 = b.add_uniform_variable(&[0, 1, 2], 9);
        b.set_event_predicate(0, move |vals| {
            vals[r1] == 0 && vals[r2] == 0 && vals[r3] == 0
        });
        b.set_event_predicate(1, move |vals| vals[r2] == 1 && vals[r3] == 1);
        b.set_event_predicate(2, move |vals| vals[r3] == 2);
        let inst = b.build().unwrap();
        // p = 1/9 < 2^-2? 1/9 < 1/4 yes.
        assert!(inst.satisfies_exponential_criterion());
        for order in [vec![0, 1, 2], vec![2, 1, 0], vec![1, 2, 0]] {
            let report = Fixer3::new(&inst).unwrap().run(order.clone()).unwrap();
            assert!(report.is_success(), "order {order:?}");
        }
    }

    #[test]
    fn multiple_variables_per_hyperedge() {
        // The paper remarks that several variables on the same three
        // events can be processed individually — the φ bookkeeping
        // absorbs repeated fixings of the same triangle.
        let mut b = InstanceBuilder::<BigRational>::new(3);
        let x = b.add_uniform_variable(&[0, 1, 2], 4);
        let y = b.add_uniform_variable(&[0, 1, 2], 4);
        let z = b.add_uniform_variable(&[0, 1, 2], 4);
        b.set_event_predicate(0, move |vals| vals[x] == 0 && vals[y] == 0 && vals[z] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1 && vals[y] == 1 && vals[z] == 1);
        b.set_event_predicate(2, move |vals| vals[x] == 2 && vals[y] == 2 && vals[z] == 2);
        let inst = b.build().unwrap();
        // p = 1/64 < 2^-2.
        assert!(inst.satisfies_exponential_criterion());
        let p = inst.max_event_probability();
        let mut fixer = Fixer3::new(&inst).unwrap();
        for v in 0..3 {
            fixer.fix_variable(v).unwrap();
            let audit = audit_p_star(
                &inst,
                fixer.partial(),
                fixer.phi(),
                &p,
                &BigRational::zero(),
            );
            assert!(audit.holds(), "after variable {v}: {audit:?}");
        }
        assert!(fixer.into_report().is_success());
    }

    #[test]
    fn rejects_rank4() {
        let mut b = InstanceBuilder::<f64>::new(4);
        b.add_uniform_variable(&[0, 1, 2, 3], 2);
        let inst = b.build().unwrap();
        assert!(matches!(
            Fixer3::new(&inst),
            Err(FixerError::RankTooLarge {
                found: 4,
                supported: 3
            })
        ));
    }

    #[test]
    fn at_threshold_unchecked_still_completes() {
        let inst = hyper_ring_instance::<BigRational>(8, 2); // 1/8·2^4 = 2 ≥ 1
        assert!(!inst.satisfies_exponential_criterion());
        assert!(matches!(
            Fixer3::new(&inst),
            Err(FixerError::CriterionViolated { .. })
        ));
        let report = Fixer3::new_unchecked(&inst).unwrap().run_default().unwrap();
        assert_eq!(report.assignment().len(), 8);
    }

    #[test]
    fn recorded_rank3_steps_carry_three_headroom_entries() {
        let inst = hyper_ring_instance::<BigRational>(12, 3);
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let report = Fixer3::new(&inst)
            .unwrap()
            .run_with(0..inst.num_variables(), None, &mut rec, &mut NullTiming)
            .unwrap();
        assert!(report.is_success());
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        lll_obs::schema::validate_stream(&text).unwrap_or_else(|e| panic!("{e}"));
        // Every variable is rank 3 here: 3 touched events, 3 pair edges.
        for line in text.lines().filter(|l| l.contains("\"fix_step\"")) {
            assert!(line.contains("\"rank\":3"), "{line}");
        }
        let mut counter = lll_obs::CounterRecorder::new();
        let report2 = Fixer3::new(&inst)
            .unwrap()
            .run_with(0..inst.num_variables(), None, &mut counter, &mut NullTiming)
            .unwrap();
        assert_eq!(report2.steps(), report.steps());
        assert_eq!(counter.fix_steps, report.num_steps());
        assert!(counter.min_headroom >= 0.0, "{}", counter.min_headroom);
    }

    #[test]
    fn f64_backend_succeeds_on_hyper_ring() {
        let inst = hyper_ring_instance::<f64>(15, 3);
        let report = Fixer3::new(&inst).unwrap().run_default().unwrap();
        assert!(
            report.is_success(),
            "violated: {:?}",
            report.violated_events()
        );
    }

    #[test]
    fn f64_and_exact_choose_identically_on_hyper_ring() {
        let fe = Fixer3::new_unchecked(&hyper_ring_instance::<BigRational>(10, 3))
            .unwrap()
            .run_default()
            .unwrap();
        let ff = Fixer3::new_unchecked(&hyper_ring_instance::<f64>(10, 3))
            .unwrap()
            .run_default()
            .unwrap();
        assert_eq!(fe.assignment(), ff.assignment());
    }

    /// Rank-3 mirror of the fixer2 NaN regression: an impossible event
    /// gives `Inc = 0`, an infinite φ entry turns the node product into
    /// `∞`, and the scaled triple component becomes `0·∞ = NaN`. Pre-PR
    /// this panicked in the score sort; now it is a typed error.
    #[test]
    fn nan_cost_is_a_typed_error_not_a_panic() {
        let mut b = InstanceBuilder::<f64>::new(3);
        let x = b.add_uniform_variable(&[0, 1, 2], 3);
        b.set_event_predicate(0, |_| false); // impossible: Inc(0, ·) = 0
        b.set_event_predicate(1, move |vals| vals[x] == 0);
        b.set_event_predicate(2, move |vals| vals[x] == 1);
        let inst = b.build().unwrap();
        let mut fixer = Fixer3::new_unchecked(&inst).unwrap();
        let eid = inst
            .dependency_graph()
            .edge_id(0, 1)
            .expect("x co-affects 0 and 1");
        fixer.phi.set(eid, 0, f64::INFINITY).unwrap();
        assert_eq!(
            fixer.fix_variable(x),
            Err(FixerError::NonFiniteCost {
                variable: x,
                event: 0
            })
        );
        assert!(fixer.partial().get(x).is_none());
    }
}
