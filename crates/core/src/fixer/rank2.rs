//! The rank ≤ 2 step (Theorem 1.1), taken by every fixer for its
//! rank-1 and rank-2 variables.
//!
//! Every such variable sits on one edge `e = {u, v}` of the dependency
//! graph (or on one event). Fixing variable `X` on `e`: by linearity of
//! expectation there is a value `y` with
//!
//! ```text
//! Inc(u, y)·s + Inc(v, y)·t ≤ s + t ≤ 2,
//! ```
//!
//! where `s = φ_e^u`, `t = φ_e^v` are the current bookkeeping weights
//! (all 1 initially) and `Inc(·, y)` are the conditional-probability
//! increase factors. Picking the minimiser and updating
//! `φ_e^u ← Inc(u,y)·φ_e^u`, `φ_e^v ← Inc(v,y)·φ_e^v` keeps the weighted
//! sum on every edge ≤ 2 and the conditional probability of every event
//! ≤ `p·Π_{e∋v} φ_e^v` — so after all variables are fixed, every event's
//! probability is `< p·2^d < 1`, i.e. `0`. The order of fixing is
//! irrelevant (the process is *order-oblivious*), which is what makes
//! the distributed schedule of Corollary 1.2 correct.

use lll_numeric::{BigInt, BigRational, Num};

use super::{buffers, inc_or_zero, non_finite, shared_edge, Fixer};
use crate::error::FixerError;
use crate::instance::ValueProbs;

impl<T: Num, const R: usize> Fixer<'_, T, R> {
    /// One fixing step of a rank-1 or rank-2 variable `x`; returns the
    /// chosen value.
    ///
    /// Rank 1 takes the value of least `Inc(u, y)`. Rank 2 takes the
    /// value of least `φ_e^u·Inc(u, y) + φ_e^v·Inc(v, y)` and writes the
    /// two weighted factors into `φ_e^u` and `φ_e^v`. Exact cost ties
    /// select the lowest value index on every backend (strict `<`); the
    /// class sweep's determinism relies on this. Every touched event's
    /// post-fix probability goes to `post_probs`. Each touched event is
    /// walked once, by [`Instance::probability_by_value`] into
    /// `by_value` (one buffer per touched event, in `affects` order),
    /// which then holds the step's `Pr[E | partial]` for the recorder.
    ///
    /// `replay = Some(y)` applies the updates for winner `y` without the
    /// search. A rank-1 replay writes nothing.
    ///
    /// # Errors
    ///
    /// [`FixerError::NonFiniteCost`] if a cost is not comparable (an
    /// `f64` NaN, e.g. `0·∞` from a degenerate φ-product);
    /// [`FixerError::NotAdjacent`] or [`FixerError::NotAnEndpoint`] if
    /// the dependency graph has no room for the edge's φ values;
    /// [`FixerError::RankTooLarge`] if `x` has rank 3 or more.
    ///
    /// [`Instance::probability_by_value`]: crate::Instance::probability_by_value
    pub(super) fn fix_rank_le2(
        &mut self,
        x: usize,
        replay: Option<usize>,
    ) -> Result<usize, FixerError> {
        let inst = self.inst;
        let cost_error = |event| FixerError::NonFiniteCost { variable: x, event };
        match *inst.variable(x).affects() {
            [u] => {
                if let Some(y) = replay {
                    return Ok(y);
                }
                let [bu] = buffers(&mut self.by_value)?;
                inst.probability_by_value(u, &self.partial, x, bu);
                // Any value with Inc ≤ 1 exists by expectation. An
                // impossible event reports p = Inc = 0 for every value.
                let (y, p_u) = match bu.old().as_rational() {
                    Some(_) => {
                        let (y, [p]) = exact_search([(&*bu, &BigRational::one())]);
                        (y, T::from_rational(p))
                    }
                    None => {
                        let mut best: Option<(T, usize, T)> = None;
                        for y in 0..bu.num_values() {
                            let p_u = if bu.old().is_zero() {
                                T::zero()
                            } else {
                                bu.prob(y)
                            };
                            let inc = inc_or_zero(p_u.clone(), bu.old());
                            if non_finite(&inc) {
                                return Err(cost_error(u));
                            }
                            if best.as_ref().is_none_or(|(b, ..)| inc < *b) {
                                best = Some((inc, y, p_u));
                            }
                        }
                        let (_, y, p_u) = best.expect("variables have at least one value");
                        (y, p_u)
                    }
                };
                self.post_probs[u] = Some(p_u);
                Ok(y)
            }
            [u, v] => {
                let eid = shared_edge(inst, u, v)?;
                let s = self.phi.get(eid, u)?.clone();
                let t = self.phi.get(eid, v)?.clone();
                let [bu, bv] = buffers(&mut self.by_value)?;
                inst.probability_by_value(u, &self.partial, x, bu);
                inst.probability_by_value(v, &self.partial, x, bv);
                let (bu, bv) = (&*bu, &*bv);
                let (old_u, old_v) = (bu.old(), bv.old());
                let exact = (
                    s.as_rational(),
                    t.as_rational(),
                    old_u.as_rational(),
                    old_v.as_rational(),
                );
                let (y, p_u, p_v) = match (replay, exact) {
                    (Some(y), _) => (y, bu.prob(y), bv.prob(y)),
                    (None, (Some(s), Some(t), Some(_), Some(_))) => {
                        let (y, [p_u, p_v]) = exact_search([(bu, s), (bv, t)]);
                        (y, T::from_rational(p_u), T::from_rational(p_v))
                    }
                    _ => {
                        let mut best: Option<(T, usize, T, T)> = None;
                        for y in 0..bu.num_values() {
                            let p_u = bu.prob(y);
                            let cost_u = T::mul_div(p_u.clone(), s.clone(), old_u.clone());
                            if non_finite(&cost_u) {
                                return Err(cost_error(u));
                            }
                            let p_v = bv.prob(y);
                            let cost_v = T::mul_div(p_v.clone(), t.clone(), old_v.clone());
                            if non_finite(&cost_v) {
                                return Err(cost_error(v));
                            }
                            let cost = cost_u + cost_v;
                            if non_finite(&cost) {
                                return Err(cost_error(u));
                            }
                            if best.as_ref().is_none_or(|(b, ..)| cost < *b) {
                                best = Some((cost, y, p_u, p_v));
                            }
                        }
                        let (_, y, p_u, p_v) = best.expect("variables have at least one value");
                        (y, p_u, p_v)
                    }
                };
                // Only the winner's φ values are built.
                let new_u = T::mul_div(p_u.clone(), s, old_u.clone());
                if non_finite(&new_u) {
                    return Err(cost_error(u));
                }
                let new_v = T::mul_div(p_v.clone(), t, old_v.clone());
                if non_finite(&new_v) {
                    return Err(cost_error(v));
                }
                self.phi.set(eid, u, new_u)?;
                self.phi.set(eid, v, new_v)?;
                self.post_probs[u] = Some(p_u);
                self.post_probs[v] = Some(p_v);
                Ok(y)
            }
            ref wider => Err(FixerError::RankTooLarge {
                found: wider.len(),
                supported: 2,
            }),
        }
    }
}

/// The exact value search in integers over the cost
/// `Σ_i w_i·Inc(e_i, y)` of the `terms` `(probs_i, w_i)`, where
/// `probs_i` holds one bucketed pass over `e_i`: `old_i = Pr[e_i |
/// partial]` and `Pr[e_i | partial ∪ {x:y}] = N_i(y)/D_i`, with `D_i`
/// the same for every `y`. The cost times the positive constant
/// `Π_i D_i·old_i.num·w_i.den` is the integer key `Σ_i c_i·N_i(y)` with
/// `c_i = w_i.num·old_i.den·Π_{j≠i} D_j·old_j.num·w_j.den`. So the keys
/// order the values as the rational costs do, ties included, and strict
/// `<` keeps the lowest index. An impossible event (`old_i = 0`) costs
/// 0 under `mul_div`'s zero-divisor convention: its term drops, its
/// factor leaves the constant, and its post-fix probability is 0.
/// Returns the winner and its post-fix probabilities.
fn exact_search<T: Num, const N: usize>(
    terms: [(&ValueProbs<T>, &BigRational); N],
) -> (usize, [BigRational; N]) {
    let old = |i: usize| {
        terms[i]
            .0
            .old()
            .as_rational()
            .expect("exact backends hold rationals")
    };
    let scale = |j: usize| {
        let (probs, w) = terms[j];
        if old(j).is_zero() {
            return BigInt::one();
        }
        &(probs.den() * old(j).numer()) * w.denom()
    };
    let coef: [BigInt; N] = std::array::from_fn(|i| {
        if old(i).is_zero() {
            return BigInt::zero();
        }
        let own = terms[i].1.numer() * old(i).denom();
        (0..N)
            .filter(|&j| j != i)
            .fold(own, |acc, j| &acc * &scale(j))
    });
    let key = |y: usize| {
        (0..N)
            .filter(|&i| !coef[i].is_zero())
            .fold(BigInt::zero(), |acc, i| {
                &acc + &(&coef[i] * terms[i].0.num(y))
            })
    };
    let mut best = (key(0), 0);
    for y in 1..terms[0].0.num_values() {
        let k = key(y);
        if k < best.0 {
            best = (k, y);
        }
    }
    let y = best.1;
    let probs = std::array::from_fn(|i| {
        if old(i).is_zero() {
            BigRational::zero()
        } else {
            BigRational::new(terms[i].0.num(y).clone(), terms[i].0.den().clone())
        }
    });
    (y, probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_p_star;
    use crate::instance::{Instance, InstanceBuilder};
    use crate::Fixer2;
    use lll_obs::NullTiming;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};

    fn q(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    /// Ring instance: one k-valued fair variable per ring edge; the
    /// event at node i occurs iff both incident variables equal 0.
    /// p = 1/k², d = 2 ⇒ criterion needs k² > 4.
    fn ring_instance(n: usize, k: usize) -> Instance<BigRational> {
        let mut b = InstanceBuilder::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
            .collect();
        for i in 0..n {
            let left = vars[(i + n - 1) % n];
            let right = vars[i];
            b.set_event_predicate(i, move |vals| vals[left] == 0 && vals[right] == 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn solves_ring_below_threshold() {
        let inst = ring_instance(12, 3); // p·2^d = 4/9 < 1
        assert!(inst.satisfies_exponential_criterion());
        let report = Fixer2::new(&inst).unwrap().run_default().unwrap();
        assert!(
            report.is_success(),
            "violated: {:?}",
            report.violated_events()
        );
        assert!(inst.no_event_occurs(report.assignment()).unwrap());
    }

    #[test]
    fn order_oblivious_with_p_star_audit() {
        let inst = ring_instance(10, 3);
        let p = inst.max_event_probability();
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let mut order: Vec<usize> = (0..inst.num_variables()).collect();
            order.shuffle(&mut rng);
            let mut fixer = Fixer2::new(&inst).unwrap();
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
            let report = fixer.into_report();
            assert!(report.is_success(), "trial {trial}");
        }
    }

    #[test]
    fn rejects_rank3_instances() {
        let mut b = InstanceBuilder::<f64>::new(3);
        b.add_uniform_variable(&[0, 1, 2], 2);
        let inst = b.build().unwrap();
        assert!(matches!(
            Fixer2::new(&inst),
            Err(FixerError::RankTooLarge {
                found: 3,
                supported: 2
            })
        ));
    }

    #[test]
    fn rejects_at_threshold_but_unchecked_runs() {
        // Sinkless-orientation-style tightness: p = 2^-d exactly.
        let inst = ring_instance(8, 2); // p = 1/4, d = 2: p·2^d = 1
        assert!(!inst.satisfies_exponential_criterion());
        assert!(matches!(
            Fixer2::new(&inst),
            Err(FixerError::CriterionViolated { .. })
        ));
        // Unchecked: the greedy process still runs to completion (it may
        // or may not succeed — on this instance it happens to succeed,
        // the guarantee is simply gone).
        let report = Fixer2::new_unchecked(&inst).unwrap().run_default().unwrap();
        assert_eq!(report.assignment().len(), 8);
    }

    #[test]
    fn rank1_variables_are_handled() {
        let mut b = InstanceBuilder::<BigRational>::new(1);
        let x = b.add_uniform_variable(&[0], 4);
        let y = b.add_uniform_variable(&[0], 4);
        b.set_event_predicate(0, move |vals| vals[x] == 2 && vals[y] == 3);
        let inst = b.build().unwrap();
        assert_eq!(inst.max_dependency_degree(), 0);
        // p = 1/16 < 2^0 = 1.
        let report = Fixer2::new(&inst).unwrap().run_default().unwrap();
        assert!(report.is_success());
    }

    #[test]
    fn biased_distributions() {
        // Non-uniform variables: value 0 with prob 9/10. Event at i
        // occurs iff both incident variables are 0 — the fixer must
        // steer away from the likely-bad values deterministically.
        let n = 6;
        let mut b = InstanceBuilder::<BigRational>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_variable(&[i, (i + 1) % n], vec![q(9, 10), q(1, 20), q(1, 20)]))
            .collect();
        for i in 0..n {
            let left = vars[(i + n - 1) % n];
            let right = vars[i];
            // Event: both incident variables *differ* (asymmetric, rare).
            b.set_event_predicate(i, move |vals| vals[left] == 1 && vals[right] == 2);
        }
        let inst = b.build().unwrap();
        // p = 1/400, d = 2 ⇒ p·2^d = 1/100 < 1.
        assert!(inst.satisfies_exponential_criterion());
        let report = Fixer2::new(&inst).unwrap().run_default().unwrap();
        assert!(report.is_success());
    }

    #[test]
    fn multiple_variables_per_edge() {
        // Two variables on the same event pair — the weighted-sum
        // bookkeeping must absorb repeated fixings on one edge.
        let mut b = InstanceBuilder::<BigRational>::new(2);
        let x = b.add_uniform_variable(&[0, 1], 4);
        let y = b.add_uniform_variable(&[0, 1], 4);
        b.set_event_predicate(0, move |vals| vals[x] == 0 && vals[y] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1 && vals[y] == 1);
        let inst = b.build().unwrap();
        // p = 1/16, d = 1 ⇒ p·2 = 1/8 < 1.
        assert!(inst.satisfies_exponential_criterion());
        let p = inst.max_event_probability();
        for order in [vec![0, 1], vec![1, 0]] {
            let mut fixer = Fixer2::new(&inst).unwrap();
            for &v in &order {
                fixer.fix_variable(v).unwrap();
                let audit = audit_p_star(
                    &inst,
                    fixer.partial(),
                    fixer.phi(),
                    &p,
                    &BigRational::zero(),
                );
                assert!(audit.holds());
            }
            assert!(fixer.into_report().is_success());
        }
    }

    #[test]
    fn recorded_run_matches_report_steps() {
        let inst = ring_instance(12, 3);
        let mut rec = lll_obs::CounterRecorder::new();
        let report = Fixer2::new(&inst)
            .unwrap()
            .run_with(0..inst.num_variables(), None, &mut rec, &mut NullTiming)
            .unwrap();
        assert_eq!(rec.fix_runs, 1);
        assert_eq!(rec.fix_steps, report.num_steps());
        assert_eq!(report.num_steps(), inst.num_variables());
        for (i, s) in report.steps().iter().enumerate() {
            assert_eq!(s.variable, i, "default order fixes in variable-id order");
            assert_eq!(report.assignment()[s.variable], s.value);
        }
        // Below the threshold P* holds, so the recorded pair-sum slack
        // can never go negative.
        assert!(rec.min_headroom >= 0.0, "{}", rec.min_headroom);
    }

    #[test]
    fn recorded_audited_run_emits_a_valid_stream() {
        let inst = ring_instance(10, 3);
        let p = inst.max_event_probability();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let report = Fixer2::new(&inst)
            .unwrap()
            .run_with(
                0..inst.num_variables(),
                Some((&p, &BigRational::zero())),
                &mut rec,
                &mut NullTiming,
            )
            .unwrap();
        assert!(report.is_success());
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        let lines = lll_obs::schema::validate_stream(&text).unwrap_or_else(|e| panic!("{e}"));
        // fix_run_start + (fix_step + audit_pass) per variable + fix_run_end.
        assert_eq!(lines, 2 + 2 * report.num_steps());
    }

    #[test]
    fn f64_backend_agrees_with_exact() {
        let exact = ring_instance(10, 3);
        let mut b = InstanceBuilder::<f64>::new(10);
        let vars: Vec<usize> = (0..10)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % 10], 3))
            .collect();
        for i in 0..10 {
            let left = vars[(i + 10 - 1) % 10];
            let right = vars[i];
            b.set_event_predicate(i, move |vals| vals[left] == 0 && vals[right] == 0);
        }
        let float = b.build().unwrap();
        let re = Fixer2::new(&exact).unwrap().run_default().unwrap();
        let rf = Fixer2::new(&float).unwrap().run_default().unwrap();
        assert!(re.is_success() && rf.is_success());
        assert_eq!(re.assignment(), rf.assignment());
    }

    /// An impossible event (probability 0) makes `Inc = 0`; an infinite
    /// φ entry then produces the `0·∞ = NaN` cost. Pre-PR this panicked
    /// inside `min_by`'s `partial_cmp(..).expect(..)`; now it is a typed
    /// error naming the variable and the event.
    #[test]
    fn nan_cost_is_a_typed_error_not_a_panic() {
        let mut b = InstanceBuilder::<f64>::new(2);
        let x = b.add_uniform_variable(&[0, 1], 3);
        b.set_event_predicate(0, |_| false); // impossible: Inc(0, ·) = 0
        b.set_event_predicate(1, move |vals| vals[x] == 0);
        let inst = b.build().unwrap();
        let mut fixer = Fixer2::new_unchecked(&inst).unwrap();
        let eid = inst
            .dependency_graph()
            .edge_id(0, 1)
            .expect("x co-affects 0 and 1");
        // Degenerate bookkeeping state: φ_e^0 = ∞ (reachable for the
        // f64 backend through overflow in adversarial above-threshold
        // drivers; injected directly here to pin the NaN path).
        fixer.phi.set(eid, 0, f64::INFINITY).unwrap();
        assert_eq!(
            fixer.fix_variable(x),
            Err(FixerError::NonFiniteCost {
                variable: x,
                event: 0
            })
        );
        // The failed step must not have mutated the assignment.
        assert!(fixer.partial().get(x).is_none());
    }

    /// Equal-cost values must select the lowest value index, on exact
    /// and floating backends alike — the parallel class sweep's
    /// byte-identity guarantee leans on this tie-break being pinned.
    #[test]
    fn rank1_ties_select_lowest_value_index() {
        fn tie_instance<T: Num>() -> Instance<T> {
            let mut b = InstanceBuilder::<T>::new(1);
            let x = b.add_uniform_variable(&[0], 4);
            // Only y = 3 is bad: Inc(0, y) = 0 for y ∈ {0, 1, 2} — a
            // three-way exact tie.
            b.set_event_predicate(0, move |vals| vals[x] == 3);
            b.build().unwrap()
        }
        let exact = tie_instance::<BigRational>();
        let mut fixer = Fixer2::new(&exact).unwrap();
        assert_eq!(fixer.fix_variable(0).unwrap(), 0);
        let float = tie_instance::<f64>();
        let mut fixer = Fixer2::new(&float).unwrap();
        assert_eq!(fixer.fix_variable(0).unwrap(), 0);
    }

    /// Predicate calls per step. Each event's support (`x` plus 15
    /// private coins, `2^16` tuples) is past the truth-table limit, so
    /// every tuple the enumeration visits calls the predicate, and the
    /// counts are the walks' work. A step walks each touched event once
    /// over its free variables, recorded or not: `Π_free k_i` calls per
    /// event.
    #[test]
    fn a_step_walks_each_touched_event_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        fn check<T: Num>() {
            let calls = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
            let mut b = InstanceBuilder::<T>::new(2);
            let x = b.add_uniform_variable(&[0, 1], 2);
            let own: Vec<Vec<usize>> = (0..2)
                .map(|v| (0..15).map(|_| b.add_uniform_variable(&[v], 2)).collect())
                .collect();
            for (v, vars) in own.iter().enumerate() {
                let (count, vars) = (Arc::clone(&calls[v]), vars.clone());
                b.set_event_predicate(v, move |vals| {
                    count.fetch_add(1, Ordering::Relaxed);
                    vals[x] == v && vars.iter().all(|&z| vals[z] == 0)
                });
            }
            let inst = b.build().unwrap();
            let taken = || calls.each_ref().map(|c| c.swap(0, Ordering::Relaxed));
            assert_eq!(taken(), [0, 0], "no truth table was built");
            let mut fixer = Fixer2::new_unchecked(&inst).unwrap();
            // Rank 2: both events have 16 free variables.
            fixer.fix_variable(x).unwrap();
            assert_eq!(taken(), [1 << 16, 1 << 16]);
            // Rank 1, recorded: x is fixed, 15 free variables remain.
            let mut rec = lll_obs::CounterRecorder::new();
            fixer.fix_variable_recorded(own[0][0], &mut rec).unwrap();
            assert_eq!(taken(), [1 << 15, 0]);
            assert_eq!(rec.fix_steps, 1);
            // A recorded rank-2 step on a fresh fixer.
            let mut fixer = Fixer2::new_unchecked(&inst).unwrap();
            fixer.fix_variable_recorded(x, &mut rec).unwrap();
            assert_eq!(taken(), [1 << 16, 1 << 16]);
        }
        check::<f64>();
        check::<BigRational>();
    }
}
