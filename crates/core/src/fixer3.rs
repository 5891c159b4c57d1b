//! The rank-3 deterministic fixer (Theorem 1.3) — the paper's main
//! contribution.
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
//! Rank-2 and rank-1 variables are handled by the weighted rank-2 rule
//! and plain expectation, matching the paper's "virtual third event"
//! reduction without materialising virtual nodes.

use lll_numeric::Num;
use lll_obs::{NullRecorder, NullTiming, Recorder, TimingSink};

use crate::error::FixerError;
use crate::fixer2::{fix_rank_le2, fix_step_event, inc_or_zero, non_finite, recorded_inc};
use crate::instance::{Instance, PartialAssignment, ValueProbs};
use crate::triples::{decompose, representability_score, Phi};
use crate::{FixReport, FixStepRecord};

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

/// The sequential rank-3 fixing process.
///
/// See the crate-level example. Like [`Fixer2`](crate::Fixer2), the
/// process is order-oblivious; `new` validates rank ≤ 3 and the
/// exponential criterion, `new_unchecked` skips the criterion for the
/// threshold experiments.
#[derive(Debug, Clone)]
pub struct Fixer3<'i, T> {
    inst: &'i Instance<T>,
    partial: PartialAssignment,
    phi: Phi<T>,
    rule: ValueRule,
    invariant_intact: bool,
    /// Global index of this fixer's first step — 0 for a root fixer,
    /// the shard's start position for a sweep fork (so recorded
    /// `fix_step` events carry run-global step numbers).
    step_base: usize,
    steps: Vec<FixStepRecord>,
    /// `Pr[v | partial]` per event, refreshed whenever a *live* fixing
    /// step touches `v` — the value-selection loop already computes the
    /// winner's conditional probability, so stashing it here lets
    /// [`audit_delta`](crate::sweep::ClassFixer::audit_delta) skip the
    /// re-enumeration. Entries are meaningful only for events touched by
    /// the steps since the last fork/absorb, which is exactly the set a
    /// class audit reads; anything else may be stale and must not be
    /// trusted (see [`audit_delta_for`](crate::audit::audit_delta_for)).
    post_probs: Vec<Option<T>>,
    /// The bucketed-pass buffers of a step, one per touched event,
    /// reused across steps.
    by_value: [ValueProbs<T>; 3],
}

impl<'i, T: Num> Fixer3<'i, T> {
    /// Creates a fixer, validating rank ≤ 3 and `p < 2^-d`.
    ///
    /// # Errors
    ///
    /// [`FixerError::RankTooLarge`] or [`FixerError::CriterionViolated`].
    pub fn new(inst: &'i Instance<T>) -> Result<Fixer3<'i, T>, FixerError> {
        let fixer = Fixer3::new_unchecked(inst)?;
        inst.check_exponential_criterion(inst.max_event_probability())?;
        Ok(fixer)
    }

    /// Creates a fixer without the criterion check (rank ≤ 3 is still
    /// required).
    ///
    /// # Errors
    ///
    /// [`FixerError::RankTooLarge`].
    pub fn new_unchecked(inst: &'i Instance<T>) -> Result<Fixer3<'i, T>, FixerError> {
        let rank = inst.max_rank();
        if rank > 3 {
            return Err(FixerError::RankTooLarge {
                found: rank,
                supported: 3,
            });
        }
        Ok(Fixer3 {
            inst,
            partial: PartialAssignment::new(inst.num_variables()),
            phi: Phi::ones(inst.dependency_graph()),
            rule: ValueRule::default(),
            invariant_intact: true,
            step_base: 0,
            steps: Vec::new(),
            post_probs: vec![None; inst.num_events()],
            by_value: Default::default(),
        })
    }

    /// Selects the value-selection rule (ablation A1); returns `self`.
    pub fn with_rule(mut self, rule: ValueRule) -> Fixer3<'i, T> {
        self.rule = rule;
        self
    }

    /// The instance being fixed.
    pub fn instance(&self) -> &'i Instance<T> {
        self.inst
    }

    /// Current partial assignment.
    pub fn partial(&self) -> &PartialAssignment {
        &self.partial
    }

    /// Current potential `φ`.
    pub fn phi(&self) -> &Phi<T> {
        &self.phi
    }

    /// Whether every fixing step so far maintained property `P*`
    /// (always `true` below the threshold; above it the greedy fallback
    /// may have to break sub-property (1)).
    pub fn invariant_intact(&self) -> bool {
        self.invariant_intact
    }

    /// Fixes variable `x`, returning the chosen value. Exact cost ties
    /// select the lowest value index, for every backend — the class
    /// sweep's determinism relies on this.
    ///
    /// # Errors
    ///
    /// [`FixerError::NonFiniteCost`] if a cost or score is not
    /// comparable (an `f64` NaN, e.g. `0·∞` from a degenerate
    /// φ-product).
    ///
    /// # Panics
    ///
    /// Panics if `x` is already fixed.
    pub fn fix_variable(&mut self, x: usize) -> Result<usize, FixerError> {
        self.fix_variable_recorded(x, &mut NullRecorder)
    }

    /// [`fix_variable`](Fixer3::fix_variable) with a flight recorder:
    /// emits one [`Event::FixStep`](lll_obs::Event::FixStep) carrying
    /// the increase factors, the post-update φ-products and the `P*` pair-sum headroom (3 entries
    /// at rank 3, one per dependency edge of the hyperedge). With
    /// [`NullRecorder`] this compiles to exactly the unrecorded path.
    ///
    /// # Errors
    ///
    /// As [`fix_variable`](Fixer3::fix_variable).
    ///
    /// # Panics
    ///
    /// Panics if `x` is already fixed.
    pub fn fix_variable_recorded<R: Recorder>(
        &mut self,
        x: usize,
        rec: &mut R,
    ) -> Result<usize, FixerError> {
        assert!(self.partial.get(x).is_none(), "variable {x} already fixed");
        let choice = match *self.inst.variable(x).affects() {
            [u, v, w] => self.fix_rank3(x, (u, v, w), None)?,
            _ => fix_rank_le2(
                self.inst,
                &self.partial,
                &mut self.phi,
                &mut self.post_probs,
                &mut self.by_value,
                x,
                None,
            )?,
        };
        if R::ENABLED {
            rec.record(&fix_step_event(
                self.inst,
                &self.phi,
                self.step_base + self.steps.len(),
                x,
                choice,
                |i, ev| recorded_inc(&self.by_value[i], &self.post_probs[ev]),
            ));
        }
        self.partial.fix(x, choice);
        self.steps.push(FixStepRecord {
            variable: x,
            value: choice,
        });
        Ok(choice)
    }

    /// The rank-3 step described in the module docs; returns the chosen
    /// value. `replay = Some(y)` makes `y` the only candidate, so the
    /// step applies exactly the updates of a search that chose `y`.
    fn fix_rank3(
        &mut self,
        x: usize,
        (u, v, w): (usize, usize, usize),
        replay: Option<usize>,
    ) -> Result<usize, FixerError> {
        let g = self.inst.dependency_graph();
        let e = g.edge_id(u, v).expect("u, v share variable x");
        let e1 = g.edge_id(u, w).expect("u, w share variable x");
        let e2 = g.edge_id(v, w).expect("v, w share variable x");
        let at = |eid: usize, node: usize| {
            self.phi
                .get(eid, node)
                .expect("node is an endpoint of its edge")
                .clone()
        };
        let a = at(e, u) * at(e1, u);
        let b = at(e, v) * at(e2, v);
        let c = at(e1, w) * at(e2, w);

        let values = match replay {
            Some(y) => y..y + 1,
            None => 0..self.inst.variable(x).num_values(),
        };
        for (probs, ev) in self.by_value.iter_mut().zip([u, v, w]) {
            self.inst.probability_by_value(ev, &self.partial, x, probs);
        }
        let [bu, bv, bw] = &self.by_value;
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
                let endpoint = "node is an endpoint of its edge";
                self.phi.set(e, u, d.a1).expect(endpoint);
                self.phi.set(e1, u, d.a2).expect(endpoint);
                self.phi.set(e, v, d.b1).expect(endpoint);
                self.phi.set(e2, v, d.b3).expect(endpoint);
                self.phi.set(e1, w, d.c2).expect(endpoint);
                self.phi.set(e2, w, d.c3).expect(endpoint);
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
        let endpoint = "node is an endpoint of its edge";
        let new_a1 = scale(sa, &self.phi.get(e1, u).expect(endpoint).clone());
        self.phi.set(e, u, new_a1).expect(endpoint);
        let new_b1 = scale(sb, &self.phi.get(e2, v).expect(endpoint).clone());
        self.phi.set(e, v, new_b1).expect(endpoint);
        let new_c2 = scale(sc, &self.phi.get(e2, w).expect(endpoint).clone());
        self.phi.set(e1, w, new_c2).expect(endpoint);
        Ok(y)
    }

    /// Replays a recorded fixing step: fixes variable `x` to the value
    /// `y` a previous run chose, applying exactly the φ updates
    /// [`fix_variable`](Fixer3::fix_variable) would apply for winner `y`
    /// — without re-running the value search and without emitting any
    /// event (the resume seam; see
    /// [`Fixer2::replay_variable`](crate::Fixer2::replay_variable) and
    /// `crate::dist`).
    ///
    /// At rank 3 the equivalence holds because the original step used a
    /// decomposition of `y`'s scaled triple iff one exists: had `y` won
    /// via the multiplicative fallback, *no* candidate decomposed —
    /// in particular `y` — so replaying `decompose`-else-fallback on
    /// `y`'s triple alone takes the same branch and writes the same φ
    /// entries (including the `invariant_intact` flag).
    ///
    /// # Errors
    ///
    /// [`FixerError::NonFiniteCost`] if the recorded value's cost is not
    /// comparable (only reachable if the replayed state is degenerate —
    /// an honest prefix of a completed run never trips this).
    ///
    /// # Panics
    ///
    /// Panics if `x` is already fixed or `y` is out of range (the
    /// resumed drivers validate recorded values before replaying).
    pub fn replay_variable(&mut self, x: usize, y: usize) -> Result<(), FixerError> {
        assert!(self.partial.get(x).is_none(), "variable {x} already fixed");
        let var = self.inst.variable(x);
        assert!(y < var.num_values(), "value {y} out of range");
        match *var.affects() {
            [u, v, w] => {
                self.fix_rank3(x, (u, v, w), Some(y))?;
            }
            _ => {
                fix_rank_le2(
                    self.inst,
                    &self.partial,
                    &mut self.phi,
                    &mut self.post_probs,
                    &mut self.by_value,
                    x,
                    Some(y),
                )?;
            }
        }
        self.partial.fix(x, y);
        self.steps.push(FixStepRecord {
            variable: x,
            value: y,
        });
        Ok(())
    }

    /// Runs the process over the given variable order (must enumerate
    /// every unfixed variable exactly once) and reports the outcome.
    ///
    /// # Errors
    ///
    /// [`FixerError::NonFiniteCost`] if a fixing step computes an
    /// incomparable cost (see [`fix_variable`](Fixer3::fix_variable)).
    ///
    /// # Panics
    ///
    /// Panics if the order re-fixes or misses a variable.
    pub fn run(self, order: impl IntoIterator<Item = usize>) -> Result<FixReport, FixerError> {
        self.run_with(order, None, &mut NullRecorder, &mut NullTiming)
    }

    /// Runs the process in variable-id order.
    ///
    /// # Errors
    ///
    /// As [`run`](Fixer3::run).
    pub fn run_default(self) -> Result<FixReport, FixerError> {
        let m = self.inst.num_variables();
        self.run(0..m)
    }

    /// [`run`](Fixer3::run) with an optional `P*` audit after every
    /// step, a flight recorder and a side-band timing sink — the
    /// contract of [`Fixer2::run_with`](crate::Fixer2::run_with), whose
    /// implementation it shares.
    ///
    /// # Errors
    ///
    /// As [`run`](Fixer3::run), plus [`FixerError::PStarViolated`] at the
    /// first step after which the audited invariant no longer holds.
    ///
    /// # Panics
    ///
    /// Panics if the order re-fixes or misses a variable.
    pub fn run_with<R: Recorder, S: TimingSink>(
        self,
        order: impl IntoIterator<Item = usize>,
        audit: Option<(&T, &T)>,
        rec: &mut R,
        timing: &mut S,
    ) -> Result<FixReport, FixerError> {
        crate::sweep::run_in_order(self, order, audit, rec, timing)
    }

    /// Finalizes into a report (all variables must be fixed).
    ///
    /// # Panics
    ///
    /// Panics if some variable is unfixed.
    pub fn into_report(self) -> FixReport {
        let assignment = self.partial.into_complete();
        let violated = self
            .inst
            .violated_events(&assignment)
            .expect("assignment is complete and in range");
        FixReport::new(assignment, violated, self.steps)
    }
}

impl<T: Num> crate::sweep::ClassFixer<T> for Fixer3<'_, T> {
    fn instance(&self) -> &Instance<T> {
        self.inst
    }

    fn partial(&self) -> &PartialAssignment {
        &self.partial
    }

    fn phi(&self) -> &Phi<T> {
        &self.phi
    }

    fn into_report(self) -> FixReport {
        Fixer3::into_report(self)
    }

    fn fork(&self, step_base: usize) -> Self {
        Fixer3 {
            inst: self.inst,
            partial: self.partial.clone(),
            phi: self.phi.clone(),
            rule: self.rule,
            invariant_intact: self.invariant_intact,
            step_base,
            steps: Vec::new(),
            // A fork audits only events its own live steps touch, so it
            // starts with an empty probability cache instead of deep-
            // cloning the parent's (absorb likewise leaves the parent's
            // cache alone — its stale entries are never read).
            post_probs: vec![None; self.inst.num_events()],
            by_value: self.by_value.clone(),
        }
    }

    fn steps_done(&self) -> usize {
        self.step_base + self.steps.len()
    }

    fn fix_cell<R: Recorder>(&mut self, cell: &[usize], rec: &mut R) -> Result<(), FixerError> {
        for &x in cell {
            self.fix_variable_recorded(x, rec)?;
        }
        Ok(())
    }

    fn absorb(&mut self, shard: Self) {
        let g = self.inst.dependency_graph();
        // A fixed variable's φ writes are confined to the dependency
        // edges among its affected events; copying every entry of those
        // edges (written or not) is safe because no concurrent shard
        // touches them — class cells have disjoint event sets.
        for step in &shard.steps {
            self.partial.fix(step.variable, step.value);
            let touched = self.inst.variable(step.variable).affects();
            for (i, &u) in touched.iter().enumerate() {
                for &v in &touched[i + 1..] {
                    let eid = g.edge_id(u, v).expect("co-affected events are adjacent");
                    for node in [u, v] {
                        let val = shard
                            .phi
                            .get(eid, node)
                            .expect("node is an endpoint of its edge")
                            .clone();
                        self.phi
                            .set(eid, node, val)
                            .expect("node is an endpoint of its edge");
                    }
                }
            }
        }
        self.invariant_intact &= shard.invariant_intact;
        self.steps.extend(shard.steps);
    }

    fn replay(&mut self, x: usize, y: usize) -> Result<(), FixerError> {
        self.replay_variable(x, y)
    }

    fn audit_delta(&self, vars: &[usize], p_bound: &T, tol: &T) -> crate::audit::AuditDelta<T> {
        crate::audit::audit_delta_for(
            self.inst,
            &self.partial,
            &self.phi,
            &self.post_probs,
            vars,
            p_bound,
            tol,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_p_star;
    use crate::instance::InstanceBuilder;
    use lll_numeric::BigRational;
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
