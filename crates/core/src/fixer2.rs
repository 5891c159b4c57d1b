//! The rank-2 deterministic fixer (Theorem 1.1).
//!
//! Every variable affects at most two events, i.e. sits on one edge of
//! the dependency graph. Fixing variable `X` on edge `e = {u, v}`: by
//! linearity of expectation there is a value `y` with
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
use lll_obs::{Event, NullRecorder, NullTiming, Recorder, TimingSink};

use crate::error::FixerError;
use crate::instance::{Instance, PartialAssignment, ValueProbs};
use crate::triples::Phi;
use crate::{FixReport, FixStepRecord};

/// The sequential rank-2 fixing process.
///
/// Construct with [`Fixer2::new`] (validates rank ≤ 2 and the
/// exponential criterion) or [`Fixer2::new_unchecked`] (skips the
/// criterion check — the greedy process is still well defined above the
/// threshold, it merely loses its guarantee; the threshold experiments
/// rely on exactly this).
///
/// # Examples
///
/// ```
/// use lll_core::{Fixer2, InstanceBuilder};
///
/// let mut b = InstanceBuilder::<f64>::new(2);
/// let x = b.add_uniform_variable(&[0, 1], 4);
/// b.set_event_predicate(0, move |vals| vals[x] == 0);
/// b.set_event_predicate(1, move |vals| vals[x] == 1);
/// let inst = b.build()?;
/// let report = Fixer2::new(&inst)?.run_default()?;
/// assert!(report.is_success());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fixer2<'i, T> {
    inst: &'i Instance<T>,
    partial: PartialAssignment,
    phi: Phi<T>,
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
    by_value: [ValueProbs<T>; 2],
}

impl<'i, T: Num> Fixer2<'i, T> {
    /// Creates a fixer, validating that every variable has rank ≤ 2 and
    /// that the instance satisfies `p < 2^-d`.
    ///
    /// # Errors
    ///
    /// [`FixerError::RankTooLarge`] or [`FixerError::CriterionViolated`].
    pub fn new(inst: &'i Instance<T>) -> Result<Fixer2<'i, T>, FixerError> {
        let fixer = Fixer2::new_unchecked(inst)?;
        inst.check_exponential_criterion(inst.max_event_probability())?;
        Ok(fixer)
    }

    /// Creates a fixer without checking the criterion (rank ≤ 2 is still
    /// required — the bookkeeping lives on single edges).
    ///
    /// # Errors
    ///
    /// [`FixerError::RankTooLarge`].
    pub fn new_unchecked(inst: &'i Instance<T>) -> Result<Fixer2<'i, T>, FixerError> {
        let rank = inst.max_rank();
        if rank > 2 {
            return Err(FixerError::RankTooLarge {
                found: rank,
                supported: 2,
            });
        }
        Ok(Fixer2 {
            inst,
            partial: PartialAssignment::new(inst.num_variables()),
            phi: Phi::ones(inst.dependency_graph()),
            step_base: 0,
            steps: Vec::new(),
            post_probs: vec![None; inst.num_events()],
            by_value: Default::default(),
        })
    }

    /// The instance being fixed.
    pub fn instance(&self) -> &'i Instance<T> {
        self.inst
    }

    /// Current partial assignment.
    pub fn partial(&self) -> &PartialAssignment {
        &self.partial
    }

    /// Current bookkeeping weights (`φ` restricted to the rank-2
    /// reading: edge weights whose per-edge sums stay ≤ 2 below the
    /// threshold).
    pub fn phi(&self) -> &Phi<T> {
        &self.phi
    }

    /// Fixes variable `x` (which must be unfixed), choosing the value
    /// minimising the φ-weighted sum of increase factors; returns the
    /// chosen value. Exact cost ties select the lowest value index, for
    /// every backend — the class sweep's determinism relies on this.
    ///
    /// # Errors
    ///
    /// [`FixerError::NonFiniteCost`] if a cost is not comparable (an
    /// `f64` NaN, e.g. `0·∞` from a degenerate φ-product).
    ///
    /// # Panics
    ///
    /// Panics if `x` is already fixed.
    pub fn fix_variable(&mut self, x: usize) -> Result<usize, FixerError> {
        self.fix_variable_recorded(x, &mut NullRecorder)
    }

    /// [`fix_variable`](Fixer2::fix_variable) with a flight recorder:
    /// emits one [`Event::FixStep`] carrying the increase factors, the
    /// post-update φ-products and the `P*` pair-sum headroom. With
    /// [`NullRecorder`] this compiles to exactly the unrecorded path.
    ///
    /// # Errors
    ///
    /// As [`fix_variable`](Fixer2::fix_variable).
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
        let choice = fix_rank_le2(
            self.inst,
            &self.partial,
            &mut self.phi,
            &mut self.post_probs,
            &mut self.by_value,
            x,
            None,
        )?;
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

    /// Replays a recorded fixing step: fixes variable `x` to the value
    /// `y` a previous run chose, applying exactly the φ updates
    /// [`fix_variable`](Fixer2::fix_variable) would apply for winner `y`
    /// — without re-running the value search and without emitting any
    /// event. Because the fixing process is deterministic, replaying a
    /// run's recorded `(variable, value)` steps reproduces its partial
    /// assignment and `φ` state bit for bit; this is the resume seam the
    /// checkpointed drivers re-seed from (see `crate::dist`).
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
        assert!(
            y < self.inst.variable(x).num_values(),
            "value {y} out of range"
        );
        fix_rank_le2(
            self.inst,
            &self.partial,
            &mut self.phi,
            &mut self.post_probs,
            &mut self.by_value,
            x,
            Some(y),
        )?;
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
    /// incomparable cost (see [`fix_variable`](Fixer2::fix_variable)).
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
    /// As [`run`](Fixer2::run).
    pub fn run_default(self) -> Result<FixReport, FixerError> {
        let m = self.inst.num_variables();
        self.run(0..m)
    }

    /// [`run`](Fixer2::run) with every option attached:
    ///
    /// * `audit = Some((p_bound, tol))` re-verifies property `P*` after
    ///   every fixing step. `p_bound` is the symmetric probability
    ///   bound `p` (usually [`Instance::max_event_probability`]); `tol`
    ///   absorbs floating-point drift (`0` for exact backends).
    /// * `rec` receives the flight record: the
    ///   [`Event::FixRunStart`]/[`Event::FixRunEnd`] bracket, one
    ///   `fix_step` per variable and, when audited, one
    ///   [`Event::AuditPass`]/[`Event::AuditViolation`] per step.
    /// * `timing` receives side-band wall-clock spans: the whole run is
    ///   one [`TimingScope::FixRun`] span and every fixing step one
    ///   [`TimingScope::FixStep`] span. Wall-clock never reaches `rec`,
    ///   so the recorded stream is the same with [`NullTiming`].
    ///
    /// [`NullRecorder`] and [`NullTiming`] compile their instrumentation
    /// away.
    ///
    /// # Errors
    ///
    /// As [`run`](Fixer2::run), plus [`FixerError::PStarViolated`] at the
    /// first step after which the audited invariant no longer holds.
    ///
    /// # Panics
    ///
    /// Panics if the order re-fixes or misses a variable.
    ///
    /// [`TimingScope::FixRun`]: lll_obs::TimingScope::FixRun
    /// [`TimingScope::FixStep`]: lll_obs::TimingScope::FixStep
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

impl<T: Num> crate::sweep::ClassFixer<T> for Fixer2<'_, T> {
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
        Fixer2::into_report(self)
    }

    fn fork(&self, step_base: usize) -> Self {
        Fixer2 {
            inst: self.inst,
            partial: self.partial.clone(),
            phi: self.phi.clone(),
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
        for step in &shard.steps {
            self.partial.fix(step.variable, step.value);
            if let [u, v] = *self.inst.variable(step.variable).affects() {
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

/// Whether a cost value fails to compare to itself — `true` exactly for
/// `f64` NaN (e.g. `0·∞` from a degenerate φ-product); exact backends
/// always compare and never trip this.
pub(crate) fn non_finite<T: PartialOrd>(c: &T) -> bool {
    c.partial_cmp(c).is_none()
}

/// `Inc(E, y) = Pr[E | partial ∪ {x:y}] / Pr[E | partial]`, or 0 if the
/// event is already impossible (`old = 0`), as in the paper.
pub(crate) fn inc_or_zero<T: Num>(p: T, old: &T) -> T {
    if old.is_zero() {
        T::zero()
    } else {
        p / old.clone()
    }
}

/// The recorded `Inc` of a finished step's touched event: the winner's
/// post-fix probability over the step's own `Pr[E | partial]`.
pub(crate) fn recorded_inc<T: Num>(probs: &ValueProbs<T>, post: &Option<T>) -> f64 {
    let post = post.clone().expect("a live step wrote every touched event");
    inc_or_zero(post, probs.old()).to_f64()
}

/// One fixing step of a rank-1 or rank-2 variable `x`, shared by both
/// fixers; returns the chosen value.
///
/// Rank 1 takes the value of least `Inc(u, y)`. Rank 2 takes the value
/// of least `φ_e^u·Inc(u, y) + φ_e^v·Inc(v, y)` and writes the two
/// weighted factors into `φ_e^u` and `φ_e^v`. Exact cost ties select
/// the lowest value index on every backend (strict `<`); the class
/// sweep's determinism relies on this. Every touched event's post-fix
/// probability goes to `post_probs`. Each touched event is walked once,
/// by [`Instance::probability_by_value`] into `by_value` (one buffer
/// per touched event, in `affects` order), which then holds the step's
/// `Pr[E | partial]` for the recorder.
///
/// `replay = Some(y)` applies the updates for winner `y` without the
/// search. A rank-1 replay writes nothing.
///
/// # Errors
///
/// [`FixerError::NonFiniteCost`] if a cost is not comparable (an `f64`
/// NaN, e.g. `0·∞` from a degenerate φ-product).
pub(crate) fn fix_rank_le2<T: Num>(
    inst: &Instance<T>,
    partial: &PartialAssignment,
    phi: &mut Phi<T>,
    post_probs: &mut [Option<T>],
    by_value: &mut [ValueProbs<T>],
    x: usize,
    replay: Option<usize>,
) -> Result<usize, FixerError> {
    let cost_error = |event| FixerError::NonFiniteCost { variable: x, event };
    match *inst.variable(x).affects() {
        [u] => {
            if let Some(y) = replay {
                return Ok(y);
            }
            inst.probability_by_value(u, partial, x, &mut by_value[0]);
            let bu = &by_value[0];
            // Any value with Inc ≤ 1 exists by expectation. An impossible
            // event reports p = Inc = 0 for every value.
            let (y, p_u) = match bu.old().as_rational() {
                Some(_) => {
                    let (y, [p]) = exact_search([(bu, &BigRational::one())]);
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
            post_probs[u] = Some(p_u);
            Ok(y)
        }
        [u, v] => {
            let eid = inst
                .dependency_graph()
                .edge_id(u, v)
                .expect("co-affected events are adjacent");
            let endpoint = "node is an endpoint of its edge";
            let s = phi.get(eid, u).expect(endpoint).clone();
            let t = phi.get(eid, v).expect(endpoint).clone();
            inst.probability_by_value(u, partial, x, &mut by_value[0]);
            inst.probability_by_value(v, partial, x, &mut by_value[1]);
            let (bu, bv) = (&by_value[0], &by_value[1]);
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
            phi.set(eid, u, new_u).expect(endpoint);
            phi.set(eid, v, new_v).expect(endpoint);
            post_probs[u] = Some(p_u);
            post_probs[v] = Some(p_v);
            Ok(y)
        }
        _ => unreachable!("rank validated at construction"),
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

/// Builds the [`Event::FixRunStart`] payload for an instance.
pub(crate) fn fix_run_start_event<T: Num>(inst: &Instance<T>) -> Event {
    Event::FixRunStart {
        variables: inst.num_variables(),
        events: inst.num_events(),
        max_rank: inst.max_rank(),
    }
}

/// Builds the [`Event::AuditPass`]/[`Event::AuditViolation`] payload
/// from an audit report for the given step.
pub(crate) fn audit_event(step: usize, variable: usize, report: &crate::AuditReport) -> Event {
    if report.holds() {
        Event::AuditPass { step, variable }
    } else {
        Event::AuditViolation {
            step,
            variable,
            pair_violations: report.pair_violations.clone(),
            prob_violations: report.prob_violations.clone(),
        }
    }
}

/// Records the audit `report` taken after fixing step `step` (which
/// fixed `variable`) and turns a failed verdict into
/// [`FixerError::PStarViolated`].
pub(crate) fn audit_verdict<R: Recorder>(
    report: crate::AuditReport,
    step: usize,
    variable: usize,
    rec: &mut R,
) -> Result<(), FixerError> {
    if R::ENABLED {
        rec.record(&audit_event(step, variable, &report));
    }
    if report.holds() {
        return Ok(());
    }
    Err(FixerError::PStarViolated {
        step,
        variable,
        pair_violations: report.pair_violations,
        prob_violations: report.prob_violations,
    })
}

/// Builds the [`Event::FixStep`] payload shared by the rank-2 and rank-3
/// fixers: `touched` is the affected-event set of `variable`, `inc` comes
/// from the caller's closure (called with each touched event's position
/// and id), `phi_product` and `headroom` read the already-updated
/// φ-tables.
pub(crate) fn fix_step_event<T: Num>(
    inst: &Instance<T>,
    phi: &Phi<T>,
    step: usize,
    variable: usize,
    value: usize,
    mut inc_of: impl FnMut(usize, usize) -> f64,
) -> Event {
    let g = inst.dependency_graph();
    let touched: Vec<usize> = inst.variable(variable).affects().to_vec();
    let inc: Vec<f64> = touched
        .iter()
        .enumerate()
        .map(|(i, &ev)| inc_of(i, ev))
        .collect();
    let phi_product: Vec<f64> = touched
        .iter()
        .map(|&ev| phi.product_at(g, ev).to_f64())
        .collect();
    let mut headroom = Vec::new();
    for i in 0..touched.len() {
        for j in (i + 1)..touched.len() {
            if let Some(eid) = g.edge_id(touched[i], touched[j]) {
                headroom.push(2.0 - phi.pair_sum(eid).to_f64());
            }
        }
    }
    Event::FixStep {
        step,
        variable,
        value,
        rank: touched.len(),
        touched,
        inc,
        phi_product,
        headroom,
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
