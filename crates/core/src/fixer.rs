//! The sequential fixing process (Theorems 1.1 and 1.3), written once
//! for every supported rank.
//!
//! [`Fixer`] fixes the variables of an instance one at a time, in any
//! order, keeping the paper's bookkeeping `φ` (one value per dependency
//! edge and endpoint, all 1 initially). Its rank bound `R` is a type
//! parameter: [`Fixer2`] is the rank-2 process of Theorem 1.1 and
//! [`Fixer3`] the rank-3 process of Theorem 1.3. A rank-1 or rank-2
//! variable takes the same step under both (`rank2`), as in the paper,
//! whose rank-3 process handles those variables with the rank-2 rule.
//! Only a rank-3 variable takes the `S_rep` step (`rank3`). So the two
//! processes differ in the instances they accept, and nowhere else.

mod rank2;
mod rank3;

pub use rank3::ValueRule;

use lll_numeric::Num;
use lll_obs::{Event, NullRecorder, NullTiming, Recorder, TimingSink};

use crate::error::FixerError;
use crate::instance::{Instance, PartialAssignment, ValueProbs};
use crate::triples::Phi;
use crate::{FixReport, FixStepRecord};

/// The sequential fixing process for instances of rank at most `R`,
/// used through its paper names [`Fixer2`] and [`Fixer3`].
///
/// `new` validates rank ≤ `R` and the exponential criterion;
/// `new_unchecked` skips the criterion check — the greedy process is
/// still well defined above the threshold, it merely loses its
/// guarantee; the threshold experiments rely on exactly this. The
/// process is order-oblivious: any order of fixing works below the
/// threshold, which is what makes the distributed schedules of
/// Corollaries 1.2 and 1.4 correct.
#[derive(Debug, Clone)]
pub struct Fixer<'i, T, const R: usize> {
    inst: &'i Instance<T>,
    partial: PartialAssignment,
    phi: Phi<T>,
    /// The rank-3 value rule (ablation A1); the rank ≤ 2 step has no
    /// choice of rule.
    rule: ValueRule,
    /// Cleared by a rank-3 step that found no decomposition (see
    /// [`Fixer3::invariant_intact`]).
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
    by_value: [ValueProbs<T>; R],
}

/// The rank-2 fixing process (Theorem 1.1).
///
/// Every variable affects at most two events, i.e. sits on one edge
/// `e = {u, v}` of the dependency graph. A step picks the value `y`
/// minimising `φ_e^u·Inc(u, y) + φ_e^v·Inc(v, y)` — by linearity of
/// expectation some value keeps this `≤ φ_e^u + φ_e^v ≤ 2` — and scales
/// `φ_e^u`, `φ_e^v` by the winner's increase factors. After the last
/// step every event's probability is `< p·2^d < 1`, i.e. `0`.
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
pub type Fixer2<'i, T> = Fixer<'i, T, 2>;

/// The rank-3 fixing process (Theorem 1.3) — the paper's main
/// contribution.
///
/// Bookkeeping is the potential `φ` of property `P*` (Definition 3.1).
/// A rank-3 step scales the node products of the variable's hyperedge
/// by each value's increase factors and splices a decomposition of a
/// representable triple into `φ` (Lemma 3.2); [`ValueRule`] picks among
/// the representable values. Rank-1 and rank-2 variables take the
/// [`Fixer2`] step. See the crate-level example.
pub type Fixer3<'i, T> = Fixer<'i, T, 3>;

impl<'i, T: Num, const R: usize> Fixer<'i, T, R> {
    /// Creates a fixer, validating that every variable has rank ≤ `R`
    /// and that the instance satisfies `p < 2^-d`.
    ///
    /// # Errors
    ///
    /// [`FixerError::RankTooLarge`] or [`FixerError::CriterionViolated`].
    pub fn new(inst: &'i Instance<T>) -> Result<Self, FixerError> {
        let fixer = Self::new_unchecked(inst)?;
        inst.check_exponential_criterion(inst.max_event_probability())?;
        Ok(fixer)
    }

    /// Creates a fixer without checking the criterion (rank ≤ `R` is
    /// still required — the bookkeeping has no room for a wider
    /// variable).
    ///
    /// # Errors
    ///
    /// [`FixerError::RankTooLarge`].
    pub fn new_unchecked(inst: &'i Instance<T>) -> Result<Self, FixerError> {
        let rank = inst.max_rank();
        if rank > R {
            return Err(FixerError::RankTooLarge {
                found: rank,
                supported: R,
            });
        }
        Ok(Fixer {
            inst,
            partial: PartialAssignment::new(inst.num_variables()),
            phi: Phi::ones(inst.dependency_graph()),
            rule: ValueRule::default(),
            invariant_intact: true,
            step_base: 0,
            steps: Vec::new(),
            post_probs: vec![None; inst.num_events()],
            by_value: std::array::from_fn(|_| ValueProbs::default()),
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

    /// Current bookkeeping `φ`: edge weights whose pair sums stay ≤ 2
    /// below the threshold.
    pub fn phi(&self) -> &Phi<T> {
        &self.phi
    }

    /// Fixes variable `x` (which must be unfixed) and returns the chosen
    /// value: at rank ≤ 2 the value minimising the φ-weighted sum of
    /// increase factors, at rank 3 the one [`ValueRule`] picks. Exact
    /// cost ties select the lowest value index, for every backend — the
    /// class sweep's determinism relies on this.
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

    /// [`fix_variable`](Fixer::fix_variable) with a flight recorder:
    /// emits one [`Event::FixStep`] carrying the increase factors, the
    /// post-update φ-products and the `P*` pair-sum headroom (one entry
    /// per dependency edge among the touched events). With
    /// [`NullRecorder`] this compiles to exactly the unrecorded path.
    ///
    /// # Errors
    ///
    /// As [`fix_variable`](Fixer::fix_variable).
    ///
    /// # Panics
    ///
    /// Panics if `x` is already fixed.
    pub fn fix_variable_recorded<Rec: Recorder>(
        &mut self,
        x: usize,
        rec: &mut Rec,
    ) -> Result<usize, FixerError> {
        assert!(self.partial.get(x).is_none(), "variable {x} already fixed");
        let choice = self.step(x, None)?;
        if Rec::ENABLED {
            rec.record(&fix_step_event(
                self.inst,
                &self.phi,
                self.step_base + self.steps.len(),
                x,
                choice,
                |i, ev| recorded_inc(&self.by_value[i], &self.post_probs[ev]),
            ));
        }
        self.push(x, choice);
        Ok(choice)
    }

    /// Replays a recorded fixing step: fixes variable `x` to the value
    /// `y` a previous run chose, applying exactly the φ updates
    /// [`fix_variable`](Fixer::fix_variable) would apply for winner `y`
    /// — without re-running the value search and without emitting any
    /// event. Because the fixing process is deterministic, replaying a
    /// run's recorded `(variable, value)` steps reproduces its partial
    /// assignment and `φ` state bit for bit; this is the resume seam the
    /// checkpointed drivers re-seed from (see `crate::dist`).
    ///
    /// At rank 3 the equivalence holds because the original step used a
    /// decomposition of `y`'s scaled triple iff one exists: had `y` won
    /// via the multiplicative fallback, *no* candidate decomposed — in
    /// particular `y` — so replaying decompose-else-fallback on `y`'s
    /// triple alone takes the same branch and writes the same φ entries
    /// (including the `invariant_intact` flag).
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
        self.step(x, Some(y))?;
        self.push(x, y);
        Ok(())
    }

    /// Runs the process over the given variable order (must enumerate
    /// every unfixed variable exactly once) and reports the outcome.
    ///
    /// # Errors
    ///
    /// [`FixerError::NonFiniteCost`] if a fixing step computes an
    /// incomparable cost (see [`fix_variable`](Fixer::fix_variable)).
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
    /// As [`run`](Fixer::run).
    pub fn run_default(self) -> Result<FixReport, FixerError> {
        let m = self.inst.num_variables();
        self.run(0..m)
    }

    /// [`run`](Fixer::run) with every option attached:
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
    /// As [`run`](Fixer::run), plus [`FixerError::PStarViolated`] at the
    /// first step after which the audited invariant no longer holds.
    ///
    /// # Panics
    ///
    /// Panics if the order re-fixes or misses a variable.
    ///
    /// [`TimingScope::FixRun`]: lll_obs::TimingScope::FixRun
    /// [`TimingScope::FixStep`]: lll_obs::TimingScope::FixStep
    pub fn run_with<Rec: Recorder, S: TimingSink>(
        self,
        order: impl IntoIterator<Item = usize>,
        audit: Option<(&T, &T)>,
        rec: &mut Rec,
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

    /// One fixing step of `x` by its rank, without committing the value
    /// (see the rank modules); `replay = Some(y)` makes `y` the only
    /// candidate.
    fn step(&mut self, x: usize, replay: Option<usize>) -> Result<usize, FixerError> {
        match *self.inst.variable(x).affects() {
            [u, v, w] => self.fix_rank3(x, (u, v, w), replay),
            _ => self.fix_rank_le2(x, replay),
        }
    }

    /// Commits a finished step.
    fn push(&mut self, x: usize, y: usize) {
        self.partial.fix(x, y);
        self.steps.push(FixStepRecord {
            variable: x,
            value: y,
        });
    }
}

impl<'i, T: Num> Fixer3<'i, T> {
    /// Selects the value-selection rule (ablation A1); returns `self`.
    pub fn with_rule(mut self, rule: ValueRule) -> Fixer3<'i, T> {
        self.rule = rule;
        self
    }

    /// Whether every fixing step so far maintained property `P*`
    /// (always `true` below the threshold; above it the greedy fallback
    /// may have to break sub-property (1)).
    pub fn invariant_intact(&self) -> bool {
        self.invariant_intact
    }
}

impl<T: Num, const R: usize> crate::sweep::ClassFixer<T> for Fixer<'_, T, R> {
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
        Fixer::into_report(self)
    }

    fn fork(&self, step_base: usize) -> Self {
        Fixer {
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

    fn fix_cell<Rec: Recorder>(&mut self, cell: &[usize], rec: &mut Rec) -> Result<(), FixerError> {
        for &x in cell {
            self.fix_variable_recorded(x, rec)?;
        }
        Ok(())
    }

    fn absorb(&mut self, shard: Self) {
        let g = self.inst.dependency_graph();
        // A fixed variable's φ writes are confined to the dependency
        // edges among its affected events (a live step fails before
        // fixing anything if one is missing); copying both entries of
        // those edges, written or not, is safe because no concurrent
        // shard touches them — class cells have disjoint event sets.
        for step in &shard.steps {
            self.partial.fix(step.variable, step.value);
            let touched = self.inst.variable(step.variable).affects();
            for (i, &u) in touched.iter().enumerate() {
                for eid in touched[i + 1..].iter().filter_map(|&v| g.edge_id(u, v)) {
                    self.phi.copy_edge(&shard.phi, eid);
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

/// The dependency edge between two co-affected events `u` and `v`.
///
/// # Errors
///
/// [`FixerError::NotAdjacent`] if there is none — impossible for a
/// built instance, whose dependency graph joins every pair of events
/// that share a variable.
fn shared_edge<T: Num>(inst: &Instance<T>, u: usize, v: usize) -> Result<usize, FixerError> {
    inst.dependency_graph()
        .edge_id(u, v)
        .ok_or(FixerError::NotAdjacent { u, v })
}

/// The first `N` step buffers, for a step on a rank-`N` variable.
///
/// # Errors
///
/// [`FixerError::RankTooLarge`] if the fixer keeps fewer than `N` —
/// a rank-`N` step on a fixer of smaller rank, which construction rules
/// out.
fn buffers<T, const N: usize>(
    by_value: &mut [ValueProbs<T>],
) -> Result<&mut [ValueProbs<T>; N], FixerError> {
    let supported = by_value.len();
    by_value.first_chunk_mut().ok_or(FixerError::RankTooLarge {
        found: N,
        supported,
    })
}

/// Whether a cost value fails to compare to itself — `true` exactly for
/// `f64` NaN (e.g. `0·∞` from a degenerate φ-product); exact backends
/// always compare and never trip this.
fn non_finite<T: PartialOrd>(c: &T) -> bool {
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
fn recorded_inc<T: Num>(probs: &ValueProbs<T>, post: &Option<T>) -> f64 {
    let post = post.clone().expect("a live step wrote every touched event");
    inc_or_zero(post, probs.old()).to_f64()
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
pub(crate) fn audit_verdict<Rec: Recorder>(
    report: crate::AuditReport,
    step: usize,
    variable: usize,
    rec: &mut Rec,
) -> Result<(), FixerError> {
    if Rec::ENABLED {
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

/// Builds the [`Event::FixStep`] payload of a step: `touched` is the
/// affected-event set of `variable`, `inc` comes from the caller's
/// closure (called with each touched event's position and id),
/// `phi_product` and `headroom` read the already-updated φ-tables.
fn fix_step_event<T: Num>(
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
    use crate::instance::InstanceBuilder;
    use lll_numeric::BigRational;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random instance of rank ≤ 2: `n` events, each variable on one
    /// event or a pair, `k ∈ 2..=6` values with random weights, and an
    /// event that occurs iff all of its variables take their own random
    /// bad value.
    fn random_rank_le2<T: Num>(seed: u64, n: usize, m: usize) -> Instance<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::<T>::new(n);
        let mut bad: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for _ in 0..m {
            let u = rng.random_range(0..n);
            let affects = if rng.random_bool(0.25) {
                vec![u]
            } else {
                let v = (u + rng.random_range(1..n)) % n;
                vec![u, v]
            };
            let k: usize = rng.random_range(2..=6usize);
            let weights: Vec<usize> = (0..k).map(|_| rng.random_range(1..=4usize)).collect();
            let total: usize = weights.iter().sum();
            let probs = weights
                .iter()
                .map(|&w| T::from_ratio(w as i64, total as u64))
                .collect();
            let x = b.add_variable(&affects, probs);
            for &e in &affects {
                bad[e].push((x, rng.random_range(0..k)));
            }
        }
        for (e, vars) in bad.into_iter().enumerate() {
            b.set_event_predicate(e, move |vals| {
                !vars.is_empty() && vars.iter().all(|&(x, y)| vals[x] == y)
            });
        }
        b.build().expect("a valid random instance")
    }

    /// The rank-3 process on a rank ≤ 2 instance is the rank-2 process:
    /// the same report, the same final `φ`, and the same bytes from an
    /// audited, recorded run, on both backends.
    fn rank3_process_is_rank2_process_on<T: Num>(tol: T) {
        let mut audited_ok = 0;
        for seed in 0..24 {
            let inst = random_rank_le2::<T>(seed, 10, 14);
            assert!(inst.max_rank() <= 2);
            let order: Vec<usize> = (0..inst.num_variables()).rev().collect();
            let (mut f2, mut f3) = (
                Fixer2::new_unchecked(&inst).unwrap(),
                Fixer3::new_unchecked(&inst).unwrap(),
            );
            for &x in &order {
                assert_eq!(f2.fix_variable(x), f3.fix_variable(x), "seed {seed}");
            }
            assert_eq!(f2.phi(), f3.phi(), "seed {seed}");
            assert!(f3.invariant_intact());
            assert_eq!(f2.into_report(), f3.into_report(), "seed {seed}");

            let p = inst.max_event_probability();
            let recorded = |run: &dyn Fn(&mut lll_obs::JsonlRecorder<Vec<u8>>) -> _| {
                let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
                let report: Result<FixReport, FixerError> = run(&mut rec);
                (report, rec.finish().unwrap())
            };
            let (r2, s2) = recorded(&|rec| {
                Fixer2::new_unchecked(&inst).unwrap().run_with(
                    order.iter().copied(),
                    Some((&p, &tol)),
                    rec,
                    &mut NullTiming,
                )
            });
            let (r3, s3) = recorded(&|rec| {
                Fixer3::new_unchecked(&inst).unwrap().run_with(
                    order.iter().copied(),
                    Some((&p, &tol)),
                    rec,
                    &mut NullTiming,
                )
            });
            assert_eq!(r2, r3, "seed {seed}");
            assert!(s2 == s3, "seed {seed}: the recorded streams differ");
            audited_ok += usize::from(r2.is_ok_and(|r| r.is_success()));
        }
        assert!(audited_ok >= 12, "only {audited_ok} audited runs succeeded");
    }

    #[test]
    fn rank3_process_is_rank2_process_below_rank3() {
        rank3_process_is_rank2_process_on::<f64>(1e-9);
        rank3_process_is_rank2_process_on::<BigRational>(BigRational::zero());
    }
}
