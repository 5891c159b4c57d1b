//! The Brandt–Maus–Uitto deterministic LLL fixers below the sharp
//! threshold `p < 2^-d` (PODC 2019).
//!
//! # What this crate implements
//!
//! An LLL instance consists of discrete random [`Variable`]s and bad
//! [`Event`]s; each event depends on a set of variables, each variable
//! affects at most `r` events (its *rank*), and two events are adjacent
//! in the **dependency graph** iff they share a variable. The paper
//! proves that under the *exponential criterion* `p < 2^-d` (with `p` the
//! maximum event probability and `d` the maximum dependency degree) the
//! variables can be fixed **deterministically, one at a time, in any
//! order**, such that in the end no bad event can occur — for `r = 2`
//! (Theorem 1.1) and, the main result, for `r = 3` (Theorem 1.3):
//!
//! * [`Fixer`] — the sequential process, one struct over the rank bound
//!   `R`, used through the paper's two names:
//!   * [`Fixer2`] (`R = 2`) — the rank-2 process: each step picks a
//!     value whose two conditional-probability increase factors,
//!     weighted by the current bookkeeping values on the shared
//!     dependency edge, keep their sum ≤ 2 (linearity of expectation).
//!   * [`Fixer3`] (`R = 3`) — the rank-3 process: bookkeeping is the
//!     paper's potential `φ : (edge, endpoint) → [0, 2]` with property
//!     `P*` (Definition 3.1); the existence of a good value for a rank-3
//!     variable reduces to the geometry of **representable triples**
//!     (module [`triples`]: Definition 3.3, the surface `f(a, b)` of
//!     Lemma 3.5, its convexity — Lemma 3.6 — and the incurvedness of
//!     `S_rep` — Lemma 3.7). Rank-1 and rank-2 variables take the
//!     [`Fixer2`] step, so on a rank ≤ 2 instance the two processes are
//!     one.
//! * [`dist`] — the distributed versions (Corollaries 1.2 and 1.4): an
//!   edge coloring resp. distance-2 coloring of the dependency graph
//!   schedules non-conflicting variables into the same round, giving
//!   `O(d + log* n)` resp. `O(poly d + log* n)` LOCAL rounds.
//!
//! Everything is generic over the numeric backend
//! ([`Num`](lll_numeric::Num)): `f64` for speed, exact
//! [`BigRational`](lll_numeric::BigRational) for airtight audits of
//! property `P*` — membership in `S_rep` is decided by an exact
//! polynomial inequality.
//!
//! # Quickstart
//!
//! ```
//! use lll_core::{Fixer3, InstanceBuilder};
//!
//! // Three events on a triangle of 4-valued variables; an event occurs
//! // iff both of its variables take value 0, so p = 1/16 < 2^-2 = 1/4.
//! let mut b = InstanceBuilder::<f64>::new(3);
//! let x = b.add_uniform_variable(&[0, 1], 4);
//! let y = b.add_uniform_variable(&[1, 2], 4);
//! let z = b.add_uniform_variable(&[0, 2], 4);
//! b.set_event_predicate(0, move |vals| vals[x] == 0 && vals[z] == 0);
//! b.set_event_predicate(1, move |vals| vals[x] == 0 && vals[y] == 0);
//! b.set_event_predicate(2, move |vals| vals[y] == 0 && vals[z] == 0);
//! let instance = b.build()?;
//!
//! let report = Fixer3::new(&instance)?.run_default()?;
//! assert!(report.is_success());
//! assert!(instance.no_event_occurs(report.assignment())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod error;
mod fg;
mod fixer;
mod instance;
mod sweep;

pub mod dist;
pub mod orders;
pub mod triples;

pub use audit::{audit_p_star, audit_p_star_recorded, AuditReport, IncrementalAuditor};
pub use error::{BuildError, FixerError};
pub use fg::{fg_criterion, FgCriterion, FgFixer};
pub use fixer::{Fixer, Fixer2, Fixer3, ValueRule};
pub use instance::{Event, Instance, InstanceBuilder, PartialAssignment, VarValues, Variable};
pub use triples::{Decomposition, Phi};

/// Solves an instance with the strongest applicable deterministic
/// method, in order of preference:
///
/// 1. [`Fixer3`] for rank ≤ 3 below the sharp threshold (Theorem 1.3;
///    on a rank ≤ 2 instance it is the rank-2 process of Theorem 1.1),
/// 2. [`FgFixer`] for any rank under the (much stronger) generic
///    criterion `p·(d+1)^C < 1`, scheduled by a sequential greedy
///    distance-2 coloring of the dependency graph.
///
/// # Errors
///
/// Returns the *sharp* criterion failure ([`FixerError::CriterionViolated`]
/// with `p·2^d`) if no method's guarantee applies — callers wanting the
/// unguaranteed greedy behaviour use the fixers' `new_unchecked`
/// constructors directly.
///
/// # Examples
///
/// ```
/// use lll_core::{solve_deterministically, InstanceBuilder};
///
/// let mut b = InstanceBuilder::<f64>::new(2);
/// let x = b.add_uniform_variable(&[0, 1], 8);
/// b.set_event_predicate(0, move |vals| vals[x] == 0);
/// b.set_event_predicate(1, move |vals| vals[x] == 1);
/// let inst = b.build()?;
/// let report = solve_deterministically(&inst)?;
/// assert!(report.is_success());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_deterministically<T: lll_numeric::Num>(
    inst: &Instance<T>,
) -> Result<FixReport, FixerError> {
    if let Ok(fixer) = Fixer3::new(inst) {
        return fixer.run_default();
    }
    // Generic fallback: greedy distance-2 classes (sequential here; the
    // distributed variant lives in `dist::distributed_fg`).
    let classes = lll_coloring::greedy_coloring_sequential(&inst.dependency_graph().square());
    let num_classes = classes.iter().copied().max().map_or(1, |c| c + 1);
    if let Ok(fixer) = FgFixer::new(inst, num_classes) {
        return Ok(fixer.run(&classes));
    }
    Err(FixerError::CriterionViolated {
        p_times_2_to_d: inst.criterion_value().to_f64(),
    })
}

#[cfg(test)]
mod solve_tests {
    use super::*;

    #[test]
    fn picks_the_sharp_fixers_when_applicable() {
        let mut b = InstanceBuilder::<f64>::new(3);
        let x = b.add_uniform_variable(&[0, 1, 2], 8);
        b.set_event_predicate(0, move |vals| vals[x] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1);
        b.set_event_predicate(2, move |vals| vals[x] == 2);
        let inst = b.build().unwrap();
        let report = solve_deterministically(&inst).unwrap();
        assert!(report.is_success());
    }

    #[test]
    fn falls_back_to_fg_for_rank4() {
        // Rank 4, p = 1/64, d = 3: sharp fixers reject the rank; FG
        // needs p·4^C < 1 with C classes from the greedy distance-2
        // coloring of K4² = K4 (4 classes): 4^4/64 = 4 — fails! Make p
        // rarer: k = 2048 ⇒ p·4^4 = 256/2048 < 1.
        let mut b = InstanceBuilder::<f64>::new(4);
        let x = b.add_uniform_variable(&[0, 1, 2, 3], 2048);
        b.set_event_predicate(0, move |vals| vals[x] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1);
        b.set_event_predicate(2, move |vals| vals[x] == 2);
        b.set_event_predicate(3, move |vals| vals[x] == 3);
        let inst = b.build().unwrap();
        assert_eq!(inst.max_rank(), 4);
        let report = solve_deterministically(&inst).unwrap();
        assert!(report.is_success());
    }

    #[test]
    fn reports_the_sharp_criterion_on_refusal() {
        // At the threshold with rank 2: nothing applies.
        let mut b = InstanceBuilder::<f64>::new(2);
        let x = b.add_uniform_variable(&[0, 1], 2);
        b.set_event_predicate(0, move |vals| vals[x] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1);
        let inst = b.build().unwrap();
        assert!((inst.criterion_value() - 1.0).abs() < 1e-12);
        assert!(matches!(
            solve_deterministically(&inst),
            Err(FixerError::CriterionViolated { .. })
        ));
    }
}

/// One fixing step of a completed run: which variable was fixed, to
/// what value, in what order. The trajectory is recorded by every fixer
/// with or without a flight recorder attached, so callers can inspect
/// it directly from the [`FixReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixStepRecord {
    /// The variable fixed at this step.
    pub variable: usize,
    /// The value it was fixed to.
    pub value: usize,
}

/// Result of running a fixer to completion.
///
/// A fixer below the threshold always succeeds (the paper's theorems);
/// above the threshold the greedy process is still well-defined — it
/// just loses its guarantee — and the report records which bad events
/// ended up occurring, which is exactly what the threshold experiments
/// measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixReport {
    assignment: Vec<usize>,
    violated_events: Vec<usize>,
    steps: Vec<FixStepRecord>,
}

impl FixReport {
    pub(crate) fn new(
        assignment: Vec<usize>,
        violated_events: Vec<usize>,
        steps: Vec<FixStepRecord>,
    ) -> FixReport {
        FixReport {
            assignment,
            violated_events,
            steps,
        }
    }

    /// The complete variable assignment produced by the process.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Events that occur under the produced assignment (empty below the
    /// threshold, by Theorems 1.1/1.3).
    pub fn violated_events(&self) -> &[usize] {
        &self.violated_events
    }

    /// The fixing trajectory: step `i` records the variable fixed `i`-th
    /// and its chosen value. Matches the `fix_step` events of a recorded
    /// stream one-to-one.
    pub fn steps(&self) -> &[FixStepRecord] {
        &self.steps
    }

    /// Number of fixing steps performed.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// `true` iff no bad event occurs.
    pub fn is_success(&self) -> bool {
        self.violated_events.is_empty()
    }
}
