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
//! for affects in [[0, 1], [1, 2], [0, 2]] {
//!     b.add_uniform_variable(&affects, 4);
//! }
//! for v in 0..3 {
//!     b.set_event_bad_tuples(v, [[0, 0]]);
//! }
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

pub use audit::{audit_p_star, AuditReport, IncrementalAuditor};
pub use error::{BuildError, FixerError};
pub use fg::{fg_criterion, FgCriterion, FgFixer};
pub use fixer::{Fixer, Fixer2, Fixer3, ValueRule};
pub use instance::MAX_BAD_TUPLES;
pub use instance::{Event, Instance, InstanceBuilder, PartialAssignment, VarValues, Variable};
pub use triples::{Decomposition, Phi};

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
