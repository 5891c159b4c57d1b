//! Applications of the sharp-threshold LLL machinery.
//!
//! The paper motivates its result with problems sitting just at or just
//! below the exponential threshold `p = 2^-d`:
//!
//! * [`sinkless`] — classic **sinkless orientation** (orient every edge
//!   such that no node is a sink). With fair coin flips per edge the
//!   failure probability at a degree-`δ` node is exactly `2^-δ`, i.e.
//!   the problem sits *exactly at* the threshold on regular graphs —
//!   this is the paper's lower-bound witness (Ω(log log n) randomized /
//!   Ω(log n) deterministic), and our experiments use it to demonstrate
//!   the *other* side of the phase transition.
//! * [`hyper_orientation`] — the paper's rank-3 relaxation: three
//!   independent orientations of a rank-3 hypergraph such that every
//!   node is a non-sink in at least two of them. Strictly below the
//!   threshold, solvable deterministically by [`Fixer3`](lll_core::Fixer3).
//! * [`weak_splitting`] — the relaxed weak splitting problem
//!   (`r ≤ 3`, 16 colors, every constraint node must see ≥ 2 distinct
//!   colors), the paper's second application.
//! * [`sat`] — bounded-intersection SAT: clauses as bad events,
//!   variables occurring in ≤ 3 clauses; when every clause is wide
//!   enough (`width > d`), the rank-3 fixer is a deterministic SAT
//!   solver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod hyper_orientation;
pub mod sat;
pub mod sinkless;
pub mod weak_splitting;

/// Error produced when an application's input violates its structural
/// requirements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppError {
    /// The input structure is unusable for this application.
    BadInput(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::BadInput(msg) => write!(f, "bad application input: {msg}"),
        }
    }
}

impl std::error::Error for AppError {}

#[cfg(test)]
/// Asserts that two instances have equal events: the same supports and
/// the same bad lists in the same order.
fn assert_same_events<T: lll_numeric::Num>(a: &lll_core::Instance<T>, b: &lll_core::Instance<T>) {
    assert_eq!(a.num_events(), b.num_events());
    for v in 0..a.num_events() {
        let (x, y) = (a.event(v), b.event(v));
        assert_eq!(x.support(), y.support(), "event {v}");
        assert!(x.bad_tuples().eq(y.bad_tuples()), "event {v}");
    }
}
