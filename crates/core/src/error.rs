//! Error types of the core crate.

use std::fmt;

/// Error produced while building or evaluating an [`Instance`]
/// (see [`InstanceBuilder::build`]).
///
/// [`Instance`]: crate::Instance
/// [`InstanceBuilder::build`]: crate::InstanceBuilder::build
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A variable affects no event.
    EmptyAffects(usize),
    /// A variable affects an event index `>= num_events`.
    EventOutOfRange {
        /// The offending variable.
        variable: usize,
        /// The out-of-range event index.
        event: usize,
    },
    /// A variable has an empty value set.
    NoValues(usize),
    /// A variable has a zero or negative probability.
    NonPositiveProbability(usize),
    /// A variable's probabilities do not sum to 1.
    BadProbabilitySum(usize),
    /// A complete assignment handed to the instance was malformed.
    InvalidAssignment(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyAffects(x) => write!(f, "variable {x} affects no event"),
            BuildError::EventOutOfRange { variable, event } => {
                write!(f, "variable {variable} affects out-of-range event {event}")
            }
            BuildError::NoValues(x) => write!(f, "variable {x} has no values"),
            BuildError::NonPositiveProbability(x) => {
                write!(f, "variable {x} has a non-positive probability")
            }
            BuildError::BadProbabilitySum(x) => {
                write!(f, "probabilities of variable {x} do not sum to 1")
            }
            BuildError::InvalidAssignment(msg) => write!(f, "invalid assignment: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Error produced when constructing or running a fixer.
#[derive(Debug, Clone, PartialEq)]
pub enum FixerError {
    /// The instance's maximum variable rank exceeds what the fixer
    /// supports: the rank bound `R` of a [`Fixer`], so 2 for [`Fixer2`]
    /// (including the edge schedule of [`dist::run`]) and 3 for
    /// [`Fixer3`].
    ///
    /// [`Fixer`]: crate::Fixer
    /// [`Fixer2`]: crate::Fixer2
    /// [`Fixer3`]: crate::Fixer3
    /// [`dist::run`]: crate::dist::run
    RankTooLarge {
        /// Maximum rank found in the instance.
        found: usize,
        /// Rank the fixer supports.
        supported: usize,
    },
    /// The exponential criterion `p < 2^-d` is violated: the paper's
    /// guarantee does not apply. (Use the `_unchecked` constructors to
    /// run the greedy process anyway — that is what the threshold
    /// experiments do.)
    CriterionViolated {
        /// The criterion value `p·2^d` (must be `< 1`), as `f64` for
        /// display.
        p_times_2_to_d: f64,
    },
    /// A fixing step found no value keeping the bookkeeping invariant —
    /// impossible below the threshold (Lemma 3.2); can be reported when
    /// running unchecked above the threshold.
    NoGoodValue {
        /// The variable for which every value was "evil".
        variable: usize,
    },
    /// Decomposing a representable triple into edge values failed — this
    /// indicates the triple was out of `S_rep` (above threshold) or, for
    /// the `f64` backend, numerically on the boundary.
    DecompositionFailed {
        /// The variable being fixed.
        variable: usize,
    },
    /// A fixing step computed a cost that is not comparable to itself —
    /// for the `f64` backend, a NaN such as `0·∞` from a degenerate
    /// φ-product. The greedy minimiser cannot order such costs, so the
    /// step is refused instead of silently picking an arbitrary value
    /// (exact backends never produce this).
    NonFiniteCost {
        /// The variable being fixed.
        variable: usize,
        /// The affected event whose cost term went non-finite.
        event: usize,
    },
    /// A `φ` lookup or update named a node that is not an endpoint of
    /// the edge. Returned (instead of panicking) by
    /// [`Phi::get`](crate::Phi::get) / [`Phi::set`](crate::Phi::set) so
    /// adversarial-order drivers that mis-route a potential update
    /// degrade gracefully.
    NotAnEndpoint {
        /// The dependency-graph edge id.
        edge: usize,
        /// The node that is not an endpoint of that edge.
        node: usize,
    },
    /// Two events that share a variable have no dependency edge, so a
    /// fixing step has nowhere to keep their `φ` values. A built
    /// instance never gets here (its dependency graph joins every pair
    /// of events that share a variable); the step returns this instead
    /// of panicking.
    NotAdjacent {
        /// One affected event.
        u: usize,
        /// The other affected event.
        v: usize,
    },
    /// An audited run found property `P*` broken after a fixing step
    /// (see [`Fixer::run_with`](crate::Fixer::run_with)).
    PStarViolated {
        /// 0-based index of the fixing step within the order.
        step: usize,
        /// The variable whose fixing broke the invariant.
        variable: usize,
        /// Edges whose pair sum exceeds 2 (+tolerance).
        pair_violations: Vec<usize>,
        /// Events whose conditional probability exceeds the φ bound
        /// (+tolerance).
        prob_violations: Vec<usize>,
    },
}

impl fmt::Display for FixerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixerError::RankTooLarge { found, supported } => {
                write!(
                    f,
                    "instance has rank-{found} variables, fixer supports rank {supported}"
                )
            }
            FixerError::CriterionViolated { p_times_2_to_d } => {
                write!(
                    f,
                    "exponential criterion violated: p*2^d = {p_times_2_to_d} >= 1"
                )
            }
            FixerError::NoGoodValue { variable } => {
                write!(
                    f,
                    "no good value for variable {variable} (above threshold?)"
                )
            }
            FixerError::DecompositionFailed { variable } => {
                write!(
                    f,
                    "triple decomposition failed while fixing variable {variable}"
                )
            }
            FixerError::NonFiniteCost { variable, event } => {
                write!(
                    f,
                    "non-finite cost while fixing variable {variable} (event {event})"
                )
            }
            FixerError::NotAnEndpoint { edge, node } => {
                write!(f, "node {node} is not an endpoint of edge {edge}")
            }
            FixerError::NotAdjacent { u, v } => {
                write!(f, "co-affected events {u} and {v} share no dependency edge")
            }
            FixerError::PStarViolated {
                step,
                variable,
                pair_violations,
                prob_violations,
            } => {
                write!(
                    f,
                    "property P* broken at step {step} (variable {variable}): \
                     pair violations {pair_violations:?}, probability violations \
                     {prob_violations:?}"
                )
            }
        }
    }
}

impl std::error::Error for FixerError {}
