//! LLL instances: discrete random variables, bad events, and the exact
//! conditional-probability engine.

use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use lll_graphs::{Graph, GraphBuilder, Hyperedge, Hypergraph};
use lll_numeric::{BigInt, BigRational, Num};

use crate::error::{BuildError, FixerError};

/// Threshold on the truth-table size below which event predicates are
/// precomputed into a lookup table (pure optimization; semantics are
/// unchanged).
const TABLE_LIMIT: usize = 1 << 15;

/// Supports up to this length are evaluated in stack buffers; longer
/// ones fall back to the heap. Supports are small in every LLL workload
/// (bounded dependency degree), so the hot paths never allocate (on
/// exact backends, while the integers stay in the `Small` tier).
const STACK_SUPPORT: usize = 16;

/// A view of the values assigned to the support variables of an event,
/// indexable by variable id.
///
/// Passed to event predicates; `vals[x]` is the value of variable `x`,
/// which must belong to the event's support.
#[derive(Debug, Clone, Copy)]
pub struct VarValues<'a> {
    support: &'a [usize],
    values: &'a [usize],
}

impl Index<usize> for VarValues<'_> {
    type Output = usize;

    /// # Panics
    ///
    /// Panics if `var` is not in the event's support.
    fn index(&self, var: usize) -> &usize {
        let pos = self
            .support
            .binary_search(&var)
            .unwrap_or_else(|_| panic!("variable {var} is not in this event's support"));
        &self.values[pos]
    }
}

type Predicate = Arc<dyn Fn(&VarValues<'_>) -> bool + Send + Sync>;

/// A discrete random variable of the instance.
#[derive(Clone)]
pub struct Variable<T> {
    probs: Vec<T>,
    affects: Vec<usize>,
}

impl<T: Num> Variable<T> {
    /// Number of values the variable can assume (values are `0..k`).
    pub fn num_values(&self) -> usize {
        self.probs.len()
    }

    /// Probability of value `y`.
    pub fn prob(&self, y: usize) -> &T {
        &self.probs[y]
    }

    /// The events this variable affects (sorted). Its length is the
    /// variable's *rank* — the paper's parameter `r` bounds this.
    pub fn affects(&self) -> &[usize] {
        &self.affects
    }

    /// Rank of the variable (`affects().len()`).
    pub fn rank(&self) -> usize {
        self.affects.len()
    }
}

impl<T: fmt::Debug> fmt::Debug for Variable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Variable")
            .field("probs", &self.probs)
            .field("affects", &self.affects)
            .finish()
    }
}

/// A bad event of the instance.
#[derive(Clone)]
pub struct Event<T> {
    support: Vec<usize>,
    predicate: Predicate,
    /// Mixed-radix truth table over support values (small supports only).
    table: Option<Vec<bool>>,
    /// Strides for table indexing, aligned with `support`.
    strides: Vec<usize>,
    /// The occurring support tuples, flattened with stride
    /// `support.len()`, in table-index order — which is exactly the
    /// probability engine's odometer order (position 0 fastest). Present
    /// whenever `table` is: LLL workloads are sparse (few bad tuples per
    /// event), so iterating this list replaces the full mixed-radix scan
    /// in the conditional-probability engine. Values fit `u16` because
    /// every `num_values` is bounded by the table size limit.
    occ: Option<Vec<u16>>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Num> Event<T> {
    /// The variables the event depends on (sorted ascending).
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// Evaluates the event: does it occur under these support values?
    ///
    /// `values[i]` is the value of `support()[i]`.
    pub fn occurs(&self, values: &[usize]) -> bool {
        debug_assert_eq!(values.len(), self.support.len());
        if let Some(table) = &self.table {
            let idx: usize = values.iter().zip(&self.strides).map(|(&v, &s)| v * s).sum();
            table[idx]
        } else {
            (self.predicate)(&VarValues {
                support: &self.support,
                values,
            })
        }
    }
}

impl<T> fmt::Debug for Event<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("support", &self.support)
            .field("tabled", &self.table.is_some())
            .finish()
    }
}

/// A partial assignment of values to variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialAssignment {
    values: Vec<Option<usize>>,
    fixed: usize,
}

impl PartialAssignment {
    /// The empty assignment over `num_vars` variables.
    pub fn new(num_vars: usize) -> PartialAssignment {
        PartialAssignment {
            values: vec![None; num_vars],
            fixed: 0,
        }
    }

    /// The value of variable `x`, if fixed.
    pub fn get(&self, x: usize) -> Option<usize> {
        self.values[x]
    }

    /// Fixes variable `x` to `value` (irrevocably, matching the paper's
    /// process).
    ///
    /// # Panics
    ///
    /// Panics if `x` is already fixed — the fixers never re-fix.
    pub fn fix(&mut self, x: usize, value: usize) {
        assert!(self.values[x].is_none(), "variable {x} already fixed");
        self.values[x] = Some(value);
        self.fixed += 1;
    }

    /// Number of fixed variables.
    pub fn num_fixed(&self) -> usize {
        self.fixed
    }

    /// Whether every variable is fixed.
    pub fn is_complete(&self) -> bool {
        self.fixed == self.values.len()
    }

    /// Extracts the complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if some variable is unfixed.
    pub fn into_complete(self) -> Vec<usize> {
        self.values
            .into_iter()
            .map(|v| v.expect("assignment is complete"))
            .collect()
    }
}

/// An immutable LLL instance.
///
/// Construct through [`InstanceBuilder`]. The instance owns the derived
/// dependency graph and variable hypergraph, and provides the exact
/// conditional-probability engine the fixers and the `P*` audit rely on.
#[derive(Debug, Clone)]
pub struct Instance<T> {
    variables: Vec<Variable<T>>,
    events: Vec<Event<T>>,
    dependency: Graph,
    hypergraph: Hypergraph,
    /// The distinct variable distributions as integer tables, shared by
    /// every variable that has them (exact backends only; empty for
    /// `f64`).
    dists: Vec<IntDist>,
    /// Each variable's index into `dists` (empty for `f64`).
    dist_of: Vec<usize>,
}

impl<T: Num> Instance<T> {
    /// Number of bad events.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of random variables.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// The variable with id `x`.
    pub fn variable(&self, x: usize) -> &Variable<T> {
        &self.variables[x]
    }

    /// The event at node `v`.
    pub fn event(&self, v: usize) -> &Event<T> {
        &self.events[v]
    }

    /// Maximum rank over all variables (the paper's `r`).
    pub fn max_rank(&self) -> usize {
        self.variables.iter().map(Variable::rank).max().unwrap_or(0)
    }

    /// The dependency graph: events are adjacent iff they share a
    /// variable.
    pub fn dependency_graph(&self) -> &Graph {
        &self.dependency
    }

    /// The variable hypergraph `H`: one hyperedge per variable,
    /// connecting the events it affects (hyperedge index = variable id).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// Maximum dependency degree `d` — the `d` of the criterion
    /// `p < 2^-d`.
    pub fn max_dependency_degree(&self) -> usize {
        self.dependency.max_degree()
    }

    /// Conditional probability of event `v` given the fixed variables of
    /// `partial` (unfixed variables keep their distribution).
    ///
    /// Exact for exact backends: enumerates the product distribution of
    /// the unfixed support variables — the cost is exponential in the
    /// number of *unfixed* support variables (`Π k_x`), which is what
    /// bounded dependency degree keeps small in every LLL workload.
    ///
    /// # Examples
    ///
    /// ```
    /// use lll_core::{InstanceBuilder, PartialAssignment};
    /// use lll_numeric::BigRational;
    ///
    /// let mut b = InstanceBuilder::<BigRational>::new(1);
    /// let x = b.add_uniform_variable(&[0], 2);
    /// let y = b.add_uniform_variable(&[0], 2);
    /// b.set_event_predicate(0, move |vals| vals[x] == 0 && vals[y] == 0);
    /// let inst = b.build()?;
    ///
    /// let mut partial = PartialAssignment::new(2);
    /// assert_eq!(inst.probability(0, &partial), BigRational::from_ratio(1, 4));
    /// partial.fix(x, 0); // conditioning doubles the probability
    /// assert_eq!(inst.probability(0, &partial), BigRational::from_ratio(1, 2));
    /// # Ok::<(), lll_core::BuildError>(())
    /// ```
    pub fn probability(&self, v: usize, partial: &PartialAssignment) -> T {
        self.prob_impl(v, |x| partial.get(x))
    }

    /// Conditional probability of event `v` given `partial` *and* the
    /// hypothetical additional fix `var = value` — the quantity inside
    /// the paper's increase factor `Inc(v, y)`, without cloning the
    /// assignment.
    pub fn probability_with(
        &self,
        v: usize,
        partial: &PartialAssignment,
        var: usize,
        value: usize,
    ) -> T {
        self.prob_impl(v, |x| {
            if x == var {
                Some(value)
            } else {
                partial.get(x)
            }
        })
    }

    /// `Pr[v | partial]` and every candidate's `Pr[v | partial ∪ {x:y}]`
    /// from one walk of event `v` with the unfixed variable `x` left
    /// free: each occurring tuple is filed under `x`'s value, so bucket
    /// `y` receives exactly the tuples that
    /// [`probability_with`](Instance::probability_with)`(v, partial, x,
    /// y)` visits, in the same relative order, on either arm.
    ///
    /// Exact backends sum each bucket's integer weights into the
    /// numerator `N(y)` over `D = Π lcd` of the free support variables
    /// other than `x`, and `Pr[v | partial]` is `Σ_y w_x(y)·N(y)` over
    /// `D·lcd_x`. Canonical forms are unique, so every value equals the
    /// separate walks' value. The `f64` fold repeats each separate
    /// walk's operation sequence: per bucket a left product from one
    /// over the other free variables, then `total + w`; for
    /// `Pr[v | partial]` a second accumulator whose product includes
    /// `x`'s factor at its support position. So every value is the same
    /// bit for bit. `out` is the caller's buffer, reused across steps.
    pub(crate) fn probability_by_value(
        &self,
        v: usize,
        partial: &PartialAssignment,
        x: usize,
        out: &mut ValueProbs<T>,
    ) {
        debug_assert!(partial.get(x).is_none(), "variable {x} is fixed");
        debug_assert!(self.events[v].support.binary_search(&x).is_ok());
        let k = self.variables[x].num_values();
        let lookup = |z: usize| partial.get(z);
        if T::is_exact() {
            out.nums.clear();
            out.nums.resize(k, BigInt::zero());
            let mut fold = ByValue {
                weights: ExactWeights { inst: self },
                x,
                sums: &mut out.nums,
                total: None,
            };
            self.enumerate(v, lookup, &mut fold);
            out.den = self.free_den(v, |z| z != x && partial.get(z).is_none());
            let dist = self.dist(x);
            let mut num = BigInt::zero();
            for (w, n) in dist.weights.iter().zip(&out.nums) {
                num += &(w * n);
            }
            out.old = T::from_rational(BigRational::new(num, &out.den * &dist.lcd));
        } else {
            out.probs.clear();
            out.probs.resize(k, T::zero());
            let mut old = T::zero();
            let mut fold = ByValue {
                weights: FloatWeights {
                    variables: &self.variables,
                },
                x,
                sums: &mut out.probs,
                total: Some(&mut old),
            };
            self.enumerate(v, lookup, &mut fold);
            out.old = old;
        }
    }

    fn prob_impl(&self, v: usize, lookup: impl Fn(usize) -> Option<usize>) -> T {
        if T::is_exact() {
            let (num, den) = self.exact_parts(v, lookup);
            return T::from_rational(BigRational::new(num, den));
        }
        let mut fold = Total {
            weights: FloatWeights {
                variables: &self.variables,
            },
            sum: T::zero(),
        };
        self.enumerate(v, lookup, &mut fold);
        fold.sum
    }

    /// `Pr[v | lookup]` over an exact backend as the unreduced pair
    /// `(N, D)`: `N = Σ_tuples Π weights` over the interned integer
    /// distributions and `D = Π lcd` over the free support variables.
    /// `D` depends only on *which* variables are free. One
    /// `BigRational::new(N, D)` yields the canonical value, which is
    /// unique, so it equals the rational `Σ Π p` fold bit for bit.
    fn exact_parts(&self, v: usize, lookup: impl Fn(usize) -> Option<usize>) -> (BigInt, BigInt) {
        let mut fold = Total {
            weights: ExactWeights { inst: self },
            sum: BigInt::zero(),
        };
        self.enumerate(v, &lookup, &mut fold);
        (fold.sum, self.free_den(v, |x| lookup(x).is_none()))
    }

    /// `Π lcd` over the support variables of event `v` that `free`
    /// selects, in support order (exact backends only).
    fn free_den(&self, v: usize, free: impl Fn(usize) -> bool) -> BigInt {
        let mut den = BigInt::one();
        for &x in &self.events[v].support {
            if free(x) {
                den = &den * &self.dist(x).lcd;
            }
        }
        den
    }

    /// The interned integer distribution of variable `x` (exact
    /// backends only).
    fn dist(&self, x: usize) -> &IntDist {
        &self.dists[self.dist_of[x]]
    }

    /// Feeds `fold` every occurring support tuple of event `v` that is
    /// consistent with the values `lookup` reports as fixed. The
    /// fixers call this in a tight loop; stack buffers avoid three heap
    /// allocations per call on the hot path.
    fn enumerate(
        &self,
        v: usize,
        lookup: impl Fn(usize) -> Option<usize>,
        fold: &mut impl TupleFold,
    ) {
        let support_len = self.events[v].support.len();
        if support_len <= STACK_SUPPORT {
            let mut values = [0usize; STACK_SUPPORT];
            let mut free = [0usize; STACK_SUPPORT];
            let mut counters = [0usize; STACK_SUPPORT];
            self.enumerate_in(
                v,
                lookup,
                &mut values[..support_len],
                &mut free[..support_len],
                &mut counters[..support_len],
                fold,
            );
        } else {
            let mut values = vec![0usize; support_len];
            let mut free = vec![0usize; support_len];
            let mut counters = vec![0usize; support_len];
            self.enumerate_in(v, lookup, &mut values, &mut free, &mut counters, fold);
        }
    }

    fn enumerate_in(
        &self,
        v: usize,
        lookup: impl Fn(usize) -> Option<usize>,
        values: &mut [usize],
        free_buf: &mut [usize],
        counters: &mut [usize],
        fold: &mut impl TupleFold,
    ) {
        let event = &self.events[v];
        let support = &event.support;
        let mut num_free = 0usize; // positions in support
        for (pos, &x) in support.iter().enumerate() {
            match lookup(x) {
                Some(val) => values[pos] = val,
                None => {
                    free_buf[num_free] = pos;
                    num_free += 1;
                }
            }
        }
        let free = &free_buf[..num_free];
        if free.is_empty() {
            if event.occurs(values) {
                fold.tuple(std::iter::empty());
            }
            return;
        }
        if let Some(occ) = &event.occ {
            return enumerate_listed(support, occ, values, free, fold);
        }
        // Odometer over the free positions, position 0 fastest.
        let counters = &mut counters[..num_free];
        counters.fill(0);
        'tuples: loop {
            for (ci, &pos) in free.iter().enumerate() {
                values[pos] = counters[ci];
            }
            if event.occurs(values) {
                fold.tuple(
                    free.iter()
                        .zip(counters.iter())
                        .map(|(&pos, &c)| (support[pos], c)),
                );
            }
            // increment odometer
            let mut ci = 0;
            loop {
                if ci == free.len() {
                    break 'tuples;
                }
                counters[ci] += 1;
                if counters[ci] < self.variables[support[free[ci]]].num_values() {
                    break;
                }
                counters[ci] = 0;
                ci += 1;
            }
        }
    }

    /// Unconditional probability of event `v`.
    ///
    /// Bit-identical to [`probability`](Instance::probability) against
    /// an empty [`PartialAssignment`] — the lookup answers "unfixed" for
    /// every support variable either way, so the enumeration performs the
    /// same `Num` operations — but costs O(|support|) instead of
    /// allocating an assignment over all variables.
    pub fn unconditional_probability(&self, v: usize) -> T {
        self.prob_impl(v, |_| None)
    }

    /// The unconditional probability of every event, indexed by event.
    pub(crate) fn unconditional_probabilities(&self) -> Vec<T> {
        (0..self.num_events())
            .map(|v| self.unconditional_probability(v))
            .collect()
    }

    /// The maximum unconditional event probability `p`.
    pub fn max_event_probability(&self) -> T {
        max_probability((0..self.num_events()).map(|v| self.unconditional_probability(v)))
    }

    /// The criterion value `p · 2^d`; the paper's sharp threshold sits at
    /// exactly 1.
    pub fn criterion_value(&self) -> T {
        self.criterion_value_for(self.max_event_probability())
    }

    /// `p · 2^d` for a precomputed maximum event probability `p`.
    fn criterion_value_for(&self, p: T) -> T {
        let mut c = p;
        for _ in 0..self.max_dependency_degree() {
            c = c * T::from_ratio(2, 1);
        }
        c
    }

    /// The exponential-criterion check given the precomputed maximum
    /// event probability `p`, shared by `Fixer::new` and the scheduled
    /// drivers so that all of them refuse with one error value.
    ///
    /// # Errors
    ///
    /// [`FixerError::CriterionViolated`] unless `p · 2^d < 1`.
    pub(crate) fn check_exponential_criterion(&self, p: T) -> Result<(), FixerError> {
        let c = self.criterion_value_for(p);
        if c < T::one() {
            Ok(())
        } else {
            Err(FixerError::CriterionViolated {
                p_times_2_to_d: c.to_f64(),
            })
        }
    }

    /// Whether the exponential criterion `p < 2^-d` holds (the regime of
    /// Theorems 1.1/1.3).
    pub fn satisfies_exponential_criterion(&self) -> bool {
        self.criterion_value() < T::one()
    }

    /// Whether the classic symmetric LLL criterion `e·p·(d+1) < 1` holds
    /// (the regime of the Moser–Tardos baseline). Evaluated in `f64` —
    /// `e` is irrational, and nothing downstream needs this exactly.
    pub fn satisfies_classic_criterion(&self) -> bool {
        let p = self.max_event_probability().to_f64();
        let d = self.max_dependency_degree() as f64;
        std::f64::consts::E * p * (d + 1.0) < 1.0
    }

    /// Whether the Chung–Pettie–Su polynomial criterion `e·p·d² < 1`
    /// holds (the regime of their `O(log_{1/epd²} n)` algorithm the
    /// paper's related-work section discusses). Evaluated in `f64`.
    pub fn satisfies_cps_criterion(&self) -> bool {
        let p = self.max_event_probability().to_f64();
        let d = self.max_dependency_degree() as f64;
        std::f64::consts::E * p * d * d < 1.0
    }

    /// A one-stop summary of the instance's LLL parameters, for display
    /// and logging.
    pub fn summary(&self) -> InstanceSummary {
        InstanceSummary {
            num_events: self.num_events(),
            num_variables: self.num_variables(),
            max_rank: self.max_rank(),
            max_dependency_degree: self.max_dependency_degree(),
            max_event_probability: self.max_event_probability().to_f64(),
            criterion_value: self.criterion_value().to_f64(),
            exponential_criterion: self.satisfies_exponential_criterion(),
            classic_criterion: self.satisfies_classic_criterion(),
        }
    }

    /// Events occurring under a complete assignment.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidAssignment`] if the assignment has
    /// the wrong length or an out-of-range value.
    pub fn violated_events(&self, assignment: &[usize]) -> Result<Vec<usize>, BuildError> {
        if assignment.len() != self.num_variables() {
            return Err(BuildError::InvalidAssignment(format!(
                "assignment length {} != {} variables",
                assignment.len(),
                self.num_variables()
            )));
        }
        for (x, &val) in assignment.iter().enumerate() {
            if val >= self.variables[x].num_values() {
                return Err(BuildError::InvalidAssignment(format!(
                    "value {val} out of range for variable {x}"
                )));
            }
        }
        let mut bad = Vec::new();
        let mut stack = [0usize; STACK_SUPPORT];
        let mut heap = Vec::new();
        for (v, event) in self.events.iter().enumerate() {
            let s = event.support.len();
            let values = if s <= STACK_SUPPORT {
                &mut stack[..s]
            } else {
                heap.resize(s, 0);
                &mut heap[..]
            };
            for (slot, &x) in values.iter_mut().zip(&event.support) {
                *slot = assignment[x];
            }
            if event.occurs(values) {
                bad.push(v);
            }
        }
        Ok(bad)
    }

    /// Whether no bad event occurs under a complete assignment.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidAssignment`] on malformed input.
    pub fn no_event_occurs(&self, assignment: &[usize]) -> Result<bool, BuildError> {
        Ok(self.violated_events(assignment)?.is_empty())
    }
}

/// The maximum of a sequence of event probabilities (`0` when empty) —
/// [`Instance::max_event_probability`]'s fold, shared with callers that
/// already hold the per-event values.
pub(crate) fn max_probability<T: Num>(probs: impl IntoIterator<Item = T>) -> T {
    let mut best = T::zero();
    for p in probs {
        if p > best {
            best = p;
        }
    }
    best
}

/// The listed arm of the enumeration: iterates the event's precomputed
/// occurring tuples instead of the full odometer. The list is stored in
/// odometer order and consistency filtering preserves that order, so a
/// fold sees the same tuples in the same order on either arm and
/// produces the same value bit for bit; only the cost of *rejecting*
/// non-occurring tuples disappears.
fn enumerate_listed(
    support: &[usize],
    occ: &[u16],
    values: &[usize],
    free: &[usize],
    fold: &mut impl TupleFold,
) {
    'tuples: for tuple in occ.chunks_exact(support.len()) {
        // `free` lists free positions ascending, so one merge pointer
        // splits positions into free (skipped) and fixed (matched).
        let mut fi = 0usize;
        for (pos, &t_val) in tuple.iter().enumerate() {
            if fi < free.len() && free[fi] == pos {
                fi += 1;
            } else if t_val as usize != values[pos] {
                continue 'tuples;
            }
        }
        fold.tuple(free.iter().map(|&pos| (support[pos], tuple[pos] as usize)));
    }
}

/// What the enumeration feeds: one call per occurring tuple, with the
/// `(variable, value)` pairs of its free positions in support order.
trait TupleFold {
    fn tuple(&mut self, free: impl Iterator<Item = (usize, usize)> + Clone);
}

/// The arithmetic of the enumeration: adds one tuple's weight, the
/// product over its `(variable, value)` pairs, into an accumulator.
trait Weights {
    type Sum;
    fn add(&self, sum: &mut Self::Sum, free: impl Iterator<Item = (usize, usize)>);
}

/// The inexact backends' arithmetic: `sum = sum + Π p`, each product a
/// left fold from one — the `Num` operation sequence the engine has
/// always performed, so `f64` results keep their rounding bit for bit.
struct FloatWeights<'a, T> {
    variables: &'a [Variable<T>],
}

impl<T: Num> Weights for FloatWeights<'_, T> {
    type Sum = T;

    fn add(&self, sum: &mut T, free: impl Iterator<Item = (usize, usize)>) {
        let mut w = T::one();
        for (x, y) in free {
            w = w * self.variables[x].probs[y].clone();
        }
        *sum = sum.clone() + w;
    }
}

/// The exact backends' arithmetic: integer weights over the interned
/// distributions, summed into a numerator. `Small`-tier values never
/// allocate.
struct ExactWeights<'a, T> {
    inst: &'a Instance<T>,
}

impl<T: Num> Weights for ExactWeights<'_, T> {
    type Sum = BigInt;

    fn add(&self, sum: &mut BigInt, free: impl Iterator<Item = (usize, usize)>) {
        let mut w = BigInt::one();
        for (x, y) in free {
            w = &w * &self.inst.dist(x).weights[y];
        }
        *sum += &w;
    }
}

/// Every tuple into one accumulator: `Pr[v | lookup]`.
struct Total<W: Weights> {
    weights: W,
    sum: W::Sum,
}

impl<W: Weights> TupleFold for Total<W> {
    fn tuple(&mut self, free: impl Iterator<Item = (usize, usize)> + Clone) {
        self.weights.add(&mut self.sum, free);
    }
}

/// The bucketing wrapper of [`Instance::probability_by_value`]: files
/// each tuple's weight without `x`'s factor under `x`'s value, and adds
/// its full weight into `total` when there is one.
struct ByValue<'b, W: Weights> {
    weights: W,
    x: usize,
    sums: &'b mut [W::Sum],
    total: Option<&'b mut W::Sum>,
}

impl<W: Weights> TupleFold for ByValue<'_, W> {
    fn tuple(&mut self, free: impl Iterator<Item = (usize, usize)> + Clone) {
        let x = self.x;
        let (_, y) = free
            .clone()
            .find(|&(z, _)| z == x)
            .expect("x is free in the walk");
        let rest = free.clone().filter(move |&(z, _)| z != x);
        self.weights.add(&mut self.sums[y], rest);
        if let Some(total) = self.total.as_deref_mut() {
            self.weights.add(total, free);
        }
    }
}

/// Every candidate's conditional probability of one event, from one
/// [`Instance::probability_by_value`] pass. The caller owns it and
/// reuses it across steps, so once its buffers have grown to the
/// variable's value count a pass on `Small` values allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct ValueProbs<T> {
    /// `Pr[E | partial]`.
    old: T,
    /// Inexact backends: `Pr[E | partial ∪ {x:y}]` per value `y`.
    probs: Vec<T>,
    /// Exact backends: the numerator `N(y)` of `Pr[E | partial ∪ {x:y}]`
    /// over `den`, per value `y`.
    nums: Vec<BigInt>,
    /// Exact backends: `D = Π lcd` over the free support variables other
    /// than `x`, the same for every `y`.
    den: BigInt,
}

impl<T: Num> Default for ValueProbs<T> {
    fn default() -> Self {
        ValueProbs {
            old: T::zero(),
            probs: Vec::new(),
            nums: Vec::new(),
            den: BigInt::one(),
        }
    }
}

impl<T: Num> ValueProbs<T> {
    /// `Pr[E | partial]`.
    pub(crate) fn old(&self) -> &T {
        &self.old
    }

    /// `Pr[E | partial ∪ {x:y}]`.
    pub(crate) fn prob(&self, y: usize) -> T {
        if T::is_exact() {
            T::from_rational(BigRational::new(self.nums[y].clone(), self.den.clone()))
        } else {
            self.probs[y].clone()
        }
    }

    /// `N(y)`, the numerator of `Pr[E | partial ∪ {x:y}]` over
    /// [`den`](ValueProbs::den) (exact backends only).
    pub(crate) fn num(&self, y: usize) -> &BigInt {
        &self.nums[y]
    }

    /// `D`, the denominator shared by every `N(y)` (exact backends
    /// only).
    pub(crate) fn den(&self) -> &BigInt {
        &self.den
    }

    /// The number of candidate values.
    pub(crate) fn num_values(&self) -> usize {
        if T::is_exact() {
            self.nums.len()
        } else {
            self.probs.len()
        }
    }
}

/// A variable distribution over an exact backend in integers:
/// `Pr[X = y] = weights[y] / lcd`, where `lcd` is the least common
/// denominator of the probabilities (so the weights sum to it).
#[derive(Debug, Clone)]
struct IntDist {
    weights: Vec<BigInt>,
    lcd: BigInt,
}

impl IntDist {
    fn new(probs: &[&BigRational]) -> IntDist {
        let mut lcd = BigInt::one();
        for p in probs {
            lcd = &(&lcd / &lcd.gcd(p.denom())) * p.denom();
        }
        let weights = probs
            .iter()
            .map(|p| &(p.numer() * &lcd) / p.denom())
            .collect();
        IntDist { weights, lcd }
    }
}

/// Interns the distinct distributions of an exact-backend instance:
/// the table of integer distributions and each variable's index into
/// it. Variables with equal probability vectors share one entry; both
/// lists are empty for inexact backends.
fn intern_distributions<T: Num>(variables: &[Variable<T>]) -> (Vec<IntDist>, Vec<usize>) {
    let (mut dists, mut dist_of) = (Vec::new(), Vec::new());
    if !T::is_exact() {
        return (dists, dist_of);
    }
    let mut index: HashMap<Vec<&BigRational>, usize> = HashMap::new();
    for (x, var) in variables.iter().enumerate() {
        // Builders add runs of identically distributed variables; a
        // repeat of the previous distribution skips the hash.
        if x > 0 && variables[x - 1].probs == var.probs {
            dist_of.push(dist_of[x - 1]);
            continue;
        }
        let probs: Vec<&BigRational> = var.probs.iter().filter_map(Num::as_rational).collect();
        let next = dists.len();
        let i = *index.entry(probs).or_insert_with_key(|probs| {
            dists.push(IntDist::new(probs));
            next
        });
        dist_of.push(i);
    }
    (dists, dist_of)
}

/// Summary of an instance's LLL parameters (see [`Instance::summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSummary {
    /// Number of bad events.
    pub num_events: usize,
    /// Number of random variables.
    pub num_variables: usize,
    /// Maximum variable rank `r`.
    pub max_rank: usize,
    /// Maximum dependency degree `d`.
    pub max_dependency_degree: usize,
    /// Maximum event probability `p` (as `f64` for display).
    pub max_event_probability: f64,
    /// The criterion value `p·2^d`.
    pub criterion_value: f64,
    /// Whether `p < 2^-d` holds.
    pub exponential_criterion: bool,
    /// Whether `e·p·(d+1) < 1` holds.
    pub classic_criterion: bool,
}

impl fmt::Display for InstanceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events:            {}", self.num_events)?;
        writeln!(f, "variables:         {}", self.num_variables)?;
        writeln!(f, "max rank r:        {}", self.max_rank)?;
        writeln!(f, "dependency deg d:  {}", self.max_dependency_degree)?;
        writeln!(f, "max event prob p:  {:.6}", self.max_event_probability)?;
        writeln!(f, "criterion p*2^d:   {:.6}", self.criterion_value)?;
        writeln!(f, "sharp criterion:   {}", self.exponential_criterion)?;
        write!(f, "classic criterion: {}", self.classic_criterion)
    }
}

/// Builder for [`Instance`].
///
/// The number of events is fixed up front; variables are added with the
/// list of events they affect; predicates are attached per event (the
/// default predicate never occurs). See the crate-level example.
pub struct InstanceBuilder<T> {
    num_events: usize,
    variables: Vec<(Vec<usize>, Vec<T>)>,
    predicates: Vec<Option<Predicate>>,
}

impl<T: Num> InstanceBuilder<T> {
    /// Starts an instance with `num_events` bad events.
    pub fn new(num_events: usize) -> InstanceBuilder<T> {
        InstanceBuilder {
            num_events,
            variables: Vec::new(),
            predicates: vec![None; num_events],
        }
    }

    /// Adds a variable with explicit value probabilities; returns its id.
    ///
    /// `affects` lists the events depending on the variable (its rank is
    /// `affects.len()` after deduplication). Validation happens in
    /// [`InstanceBuilder::build`].
    pub fn add_variable(&mut self, affects: &[usize], probs: Vec<T>) -> usize {
        let mut a = affects.to_vec();
        a.sort_unstable();
        a.dedup();
        self.variables.push((a, probs));
        self.variables.len() - 1
    }

    /// Adds a uniform variable over `k` values; returns its id.
    pub fn add_uniform_variable(&mut self, affects: &[usize], k: usize) -> usize {
        let probs = (0..k).map(|_| T::from_ratio(1, k as u64)).collect();
        self.add_variable(affects, probs)
    }

    /// Sets the predicate of event `v` (replacing any previous one).
    ///
    /// The predicate receives the values of the event's support variables
    /// and returns `true` iff the bad event occurs.
    pub fn set_event_predicate<F>(&mut self, v: usize, pred: F) -> &mut Self
    where
        F: Fn(&VarValues<'_>) -> bool + Send + Sync + 'static,
    {
        self.predicates[v] = Some(Arc::new(pred));
        self
    }

    /// Finalizes the instance.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a variable affects an out-of-range or
    /// empty event set, has no values, has a non-positive probability, or
    /// probabilities that do not sum to 1 (exactly for exact backends,
    /// within `1e-9` for `f64`).
    pub fn build(&self) -> Result<Instance<T>, BuildError> {
        // Validate variables.
        for (x, (affects, probs)) in self.variables.iter().enumerate() {
            if affects.is_empty() {
                return Err(BuildError::EmptyAffects(x));
            }
            if let Some(&v) = affects.iter().find(|&&v| v >= self.num_events) {
                return Err(BuildError::EventOutOfRange {
                    variable: x,
                    event: v,
                });
            }
            if probs.is_empty() {
                return Err(BuildError::NoValues(x));
            }
            let mut sum = T::zero();
            for p in probs {
                if !p.is_positive() {
                    return Err(BuildError::NonPositiveProbability(x));
                }
                sum = sum + p.clone();
            }
            let ok = if T::is_exact() {
                sum == T::one()
            } else {
                (sum.to_f64() - 1.0).abs() <= 1e-9
            };
            if !ok {
                return Err(BuildError::BadProbabilitySum(x));
            }
        }

        // Support of each event = variables affecting it, ascending.
        let mut supports: Vec<Vec<usize>> = vec![Vec::new(); self.num_events];
        for (x, (affects, _)) in self.variables.iter().enumerate() {
            for &v in affects {
                supports[v].push(x);
            }
        }

        let variables: Vec<Variable<T>> = self
            .variables
            .iter()
            .map(|(affects, probs)| Variable {
                probs: probs.clone(),
                affects: affects.clone(),
            })
            .collect();

        let mut events = Vec::with_capacity(self.num_events);
        for (v, support) in supports.into_iter().enumerate() {
            let predicate: Predicate = self.predicates[v]
                .clone()
                .unwrap_or_else(|| Arc::new(|_| false));
            // Truth-table precomputation for small supports.
            let mut strides = vec![0usize; support.len()];
            let mut size: usize = 1;
            let mut fits = true;
            for (pos, &x) in support.iter().enumerate() {
                strides[pos] = size;
                size = match size.checked_mul(variables[x].num_values()) {
                    Some(s) if s <= TABLE_LIMIT => s,
                    _ => {
                        fits = false;
                        break;
                    }
                };
            }
            let (table, occ) = if fits {
                let mut table = vec![false; size];
                let mut occ = Vec::new();
                let mut values = vec![0usize; support.len()];
                for (idx, slot) in table.iter_mut().enumerate() {
                    let mut rest = idx;
                    for (pos, &x) in support.iter().enumerate() {
                        values[pos] = rest % variables[x].num_values();
                        rest /= variables[x].num_values();
                    }
                    *slot = predicate(&VarValues {
                        support: &support,
                        values: &values,
                    });
                    if *slot {
                        occ.extend(values.iter().map(|&v| v as u16));
                    }
                }
                (Some(table), Some(occ))
            } else {
                (None, None)
            };
            events.push(Event {
                support,
                predicate,
                table,
                strides,
                occ,
                _marker: std::marker::PhantomData,
            });
        }

        // Dependency graph & hypergraph.
        let mut gb = GraphBuilder::new(self.num_events);
        let mut hyperedges = Vec::with_capacity(variables.len());
        let mut max_rank = 1;
        for var in &variables {
            let a = &var.affects;
            max_rank = max_rank.max(a.len());
            hyperedges.push(Hyperedge::new(a.iter().copied()));
            for i in 0..a.len() {
                for j in i + 1..a.len() {
                    gb.add_edge(a[i], a[j]);
                }
            }
        }
        let dependency = gb.build().expect("validated event indices");
        let hypergraph = Hypergraph::new(self.num_events, hyperedges, max_rank)
            .expect("validated event indices");

        let (dists, dist_of) = intern_distributions(&variables);
        Ok(Instance {
            variables,
            events,
            dependency,
            hypergraph,
            dists,
            dist_of,
        })
    }
}

impl<T: Num> fmt::Debug for InstanceBuilder<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstanceBuilder")
            .field("num_events", &self.num_events)
            .field("num_variables", &self.variables.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_numeric::BigRational;

    /// Two events, one shared fair coin plus one private coin each; event
    /// occurs iff both its coins are heads (value 0).
    fn two_event_instance<T: Num>() -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(2);
        let shared = b.add_uniform_variable(&[0, 1], 2);
        let p0 = b.add_uniform_variable(&[0], 2);
        let p1 = b.add_uniform_variable(&[1], 2);
        b.set_event_predicate(0, move |vals| vals[shared] == 0 && vals[p0] == 0);
        b.set_event_predicate(1, move |vals| vals[shared] == 0 && vals[p1] == 0);
        b.build().unwrap()
    }

    #[test]
    fn builds_dependency_structures() {
        let inst = two_event_instance::<f64>();
        assert_eq!(inst.num_events(), 2);
        assert_eq!(inst.num_variables(), 3);
        assert_eq!(inst.max_rank(), 2);
        assert!(inst.dependency_graph().has_edge(0, 1));
        assert_eq!(inst.max_dependency_degree(), 1);
        assert_eq!(inst.hypergraph().num_edges(), 3);
        assert_eq!(inst.hypergraph().edge(0).nodes(), &[0, 1]);
    }

    #[test]
    fn exact_probabilities() {
        let inst = two_event_instance::<BigRational>();
        let empty = PartialAssignment::new(3);
        assert_eq!(inst.probability(0, &empty), BigRational::from_ratio(1, 4));
        assert_eq!(inst.max_event_probability(), BigRational::from_ratio(1, 4));
        // criterion: p·2^d = 1/4 · 2 = 1/2 < 1
        assert_eq!(inst.criterion_value(), BigRational::from_ratio(1, 2));
        assert!(inst.satisfies_exponential_criterion());
        // CPS: e·(1/4)·1 < 1 holds; classic: e·(1/4)·2 > 1 fails.
        assert!(inst.satisfies_cps_criterion());
        assert!(!inst.satisfies_classic_criterion());

        // Condition on the shared coin being heads.
        let mut partial = PartialAssignment::new(3);
        partial.fix(0, 0);
        assert_eq!(inst.probability(0, &partial), BigRational::from_ratio(1, 2));
        // Condition on the shared coin being tails: impossible.
        let mut partial = PartialAssignment::new(3);
        partial.fix(0, 1);
        assert_eq!(inst.probability(0, &partial), BigRational::zero());
        // Fully fixed.
        let mut partial = PartialAssignment::new(3);
        partial.fix(0, 0);
        partial.fix(1, 0);
        partial.fix(2, 1);
        assert_eq!(inst.probability(0, &partial), BigRational::one());
        assert_eq!(inst.probability(1, &partial), BigRational::zero());
    }

    #[test]
    fn f64_probabilities_match_exact() {
        let f = two_event_instance::<f64>();
        let r = two_event_instance::<BigRational>();
        let empty_f = PartialAssignment::new(3);
        for v in 0..2 {
            let pf = f.probability(v, &empty_f);
            let pr = r.probability(v, &empty_f).to_f64();
            assert!((pf - pr).abs() < 1e-12);
        }
    }

    #[test]
    fn violated_events_and_validation() {
        let inst = two_event_instance::<f64>();
        assert_eq!(inst.violated_events(&[0, 0, 1]).unwrap(), vec![0]);
        assert_eq!(inst.violated_events(&[0, 0, 0]).unwrap(), vec![0, 1]);
        assert_eq!(
            inst.violated_events(&[1, 0, 0]).unwrap(),
            Vec::<usize>::new()
        );
        assert!(inst.no_event_occurs(&[1, 0, 0]).unwrap());
        assert!(inst.violated_events(&[0, 0]).is_err());
        assert!(inst.violated_events(&[0, 0, 2]).is_err());
    }

    #[test]
    fn default_predicate_never_occurs() {
        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_uniform_variable(&[0], 2);
        let inst = b.build().unwrap();
        assert_eq!(inst.unconditional_probability(0), 0.0);
        assert!(inst.no_event_occurs(&[1]).unwrap());
    }

    #[test]
    fn empty_support_events() {
        let b = InstanceBuilder::<f64>::new(1);
        let inst = b.build().unwrap();
        assert_eq!(inst.unconditional_probability(0), 0.0);
        assert_eq!(inst.max_dependency_degree(), 0);
    }

    #[test]
    fn build_validation_errors() {
        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_variable(&[], vec![1.0]);
        assert!(matches!(b.build(), Err(BuildError::EmptyAffects(0))));

        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_variable(&[3], vec![1.0]);
        assert!(matches!(
            b.build(),
            Err(BuildError::EventOutOfRange {
                variable: 0,
                event: 3
            })
        ));

        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_variable(&[0], vec![]);
        assert!(matches!(b.build(), Err(BuildError::NoValues(0))));

        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_variable(&[0], vec![0.5, 0.6]);
        assert!(matches!(b.build(), Err(BuildError::BadProbabilitySum(0))));

        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_variable(&[0], vec![1.5, -0.5]);
        assert!(matches!(
            b.build(),
            Err(BuildError::NonPositiveProbability(0))
        ));

        let mut b = InstanceBuilder::<BigRational>::new(1);
        b.add_variable(
            &[0],
            vec![BigRational::from_ratio(1, 3), BigRational::from_ratio(1, 3)],
        );
        assert!(matches!(b.build(), Err(BuildError::BadProbabilitySum(0))));
    }

    #[test]
    fn duplicate_affects_are_deduplicated() {
        let mut b = InstanceBuilder::<f64>::new(2);
        let x = b.add_uniform_variable(&[1, 0, 1], 2);
        let inst = b.build().unwrap();
        assert_eq!(inst.variable(x).affects(), &[0, 1]);
        assert_eq!(inst.variable(x).rank(), 2);
    }

    #[test]
    fn biased_variable_probabilities() {
        let mut b = InstanceBuilder::<BigRational>::new(1);
        let x = b.add_variable(
            &[0],
            vec![BigRational::from_ratio(1, 4), BigRational::from_ratio(3, 4)],
        );
        b.set_event_predicate(0, move |vals| vals[x] == 0);
        let inst = b.build().unwrap();
        assert_eq!(
            inst.unconditional_probability(0),
            BigRational::from_ratio(1, 4)
        );
    }

    #[test]
    fn large_support_skips_table_but_matches() {
        // 15 binary variables on one event -> table (2^15 > limit) skipped.
        let mut b = InstanceBuilder::<f64>::new(1);
        let vars: Vec<usize> = (0..15).map(|_| b.add_uniform_variable(&[0], 2)).collect();
        let v0 = vars[0];
        b.set_event_predicate(0, move |vals| vals[v0] == 0);
        let inst = b.build().unwrap();
        assert!((inst.unconditional_probability(0) - 0.5).abs() < 1e-12);
    }

    /// Value counts of one event's support, one shape per engine arm:
    /// `(stack buffers, truth table)`, `(heap buffers, truth table)`,
    /// `(stack buffers, odometer)`, `(heap buffers, odometer)` — the
    /// single-valued variables keep the long tabled support's table
    /// small, and the odometer shapes sit just past `TABLE_LIMIT`.
    fn arm_shape(arm: usize, extra: usize) -> Vec<usize> {
        match arm {
            0 => (0..1 + extra % 6).map(|i| 2 + (i + extra) % 3).collect(),
            1 => (0..STACK_SUPPORT + 1 + extra % 4)
                .map(|i| if i % 6 == 0 { 2 } else { 1 })
                .collect(),
            2 => vec![33; 3],
            _ => {
                let mut ks = vec![2; 11];
                ks.push(17);
                ks.extend(std::iter::repeat_n(1, STACK_SUPPORT - 11 + extra % 3));
                ks
            }
        }
    }

    /// Event 0 over variables with the given value counts and biased
    /// weights, occurring where a weighted value sum hits `residue` modulo
    /// `modulus`; event 1 shares event 0's first variable and owns one
    /// more, so the lookup sees variables outside event 0's support.
    fn arm_instance<T: Num>(
        ks: &[usize],
        weights: &[u8],
        modulus: usize,
        residue: usize,
    ) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(2);
        let mut support = Vec::new();
        for (j, &k) in ks.iter().enumerate() {
            let w: Vec<u64> = (0..k)
                .map(|i| 1 + u64::from(weights[(i + j) % weights.len()] % 7))
                .collect();
            let total: u64 = w.iter().sum();
            let probs = w
                .iter()
                .map(|&wi| T::from_ratio(wi as i64, total))
                .collect();
            let affects: &[usize] = if j == 0 { &[0, 1] } else { &[0] };
            support.push(b.add_variable(affects, probs));
        }
        let own = b.add_uniform_variable(&[1], 3);
        let (first, ev0) = (support[0], support.clone());
        b.set_event_predicate(0, move |vals| {
            let sum: usize = ev0
                .iter()
                .enumerate()
                .map(|(i, &x)| (i + 1) * vals[x])
                .sum();
            sum % modulus == residue
        });
        b.set_event_predicate(1, move |vals| vals[first] + vals[own] == residue % 3);
        b.build().unwrap()
    }

    /// Bit-for-bit equality: `==` on the value and on its `f64` bits.
    fn identical<T: Num>(a: &T, b: &T) -> bool {
        a == b && a.to_f64().to_bits() == b.to_f64().to_bits()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// `unconditional_probability` is `probability` against the empty
        /// assignment, bit for bit, on every engine arm and both backends.
        #[test]
        fn unconditional_probability_is_the_empty_conditional(
            extra in 0usize..64,
            weights in proptest::collection::vec(0u8..255, 1..6),
            modulus in 5usize..13,
            residue in 0usize..13,
        ) {
            let residue = residue % modulus;
            for arm in 0..4 {
                let ks = arm_shape(arm, extra);
                let f = arm_instance::<f64>(&ks, &weights, modulus, residue);
                let r = arm_instance::<BigRational>(&ks, &weights, modulus, residue);
                let event = &f.events[0];
                proptest::prop_assert_eq!(event.support.len() > STACK_SUPPORT, arm % 2 == 1);
                proptest::prop_assert_eq!(event.table.is_none(), arm >= 2);
                let empty = PartialAssignment::new(f.num_variables());
                for v in 0..2 {
                    let (a, b) = (f.unconditional_probability(v), f.probability(v, &empty));
                    proptest::prop_assert!(identical(&a, &b), "f64 arm {} event {}: {} vs {}", arm, v, a, b);
                    let (a, b) = (r.unconditional_probability(v), r.probability(v, &empty));
                    proptest::prop_assert!(identical(&a, &b), "exact arm {} event {}: {} vs {}", arm, v, a, b);
                }
            }
        }
    }

    /// A random support variable `x` of event 0 and an assignment that
    /// fixes each other variable with probability one half, to a random
    /// value.
    fn random_partial<T: Num>(inst: &Instance<T>, seed: u64) -> (usize, PartialAssignment) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let support = inst.event(0).support();
        let x = support[rng.random_range(0..support.len())];
        let mut partial = PartialAssignment::new(inst.num_variables());
        for z in (0..inst.num_variables()).filter(|&z| z != x) {
            if rng.random_bool(0.5) {
                partial.fix(z, rng.random_range(0..inst.variable(z).num_values()));
            }
        }
        (x, partial)
    }

    /// The bucketed pass over every event `x` affects, into the reused
    /// buffer `out`, against `probability` and each `probability_with`,
    /// bit for bit; on exact backends also `N(y)/D` itself. Returns
    /// whether some checked event was impossible under `partial`.
    fn check_pass<T: Num>(
        inst: &Instance<T>,
        partial: &PartialAssignment,
        x: usize,
        out: &mut ValueProbs<T>,
    ) -> Result<bool, proptest::TestCaseError> {
        let mut impossible = false;
        for &v in inst.variable(x).affects() {
            inst.probability_by_value(v, partial, x, out);
            let old = inst.probability(v, partial);
            proptest::prop_assert!(
                identical(out.old(), &old),
                "event {}: {} vs {}",
                v,
                out.old(),
                old
            );
            impossible |= old.is_zero();
            let k = inst.variable(x).num_values();
            proptest::prop_assert_eq!(out.num_values(), k);
            for y in 0..k {
                let want = inst.probability_with(v, partial, x, y);
                let got = out.prob(y);
                proptest::prop_assert!(
                    identical(&got, &want),
                    "event {} y {}: {} vs {}",
                    v,
                    y,
                    got,
                    want
                );
                if T::is_exact() {
                    let ratio = BigRational::new(out.num(y).clone(), out.den().clone());
                    proptest::prop_assert_eq!(Some(&ratio), want.as_rational());
                }
            }
        }
        Ok(impossible)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The bucketed pass equals `probability` and every per-value
        /// `probability_with` on all four engine arms, both backends,
        /// random partials and mixed value counts, through one reused
        /// buffer per backend.
        #[test]
        fn bucketed_pass_matches_the_separate_walks(
            extra in 0usize..64,
            weights in proptest::collection::vec(0u8..255, 1..6),
            modulus in 5usize..13,
            residue in 0usize..13,
            seed in 0u64..1 << 32,
        ) {
            let residue = residue % modulus;
            let (mut f_out, mut r_out) = (ValueProbs::default(), ValueProbs::default());
            for arm in 0..4 {
                let ks = arm_shape(arm, extra);
                let f = arm_instance::<f64>(&ks, &weights, modulus, residue);
                let r = arm_instance::<BigRational>(&ks, &weights, modulus, residue);
                for s in 0..3 {
                    let (x, partial) = random_partial(&f, seed + s);
                    check_pass(&f, &partial, x, &mut f_out)?;
                    check_pass(&r, &partial, x, &mut r_out)?;
                }
            }
        }
    }

    #[test]
    fn bucketed_pass_reports_impossible_events() {
        // `sum % usize::MAX` is the sum itself, which never reaches
        // `usize::MAX - 1`: event 0 never occurs, on every arm.
        let (mut f_out, mut r_out) = (ValueProbs::default(), ValueProbs::default());
        for arm in 0..4 {
            let ks = arm_shape(arm, 1);
            let f = arm_instance::<f64>(&ks, &[3, 1, 4], usize::MAX, usize::MAX - 1);
            let r = arm_instance::<BigRational>(&ks, &[3, 1, 4], usize::MAX, usize::MAX - 1);
            let (x, partial) = random_partial(&f, arm as u64);
            assert!(
                check_pass(&f, &partial, x, &mut f_out).unwrap(),
                "arm {arm}"
            );
            assert!(
                check_pass(&r, &partial, x, &mut r_out).unwrap(),
                "arm {arm}"
            );
            f.probability_by_value(0, &partial, x, &mut f_out);
            r.probability_by_value(0, &partial, x, &mut r_out);
            assert!(f_out.old().is_zero() && r_out.old().is_zero(), "arm {arm}");
            for y in 0..f.variable(x).num_values() {
                assert!(f_out.prob(y).is_zero() && r_out.prob(y).is_zero());
            }
        }
    }

    #[test]
    fn violated_events_reads_long_supports() {
        // Event 0's support is past the stack buffer, event 1's is not:
        // both arms of the buffer choice, against a direct evaluation.
        let ks = arm_shape(3, 0);
        let inst = arm_instance::<f64>(&ks, &[3, 1, 4], 2, 0);
        let m = inst.num_variables();
        for fill in 0..2 {
            let assignment: Vec<usize> = (0..m)
                .map(|x| fill.min(inst.variable(x).num_values() - 1))
                .collect();
            let expected: Vec<usize> = (0..2)
                .filter(|&v| {
                    let e = inst.event(v);
                    let values: Vec<usize> = e.support().iter().map(|&x| assignment[x]).collect();
                    e.occurs(&values)
                })
                .collect();
            assert_eq!(inst.violated_events(&assignment).unwrap(), expected);
        }
    }

    #[test]
    fn summary_reports_the_parameters() {
        let inst = two_event_instance::<f64>();
        let s = inst.summary();
        assert_eq!(s.num_events, 2);
        assert_eq!(s.num_variables, 3);
        assert_eq!(s.max_rank, 2);
        assert_eq!(s.max_dependency_degree, 1);
        assert!((s.max_event_probability - 0.25).abs() < 1e-12);
        assert!(s.exponential_criterion);
        let text = s.to_string();
        assert!(text.contains("criterion p*2^d"));
        assert!(text.contains("events:            2"));
    }

    #[test]
    fn single_valued_variables_are_legal() {
        // k = 1 (a constant "random" variable): probability 1 on its
        // only value; the engine and fixers must handle it.
        let mut b = InstanceBuilder::<f64>::new(2);
        let c = b.add_uniform_variable(&[0, 1], 1);
        let x = b.add_uniform_variable(&[0, 1], 8);
        b.set_event_predicate(0, move |vals| vals[c] == 0 && vals[x] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1);
        let inst = b.build().unwrap();
        assert!((inst.unconditional_probability(0) - 0.125).abs() < 1e-12);
        let report = crate::Fixer3::new(&inst).unwrap().run_default().unwrap();
        assert!(report.is_success());
    }

    #[test]
    fn partial_assignment_bookkeeping() {
        let mut pa = PartialAssignment::new(3);
        assert_eq!(pa.num_fixed(), 0);
        assert!(!pa.is_complete());
        pa.fix(1, 7);
        assert_eq!(pa.get(1), Some(7));
        assert_eq!(pa.get(0), None);
        pa.fix(0, 1);
        pa.fix(2, 0);
        assert!(pa.is_complete());
        assert_eq!(pa.into_complete(), vec![1, 7, 0]);
    }

    #[test]
    #[should_panic(expected = "already fixed")]
    fn refixing_panics() {
        let mut pa = PartialAssignment::new(1);
        pa.fix(0, 0);
        pa.fix(0, 1);
    }
}
