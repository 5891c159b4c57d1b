//! LLL instances: discrete random variables, bad events, and the exact
//! conditional-probability engine.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use lll_graphs::{Graph, GraphBuilder};
use lll_numeric::{BigInt, BigRational, Num};

use crate::error::{BuildError, FixerError};

/// The most bad tuples one event may have, and the most value
/// combinations a predicate is read on.
pub const MAX_BAD_TUPLES: usize = 1 << 15;

/// Supports up to this length are evaluated in stack buffers; longer
/// ones fall back to the heap. Supports are small in every LLL workload
/// (bounded dependency degree), so the hot paths never allocate (on
/// exact backends, while the integers stay in the `Small` tier).
const STACK_SUPPORT: usize = 16;

/// Value counts up to this bucket a certified event's bucketed pass in
/// a stack buffer of machine words; more values fall back to the heap.
const STACK_VALUES: usize = 64;

/// The largest `Π lcd` an event's word certificate admits. Every weight
/// sum of a certified event is at most its `Π lcd`, so it fits a `u128`
/// and converts to a `Small`-tier [`BigInt`] without touching the heap.
const WORD_MAX: u128 = i128::MAX as u128;

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

/// A bad event of the instance: its support and its *bad set*, the
/// support tuples under which it occurs, which is all `Pr[E | partial]`
/// depends on. The bad set is a list without repeats, sorted on the
/// reversed tuple: the order of the tuples' mixed-radix indices with
/// position 0 least significant, in which the probability engine folds
/// them.
#[derive(Clone, Debug)]
pub struct Event {
    support: Vec<usize>,
    /// The bad tuples, flattened: `bad[i·s + pos]` is the value of
    /// `support[pos]` in tuple `i`.
    bad: Vec<u32>,
    /// The number of bad tuples (the flat list cannot count empty ones).
    num_bad: usize,
}

impl Event {
    /// The variables the event depends on (sorted ascending).
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// The bad tuples, in the list's order: tuple `i` holds the values
    /// of `support()` under which the event occurs.
    pub fn bad_tuples(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.num_bad).map(|i| self.tuple(i))
    }

    fn tuple(&self, i: usize) -> &[u32] {
        let s = self.support.len();
        &self.bad[i * s..(i + 1) * s]
    }

    /// Evaluates the event: does it occur under these support values?
    /// A binary search of the bad list.
    ///
    /// `values[i]` is the value of `support()[i]`.
    pub fn occurs(&self, values: &[usize]) -> bool {
        debug_assert_eq!(values.len(), self.support.len());
        self.occurs_by(|pos| values[pos])
    }

    /// [`occurs`](Event::occurs) with the value at each support
    /// position given by `value`.
    fn occurs_by(&self, value: impl Fn(usize) -> usize) -> bool {
        let (mut lo, mut hi) = (0, self.num_bad);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let tuple = self.tuple(mid).iter().rev().map(|&y| y as usize);
            match tuple.cmp((0..self.support.len()).rev().map(&value)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
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
/// dependency graph and provides the exact conditional-probability
/// engine the fixers and the `P*` audit rely on.
#[derive(Debug, Clone)]
pub struct Instance<T> {
    variables: Vec<Variable<T>>,
    events: Vec<Event>,
    dependency: Graph,
    /// The distinct variable distributions as integer tables, shared by
    /// every variable that has them (exact backends only; empty for
    /// `f64`).
    dists: Vec<IntDist>,
    /// Each variable's index into `dists` (empty for `f64`).
    dist_of: Vec<usize>,
    /// Per event: whether `Π lcd` over its support is at most
    /// [`WORD_MAX`], so its enumeration sums in machine words (empty for
    /// `f64`). See [`word_certificate`].
    certified: Vec<bool>,
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
    pub fn event(&self, v: usize) -> &Event {
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
    /// `D·lcd_x` — in machine words when `v` is certified, in `BigInt`s
    /// otherwise. Canonical forms are unique, so every value equals the
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
            let dist = self.dist(x);
            let free = |z: usize| z != x && partial.get(z).is_none();
            out.nums.clear();
            if self.certified[v] {
                let mut stack = [0u128; STACK_VALUES];
                let mut heap = Vec::new();
                let sums = if k <= STACK_VALUES {
                    &mut stack[..k]
                } else {
                    heap.resize(k, 0);
                    &mut heap[..]
                };
                let mut fold = ByValue {
                    weights: WordWeights { inst: self },
                    x,
                    sums: &mut *sums,
                    total: None,
                };
                self.enumerate(v, lookup, &mut fold);
                // `Σ_y w_x(y)·N(y) ≤ lcd_x·D ≤ Π lcd`: the certificate
                // covers the numerator and the denominator of `old` too.
                let den = self.free_den_word(v, free);
                let num: u128 = dist
                    .word_weights
                    .iter()
                    .zip(&*sums)
                    .map(|(w, n)| w * n)
                    .sum();
                out.nums.extend(sums.iter().map(|&n| BigInt::from(n)));
                out.den = BigInt::from(den);
                out.old = T::from_rational(BigRational::new(
                    BigInt::from(num),
                    BigInt::from(den * dist.word_lcd),
                ));
            } else {
                out.nums.resize(k, BigInt::zero());
                let mut fold = ByValue {
                    weights: ExactWeights { inst: self },
                    x,
                    sums: &mut out.nums,
                    total: None,
                };
                self.enumerate(v, lookup, &mut fold);
                out.den = self.free_den(v, free);
                let mut num = BigInt::zero();
                for (w, n) in dist.weights.iter().zip(&out.nums) {
                    num += &(w * n);
                }
                out.old = T::from_rational(BigRational::new(num, &out.den * &dist.lcd));
            }
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
    /// unique, so it equals the rational `Σ Π p` fold bit for bit. A
    /// certified event sums in machine words, any other in `BigInt`s;
    /// both give the same pair.
    fn exact_parts(&self, v: usize, lookup: impl Fn(usize) -> Option<usize>) -> (BigInt, BigInt) {
        let free = |x| lookup(x).is_none();
        if self.certified[v] {
            let mut fold = Total {
                weights: WordWeights { inst: self },
                sum: 0,
            };
            self.enumerate(v, &lookup, &mut fold);
            return (
                BigInt::from(fold.sum),
                BigInt::from(self.free_den_word(v, free)),
            );
        }
        let mut fold = Total {
            weights: ExactWeights { inst: self },
            sum: BigInt::zero(),
        };
        self.enumerate(v, &lookup, &mut fold);
        (fold.sum, self.free_den(v, free))
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

    /// [`free_den`](Instance::free_den) in a machine word, for a
    /// certified event `v`: a product over part of its support is at
    /// most its `Π lcd`.
    fn free_den_word(&self, v: usize, free: impl Fn(usize) -> bool) -> u128 {
        let support = &self.events[v].support;
        support
            .iter()
            .filter(|&&x| free(x))
            .map(|&x| self.dist(x).word_lcd)
            .product()
    }

    /// The interned integer distribution of variable `x` (exact
    /// backends only).
    fn dist(&self, x: usize) -> &IntDist {
        &self.dists[self.dist_of[x]]
    }

    /// Feeds `fold` every bad tuple of event `v` that is consistent with
    /// the values `lookup` reports as fixed, in the list's order. The
    /// fixers call this in a tight loop; stack buffers avoid two heap
    /// allocations per call on the hot path.
    fn enumerate(
        &self,
        v: usize,
        lookup: impl Fn(usize) -> Option<usize>,
        fold: &mut impl TupleFold,
    ) {
        #[cfg(test)]
        walks::note(v);
        let support_len = self.events[v].support.len();
        if support_len <= STACK_SUPPORT {
            let mut values = [0usize; STACK_SUPPORT];
            let mut free = [0usize; STACK_SUPPORT];
            self.enumerate_in(
                v,
                lookup,
                &mut values[..support_len],
                &mut free[..support_len],
                fold,
            );
        } else {
            let mut values = vec![0usize; support_len];
            let mut free = vec![0usize; support_len];
            self.enumerate_in(v, lookup, &mut values, &mut free, fold);
        }
    }

    fn enumerate_in(
        &self,
        v: usize,
        lookup: impl Fn(usize) -> Option<usize>,
        values: &mut [usize],
        free_buf: &mut [usize],
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
        'tuples: for tuple in event.bad.chunks_exact(support.len()) {
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
        self.classic_criterion_for(self.max_event_probability().to_f64())
    }

    /// `e·p·(d+1) < 1` for a precomputed maximum event probability `p`.
    fn classic_criterion_for(&self, p: f64) -> bool {
        let d = self.max_dependency_degree() as f64;
        std::f64::consts::E * p * (d + 1.0) < 1.0
    }

    /// A one-stop summary of the instance's LLL parameters, for display
    /// and logging. Runs the unconditional pass once: every field equals
    /// its individual method.
    pub fn summary(&self) -> InstanceSummary {
        let p = self.max_event_probability();
        let max_event_probability = p.to_f64();
        let criterion = self.criterion_value_for(p);
        InstanceSummary {
            num_events: self.num_events(),
            num_variables: self.num_variables(),
            max_rank: self.max_rank(),
            max_dependency_degree: self.max_dependency_degree(),
            max_event_probability,
            criterion_value: criterion.to_f64(),
            exponential_criterion: criterion < T::one(),
            classic_criterion: self.classic_criterion_for(max_event_probability),
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
        Ok((0..self.num_events())
            .filter(|&v| {
                let event = &self.events[v];
                event.occurs_by(|pos| assignment[event.support[pos]])
            })
            .collect())
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

/// [`ExactWeights`] in machine words, for certified events only: every
/// product and every sum is a weight sum over part of the event's
/// support, hence at most its `Π lcd ≤` [`WORD_MAX`], so no operation
/// can overflow and none is checked.
struct WordWeights<'a, T> {
    inst: &'a Instance<T>,
}

impl<T: Num> Weights for WordWeights<'_, T> {
    type Sum = u128;

    fn add(&self, sum: &mut u128, free: impl Iterator<Item = (usize, usize)>) {
        let mut w = 1;
        for (x, y) in free {
            w *= self.inst.dist(x).word_weights[y];
        }
        *sum += w;
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
/// variable's value count a pass on `Small` values allocates nothing
/// (on a certified event, for up to `STACK_VALUES` values).
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
    /// `weights` and `lcd` as machine words, when `lcd ≤ WORD_MAX` (each
    /// weight is at most `lcd`). Otherwise `word_lcd` reads 0, no
    /// certified event has this variable in its support, and nothing
    /// reads the words.
    word_weights: Vec<u128>,
    word_lcd: u128,
}

impl IntDist {
    fn new(probs: &[&BigRational]) -> IntDist {
        let mut lcd = BigInt::one();
        for p in probs {
            lcd = &(&lcd / &lcd.gcd(p.denom())) * p.denom();
        }
        let weights: Vec<BigInt> = probs
            .iter()
            .map(|p| &(p.numer() * &lcd) / p.denom())
            .collect();
        let word = |n: &BigInt| n.to_i128().map_or(0, |w| w as u128);
        IntDist {
            word_weights: weights.iter().map(word).collect(),
            word_lcd: word(&lcd),
            weights,
            lcd,
        }
    }
}

/// The word certificate of an event with this `support`: whether `Π lcd`
/// over it is at most [`WORD_MAX`]. A variable's weights sum to its
/// `lcd`, so every sum of tuple weights over any subset of the support,
/// and every product inside one, is at most `Π lcd`: a certified event
/// can sum in `u128` with no overflow check. An `lcd` past `WORD_MAX`
/// reads 0 in words and fails the certificate.
fn word_certificate(dists: &[IntDist], dist_of: &[usize], support: &[usize]) -> bool {
    support
        .iter()
        .try_fold(1u128, |prod, &x| {
            let lcd = dists[dist_of[x]].word_lcd;
            prod.checked_mul(lcd).filter(|&p| lcd != 0 && p <= WORD_MAX)
        })
        .is_some()
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
/// list of events they affect. An event's bad set is given as its bad
/// tuples or as a predicate (see the two setters); an event given
/// neither never occurs. See the crate-level example.
pub struct InstanceBuilder<T> {
    num_events: usize,
    variables: Vec<Variable<T>>,
    events: Vec<BadSet>,
}

/// One event's bad set as the builder holds it until `build`: tuples
/// (sorted without repeats unless past [`MAX_BAD_TUPLES`]), or a
/// predicate.
#[derive(Clone)]
enum BadSet {
    Tuples(Vec<Vec<usize>>),
    Predicate(Predicate),
}

impl<T: Num> InstanceBuilder<T> {
    /// Starts an instance with `num_events` bad events.
    pub fn new(num_events: usize) -> InstanceBuilder<T> {
        InstanceBuilder {
            num_events,
            variables: Vec::new(),
            events: vec![BadSet::Tuples(Vec::new()); num_events],
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
        self.variables.push(Variable { probs, affects: a });
        self.variables.len() - 1
    }

    /// Adds a uniform variable over `k` values; returns its id.
    pub fn add_uniform_variable(&mut self, affects: &[usize], k: usize) -> usize {
        let probs = (0..k).map(|_| T::from_ratio(1, k as u64)).collect();
        self.add_variable(affects, probs)
    }

    /// Sets the bad set of event `v` (replacing any previous one) to
    /// `tuples`, each one value per support variable in support order
    /// (ids ascending), in any order and with repeats. `build` returns
    /// [`BuildError::WrongArity`] for a tuple of another length,
    /// [`BuildError::ValueOutOfRange`] for a value outside its
    /// variable's domain and [`BuildError::EventTooLarge`] past
    /// [`MAX_BAD_TUPLES`] tuples (repeats included; at most one more is
    /// read).
    pub fn set_event_bad_tuples<I>(&mut self, v: usize, tuples: I) -> &mut Self
    where
        I: IntoIterator,
        I::Item: Into<Vec<usize>>,
    {
        let mut tuples: Vec<Vec<usize>> = tuples
            .into_iter()
            .take(MAX_BAD_TUPLES + 1)
            .map(Into::into)
            .collect();
        if tuples.len() <= MAX_BAD_TUPLES {
            tuples.sort_unstable_by(|a, b| a.iter().rev().cmp(b.iter().rev()));
            tuples.dedup();
        }
        self.events[v] = BadSet::Tuples(tuples);
        self
    }

    /// Sets the bad set of event `v` (replacing any previous one) to the
    /// support values on which `pred` returns `true`. `build` reads
    /// `pred` once on each of the support's `Π k` value combinations,
    /// and returns [`BuildError::EventTooLarge`] if there are more than
    /// [`MAX_BAD_TUPLES`].
    pub fn set_event_predicate<F>(&mut self, v: usize, pred: F) -> &mut Self
    where
        F: Fn(&VarValues<'_>) -> bool + Send + Sync + 'static,
    {
        self.events[v] = BadSet::Predicate(Arc::new(pred));
        self
    }

    /// Finalizes the instance.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a variable affects an out-of-range or
    /// empty event set, has no values, has a non-positive probability, or
    /// probabilities that do not sum to 1 (exactly for exact backends,
    /// within `1e-9` for `f64`); or if an event's bad set is malformed
    /// or too large (see
    /// [`set_event_bad_tuples`](InstanceBuilder::set_event_bad_tuples)
    /// and [`set_event_predicate`](InstanceBuilder::set_event_predicate)).
    pub fn build(&self) -> Result<Instance<T>, BuildError> {
        // Validate variables.
        for (x, Variable { probs, affects }) in self.variables.iter().enumerate() {
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
        for (x, var) in self.variables.iter().enumerate() {
            for &v in &var.affects {
                supports[v].push(x);
            }
        }
        let variables = self.variables.clone();

        let mut events = Vec::with_capacity(self.num_events);
        for (v, support) in supports.into_iter().enumerate() {
            let (bad, num_bad) = bad_list(v, &support, &variables, &self.events[v])?;
            events.push(Event {
                support,
                bad,
                num_bad,
            });
        }

        // Dependency graph.
        let mut gb = GraphBuilder::new(self.num_events);
        for var in &variables {
            let a = &var.affects;
            for i in 0..a.len() {
                for j in i + 1..a.len() {
                    gb.add_edge(a[i], a[j]);
                }
            }
        }
        let dependency = gb.build().expect("validated event indices");

        let (dists, dist_of) = intern_distributions(&variables);
        let certified = if T::is_exact() {
            events
                .iter()
                .map(|e| word_certificate(&dists, &dist_of, &e.support))
                .collect()
        } else {
            Vec::new()
        };
        Ok(Instance {
            variables,
            events,
            dependency,
            dists,
            dist_of,
            certified,
        })
    }
}

/// Event `v`'s flat bad list and its length: its tuples, checked, or
/// its predicate read on the support's value combinations in index
/// order (position 0 fastest), which is the list's order.
fn bad_list<T: Num>(
    v: usize,
    support: &[usize],
    variables: &[Variable<T>],
    set: &BadSet,
) -> Result<(Vec<u32>, usize), BuildError> {
    let pred = match set {
        BadSet::Tuples(tuples) if tuples.len() > MAX_BAD_TUPLES => {
            return Err(BuildError::EventTooLarge(v));
        }
        BadSet::Tuples(tuples) => {
            let mut bad = Vec::with_capacity(tuples.len() * support.len());
            for tuple in tuples {
                if tuple.len() != support.len() {
                    return Err(BuildError::WrongArity(v));
                }
                for (&x, &y) in support.iter().zip(tuple) {
                    // The list holds values as `u32`.
                    let value = u32::try_from(y)
                        .ok()
                        .filter(|_| y < variables[x].num_values());
                    bad.push(value.ok_or(BuildError::ValueOutOfRange(v))?);
                }
            }
            return Ok((bad, tuples.len()));
        }
        BadSet::Predicate(pred) => pred,
    };
    let ks: Vec<usize> = support.iter().map(|&x| variables[x].num_values()).collect();
    let size = ks
        .iter()
        .try_fold(1usize, |size, &k| {
            size.checked_mul(k).filter(|&s| s <= MAX_BAD_TUPLES)
        })
        .ok_or(BuildError::EventTooLarge(v))?;
    let (mut bad, mut num_bad) = (Vec::new(), 0);
    let mut values = vec![0usize; support.len()];
    for idx in 0..size {
        let mut rest = idx;
        for (value, &k) in values.iter_mut().zip(&ks) {
            *value = rest % k;
            rest /= k;
        }
        if pred(&VarValues {
            support,
            values: &values,
        }) {
            bad.extend(values.iter().map(|&y| y as u32));
            num_bad += 1;
        }
    }
    Ok((bad, num_bad))
}

impl<T: Num> fmt::Debug for InstanceBuilder<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstanceBuilder")
            .field("num_events", &self.num_events)
            .field("num_variables", &self.variables.len())
            .finish()
    }
}

/// A per-thread count of [`Instance::enumerate`]'s walks, per event, so
/// that tests can check how often a step reads each event.
#[cfg(test)]
pub(crate) mod walks {
    use std::cell::RefCell;

    thread_local! {
        static WALKS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn note(v: usize) {
        WALKS.with_borrow_mut(|w| {
            if w.len() <= v {
                w.resize(v + 1, 0);
            }
            w[v] += 1;
        });
    }

    /// This thread's walks of events `0..n` since the last call, and
    /// resets the count.
    pub(crate) fn take(n: usize) -> Vec<usize> {
        WALKS.with_borrow_mut(|w| {
            w.resize(w.len().max(n), 0);
            let counts = w[..n].to_vec();
            w.fill(0);
            counts
        })
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
        assert_eq!(inst.variable(0).affects(), &[0, 1]);
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
        // classic: e·(1/4)·2 > 1 fails.
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
    fn wide_supports_take_bad_tuples() {
        // n binary variables on event 0, which occurs iff all are 0.
        let build = |n: usize, tuples: bool| {
            let mut b = InstanceBuilder::<BigRational>::new(1);
            let vars: Vec<usize> = (0..n).map(|_| b.add_uniform_variable(&[0], 2)).collect();
            if tuples {
                b.set_event_bad_tuples(0, [vec![0; n]]);
            } else {
                b.set_event_predicate(0, move |vals| vars.iter().all(|&x| vals[x] == 0));
            }
            b.build()
        };
        // 2^15 combinations is the bound: the predicate is read on all.
        let (p, t) = (build(15, false).unwrap(), build(15, true).unwrap());
        assert_eq!(p.events[0].bad, t.events[0].bad);
        assert_eq!(p.events[0].num_bad, 1);
        // Past it the predicate is refused and the tuple is not.
        assert_eq!(build(16, false).unwrap_err(), BuildError::EventTooLarge(0));
        let wide = build(64, true).unwrap();
        let mut half = BigRational::one();
        for _ in 0..64 {
            half = half * BigRational::from_ratio(1, 2);
        }
        assert_eq!(wide.unconditional_probability(0), half);
        assert!(wide.no_event_occurs(&[1; 64]).unwrap());
        assert_eq!(wide.violated_events(&[0; 64]).unwrap(), vec![0]);
    }

    /// Event 0 over a 2-, 3- and 4-valued variable, given as `tuples`.
    fn tuple_build(tuples: &[&[usize]]) -> Result<Instance<f64>, BuildError> {
        let mut b = InstanceBuilder::<f64>::new(2);
        for k in 2..5 {
            b.add_uniform_variable(&[0, 1], k);
        }
        b.set_event_bad_tuples(0, tuples.iter().copied());
        b.build()
    }

    #[test]
    fn bad_tuples_are_sorted_on_the_reversed_tuple_without_repeats() {
        let inst =
            tuple_build(&[&[1, 0, 3], &[0, 2, 0], &[1, 0, 3], &[1, 2, 0], &[0, 0, 3]]).unwrap();
        let event = inst.event(0);
        let list: Vec<&[u32]> = event.bad_tuples().collect();
        assert_eq!(list, [&[0, 2, 0][..], &[1, 2, 0], &[0, 0, 3], &[1, 0, 3]]);
        assert_eq!(inst.event(1).bad_tuples().len(), 0);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    let bad = list.iter().any(|t| t == &[a as u32, b as u32, c as u32]);
                    assert_eq!(event.occurs(&[a, b, c]), bad, "{a} {b} {c}");
                }
            }
        }
        assert!((inst.unconditional_probability(0) - 4.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn malformed_bad_tuples_are_typed_errors() {
        assert_eq!(
            tuple_build(&[&[0, 0, 0], &[0, 1]]).unwrap_err(),
            BuildError::WrongArity(0)
        );
        assert_eq!(
            tuple_build(&[&[0, 3, 0]]).unwrap_err(),
            BuildError::ValueOutOfRange(0)
        );
        // One tuple past the bound, even all repeats, is refused.
        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_uniform_variable(&[0], 2);
        b.set_event_bad_tuples(0, std::iter::repeat_n([0], MAX_BAD_TUPLES));
        assert_eq!(b.build().unwrap().event(0).bad_tuples().len(), 1);
        b.set_event_bad_tuples(0, std::iter::repeat([0]));
        assert_eq!(b.build().unwrap_err(), BuildError::EventTooLarge(0));
    }

    #[test]
    fn empty_support_events_take_the_empty_tuple() {
        for (tuples, p) in [(vec![], 0.0), (vec![vec![]], 1.0), (vec![vec![]; 3], 1.0)] {
            let mut b = InstanceBuilder::<f64>::new(1);
            b.set_event_bad_tuples(0, tuples);
            let inst = b.build().unwrap();
            assert_eq!(inst.unconditional_probability(0), p);
            assert_eq!(inst.no_event_occurs(&[]).unwrap(), p == 0.0);
        }
        let mut b = InstanceBuilder::<f64>::new(1);
        b.set_event_predicate(0, |_| true);
        assert_eq!(b.build().unwrap().unconditional_probability(0), 1.0);
    }

    /// Value counts of event 0's support, one shape per case: shapes 0
    /// and 2 walk in stack buffers, 1 and 3 on the heap. The
    /// single-valued variables keep shape 1's `Π k` small; shapes 2 and
    /// 3 sit just past [`MAX_BAD_TUPLES`], so their event 0 is given as
    /// bad tuples.
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
        let probs = |j: usize, k: usize| {
            let w: Vec<u64> = (0..k)
                .map(|i| 1 + u64::from(weights[(i + j) % weights.len()] % 7))
                .collect();
            let total: u64 = w.iter().sum();
            w.iter()
                .map(|&wi| T::from_ratio(wi as i64, total))
                .collect()
        };
        arm_instance_with(ks, probs, modulus, residue)
    }

    /// [`arm_instance`] with the distribution of each support variable
    /// `j` of `k` values given by `probs(j, k)`. Event 0 is a predicate
    /// when its `Π k` is within [`MAX_BAD_TUPLES`], and otherwise its
    /// bad tuples, in reverse order with the first one repeated.
    fn arm_instance_with<T: Num>(
        ks: &[usize],
        probs: impl Fn(usize, usize) -> Vec<T>,
        modulus: usize,
        residue: usize,
    ) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(2);
        let mut support = Vec::new();
        for (j, &k) in ks.iter().enumerate() {
            let affects: &[usize] = if j == 0 { &[0, 1] } else { &[0] };
            support.push(b.add_variable(affects, probs(j, k)));
        }
        let own = b.add_uniform_variable(&[1], 3);
        let bad = move |values: &mut dyn Iterator<Item = usize>| {
            let sum: usize = values.enumerate().map(|(i, y)| (i + 1) * y).sum();
            sum % modulus == residue
        };
        let size: usize = ks.iter().product();
        if size <= MAX_BAD_TUPLES {
            let ev0 = support.clone();
            b.set_event_predicate(0, move |vals| bad(&mut ev0.iter().map(|&x| vals[x])));
        } else {
            let mut tuples: Vec<Vec<usize>> = (0..size)
                .map(|idx| {
                    let mut rest = idx;
                    ks.iter()
                        .map(|&k| {
                            let y = rest % k;
                            rest /= k;
                            y
                        })
                        .collect::<Vec<usize>>()
                })
                .filter(|t| bad(&mut t.iter().copied()))
                .collect();
            tuples.reverse();
            tuples.extend(tuples.first().cloned());
            b.set_event_bad_tuples(0, tuples);
        }
        let first = support[0];
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
        /// assignment, bit for bit, on both engine arms (stack and heap
        /// buffers), predicate- and tuple-built events, and both backends.
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
                let size: usize = ks.iter().product();
                proptest::prop_assert_eq!(size > MAX_BAD_TUPLES, arm >= 2);
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
        /// `probability_with` on every shape of [`arm_shape`], both backends,
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

    /// `Π lcd` of event 0 relative to the word certificate's bound.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Bound {
        /// At most `i128::MAX`, as close below as the shape allows (equal
        /// to it for a single multi-valued variable, whose `lcd` is then
        /// the Mersenne prime `2^127 − 1`).
        At,
        /// Just past `i128::MAX`.
        Above,
        /// Near `2^136`: past `u128::MAX`, so a word fold would overflow.
        Far,
    }

    /// An [`arm_instance`] whose event 0 has `Π lcd` at `bound`: every
    /// multi-valued support variable `j` draws value 0 with probability
    /// `1/D_j` (so its `lcd` is `D_j`) and splits the rest unevenly over
    /// its other values. The `D_j` differ, and the last one is sized so
    /// that `Π D_j` lands at the bound.
    fn bound_instance(
        ks: &[usize],
        bound: Bound,
        modulus: usize,
        residue: usize,
    ) -> Instance<BigRational> {
        let multi: Vec<usize> = (0..ks.len()).filter(|&j| ks[j] > 1).collect();
        let (target, round_up) = match bound {
            Bound::At => (BigInt::from(i128::MAX), false),
            Bound::Above => (&BigInt::from(i128::MAX) + &BigInt::one(), true),
            Bound::Far => (&BigInt::one() << 136, true),
        };
        let bits = target.bit_len() as f64 / multi.len() as f64;
        let mut dens: Vec<BigInt> = multi
            .iter()
            .enumerate()
            .map(|(i, _)| BigInt::from(2f64.powf(bits) as u128 + 7 * i as u128))
            .collect();
        let last = dens.len() - 1;
        let rest = dens[..last].iter().fold(BigInt::one(), |acc, d| &acc * d);
        dens[last] = if round_up {
            &(&(&target + &rest) - &BigInt::one()) / &rest
        } else {
            &target / &rest
        };
        let probs = |j: usize, k: usize| {
            let Some(i) = multi.iter().position(|&m| m == j) else {
                return vec![BigRational::one()];
            };
            let den = &dens[i];
            assert!(
                den >= &BigInt::from(k),
                "denominator {den} below {k} values"
            );
            // Value 0 weighs 1; the other values split `D − 1` in
            // shares 1, 2, …, the last taking the remainder.
            let share = &(den - &BigInt::one()) / &BigInt::from(k * k);
            let mut nums: Vec<BigInt> = std::iter::once(BigInt::one())
                .chain((1..k - 1).map(|y| &share * &BigInt::from(y)))
                .collect();
            let used = nums.iter().fold(BigInt::zero(), |acc, n| &acc + n);
            nums.push(den - &used);
            nums.into_iter()
                .map(|n| BigRational::new(n, den.clone()))
                .collect()
        };
        let inst = arm_instance_with(ks, probs, modulus, residue);
        let lcd = inst.free_den(0, |_| true);
        let max = BigInt::from(i128::MAX);
        match bound {
            Bound::At => assert!(lcd <= max && lcd.bit_len() == 127, "{lcd}"),
            Bound::Above => assert!(lcd > max && lcd.bit_len() == 128, "{lcd}"),
            Bound::Far => assert!(lcd.bit_len() > 130, "{lcd}"),
        }
        inst
    }

    /// The word fold against the `BigInt` fold on one instance: `big` is
    /// `inst` with every certificate withdrawn. Checks each certificate
    /// against `Π lcd ≤ i128::MAX` in `BigInt`s, then, for every event,
    /// the unreduced `(N, D)` under `partial` and under the empty
    /// assignment, and for every event `x` affects, the bucketed
    /// pass's `N(y)`, `D`, `old` and values. Returns how many events were
    /// certified.
    fn check_word_fold(
        inst: &Instance<BigRational>,
        partial: &PartialAssignment,
        x: usize,
    ) -> Result<usize, proptest::TestCaseError> {
        let mut big = inst.clone();
        big.certified.fill(false);
        let empty = PartialAssignment::new(inst.num_variables());
        let max = BigInt::from(i128::MAX);
        for v in 0..inst.num_events() {
            let bound = inst.free_den(v, |_| true) <= max;
            proptest::prop_assert_eq!(inst.certified[v], bound, "event {} certificate", v);
            // `prob_impl` is `BigRational::new` of these pairs.
            for p in [partial, &empty] {
                let lookup = |z: usize| p.get(z);
                proptest::prop_assert_eq!(
                    inst.exact_parts(v, lookup),
                    big.exact_parts(v, lookup),
                    "event {} (N, D)",
                    v
                );
            }
        }
        let (mut word, mut wide) = (ValueProbs::default(), ValueProbs::default());
        for &v in inst.variable(x).affects() {
            inst.probability_by_value(v, partial, x, &mut word);
            big.probability_by_value(v, partial, x, &mut wide);
            proptest::prop_assert_eq!(&word.nums, &wide.nums, "event {} N(y)", v);
            proptest::prop_assert_eq!(&word.den, &wide.den, "event {} D", v);
            proptest::prop_assert_eq!(&word.old, &wide.old, "event {} old", v);
            for y in 0..word.num_values() {
                proptest::prop_assert_eq!(word.prob(y), wide.prob(y), "event {} y {}", v, y);
            }
        }
        Ok(inst.certified.iter().filter(|&&c| c).count())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The word fold equals the `BigInt` fold on every shape of [`arm_shape`],
        /// through `prob_impl` and `probability_by_value`, with small
        /// mixed denominators (every event certified) and with event 0's
        /// `Π lcd` just at `i128::MAX` (certified), just above it and far
        /// past `u128::MAX` (both on the fallback).
        #[test]
        fn word_fold_matches_the_bigint_fold(
            extra in 0usize..64,
            weights in proptest::collection::vec(0u8..255, 1..6),
            modulus in 5usize..13,
            residue in 0usize..13,
            seed in 0u64..1 << 32,
        ) {
            let residue = residue % modulus;
            for arm in 0..4 {
                let ks = arm_shape(arm, extra);
                let small = arm_instance::<BigRational>(&ks, &weights, modulus, residue);
                let (x, partial) = random_partial(&small, seed);
                proptest::prop_assert_eq!(check_word_fold(&small, &partial, x)?, 2);
                for bound in [Bound::At, Bound::Above, Bound::Far] {
                    let inst = bound_instance(&ks, bound, modulus, residue);
                    let certified = check_word_fold(&inst, &partial, x)?;
                    proptest::prop_assert_eq!(inst.certified[0], bound == Bound::At);
                    proptest::prop_assert!(certified >= usize::from(bound == Bound::At));
                    check_pass(&inst, &partial, x, &mut ValueProbs::default())?;
                }
            }
        }
    }

    #[test]
    fn word_buckets_spill_past_the_stack_buffer() {
        // `x` has more values than the stack buffer holds: the certified
        // pass buckets on the heap, and still equals the `BigInt` fold.
        let ks = [STACK_VALUES + 6, 3, 2];
        let inst = arm_instance::<BigRational>(&ks, &[5, 2, 6], 7, 3);
        assert!(inst.certified.iter().all(|&c| c));
        for seed in 0..4 {
            let (x, partial) = random_partial(&inst, seed);
            check_word_fold(&inst, &partial, x).unwrap();
        }
        let mut partial = PartialAssignment::new(inst.num_variables());
        partial.fix(1, 2);
        assert_eq!(check_word_fold(&inst, &partial, 0).unwrap(), 2);
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
        // Event 0's support is long and given as bad tuples, event 1's
        // is short: against a direct evaluation of each event.
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

    /// The summary runs the unconditional pass once; each field must
    /// still equal its individual method.
    fn assert_summary_matches_methods<T: Num>(inst: &Instance<T>) {
        let s = inst.summary();
        assert_eq!(s.max_rank, inst.max_rank());
        assert_eq!(s.max_dependency_degree, inst.max_dependency_degree());
        let p = inst.max_event_probability().to_f64();
        assert_eq!(s.max_event_probability.to_bits(), p.to_bits());
        let c = inst.criterion_value().to_f64();
        assert_eq!(s.criterion_value.to_bits(), c.to_bits());
        assert_eq!(
            s.exponential_criterion,
            inst.satisfies_exponential_criterion()
        );
        assert_eq!(s.classic_criterion, inst.satisfies_classic_criterion());
    }

    #[test]
    fn summary_fields_equal_the_individual_methods() {
        assert_summary_matches_methods(&two_event_instance::<f64>());
        assert_summary_matches_methods(&two_event_instance::<BigRational>());
        for arm in 0..4 {
            let ks = arm_shape(arm, 3);
            assert_summary_matches_methods(&arm_instance::<f64>(&ks, &[3, 1, 4], 5, 2));
            assert_summary_matches_methods(&arm_instance::<BigRational>(&ks, &[3, 1, 4], 5, 2));
        }
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
