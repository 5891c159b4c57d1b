//! The rank-3 step (Theorem 1.3) — the paper's main contribution.
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
//! # The filtered winner search
//!
//! A step needs only the *order* of the candidates under its
//! [`ValueRule`], and in practice only its first element: the winner
//! decomposes. On exact backends the search therefore never builds the
//! losers' rational triples. With `N_e(y)` the integer numerators of one
//! bucketed pass over event `e` (over the shared denominator `D_e`),
//! `s_y = (α·N_u(y), β·N_v(y), γ·N_w(y))` with three per-step constants
//! such as `α = a / (D_u·Pr[u | partial])` (0 for an impossible event,
//! as [`inc_or_zero`] has it). The search encloses `α`, `β`, `γ` and
//! each `N_e(y)` in [`Interval`]s, and each candidate's score by
//! [`score_enclosure`]; a part past `i128` (an uncertified event) leaves
//! the enclosure unbounded. The search starts from the candidate with
//! the highest lower bound (under FirstFeasible, the lowest index), so
//! enclosures overlap mostly at near-ties with the winner. A comparison
//! the enclosures decide is certain. Two values with the same three
//! numerators have the same exact score and tie-break by index. Any
//! other comparison (overlapping
//! enclosures, or a sign straddling 0 under
//! [`ValueRule::FirstFeasible`]) computes the exact score of the
//! candidates involved, once per step, and counts it. So the choice is
//! the exact choice: the same value, the same `φ`, the same stream as a
//! sort of the exact scores, which the tests keep as their oracle.
//! Only tried candidates get their exact triple, post-fix probabilities
//! and [`decompose`] call. If a decomposition fails, the next candidate
//! in the rule's order is tried.
//!
//! The `f64` backend computes every candidate's score with its own
//! arithmetic, as always, and runs the same search over those scores
//! (point enclosures that are their own exact values), so it tries the
//! same candidates in the same order.
//!
//! Rank-2 and rank-1 variables take the rank ≤ 2 step (module
//! `rank2`), matching the paper's "virtual third event" reduction
//! without materialising virtual nodes.

use std::cmp::Ordering;

use lll_numeric::{BigInt, BigRational, Num};

use super::{buffers, inc_or_zero, non_finite, shared_edge, Fixer};
use crate::error::FixerError;
use crate::instance::ValueProbs;
use crate::triples::{decompose, representability_score, score_enclosure, Interval};

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

/// One value's entry in the rank-3 winner search. The fixer keeps a
/// buffer of these across steps.
#[derive(Debug, Clone)]
pub(super) struct Candidate<T> {
    /// Encloses the value's exact score.
    bounds: Interval,
    /// The exact score, once a comparison needed it (always present on
    /// the `f64` backend, whose scores are their own exact values).
    exact: Option<T>,
    /// Whether the step has tried to decompose this value's triple.
    tried: bool,
}

impl<T: Num, const R: usize> Fixer<'_, T, R> {
    /// The rank-3 step described in the module docs; returns the chosen
    /// value.
    pub(super) fn fix_rank3(
        &mut self,
        x: usize,
        (u, v, w): (usize, usize, usize),
    ) -> Result<usize, FixerError> {
        let e = shared_edge(self.inst, u, v)?;
        let e1 = shared_edge(self.inst, u, w)?;
        let e2 = shared_edge(self.inst, v, w)?;
        let at = |eid: usize, node: usize| self.phi.get(eid, node).cloned();
        let products = [
            at(e, u)? * at(e1, u)?,
            at(e, v)? * at(e2, v)?,
            at(e1, w)? * at(e2, w)?,
        ];

        let k = self.inst.variable(x).num_values();
        let by_value = buffers(&mut self.by_value)?;
        for (probs, ev) in by_value.iter_mut().zip([u, v, w]) {
            self.inst.probability_by_value(ev, &self.partial, x, probs);
        }
        let step = Step {
            x,
            events: [u, v, w],
            products,
            probs: by_value,
        };
        self.candidates.clear();
        if T::is_exact() {
            let products = step.products.each_ref().map(|p| p.as_rational());
            let scales: [Option<Interval>; 3] =
                std::array::from_fn(|i| scale_enclosure(products[i]?, &step.probs[i]));
            self.candidates.extend((0..k).map(|y| Candidate {
                bounds: step.enclosure(&scales, y),
                exact: None,
                tried: false,
            }));
        } else {
            for y in 0..k {
                let score = step.score(y)?;
                self.candidates.push(Candidate {
                    bounds: Interval::point(score.to_f64()),
                    exact: Some(score),
                    tried: false,
                });
            }
        }

        let mut search = Search {
            step: &step,
            candidates: &mut self.candidates,
            rule: self.rule,
            exact_scores: &mut self.exact_scores,
        };
        let first = search
            .next()?
            .ok_or(FixerError::NoGoodValue { variable: x })?;
        let mut next = Some(first);
        while let Some(y) = next {
            let ([sa, sb, sc], [p_u, p_v, p_w]) = step.triple(y)?;
            if let Some(d) = decompose(&sa, &sb, &sc) {
                self.phi.set(e, u, d.a1)?;
                self.phi.set(e1, u, d.a2)?;
                self.phi.set(e, v, d.b1)?;
                self.phi.set(e2, v, d.b3)?;
                self.phi.set(e1, w, d.c2)?;
                self.phi.set(e2, w, d.c3)?;
                self.post_probs[u] = Some(p_u);
                self.post_probs[v] = Some(p_v);
                self.post_probs[w] = Some(p_w);
                return Ok(y);
            }
            next = search.next()?;
        }

        // Above the threshold (or, for f64, on a razor-thin boundary) no
        // candidate decomposes: fall back to a multiplicative update that
        // keeps sub-property (2) — each node's φ-product scales by its
        // Inc — but may break the pair sums of sub-property (1).
        self.invariant_intact = false;
        let ([sa, sb, sc], [p_u, p_v, p_w]) = step.triple(first)?;
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
        let new_a1 = scale(sa, self.phi.get(e1, u)?);
        self.phi.set(e, u, new_a1)?;
        let new_b1 = scale(sb, self.phi.get(e2, v)?);
        self.phi.set(e, v, new_b1)?;
        let new_c2 = scale(sc, self.phi.get(e2, w)?);
        self.phi.set(e1, w, new_c2)?;
        Ok(first)
    }
}

/// The inputs of one rank-3 step that every candidate shares.
struct Step<'a, T> {
    x: usize,
    /// The touched events `[u, v, w]`.
    events: [usize; 3],
    /// The node products `[a, b, c]`.
    products: [T; 3],
    /// One bucketed pass per touched event, in `events` order.
    probs: &'a [ValueProbs<T>; 3],
}

impl<T: Num> Step<'_, T> {
    /// Value `y`'s scaled triple `s_y` and its post-fix probabilities,
    /// each component checked for self-comparability.
    fn triple(&self, y: usize) -> Result<([T; 3], [T; 3]), FixerError> {
        let [u, v, w] = self.events;
        let [a, b, c] = &self.products;
        let [bu, bv, bw] = self.probs;
        let (old_u, old_v, old_w) = (bu.old(), bv.old(), bw.old());
        let checked = |s: T, event: usize| {
            if non_finite(&s) {
                return Err(FixerError::NonFiniteCost {
                    variable: self.x,
                    event,
                });
            }
            Ok(s)
        };
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
        Ok(([sa, sb, sc], [p_u, p_v, p_w]))
    }

    /// Value `y`'s score, checked for self-comparability (so the
    /// search's comparisons never meet an `f64` NaN).
    fn score(&self, y: usize) -> Result<T, FixerError> {
        let ([sa, sb, sc], _) = self.triple(y)?;
        let score = representability_score(&sa, &sb, &sc);
        if non_finite(&score) {
            return Err(FixerError::NonFiniteCost {
                variable: self.x,
                event: self.events[0],
            });
        }
        Ok(score)
    }

    /// An enclosure of value `y`'s exact score from the per-step
    /// `scales` and the word numerators `N_e(y)`; unbounded when a
    /// scale or a numerator is past `i128` or the enclosure overflows.
    fn enclosure(&self, scales: &[Option<Interval>; 3], y: usize) -> Interval {
        let component = |i: usize| {
            let n = self.probs[i].num(y).to_i128()?;
            Some(scales[i]? * Interval::of_int(n))
        };
        (|| score_enclosure(component(0)?, component(1)?, component(2)?))()
            .unwrap_or(Interval::UNBOUNDED)
    }

    /// Whether values `y` and `z` have the same numerators on all three
    /// events, hence the same exact triple and score (exact backends).
    fn same_numerators(&self, y: usize, z: usize) -> bool {
        T::is_exact() && self.probs.iter().all(|p| p.num(y) == p.num(z))
    }
}

/// An enclosure of the constant that turns the numerator `N(y)` of one
/// touched event into its triple component,
/// `mul_div(N(y)/D, product, old) = product/(D·old)·N(y)`: the point 0
/// for an impossible event (`old = 0`), `None` when a part is past
/// `i128` or the product is negative.
fn scale_enclosure<T: Num>(product: &BigRational, probs: &ValueProbs<T>) -> Option<Interval> {
    let old = probs.old().as_rational()?;
    if old.is_zero() {
        return Some(Interval::point(0.0));
    }
    if product.is_negative() {
        return None;
    }
    let int = |n: &BigInt| n.to_i128().map(Interval::of_int);
    let num = int(product.numer())? * int(old.denom())?;
    let den = int(product.denom())? * int(old.numer())? * int(probs.den())?;
    Some(num / den)
}

/// The winner search over one step's candidates (see the module docs).
struct Search<'s, T> {
    step: &'s Step<'s, T>,
    candidates: &'s mut [Candidate<T>],
    rule: ValueRule,
    /// The fixer's count of exact scores computed by the search.
    exact_scores: &'s mut u64,
}

impl<T: Num> Search<'_, T> {
    /// The untried candidate that comes first in the rule's order, now
    /// marked tried; `None` once every candidate has been tried.
    fn next(&mut self) -> Result<Option<usize>, FixerError> {
        // Start from the likely winner, so that the comparisons below
        // meet overlapping enclosures only at near-ties with it: under
        // BestScore the highest lower bound, under FirstFeasible the
        // lowest index.
        let mut seed: Option<usize> = None;
        for (y, c) in self.candidates.iter().enumerate() {
            if c.tried {
                continue;
            }
            match (self.rule, seed) {
                (_, None) => seed = Some(y),
                (ValueRule::BestScore, Some(s)) if c.bounds.lo > self.candidates[s].bounds.lo => {
                    seed = Some(y);
                }
                _ => {}
            }
        }
        let Some(mut best) = seed else {
            return Ok(None);
        };
        for y in 0..self.candidates.len() {
            // Under FirstFeasible the scan runs upwards from the lowest
            // untried index, and a representable value precedes every
            // later one.
            if self.rule == ValueRule::FirstFeasible && y > best && self.representable(best)? {
                break;
            }
            if y != best && !self.candidates[y].tried && self.precedes(y, best)? {
                best = y;
            }
        }
        self.candidates[best].tried = true;
        Ok(Some(best))
    }

    /// Whether value `y` precedes value `z` (`y ≠ z`) in the rule's
    /// order: [`ValueRule::BestScore`] sorts by score, highest first;
    /// [`ValueRule::FirstFeasible`] puts the representable values first,
    /// by index, and the rest after them by score. Equal scores keep
    /// index order.
    fn precedes(&mut self, y: usize, z: usize) -> Result<bool, FixerError> {
        if self.rule == ValueRule::FirstFeasible {
            let (ry, rz) = (self.representable(y)?, self.representable(z)?);
            if ry != rz {
                return Ok(ry);
            }
            if ry {
                return Ok(y < z);
            }
        }
        Ok(match self.cmp_scores(y, z)? {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => y < z,
        })
    }

    /// Whether value `y`'s triple is representable (score ≥ 0).
    fn representable(&mut self, y: usize) -> Result<bool, FixerError> {
        let bounds = self.candidates[y].bounds;
        if bounds.lo >= 0.0 {
            return Ok(true);
        }
        if bounds.hi < 0.0 {
            return Ok(false);
        }
        Ok(*self.exact(y)? >= T::zero())
    }

    /// The order of the exact scores of values `y` and `z`.
    fn cmp_scores(&mut self, y: usize, z: usize) -> Result<Ordering, FixerError> {
        let (by, bz) = (self.candidates[y].bounds, self.candidates[z].bounds);
        if by.lo > bz.hi {
            return Ok(Ordering::Greater);
        }
        if by.hi < bz.lo {
            return Ok(Ordering::Less);
        }
        if self.step.same_numerators(y, z) {
            return Ok(Ordering::Equal);
        }
        let sy = self.exact(y)?.clone();
        // Every score was checked comparable when it was computed.
        Ok(sy.partial_cmp(self.exact(z)?).unwrap_or(Ordering::Equal))
    }

    /// Value `y`'s exact score, computed (and counted) on first use.
    fn exact(&mut self, y: usize) -> Result<&T, FixerError> {
        let slot = &mut self.candidates[y].exact;
        let score = match slot.take() {
            Some(score) => score,
            None => {
                *self.exact_scores += 1;
                self.step.score(y)?
            }
        };
        Ok(slot.insert(score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::audit_p_star;
    use crate::instance::{Instance, InstanceBuilder};
    use crate::Fixer3;
    use lll_numeric::BigRational;
    use lll_obs::NullTiming;
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

    /// The hyper ring with random bad sets, as the audited rank-3
    /// workloads build it: event `j` occurs on `⌊0.9·k³/16⌋` random
    /// tuples of its three variables' values, so `p·2^4 ≤ 0.9`.
    fn random_hyper_ring<T: Num>(n: usize, k: usize, seed: u64) -> Instance<T> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::<T>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n, (i + 2) % n], k))
            .collect();
        for j in 0..n {
            let xs = [vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]];
            let mut bad = std::collections::BTreeSet::new();
            while bad.len() < 9 * k * k * k / 160 {
                bad.insert(rng.random_range(0..k * k * k));
            }
            b.set_event_predicate(j, move |vals| {
                bad.contains(&xs.iter().fold(0, |t, &x| t * k + vals[x]))
            });
        }
        b.build().unwrap()
    }

    /// The exact-score counter of the winner search, pinned. On
    /// `hyper_ring(48)` with 16 values, all-zero or random bad sets, no
    /// step computes an exact score: every losing value has the
    /// winner's numerators or a certainly lower score. With 6 values
    /// and seed 11, the search computes three exact scores, for
    /// candidates whose enclosures overlap the best one's. Sharded
    /// sweeps sum their shards' counts.
    #[test]
    fn exact_scores_of_the_winner_search_are_pinned() {
        let count = |inst: &Instance<BigRational>| {
            let mut fixer = Fixer3::new(inst).unwrap();
            for x in 0..inst.num_variables() {
                fixer.fix_variable(x).unwrap();
            }
            assert!(fixer.invariant_intact());
            fixer.exact_scores
        };
        assert_eq!(count(&hyper_ring_instance(48, 16)), 0);
        assert_eq!(count(&random_hyper_ring(48, 16, 1)), 0);
        assert_eq!(count(&random_hyper_ring(48, 6, 11)), 3);
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
