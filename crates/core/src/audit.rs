//! Exact audit of the paper's property `P*` (Definition 3.1).
//!
//! `(G, φ)` satisfies `P*` for a partially fixed instance iff
//!
//! 1. `φ_e^u + φ_e^v ≤ 2` for every dependency-graph edge `e = {u, v}`,
//! 2. `Pr[E_v | fixed] ≤ p · Π_{e∋v} φ_e^v` for every event `v`,
//!
//! where `p` is the symmetric bound on the initial event probabilities.
//! The fixers maintain `P*` implicitly; tests drive [`audit_p_star`]
//! after every single fixing step with the exact rational backend, which
//! turns the paper's induction into an executable invariant.

use lll_numeric::Num;

use crate::instance::{Instance, PartialAssignment};
use crate::triples::Phi;

/// Outcome of a `P*` audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Edges whose pair sum exceeds 2 (+tolerance).
    pub pair_violations: Vec<usize>,
    /// Events whose conditional probability exceeds `p · Π φ`
    /// (+tolerance).
    pub prob_violations: Vec<usize>,
}

impl AuditReport {
    /// `true` iff property `P*` holds.
    pub fn holds(&self) -> bool {
        self.pair_violations.is_empty() && self.prob_violations.is_empty()
    }
}

/// Audits property `P*` for the given partial assignment and potential.
///
/// `p_bound` is the symmetric probability bound `p` (usually
/// [`Instance::max_event_probability`]); `tol` absorbs floating-point
/// drift (`0` for exact backends).
pub fn audit_p_star<T: Num>(
    inst: &Instance<T>,
    partial: &PartialAssignment,
    phi: &Phi<T>,
    p_bound: &T,
    tol: &T,
) -> AuditReport {
    let g = inst.dependency_graph();
    let two = T::from_ratio(2, 1);
    let mut pair_violations = Vec::new();
    for eid in 0..g.num_edges() {
        if phi.pair_sum(eid) > two.clone() + tol.clone() {
            pair_violations.push(eid);
        }
    }
    let mut prob_violations = Vec::new();
    for v in 0..inst.num_events() {
        let pr = inst.probability(v, partial);
        let bound = p_bound.clone() * phi.product_at(g, v);
        if pr > bound + tol.clone() {
            prob_violations.push(v);
        }
    }
    AuditReport {
        pair_violations,
        prob_violations,
    }
}

/// [`audit_p_star`] with a flight recorder: performs the same full scan
/// and additionally emits the outcome as an
/// [`AuditPass`](lll_obs::Event::AuditPass) or
/// [`AuditViolation`](lll_obs::Event::AuditViolation) event tagged with
/// the caller's `(step, variable)` context.
#[allow(clippy::too_many_arguments)]
pub fn audit_p_star_recorded<T: Num, R: lll_obs::Recorder>(
    inst: &Instance<T>,
    partial: &PartialAssignment,
    phi: &Phi<T>,
    p_bound: &T,
    tol: &T,
    step: usize,
    variable: usize,
    rec: &mut R,
) -> AuditReport {
    let report = audit_p_star(inst, partial, phi, p_bound, tol);
    if R::ENABLED {
        rec.record(&crate::fixer::audit_event(step, variable, &report));
    }
    report
}

/// The outcome of re-checking `P*` over the state touched by a set of
/// fixed variables — every check result plus the recomputed per-node
/// φ-products, self-contained so it can be computed *against a sweep
/// shard's forked state* and applied to an [`IncrementalAuditor`] on
/// the coordinating thread after the join.
///
/// Soundness relies on class independence (the distributed schedule's
/// no-shared-events witnesses): the events touched by a shard's
/// variables are final once the shard finishes, and no concurrent shard
/// reads or writes them, so the shard-local check results equal what a
/// from-scratch audit of the merged state would produce.
#[derive(Debug, Clone)]
pub(crate) struct AuditDelta<T> {
    /// `(edge, pair-sum ok)` for every dependency edge among each fixed
    /// variable's affected events, in fixing order.
    pub pairs: Vec<(usize, bool)>,
    /// `(event, recomputed product, probability ok)` for every affected
    /// event, in fixing order.
    pub probs: Vec<(usize, T, bool)>,
}

/// Computes the [`AuditDelta`] for the given already-fixed variables
/// against the given state — the union-of-`affects` analogue of
/// [`IncrementalAuditor::reverify`], shared by the sequential and the
/// sharded audit paths so their verdicts are identical by construction.
///
/// `post_probs` is the fixers' per-event conditional-probability cache:
/// a `Some(p)` entry short-circuits the `Pr[v | partial]` enumeration.
/// The caller guarantees freshness for every event touched by `vars` —
/// the fixing step that touched `v` last wrote `Pr[v | partial ∪ {x:y}]`
/// there, taken from bucket `y` of the step's bucketed pass
/// ([`Instance::probability_by_value`]). That bucket sees the tuples of
/// `probability` against the post-fix partial in the same order and
/// repeats its operation sequence: on `f64` the same left products over
/// the free variables and the same running sum, and on exact backends
/// the same integer numerator over the same `Π lcd`, normalized once.
/// Variables fixed later are outside `support(v)`, or they would have
/// rewritten the entry. So the cached value equals the recomputation
/// bit for bit on every backend (the zero written for an impossible
/// event is also what the recomputation yields). Pass `&[]` to disable
/// the cache (entries beyond the slice are recomputed).
pub(crate) fn audit_delta_for<T: Num>(
    inst: &Instance<T>,
    partial: &PartialAssignment,
    phi: &Phi<T>,
    post_probs: &[Option<T>],
    vars: &[usize],
    p_bound: &T,
    tol: &T,
) -> AuditDelta<T> {
    let g = inst.dependency_graph();
    let two = T::from_ratio(2, 1);
    let mut pairs = Vec::new();
    let mut probs = Vec::new();
    for &x in vars {
        let touched = inst.variable(x).affects();
        for (i, &u) in touched.iter().enumerate() {
            for &v in &touched[i + 1..] {
                if let Some(eid) = g.edge_id(u, v) {
                    let ok = phi.pair_sum(eid) <= two.clone() + tol.clone();
                    pairs.push((eid, ok));
                }
            }
        }
        for &v in touched {
            let product = phi.product_at(g, v);
            let bound = p_bound.clone() * product.clone();
            let pr = match post_probs.get(v) {
                Some(Some(p)) => p.clone(),
                _ => inst.probability(v, partial),
            };
            let ok = pr <= bound + tol.clone();
            probs.push((v, product, ok));
        }
    }
    AuditDelta { pairs, probs }
}

/// Stateful `P*` auditor for step-by-step runs.
///
/// Re-verifies the invariant after each fixing step. Fixing a variable
/// `x` can only change the conditional probabilities of the ≤ 3 events
/// in `affects(x)` and the ≤ 6 `(edge, endpoint)` `φ` entries on the
/// dependency edges among them, so the auditor caches the per-node
/// products `Π_{e∋v} φ_e^v` and the current violation sets, and
/// [`reverify`](IncrementalAuditor::reverify) re-examines only the
/// touched events and edges — O(d) per step against the full rescan's
/// O(m) (experiment E5's audit loop drops from O(steps·m) to
/// O(steps·d)).
///
/// Invalidation is exact, not algebraic: a touched node's product is
/// recomputed from its incident `φ` entries rather than divided by the
/// old and multiplied by the new value, because `φ` entries can be `0`
/// (division would be undefined) and because recomputation keeps the
/// cache bit-identical to a from-scratch evaluation for every backend.
#[derive(Debug, Clone)]
pub struct IncrementalAuditor<T> {
    p_bound: T,
    tol: T,
    /// Cached `Π_{e∋v} φ_e^v` per node, invalidated exactly for the
    /// nodes a step touches.
    products: Vec<T>,
    pair_bad: std::collections::BTreeSet<usize>,
    prob_bad: std::collections::BTreeSet<usize>,
}

impl<T: Num> IncrementalAuditor<T> {
    /// Builds the auditor with one full scan of the current state
    /// (subsequent steps are incremental).
    pub fn new(
        inst: &Instance<T>,
        partial: &PartialAssignment,
        phi: &Phi<T>,
        p_bound: &T,
        tol: &T,
    ) -> IncrementalAuditor<T> {
        let probs: Vec<T> = (0..inst.num_events())
            .map(|v| inst.probability(v, partial))
            .collect();
        IncrementalAuditor::seeded(inst, phi, &probs, p_bound, tol)
    }

    /// The full scan of [`new`](IncrementalAuditor::new) with the
    /// per-event conditional probabilities supplied: `probs[v]` must be
    /// `Pr[v | partial]` for the state `phi` belongs to. The distributed
    /// drivers seed a fresh-start auditor from the unconditional
    /// probabilities they already enumerated for the criterion check.
    pub(crate) fn seeded(
        inst: &Instance<T>,
        phi: &Phi<T>,
        probs: &[T],
        p_bound: &T,
        tol: &T,
    ) -> IncrementalAuditor<T> {
        debug_assert_eq!(probs.len(), inst.num_events());
        let g = inst.dependency_graph();
        let mut auditor = IncrementalAuditor {
            p_bound: p_bound.clone(),
            tol: tol.clone(),
            products: (0..inst.num_events())
                .map(|v| phi.product_at(g, v))
                .collect(),
            pair_bad: std::collections::BTreeSet::new(),
            prob_bad: std::collections::BTreeSet::new(),
        };
        for eid in 0..g.num_edges() {
            auditor.recheck_pair(phi, eid);
        }
        for (v, pr) in probs.iter().enumerate() {
            auditor.recheck_prob(v, pr);
        }
        auditor
    }

    fn recheck_pair(&mut self, phi: &Phi<T>, eid: usize) {
        let two = T::from_ratio(2, 1);
        if phi.pair_sum(eid) > two + self.tol.clone() {
            self.pair_bad.insert(eid);
        } else {
            self.pair_bad.remove(&eid);
        }
    }

    fn recheck_prob(&mut self, v: usize, pr: &T) {
        let bound = self.p_bound.clone() * self.products[v].clone();
        if *pr > bound + self.tol.clone() {
            self.prob_bad.insert(v);
        } else {
            self.prob_bad.remove(&v);
        }
    }

    /// Re-verifies `P*` after variable `x` was fixed, re-examining only
    /// the events `affects(x)` and the dependency edges among them.
    pub fn reverify(
        &mut self,
        inst: &Instance<T>,
        partial: &PartialAssignment,
        phi: &Phi<T>,
        x: usize,
    ) -> AuditReport {
        let g = inst.dependency_graph();
        let touched = inst.variable(x).affects();
        for (i, &u) in touched.iter().enumerate() {
            for &v in &touched[i + 1..] {
                if let Some(eid) = g.edge_id(u, v) {
                    self.recheck_pair(phi, eid);
                }
            }
        }
        for &v in touched {
            self.products[v] = phi.product_at(g, v);
            self.recheck_prob(v, &inst.probability(v, partial));
        }
        self.report()
    }

    /// Re-verifies `P*` after *all* variables of a scheduling class were
    /// fixed, re-examining the union of their `affects` sets — the
    /// merge-safe per-class analogue of
    /// [`reverify`](IncrementalAuditor::reverify). Because the events a
    /// class touches are pairwise disjoint across its cells (the
    /// distributed schedule's witnesses), re-checking the union once is
    /// equivalent to re-checking after every step, and the verdict is
    /// independent of the order the checks are applied in — which is
    /// what lets the parallel sweep compute the checks inside its
    /// workers.
    pub fn reverify_class(
        &mut self,
        inst: &Instance<T>,
        partial: &PartialAssignment,
        phi: &Phi<T>,
        vars: &[usize],
    ) -> AuditReport {
        let delta = audit_delta_for(inst, partial, phi, &[], vars, &self.p_bound, &self.tol);
        self.apply_delta(&delta);
        self.report()
    }

    /// Applies a shard-computed [`AuditDelta`] to the cached state.
    /// Deltas of one class touch pairwise disjoint events/edges, so the
    /// application order across shards cannot change the outcome.
    pub(crate) fn apply_delta(&mut self, delta: &AuditDelta<T>) {
        for &(eid, ok) in &delta.pairs {
            if ok {
                self.pair_bad.remove(&eid);
            } else {
                self.pair_bad.insert(eid);
            }
        }
        for (v, product, ok) in &delta.probs {
            self.products[*v] = product.clone();
            if *ok {
                self.prob_bad.remove(v);
            } else {
                self.prob_bad.insert(*v);
            }
        }
    }

    /// The current violation sets as an [`AuditReport`] (identical to
    /// what [`audit_p_star`] would return for the same state).
    pub fn report(&self) -> AuditReport {
        AuditReport {
            pair_violations: self.pair_bad.iter().copied().collect(),
            prob_violations: self.prob_bad.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use lll_numeric::BigRational;

    fn q(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    /// Triangle instance: 4-valued fair variables on the edges, event
    /// occurs iff both incident variables are 0 (p = 1/16, d = 2).
    fn triangle() -> Instance<BigRational> {
        let mut b = InstanceBuilder::new(3);
        let x = b.add_uniform_variable(&[0, 1], 4);
        let y = b.add_uniform_variable(&[1, 2], 4);
        let z = b.add_uniform_variable(&[0, 2], 4);
        b.set_event_predicate(0, move |vals| vals[x] == 0 && vals[z] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 0 && vals[y] == 0);
        b.set_event_predicate(2, move |vals| vals[y] == 0 && vals[z] == 0);
        b.build().unwrap()
    }

    #[test]
    fn initial_state_satisfies_p_star() {
        let inst = triangle();
        let phi = Phi::ones(inst.dependency_graph());
        let partial = PartialAssignment::new(3);
        let p = inst.max_event_probability();
        assert_eq!(p, q(1, 16));
        let report = audit_p_star(&inst, &partial, &phi, &p, &BigRational::zero());
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    fn detects_probability_violation() {
        let inst = triangle();
        let phi = Phi::ones(inst.dependency_graph());
        // Fix both variables of event 1 to 0: Pr[E_1 | fixed] = 1 > p·1.
        let mut partial = PartialAssignment::new(3);
        partial.fix(0, 0);
        partial.fix(1, 0);
        let p = inst.max_event_probability();
        let report = audit_p_star(&inst, &partial, &phi, &p, &BigRational::zero());
        assert!(!report.holds());
        assert!(report.prob_violations.contains(&1));
        assert!(report.pair_violations.is_empty());
    }

    #[test]
    fn detects_pair_violation() {
        let inst = triangle();
        let g = inst.dependency_graph();
        let mut phi = Phi::ones(g);
        let e = g.edge_id(0, 1).unwrap();
        phi.set(e, 0, q(3, 2)).unwrap();
        phi.set(e, 1, q(3, 2)).unwrap();
        let partial = PartialAssignment::new(3);
        // Bump p so that condition (2) stays satisfied despite larger φ.
        let report = audit_p_star(&inst, &partial, &phi, &q(1, 16), &BigRational::zero());
        assert_eq!(report.pair_violations, vec![e]);
        assert!(report.prob_violations.is_empty());
    }

    /// `ring(n)` with a `k`-valued variable per edge (biased weights from
    /// `w`); event `v` occurs iff both its variables equal `pattern[v]`
    /// (mod their value count), so event probabilities differ.
    fn ring_instance<T: Num>(n: usize, ks: &[usize], w: &[u8], pattern: &[usize]) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(n);
        let vars: Vec<(usize, usize)> = (0..n)
            .map(|i| {
                let k = ks[i % ks.len()];
                let weights: Vec<u64> = (0..k)
                    .map(|y| 1 + u64::from(w[(i + y) % w.len()] % 5))
                    .collect();
                let total: u64 = weights.iter().sum();
                let probs = weights
                    .iter()
                    .map(|&wy| T::from_ratio(wy as i64, total))
                    .collect();
                (b.add_variable(&[i, (i + 1) % n], probs), k)
            })
            .collect();
        for v in 0..n {
            let (a, ka) = vars[(v + n - 1) % n];
            let (c, kc) = vars[v];
            let want = pattern[v % pattern.len()];
            b.set_event_predicate(v, move |vals| vals[a] == want % ka && vals[c] == want % kc);
        }
        b.build().unwrap()
    }

    /// The seeded constructor against the full-scan `new` on the same
    /// state: identical report and identical cached products.
    fn assert_seeded_matches_new<T: Num>(
        inst: &Instance<T>,
        partial: &PartialAssignment,
        phi: &Phi<T>,
        p_bound: &T,
        tol: &T,
    ) -> AuditReport {
        let scanned = IncrementalAuditor::new(inst, partial, phi, p_bound, tol);
        let probs: Vec<T> = (0..inst.num_events())
            .map(|v| inst.probability(v, partial))
            .collect();
        let seeded = IncrementalAuditor::seeded(inst, phi, &probs, p_bound, tol);
        assert_eq!(seeded.report(), scanned.report());
        assert_eq!(seeded.products, scanned.products);
        assert_eq!(
            seeded.report(),
            audit_p_star(inst, partial, phi, p_bound, tol)
        );
        seeded.report()
    }

    /// Fresh state, then a state with `φ` pushed over 2 on edge 0; at the
    /// maximum probability (holds), and at a bound below it with a
    /// positive tolerance (non-empty violation sets); last a mid-run
    /// state with one variable fixed.
    fn seeded_equivalence<T: Num>(inst: &Instance<T>, tol: T) {
        let g = inst.dependency_graph();
        let empty = PartialAssignment::new(inst.num_variables());
        let p = inst.max_event_probability();
        let below = p.clone() * T::from_ratio(1, 2);
        let mut phi = Phi::ones(g);
        let fresh = assert_seeded_matches_new(inst, &empty, &phi, &p, &tol);
        assert!(fresh.holds(), "{fresh:?}");
        let tight = assert_seeded_matches_new(inst, &empty, &phi, &below, &tol);
        assert!(!tight.prob_violations.is_empty());
        let (u, v) = g.edge(0);
        phi.set(0, u, T::from_ratio(3, 2)).unwrap();
        phi.set(0, v, T::from_ratio(3, 2)).unwrap();
        let pushed = assert_seeded_matches_new(inst, &empty, &phi, &below, &tol);
        assert_eq!(pushed.pair_violations, vec![0]);
        assert!(!pushed.prob_violations.is_empty());
        // Mid-run: conditional probabilities differ from unconditional.
        let mut partial = empty;
        partial.fix(0, 0);
        assert_seeded_matches_new(inst, &partial, &phi, &below, &tol);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn seeded_auditor_equals_the_full_scan(
            n in 3usize..12,
            ks in proptest::collection::vec(2usize..6, 1..5),
            w in proptest::collection::vec(0u8..255, 1..5),
            pattern in proptest::collection::vec(0usize..6, 1..5),
        ) {
            seeded_equivalence(&ring_instance::<BigRational>(n, &ks, &w, &pattern), q(1, 1_000_000));
            seeded_equivalence(&ring_instance::<f64>(n, &ks, &w, &pattern), 1e-12);
        }
    }

    #[test]
    fn tolerance_absorbs_f64_noise() {
        let mut b = InstanceBuilder::<f64>::new(2);
        let x = b.add_uniform_variable(&[0, 1], 2);
        b.set_event_predicate(0, move |vals| vals[x] == 0);
        b.set_event_predicate(1, move |vals| vals[x] == 1);
        let inst = b.build().unwrap();
        let phi = Phi::ones(inst.dependency_graph());
        let partial = PartialAssignment::new(1);
        // p = 0.5 exactly; noise-free here, but the tolerance path must
        // not reject a state that holds with slack 0.
        let report = audit_p_star(&inst, &partial, &phi, &0.5, &1e-9);
        assert!(report.holds());
        let report = audit_p_star(&inst, &partial, &phi, &0.4999999, &1e-6);
        assert!(report.holds());
        let report = audit_p_star(&inst, &partial, &phi, &0.4, &0.0);
        assert!(!report.holds());
    }
}
