//! Synthetic LLL workloads with *exactly controlled* criterion tightness.
//!
//! The threshold experiments need instances whose criterion value
//! `p·2^d` can be dialled through 1.0 precisely. Both generators below
//! make every event's bad set an explicit random subset of its support's
//! value combinations, so `p` is a chosen rational number rather than an
//! emergent property: for a target tightness `t`, event `v` with `K_v`
//! support combinations receives `⌊t·K_v/2^d⌋` bad combinations
//! (`p_v = bad_v/K_v`, hence `max_v p_v·2^d ≤ t`, with equality up to
//! floor rounding).

use std::collections::BTreeSet;

use lll_core::{Instance, InstanceBuilder};
use lll_graphs::{Graph, Hypergraph};
use lll_numeric::Num;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The bad tuples shared by both generators: each drawn mixed-radix
/// index decoded into its tuple of `deg` values in `0..k` (position 0
/// least significant — the support's order, which the bad set was drawn
/// in), flattened. The set iterates in index order, which is the
/// builder's list order.
fn bad_tuples(bad: &BTreeSet<usize>, k: usize, deg: usize) -> Vec<usize> {
    let mut flat = Vec::with_capacity(bad.len() * deg);
    for &idx in bad {
        let mut rest = idx;
        for _ in 0..deg {
            flat.push(rest % k);
            rest /= k;
        }
    }
    flat
}

/// A rank-2 instance on the edges of `g`: one `k`-valued fair variable
/// per edge, one event per node whose bad set is a random subset of its
/// `k^deg(v)` support combinations sized for criterion tightness
/// `t = p·2^d` (where `d = Δ(g)`).
///
/// # Panics
///
/// Panics if `t < 0`, `k < 2`, some node is isolated, some node's
/// support is too large to draw from (`k^deg > 2^22`), or some event
/// draws more than [`lll_core::MAX_BAD_TUPLES`] bad tuples.
pub fn random_rank2_instance(g: &Graph, k: usize, t: f64, seed: u64) -> Instance<f64> {
    random_rank2_instance_in(g, k, t, seed)
}

/// [`random_rank2_instance`] generalized over the numeric backend `T`
/// (e.g. `BigRational` for the exact-audit benchmarks). The generated
/// events are identical for every backend — only the probability
/// arithmetic differs.
///
/// # Panics
///
/// Panics on the same degenerate inputs as [`random_rank2_instance`].
pub fn random_rank2_instance_in<T: Num>(g: &Graph, k: usize, t: f64, seed: u64) -> Instance<T> {
    let edges = (0..g.num_edges()).map(|eid| {
        let (u, v) = g.edge(eid);
        [u, v]
    });
    random_instance(g.num_nodes(), edges, g.max_degree(), k, t, seed)
}

/// A rank-3 instance on the hyperedges of `h`: one `k`-valued fair
/// variable per hyperedge, events sized for criterion tightness `t`
/// exactly as in [`random_rank2_instance`] (with `d` the dependency
/// degree of `h`).
///
/// # Panics
///
/// Panics on the same degenerate inputs as the rank-2 generator.
pub fn random_rank3_instance(h: &Hypergraph, k: usize, t: f64, seed: u64) -> Instance<f64> {
    random_rank3_instance_in(h, k, t, seed)
}

/// [`random_rank3_instance`] generalized over the numeric backend `T`
/// (e.g. `BigRational` for the exact-audit benchmarks). The generated
/// events are identical for every backend — only the probability
/// arithmetic differs.
///
/// # Panics
///
/// Panics on the same degenerate inputs as [`random_rank3_instance`].
pub fn random_rank3_instance_in<T: Num>(
    h: &Hypergraph,
    k: usize,
    t: f64,
    seed: u64,
) -> Instance<T> {
    let edges = (0..h.num_edges()).map(|i| h.edge(i).nodes());
    random_instance(h.num_nodes(), edges, h.max_dependency_degree(), k, t, seed)
}

/// Both generators: one `k`-valued fair variable per edge of `edges`,
/// affecting the edge's nodes, and at each node the bad set
/// [`draw_bad_sets`] draws for dependency degree `d`.
fn random_instance<T: Num, E: AsRef<[usize]>>(
    num_nodes: usize,
    edges: impl Iterator<Item = E>,
    d: usize,
    k: usize,
    t: f64,
    seed: u64,
) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(num_nodes);
    let mut degrees = vec![0; num_nodes];
    for e in edges {
        for &v in e.as_ref() {
            degrees[v] += 1;
        }
        b.add_uniform_variable(e.as_ref(), k);
    }
    for (v, bad) in draw_bad_sets(&degrees, d, k, t, seed).iter().enumerate() {
        b.set_event_bad_tuples(v, bad_tuples(bad, k, degrees[v]).chunks(degrees[v]));
    }
    b.build().expect("generated instance is valid")
}

/// Per node of the given degrees, a uniformly random set of
/// `⌊t·K/2^d⌋` of its `K = k^deg` support combinations, as mixed-radix
/// indices, all drawn from one generator seeded with `seed`.
fn draw_bad_sets(degrees: &[usize], d: usize, k: usize, t: f64, seed: u64) -> Vec<BTreeSet<usize>> {
    assert!(t >= 0.0 && k >= 2, "need tightness >= 0 and k >= 2");
    assert!(d >= 1, "graph must have edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::with_capacity(degrees.len());
    for (v, &deg) in degrees.iter().enumerate() {
        assert!(deg >= 1, "node {v} is isolated");
        let total = k
            .checked_pow(deg as u32)
            .filter(|&x| x <= 1 << 22)
            .expect("support too large");
        let bad_count = ((t * total as f64 / 2f64.powi(d as i32)).floor() as usize).min(total);
        let mut bad: BTreeSet<usize> = BTreeSet::new();
        while bad.len() < bad_count {
            bad.insert(rng.random_range(0..total));
        }
        sets.push(bad);
    }
    sets
}

/// A shuffled variable order (the "adversarial order" family used by the
/// success experiments; Theorems 1.1/1.3 quantify over all orders).
pub fn shuffled_order(num_vars: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..num_vars).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::{hyper_ring, ring, torus};

    /// The generators' former form: each event a predicate that packs
    /// its support values into their mixed-radix index and looks it up
    /// in the drawn set.
    fn predicate_form<T: Num, E: AsRef<[usize]>>(
        num_nodes: usize,
        edges: impl Iterator<Item = E>,
        d: usize,
        k: usize,
        seed: u64,
    ) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(num_nodes);
        let (mut degrees, mut supports) = (vec![0; num_nodes], vec![Vec::new(); num_nodes]);
        for (x, e) in edges.enumerate() {
            for &v in e.as_ref() {
                degrees[v] += 1;
                supports[v].push(x);
            }
            b.add_uniform_variable(e.as_ref(), k);
        }
        let sets = draw_bad_sets(&degrees, d, k, 0.9, seed);
        for (v, (support, bad)) in supports.into_iter().zip(sets).enumerate() {
            let bad: Vec<usize> = bad.into_iter().collect();
            b.set_event_predicate(v, move |vals| {
                let idx = support.iter().rev().fold(0, |acc, &x| acc * k + vals[x]);
                bad.binary_search(&idx).is_ok()
            });
        }
        b.build().unwrap()
    }

    fn assert_same_events<T: Num>(a: &Instance<T>, b: &Instance<T>) {
        assert_eq!(a.num_events(), b.num_events());
        for v in 0..a.num_events() {
            let (x, y) = (a.event(v), b.event(v));
            assert_eq!(x.support(), y.support(), "event {v}");
            assert!(x.bad_tuples().eq(y.bad_tuples()), "event {v}");
        }
    }

    fn rank2_matches<T: Num>(g: &Graph, k: usize, seed: u64) {
        let edges = (0..g.num_edges()).map(|eid| {
            let (u, v) = g.edge(eid);
            [u, v]
        });
        let old = predicate_form::<T, _>(g.num_nodes(), edges, g.max_degree(), k, seed);
        assert_same_events(&random_rank2_instance_in::<T>(g, k, 0.9, seed), &old);
    }

    fn rank3_matches<T: Num>(h: &Hypergraph, k: usize, seed: u64) {
        let edges = (0..h.num_edges()).map(|i| h.edge(i).nodes());
        let d = h.max_dependency_degree();
        let old = predicate_form::<T, _>(h.num_nodes(), edges, d, k, seed);
        assert_same_events(&random_rank3_instance_in::<T>(h, k, 0.9, seed), &old);
    }

    #[test]
    fn bad_tuples_build_the_predicate_form() {
        use lll_numeric::BigRational;
        for (g, k) in [(ring(16), 16), (torus(4, 4), 4), (ring(9), 3)] {
            rank2_matches::<f64>(&g, k, 11);
            rank2_matches::<BigRational>(&g, k, 12);
        }
        let dense = lll_graphs::gen::random_3_uniform(18, 4, 3).unwrap();
        for (h, k) in [(hyper_ring(12), 16), (dense, 8)] {
            rank3_matches::<f64>(&h, k, 13);
            rank3_matches::<BigRational>(&h, k, 14);
        }
    }

    #[test]
    fn rank2_tightness_is_controlled() {
        let g = torus(4, 4); // 4-regular, d = 4: granularity 2^d/k^4 = 1/16
        for t in [0.25, 0.5, 0.9, 1.0, 1.5] {
            let inst = random_rank2_instance(&g, 4, t, 7);
            let crit = inst.criterion_value();
            // floor rounding only lowers p: crit in (t - 2^d/K, t].
            assert!(crit <= t + 1e-9, "crit {crit} > t {t}");
            assert!(crit > t - 0.07, "crit {crit} too far below t {t}");
            assert_eq!(inst.satisfies_exponential_criterion(), crit < 1.0);
        }
    }

    #[test]
    fn rank3_tightness_is_controlled() {
        let h = hyper_ring(9); // degree 3, dependency degree 4
        for t in [0.5, 0.9, 1.2] {
            let inst = random_rank3_instance(&h, 8, t, 3);
            let crit = inst.criterion_value();
            assert!(crit <= t + 1e-9);
            assert!(crit > t - 0.04, "crit {crit} too far below t {t}");
            assert_eq!(inst.max_rank(), 3);
        }
    }

    #[test]
    fn fixer3_handles_higher_dependency_degrees() {
        // Degree-4 random 3-uniform hypergraph: dependency degree up to
        // 8; k = 8 keeps the bad-set granularity fine enough at d = 8.
        let h = lll_graphs::gen::random_3_uniform(18, 4, 3).unwrap();
        assert!(h.max_dependency_degree() >= 6, "want a dense instance");
        let inst = random_rank3_instance(&h, 8, 0.9, 5);
        assert!(inst.satisfies_exponential_criterion());
        let report = lll_core::Fixer3::new(&inst)
            .expect("below threshold")
            .run(shuffled_order(inst.num_variables(), 7))
            .expect("finite costs below the threshold");
        assert!(
            report.is_success(),
            "violated: {:?}",
            report.violated_events()
        );
    }

    #[test]
    fn zero_tightness_means_no_bad_events() {
        let g = ring(8);
        let inst = random_rank2_instance(&g, 3, 0.0, 0);
        assert_eq!(inst.max_event_probability(), 0.0);
    }

    #[test]
    fn generators_are_reproducible() {
        let g = ring(10);
        let a = random_rank2_instance(&g, 3, 0.8, 5);
        let b = random_rank2_instance(&g, 3, 0.8, 5);
        // Same seeds produce identical probabilities (predicates are not
        // comparable; probe via unconditional probabilities).
        for v in 0..10 {
            assert_eq!(
                a.unconditional_probability(v),
                b.unconditional_probability(v)
            );
        }
    }

    #[test]
    fn shuffled_order_is_a_permutation() {
        let mut o = shuffled_order(20, 3);
        assert_eq!(o.len(), 20);
        o.sort_unstable();
        assert_eq!(o, (0..20).collect::<Vec<_>>());
    }
}
