//! Cross-crate property tests: the paper's invariants under randomized
//! instance generation.

use proptest::prelude::*;
use sharp_lll::coloring::vertex_coloring;
use sharp_lll::core::triples::{
    decompose, is_representable, representability_score, score_enclosure, Interval,
};
use sharp_lll::core::{audit_p_star, Fixer2, Fixer3, Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, ring};
use sharp_lll::graphs::Graph;
use sharp_lll::local::Simulator;
use sharp_lll::mt::dist::MtProgram;
use sharp_lll::numeric::{BigInt, BigRational};

fn q(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

prop_compose! {
    /// A rational point in [0, 5)³ with small denominators.
    fn arb_triple()(a in 0i64..40, b in 0i64..40, c in 0i64..40) -> (BigRational, BigRational, BigRational) {
        (q(a, 8), q(b, 8), q(c, 8))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// S_rep is downward closed (shrinking coordinates keeps membership).
    #[test]
    fn s_rep_downward_closed((a, b, c) in arb_triple(), na in 1i64..8, nb in 1i64..8, nc in 1i64..8) {
        if is_representable(&a, &b, &c) {
            let (sa, sb, sc) = (
                &a * &q(na, 8),
                &b * &q(nb, 8),
                &c * &q(nc, 8),
            );
            prop_assert!(is_representable(&sa, &sb, &sc));
        }
    }

    /// Incurvedness (Lemma 3.7): segments between outside points stay
    /// outside.
    #[test]
    fn s_rep_incurved((a, b, c) in arb_triple(), (a2, b2, c2) in arb_triple(), t in 1i64..8) {
        prop_assume!(!is_representable(&a, &b, &c));
        prop_assume!(!is_representable(&a2, &b2, &c2));
        let lam = q(t, 8);
        let one = BigRational::one();
        let co = &one - &lam;
        let mid = (
            &(&a * &lam) + &(&a2 * &co),
            &(&b * &lam) + &(&b2 * &co),
            &(&c * &lam) + &(&c2 * &co),
        );
        prop_assert!(!is_representable(&mid.0, &mid.1, &mid.2));
    }

    /// Exact decompositions exist exactly on S_rep and verify exactly.
    #[test]
    fn decompose_iff_representable((a, b, c) in arb_triple()) {
        match decompose(&a, &b, &c) {
            Some(d) => {
                prop_assert!(is_representable(&a, &b, &c));
                prop_assert!(d.covers(&a, &b, &c, &BigRational::zero()));
                prop_assert_eq!(d.c2.clone() * d.c3.clone(), c);
            }
            None => prop_assert!(!is_representable(&a, &b, &c)),
        }
    }

    /// The score's sign decides membership (exact backend).
    #[test]
    fn score_sign_is_membership((a, b, c) in arb_triple()) {
        let score = representability_score(&a, &b, &c);
        prop_assert_eq!(score >= BigRational::zero(), is_representable(&a, &b, &c));
    }

    /// Theorem 1.1 as a property: random below-threshold rank-2
    /// instances are always fixed, whatever the (seeded) order.
    #[test]
    fn fixer2_always_succeeds_below_threshold(seed in 0u64..500, n in 6usize..14) {
        let g = ring(n);
        let inst = random_edge_instance(&g, seed);
        prop_assume!(inst.satisfies_exponential_criterion());
        let order = shuffled(inst.num_variables(), seed);
        let report = Fixer2::new(&inst)
            .expect("below threshold")
            .run(order)
            .expect("finite costs below the threshold");
        prop_assert!(report.is_success());
    }

    /// Theorem 1.3 as a property, with the exact P* audit at the end.
    #[test]
    fn fixer3_always_succeeds_below_threshold(seed in 0u64..200, n in 6usize..10) {
        let h = hyper_ring(n);
        let inst = random_hyper_instance(&h, seed);
        prop_assume!(inst.satisfies_exponential_criterion());
        let order = shuffled(inst.num_variables(), seed);
        let p = inst.max_event_probability();
        let mut fixer = Fixer3::new(&inst).expect("below threshold");
        for x in order {
            fixer.fix_variable(x).expect("exact costs are finite");
        }
        let audit = audit_p_star(&inst, fixer.partial(), fixer.phi(), &p, &BigRational::zero());
        prop_assert!(audit.holds());
        prop_assert!(fixer.into_report().is_success());
    }
}

/// An enclosure of the rational `q` from its `f64` value, by the error
/// bound `BigRational::to_f64` documents: `|to_f64(q) − q| ≤ 2^-52·|q|`
/// for `q = 0` or `2^-1022 ≤ |q| < 2^127`, hence
/// `|to_f64(q) − q| < 2^-51·|to_f64(q)|`.
fn enclose(q: &BigRational) -> Interval {
    let x = q.to_f64();
    if x == 0.0 {
        return Interval::point(0.0);
    }
    // Scaling by a power of two is exact in the normal range.
    let tol = x.abs() * 2f64.powi(-51);
    Interval {
        lo: (x - tol).next_down(),
        hi: (x + tol).next_up(),
    }
}

/// Whether the exact `value` lies in `iv`.
fn contains(iv: Interval, value: &BigRational) -> bool {
    let at = |x: f64| BigRational::from_f64(x).expect("finite endpoint");
    at(iv.lo) <= *value && *value <= at(iv.hi)
}

/// A rational in `[0, 5)` with a random denominator of up to 40 bits.
fn fine(rng: &mut proptest::TestRng) -> BigRational {
    let den = 1 + rng.below(1 << 40);
    let num = rng.below(5 * den);
    BigRational::new(BigInt::from(num), BigInt::from(den))
}

/// A triple for the score filter: a coarse or fine random point, a
/// point of a boundary family (the all-ones start state, the surface
/// family `(a, a, (2 − a)²)`, the planes `a + b = 4` and `r = 0`), or
/// such a point with one coordinate moved by `±2^-e`, `e ∈ 30..90`.
fn filter_triple(rng: &mut proptest::TestRng) -> [BigRational; 3] {
    let coarse = |rng: &mut proptest::TestRng| q(rng.below(40) as i64, 8);
    let mut t = match rng.below(6) {
        0 => [coarse(rng), coarse(rng), coarse(rng)],
        1 => [fine(rng), fine(rng), fine(rng)],
        2 => [q(1, 1), q(1, 1), q(1, 1)],
        3 => {
            let a = &fine(rng) * &q(2, 5);
            let c = &(&q(2, 1) - &a) * &(&q(2, 1) - &a);
            [a.clone(), a, c]
        }
        4 => {
            let a = &fine(rng) * &q(4, 5);
            [a.clone(), &q(4, 1) - &a, coarse(rng)]
        }
        _ => {
            // r = 8 + ab − 2a − 2b − 2c = 0.
            let (a, b) = (&fine(rng) * &q(2, 5), &fine(rng) * &q(2, 5));
            let c = &(&(&q(8, 1) + &(&a * &b)) - &(&q(2, 1) * &(&a + &b))) * &q(1, 2);
            [a, b, c]
        }
    };
    if rng.below(2) == 0 {
        let e = 30 + rng.below(60);
        let delta = BigRational::new(BigInt::one(), &BigInt::one() << e);
        let i = rng.below(3) as usize;
        t[i] = if rng.below(2) == 0 {
            &t[i] + &delta
        } else {
            &t[i] - &delta
        };
    }
    t
}

prop_compose! {
    fn arb_filter_pair()(seed in 0u64..u64::MAX) -> [[BigRational; 3]; 2] {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        [filter_triple(&mut rng), filter_triple(&mut rng)]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whenever the rank-3 filter calls a sign or an order certain, the
    /// exact score agrees: the enclosure of a box around each triple,
    /// built from `to_f64` and its documented error bound, contains the
    /// exact `representability_score`, so a sign it certifies is the
    /// exact sign, and disjoint enclosures order two scores exactly.
    #[test]
    fn score_filter_agrees_with_the_exact_score(pair in arb_filter_pair()) {
        let mut bounds = Vec::new();
        for t in &pair {
            let exact = representability_score(&t[0], &t[1], &t[2]);
            let Some(iv) = score_enclosure(enclose(&t[0]), enclose(&t[1]), enclose(&t[2])) else {
                // Only a box reaching below 0 gets no enclosure.
                prop_assert!(t.iter().any(|x| x.is_negative()));
                bounds.push(None);
                continue;
            };
            prop_assert!(contains(iv, &exact), "{:?} misses {} for {:?}", iv, exact, t);
            if iv.lo >= 0.0 {
                prop_assert!(!exact.is_negative());
            }
            if iv.hi < 0.0 {
                prop_assert!(exact.is_negative());
            }
            bounds.push(Some((iv, exact)));
        }
        if let [Some((i0, s0)), Some((i1, s1))] = &bounds[..] {
            if i0.lo > i1.hi {
                prop_assert!(s0 > s1);
            }
            if i0.hi < i1.lo {
                prop_assert!(s0 < s1);
            }
        }
    }
}

/// Point boxes: `(0, 0, 0)` scores 64 and the apex `(0, 0, 4)` exactly
/// 0, inside their enclosures; a box reaching below 0 or past the finite
/// range gets none.
#[test]
fn point_boxes_are_enclosed() {
    let p = Interval::point;
    let s = score_enclosure(p(0.0), p(0.0), p(0.0)).unwrap();
    assert!(s.lo <= 64.0 && 64.0 <= s.hi && s.hi - s.lo < 1e-12);
    let s = score_enclosure(p(0.0), p(0.0), p(4.0)).unwrap();
    assert!(s.lo <= 0.0 && 0.0 <= s.hi);
    assert!(score_enclosure(p(-1.0), p(0.0), p(0.0)).is_none());
    assert!(score_enclosure(p(f64::INFINITY), p(0.0), p(0.0)).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The weighted rank-2 lemma (Section 3.1 of the paper): for any
    /// distribution p over values y, any increase factors with
    /// expectation 1 per event, and any weights s + t ≤ 2, some value
    /// satisfies s·Inc_u(y) + t·Inc_v(y) ≤ 2. (Linearity of expectation
    /// — here checked on random data, exactly.)
    #[test]
    fn weighted_rank2_lemma(
        raw_p in prop::collection::vec(1i64..20, 2..6),
        raw_u in prop::collection::vec(0i64..20, 6),
        raw_v in prop::collection::vec(0i64..20, 6),
        s_num in 0i64..16,
    ) {
        let k = raw_p.len();
        let total: i64 = raw_p.iter().sum();
        let p: Vec<BigRational> = raw_p.iter().map(|&x| q(x, total as u64)).collect();
        // Inc with expectation exactly 1: normalize raw weights by their
        // p-expectation (guard against all-zero rows).
        let normalize = |raw: &[i64]| -> Option<Vec<BigRational>> {
            let mut exp = BigRational::zero();
            for (pi, &g) in p.iter().zip(raw) {
                exp = &exp + &(pi * &q(g, 1));
            }
            if exp.is_zero() {
                return None;
            }
            Some(raw.iter().map(|&g| &q(g, 1) / &exp).collect())
        };
        let (Some(inc_u), Some(inc_v)) = (normalize(&raw_u[..k]), normalize(&raw_v[..k])) else {
            return Ok(());
        };
        let s = q(s_num, 8);
        let t = &q(2, 1) - &s; // s + t = 2 (worst case)
        let best = (0..k)
            .map(|y| &(&s * &inc_u[y]) + &(&t * &inc_v[y]))
            .min()
            .expect("k >= 2");
        prop_assert!(best <= q(2, 1), "min weighted increase {best} > 2");
    }

    /// Lemma 3.9, contrapositive form: because S_rep is incurved, for
    /// every rank-3 variable (any distribution, any expectation-1
    /// increase factors) and every representable (a, b, c), some value's
    /// scaled triple stays representable — i.e. not all values are
    /// "(a,b,c)-evil".
    #[test]
    fn lemma_3_9_some_value_is_not_evil(
        raw_p in prop::collection::vec(1i64..20, 2..6),
        raw_u in prop::collection::vec(0i64..20, 6),
        raw_v in prop::collection::vec(0i64..20, 6),
        raw_w in prop::collection::vec(0i64..20, 6),
        ai in 0i64..32,
        bj in 0i64..32,
        cf in 0i64..8,
    ) {
        // Build a representable triple constructively: a + b <= 4, then
        // shrink a candidate c until it enters S_rep (downward closure;
        // c = 0 always qualifies).
        let a = q(ai, 8);
        let b = q((32 - ai).min(bj), 8);
        let mut c = &q(cf, 2) + &q(1, 4);
        for _ in 0..16 {
            if is_representable(&a, &b, &c) {
                break;
            }
            c = &c * &q(1, 2);
        }
        if !is_representable(&a, &b, &c) {
            c = BigRational::zero();
        }
        prop_assert!(is_representable(&a, &b, &c));
        let k = raw_p.len();
        let total: i64 = raw_p.iter().sum();
        let p: Vec<BigRational> = raw_p.iter().map(|&x| q(x, total as u64)).collect();
        let normalize = |raw: &[i64]| -> Option<Vec<BigRational>> {
            let mut exp = BigRational::zero();
            for (pi, &g) in p.iter().zip(raw) {
                exp = &exp + &(pi * &q(g, 1));
            }
            if exp.is_zero() {
                return None;
            }
            Some(raw.iter().map(|&g| &q(g, 1) / &exp).collect())
        };
        let (Some(iu), Some(iv), Some(iw)) =
            (normalize(&raw_u[..k]), normalize(&raw_v[..k]), normalize(&raw_w[..k]))
        else {
            return Ok(());
        };
        let good = (0..k).any(|y| {
            is_representable(&(&iu[y] * &a), &(&iv[y] * &b), &(&iw[y] * &c))
        });
        prop_assert!(good, "every value was evil for ({a}, {b}, {c})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Metamorphic equivariance: relabeling the graph's nodes by a
    /// random permutation (carrying the ids along) must permute the
    /// outputs of a LOCAL algorithm and change nothing else — round
    /// bills included — under both round engines. Checks the vertex
    /// coloring (Linial then block reduction: colors are a function of
    /// ids and topology only) and the message-passing Moser–Tardos
    /// program (each node's randomness is an RNG seeded from its id, its
    /// messages are `Vec`-sized value lists, and the resampling tiebreak
    /// compares ids), on an instance whose events are indexed by id.
    #[test]
    fn local_outputs_are_equivariant_under_relabeling(
        n in 4usize..24,
        perm_seed in 0u64..1000,
        id_seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let g = ring(n);
        let perm = shuffled(n, perm_seed);
        let h = relabel(&g, &perm);
        let ids: Vec<u64> = shuffled(n, id_seed).iter().map(|&x| x as u64).collect();
        let mut hids = vec![0u64; n];
        for v in 0..n {
            hids[perm[v]] = ids[v];
        }
        // Event `ids[v]` for node `v`; one coin per edge, shared by its
        // endpoints' events; an event occurs iff all its coins are 0.
        let mut b = InstanceBuilder::<f64>::new(n);
        let mut coins = vec![Vec::new(); n];
        for &(u, v) in g.edges() {
            let (a, c) = (ids[u] as usize, ids[v] as usize);
            let x = b.add_uniform_variable(&[a.min(c), a.max(c)], 2);
            coins[a].push(x);
            coins[c].push(x);
        }
        for (e, mine) in coins.into_iter().enumerate() {
            b.set_event_predicate(e, move |vals| mine.iter().all(|&x| vals[x] == 0));
        }
        let inst = b.build().expect("valid instance");
        let gsim = Simulator::with_ids(&g, ids).expect("ids are a permutation").seed(3);
        let hsim = Simulator::with_ids(&h, hids).expect("ids are a permutation").seed(3);
        for t in [1usize, threads] {
            let gc = vertex_coloring(&gsim.clone().threads(t), 1000).expect("coloring");
            let hc = vertex_coloring(&hsim.clone().threads(t), 1000).expect("coloring");
            for (v, &pv) in perm.iter().enumerate() {
                prop_assert_eq!(gc.colors[v], hc.colors[pv], "color of node {}", v);
            }
            prop_assert_eq!(gc.rounds, hc.rounds);
            let mt = |ctx: &sharp_lll::local::NodeContext| MtProgram::new(&inst, ctx.id as usize, 6);
            let gm = gsim.clone().threads(t).run_auto(mt, 32).expect("mt");
            let hm = hsim.clone().threads(t).run_auto(mt, 32).expect("mt");
            for (v, &pv) in perm.iter().enumerate() {
                prop_assert_eq!(&gm.outputs[v], &hm.outputs[pv], "mt output of node {}", v);
            }
            prop_assert_eq!(gm.rounds, hm.rounds);
            prop_assert_eq!(gm.messages, hm.messages);
        }
    }
}

/// Renames node `v` to `perm[v]`, keeping the edge set.
fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    Graph::from_edges(
        g.num_nodes(),
        g.edges().iter().map(|&(u, v)| (perm[u], perm[v])),
    )
    .expect("relabeled graph is valid")
}

fn shuffled(m: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};
    let mut o: Vec<usize> = (0..m).collect();
    o.shuffle(&mut StdRng::seed_from_u64(seed));
    o
}

/// Random rank-2 instance on the edges of `g`: 4-valued variables —
/// uniform or biased (1/10, 2/10, 3/10, 4/10) — with events occurring
/// on one random joint value. On a ring (`deg = d = 2`) the criterion
/// value is at most `(4/10)²·4 = 0.64 < 1`, so the generated instances
/// are below the threshold *by construction*.
fn random_edge_instance(g: &sharp_lll::graphs::Graph, seed: u64) -> Instance<BigRational> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::<BigRational>::new(g.num_nodes());
    let vars: Vec<usize> = (0..g.num_edges())
        .map(|eid| {
            let (u, v) = g.edge(eid);
            let probs = if rng.random::<bool>() {
                vec![q(1, 4), q(1, 4), q(1, 4), q(1, 4)]
            } else {
                vec![q(1, 10), q(2, 10), q(3, 10), q(4, 10)]
            };
            b.add_variable(&[u, v], probs)
        })
        .collect();
    for v in 0..g.num_nodes() {
        let support: Vec<usize> = g.incident_edges(v).iter().map(|&e| vars[e]).collect();
        let pattern: Vec<usize> = support
            .iter()
            .map(|_| rng.random_range(0..4usize))
            .collect();
        let sp: Vec<(usize, usize)> = support.into_iter().zip(pattern).collect();
        b.set_event_predicate(v, move |vals| sp.iter().all(|&(x, want)| vals[x] == want));
    }
    b.build().expect("valid instance")
}

/// Random rank-3 instance on the hyperedges of `h`: 3-valued variables,
/// events occur on one random joint value (p = 3^-deg).
fn random_hyper_instance(h: &sharp_lll::graphs::Hypergraph, seed: u64) -> Instance<BigRational> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::<BigRational>::new(h.num_nodes());
    let vars: Vec<usize> = (0..h.num_edges())
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), 3))
        .collect();
    for v in 0..h.num_nodes() {
        let support: Vec<usize> = h.incident(v).iter().map(|&i| vars[i]).collect();
        let pattern: Vec<usize> = support
            .iter()
            .map(|_| rng.random_range(0..3usize))
            .collect();
        let sp: Vec<(usize, usize)> = support.into_iter().zip(pattern).collect();
        b.set_event_predicate(v, move |vals| sp.iter().all(|&(x, want)| vals[x] == want));
    }
    b.build().expect("valid instance")
}
