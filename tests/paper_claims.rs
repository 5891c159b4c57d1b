//! Executable statements of the paper's claims, spanning all crates.
//!
//! Each test names the theorem/lemma/corollary it exercises.

use sharp_lll::apps::sinkless::sinkless_orientation_instance;
use sharp_lll::core::dist::{self, DistReport, Schedule, Sweep};
use sharp_lll::core::triples::{decompose, f_surface, is_representable};
use sharp_lll::core::{audit_p_star, Fixer2, Fixer3, FixerError, Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, random_3_uniform, random_regular, ring, torus};
use sharp_lll::graphs::Graph;
use sharp_lll::local::{log_star, SimError};
use sharp_lll::numeric::{BigRational, Num};
use sharp_lll::obs::{NullRecorder, NullTiming};

/// A distributed driver below the threshold: the schedule `coloring`
/// computes from seed 9 (`Schedule::edge` for Corollary 1.2,
/// `Schedule::distance2` for Corollary 1.4), then the default sweep.
fn distributed<T: Num>(inst: &Instance<T>, coloring: Coloring) -> DistReport {
    let schedule = coloring(inst.dependency_graph(), 9, 1).expect("coloring converges");
    let (rec, sink) = (&mut NullRecorder, &mut NullTiming);
    dist::run(inst, &schedule, &Sweep::default(), rec, sink).expect("below threshold")
}

type Coloring = fn(&Graph, u64, usize) -> Result<Schedule, SimError>;

fn q(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

/// One fair k-valued variable per edge; event at node v occurs iff all
/// incident variables take value 0: p = k^-deg, d = Δ.
fn edge_instance<T: Num>(g: &sharp_lll::graphs::Graph, k: usize) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(g.num_nodes());
    let vars: Vec<usize> = (0..g.num_edges())
        .map(|eid| {
            let (u, v) = g.edge(eid);
            b.add_uniform_variable(&[u, v], k)
        })
        .collect();
    for v in 0..g.num_nodes() {
        let support: Vec<usize> = g.incident_edges(v).iter().map(|&e| vars[e]).collect();
        b.set_event_predicate(v, move |vals| support.iter().all(|&x| vals[x] == 0));
    }
    b.build().expect("valid instance")
}

/// One fair k-valued variable per hyperedge; event at node v occurs iff
/// all incident variables take value 0.
fn hyperedge_instance<T: Num>(h: &sharp_lll::graphs::Hypergraph, k: usize) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(h.num_nodes());
    let vars: Vec<usize> = (0..h.num_edges())
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), k))
        .collect();
    for v in 0..h.num_nodes() {
        let support: Vec<usize> = h.incident(v).iter().map(|&i| vars[i]).collect();
        b.set_event_predicate(v, move |vals| support.iter().all(|&x| vals[x] == 0));
    }
    b.build().expect("valid instance")
}

#[test]
fn theorem_1_1_rank2_fixing_below_threshold() {
    // p < 2^-d and rank <= 2 ⇒ the sequential process avoids all events,
    // in any order. k = 3 on Δ-regular graphs gives p·2^d = (2/3)^Δ < 1.
    for (name, g) in [
        ("ring", ring(24)),
        ("torus", torus(4, 5)),
        ("5-regular", random_regular(24, 5, 1).expect("feasible")),
    ] {
        let inst = edge_instance::<BigRational>(&g, 3);
        assert!(inst.satisfies_exponential_criterion(), "{name}");
        for seed in 0..3u64 {
            let order = {
                use rand::seq::SliceRandom;
                use rand::{rngs::StdRng, SeedableRng};
                let mut o: Vec<usize> = (0..inst.num_variables()).collect();
                o.shuffle(&mut StdRng::seed_from_u64(seed));
                o
            };
            let report = Fixer2::new(&inst)
                .expect("below threshold")
                .run(order)
                .expect("finite costs below the threshold");
            assert!(report.is_success(), "{name}, seed {seed}");
        }
    }
}

#[test]
fn theorem_1_3_rank3_fixing_below_threshold_with_exact_p_star() {
    let h = hyper_ring(10);
    let inst = hyperedge_instance::<BigRational>(&h, 3); // p = 1/27, d = 4
    assert_eq!(inst.criterion_value(), q(16, 27));
    let p = inst.max_event_probability();
    let mut fixer = Fixer3::new(&inst).expect("below threshold");
    for x in 0..inst.num_variables() {
        fixer.fix_variable(x).expect("exact costs are finite");
        let audit = audit_p_star(
            &inst,
            fixer.partial(),
            fixer.phi(),
            &p,
            &BigRational::zero(),
        );
        assert!(audit.holds(), "P* violated after variable {x}: {audit:?}");
    }
    assert!(fixer.invariant_intact());
    assert!(fixer.into_report().is_success());
}

#[test]
fn lemma_3_5_characterization_spot_checks() {
    // Representability ⇔ a+b ≤ 4 ∧ c ≤ f(a,b); check exact membership
    // against the closed-form surface at rational points.
    for (a, b) in [(0.5f64, 0.5), (1.0, 2.0), (2.5, 1.0), (0.25, 3.5)] {
        let f = f_surface(a, b);
        let (qa, qb) = (
            BigRational::from_f64(a).expect("finite"),
            BigRational::from_f64(b).expect("finite"),
        );
        let below = BigRational::from_f64(f - 1e-9).expect("finite");
        let above = BigRational::from_f64(f + 1e-9).expect("finite");
        assert!(
            is_representable(&qa, &qb, &below),
            "({a},{b}) just below surface"
        );
        assert!(
            !is_representable(&qa, &qb, &above),
            "({a},{b}) just above surface"
        );
    }
}

#[test]
fn definition_3_3_decompositions_witness_membership() {
    // Every exact decomposition must reproduce the triple exactly and
    // satisfy the pair-sum constraints — over a rational grid.
    for i in 0..=6i64 {
        for j in 0..=6i64 {
            for l in 0..=6i64 {
                let (a, b, c) = (q(i, 2), q(j, 2), q(l, 2));
                let member = is_representable(&a, &b, &c);
                match decompose(&a, &b, &c) {
                    Some(d) => {
                        assert!(member, "decompose succeeded outside S_rep at ({a},{b},{c})");
                        assert!(d.covers(&a, &b, &c, &BigRational::zero()));
                    }
                    None => assert!(!member, "decompose failed inside S_rep at ({a},{b},{c})"),
                }
            }
        }
    }
}

#[test]
fn corollary_1_2_rounds_do_not_grow_with_n() {
    let sizes = [512usize, 4096, 32768];
    let mut rounds = Vec::new();
    for &n in &sizes {
        let g = ring(n);
        let inst = edge_instance::<f64>(&g, 3);
        let rep = distributed(&inst, Schedule::edge);
        assert!(rep.fix.is_success());
        rounds.push(rep.rounds);
    }
    let slack = 2 * (log_star(32768) - log_star(512)) as usize + 4;
    assert!(
        rounds[2] <= rounds[0] + slack,
        "rounds {rounds:?} grew faster than log* over {sizes:?}"
    );
}

#[test]
fn corollary_1_4_rounds_do_not_grow_with_n() {
    let sizes = [1024usize, 8192];
    let mut rounds = Vec::new();
    for &n in &sizes {
        let h = hyper_ring(n);
        let inst = hyperedge_instance::<f64>(&h, 3);
        let rep = distributed(&inst, Schedule::distance2);
        assert!(rep.fix.is_success());
        rounds.push(rep.rounds);
    }
    let slack = 2 * (log_star(8192) - log_star(1024)) as usize + 4;
    assert!(
        rounds[1] <= rounds[0] + slack,
        "rounds {rounds:?} grew faster than log*"
    );
}

#[test]
fn corollaries_1_2_and_1_4_rounds_fit_the_d2_log_star_envelope() {
    // The paper's runtime is O(d² + log* n) LOCAL rounds. Pin the
    // reproduction to a concrete envelope A·d² + B·log* n + C with
    // recorded constants, across both the rank-2 ring family (d = 2)
    // and the rank-3 hyper-ring family (d = 4): any regression that
    // inflates the round bill — in the schedule coloring or in the
    // class sweep — trips this before it shows up in EXPERIMENTS.md.
    // Calibrated on the block color reduction: rank-2 rings sit flat at
    // 29 rounds (22 of them the edge coloring); rank-3 hyper-rings
    // plateau at 96 from n = 1024 on (78 of them the distance-2
    // coloring — the palette reduction dominates, and stays
    // n-independent past the plateau per
    // `corollary_1_4_rounds_do_not_grow_with_n`). The one-class-per-round
    // reduction (55 and 580 rounds) would exceed the rank-3 envelope.
    const A: usize = 5;
    const B: usize = 3;
    const C: usize = 24;
    for &n in &[256usize, 1024, 4096] {
        let inst = edge_instance::<f64>(&ring(n), 3); // d = 2
        let rep = distributed(&inst, Schedule::edge);
        assert!(rep.fix.is_success());
        let bound = A * 4 + B * log_star(n as u64) as usize + C;
        println!("fixer2 ring({n}): rounds = {}, bound = {bound}", rep.rounds);
        assert!(
            rep.rounds <= bound,
            "rank-2 rounds {} exceed the envelope {bound} at n = {n}",
            rep.rounds
        );
    }
    for &n in &[256usize, 1024] {
        let inst = hyperedge_instance::<f64>(&hyper_ring(n), 3); // d = 4
        let rep = distributed(&inst, Schedule::distance2);
        assert!(rep.fix.is_success());
        let bound = A * 16 + B * log_star(n as u64) as usize + C;
        println!(
            "fixer3 hyper_ring({n}): rounds = {} (coloring {}, classes {}), bound = {bound}",
            rep.rounds, rep.coloring_rounds, rep.num_classes
        );
        assert!(
            rep.rounds <= bound,
            "rank-3 rounds {} exceed the envelope {bound} at n = {n}",
            rep.rounds
        );
    }
}

#[test]
fn mt_rounds_stay_polylogarithmic_at_the_threshold() {
    // The flip side of the sharp threshold: at p·2^d = 1 (sinkless
    // orientation) the deterministic guarantee is gone, but randomized
    // Moser–Tardos still solves in polylog rounds. Pin the honest
    // message-passing MT round bill to K·log² n + C on the
    // sinkless-orientation family.
    const K: f64 = 2.0;
    const C: f64 = 30.0;
    for &n in &[32usize, 128, 512] {
        let g = random_regular(n, 4, 21).expect("feasible parameters");
        let inst = sinkless_orientation_instance::<f64>(&g).expect("no isolated nodes");
        let rep = sharp_lll::mt::dist::distributed_mt(&inst, 17, 1 << 20, 1).expect("MT solves");
        assert!(inst
            .no_event_occurs(&rep.assignment)
            .expect("full assignment"));
        let lg = (n as f64).log2();
        println!("MT sinkless({n}): local rounds = {}", rep.rounds);
        assert!(
            (rep.rounds as f64) <= K * lg * lg + C,
            "MT round bill {} exceeds {K}·log²({n}) + {C}",
            rep.rounds
        );
    }
}

#[test]
fn sinkless_orientation_sits_exactly_at_the_threshold() {
    // The paper's boundary witness: p·2^d = 1 on regular graphs, and the
    // deterministic guarantee is refused.
    let g = random_regular(32, 4, 5).expect("feasible");
    let inst = sinkless_orientation_instance::<BigRational>(&g).expect("no isolated nodes");
    assert_eq!(inst.criterion_value(), BigRational::one());
    assert!(matches!(
        Fixer2::new(&inst),
        Err(FixerError::CriterionViolated { .. })
    ));
}

#[test]
fn order_obliviousness_is_real_not_just_lucky() {
    // Fix the *same* instance under many adversarial orders including
    // reversed and interleaved; every one must succeed (Theorem 1.3
    // quantifies over all orders).
    // Random 3-uniform hypergraphs can reach dependency degree 6, so
    // k = 5 is needed for p = k^-3 < 2^-6.
    let h = random_3_uniform(15, 3, 2).expect("feasible");
    let inst = hyperedge_instance::<f64>(&h, 5);
    assert!(inst.satisfies_exponential_criterion());
    let m = inst.num_variables();
    // The stride-7 order is a permutation because gcd(7, m) = 1.
    assert!(
        !m.is_multiple_of(7) && m == 15,
        "stride order needs gcd(7, m) = 1"
    );
    let orders: Vec<Vec<usize>> = vec![
        (0..m).collect(),
        (0..m).rev().collect(),
        (0..m).map(|i| (i * 7) % m).collect(),
    ];
    for (i, order) in orders.into_iter().enumerate() {
        let report = Fixer3::new(&inst)
            .expect("below threshold")
            .run(order)
            .expect("finite costs below the threshold");
        assert!(report.is_success(), "order family {i}");
    }
}

#[test]
fn backends_agree_end_to_end() {
    let h = hyper_ring(8);
    let exact = hyperedge_instance::<BigRational>(&h, 3);
    let float = hyperedge_instance::<f64>(&h, 3);
    let re = Fixer3::new(&exact)
        .expect("below threshold")
        .run_default()
        .unwrap();
    let rf = Fixer3::new(&float)
        .expect("below threshold")
        .run_default()
        .unwrap();
    assert_eq!(re.assignment(), rf.assignment());
    assert!((exact.criterion_value().to_f64() - float.criterion_value()).abs() < 1e-12);
}
