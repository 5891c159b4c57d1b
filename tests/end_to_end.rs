//! End-to-end pipelines across every crate: graph generation → LLL
//! instance → LOCAL coloring → scheduled deterministic fixing →
//! verification, plus the randomized baseline on the same inputs.

use sharp_lll::apps::hyper_orientation::{
    heads_from_assignment, hyper_orientation_instance, is_valid_orientation,
};
use sharp_lll::apps::sat::{ring_formula, solve};
use sharp_lll::apps::sinkless::{
    is_sinkless, orientation_from_assignment, sinkless_orientation_instance,
};
use sharp_lll::apps::weak_splitting::{is_weak_splitting, weak_splitting_instance};
use sharp_lll::coloring::{distance2_coloring, edge_coloring, vertex_coloring};
use sharp_lll::core::dist::{self, DistError, DistReport, Schedule, Sweep};
use sharp_lll::core::Instance;
use sharp_lll::graphs::gen::{
    hyper_ring, random_3_uniform, random_bipartite_biregular, random_regular, torus,
};
use sharp_lll::local::Simulator;
use sharp_lll::mt::{parallel_mt, sequential_mt, Selection};
use sharp_lll::numeric::Num;
use sharp_lll::obs::{NullRecorder, NullTiming};

/// The rank-3 distributed driver (Corollary 1.4): a seeded distance-2
/// schedule, then the default sweep (criterion enforced, one worker).
fn distributed3<T: Num>(inst: &Instance<T>, seed: u64) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, 1)?;
    let (rec, sink) = (&mut NullRecorder, &mut NullTiming);
    dist::run(inst, &schedule, &Sweep::default(), rec, sink)
}

#[test]
fn coloring_pipeline_on_generated_graphs() {
    for seed in 0..3u64 {
        let g = random_regular(60, 4, seed).expect("feasible parameters");
        let sim = Simulator::with_shuffled_ids(&g, seed);
        let vc = vertex_coloring(&sim, 10_000).expect("converges");
        assert!(g.is_proper_coloring(&vc.colors));
        assert_eq!(vc.palette, 5);
        let ec = edge_coloring(&sim, 10_000).expect("converges");
        assert!(g.is_proper_edge_coloring(&ec.colors));
        let d2 = distance2_coloring(&sim, 10_000).expect("converges");
        assert!(g.is_distance2_coloring(&d2.colors));
    }
}

#[test]
fn hypergraph_orientation_full_pipeline() {
    for seed in 0..3u64 {
        let h = random_3_uniform(24, 3, seed).expect("feasible parameters");
        let inst = hyper_orientation_instance::<f64>(&h).expect("valid input");
        assert!(inst.satisfies_exponential_criterion());
        let rep = distributed3(&inst, seed).expect("below threshold");
        assert!(rep.fix.is_success(), "seed {seed}");
        let heads = heads_from_assignment(&h, rep.fix.assignment());
        assert!(is_valid_orientation(&h, &heads), "seed {seed}");
        // The randomized baseline agrees this is solvable.
        let mt = parallel_mt(&inst, seed, 1_000_000, Selection::IdMinima).expect("converges");
        let mt_heads = heads_from_assignment(&h, &mt.assignment);
        assert!(is_valid_orientation(&h, &mt_heads));
    }
}

#[test]
fn weak_splitting_full_pipeline() {
    let bip = random_bipartite_biregular(30, 3, 30, 3, 4).expect("feasible parameters");
    let inst = weak_splitting_instance::<f64>(&bip, 30, 16).expect("valid input");
    let rep = distributed3(&inst, 1).expect("below threshold");
    assert!(rep.fix.is_success());
    assert!(is_weak_splitting(&bip, 30, rep.fix.assignment(), 2));
}

#[test]
fn sat_pipeline_and_mt_cross_check() {
    let cnf = ring_formula(30, 5, 2);
    let det = solve(&cnf).expect("inside the regime");
    assert!(cnf.is_satisfied(&det));
    // Moser–Tardos finds a (generally different) satisfying assignment.
    let inst = cnf.to_instance::<f64>().expect("well-formed");
    let mt = sequential_mt(&inst, 2, 1_000_000).expect("converges");
    let mt_assignment: Vec<bool> = mt.assignment.iter().map(|&v| v == 1).collect();
    assert!(cnf.is_satisfied(&mt_assignment));
}

#[test]
fn boundary_problem_randomized_only() {
    let g = torus(6, 6);
    let inst = sinkless_orientation_instance::<f64>(&g).expect("no isolated nodes");
    // Deterministic guarantee refused at the threshold...
    assert!(sharp_lll::core::Fixer2::new(&inst).is_err());
    // ...randomization succeeds.
    let mt = parallel_mt(&inst, 8, 1_000_000, Selection::IdMinima)
        .expect("classic criterion holds for d = 4");
    let orientation = orientation_from_assignment(&g, &mt.assignment);
    assert!(is_sinkless(&g, &orientation));
}

#[test]
fn hyper_ring_all_seeds_and_both_drivers() {
    let h = hyper_ring(20);
    let inst = hyper_orientation_instance::<f64>(&h).expect("valid input");
    for seed in 0..4u64 {
        let rep = distributed3(&inst, seed).expect("below threshold");
        assert!(rep.fix.is_success(), "seed {seed}");
        // Round bill sanity: coloring rounds dominate, classes > 0.
        assert!(rep.coloring_rounds > 0);
        assert!(rep.num_classes > 0);
        assert_eq!(rep.rounds, rep.coloring_rounds + 2 * rep.num_classes);
    }
}
