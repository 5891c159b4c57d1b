//! Property tests for the distributed coloring pipeline.

use lll_coloring::{
    distance2_coloring, edge_coloring, greedy_coloring_sequential, linial_coloring,
    reduce_coloring, reduction_rounds, vertex_coloring, ReduceProgram,
};
use lll_graphs::gen::{gnp, random_regular};
use lll_local::Simulator;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vertex_coloring_on_random_graphs(n in 4usize..40, p in 0.05f64..0.5, seed in 0u64..1000) {
        let g = gnp(n, p, seed);
        prop_assume!(g.max_degree() >= 1);
        let sim = Simulator::with_shuffled_ids(&g, seed);
        let c = vertex_coloring(&sim, 100_000).expect("converges");
        prop_assert!(g.is_proper_coloring(&c.colors));
        prop_assert_eq!(c.palette, g.max_degree() + 1);
        prop_assert!(c.colors.iter().all(|&x| x < c.palette));
    }

    #[test]
    fn block_reduction_from_sparse_palettes(
        n in 4usize..40,
        p in 0.05f64..0.5,
        seed in 0u64..1000,
        stride in 1u64..1024,
        offset in 0u64..1024,
        slack in 0u64..1024,
    ) {
        // Inflate a greedy coloring into a sparse proper input palette of
        // up to 2^16 colors, spread over many blocks.
        let g = gnp(n, p, seed);
        prop_assume!(g.max_degree() >= 1);
        let input: Vec<u64> = greedy_coloring_sequential(&g)
            .iter()
            .map(|&c| c as u64 * stride + offset)
            .collect();
        let palette = input.iter().max().unwrap() + 1 + slack;
        let target = g.max_degree() as u64 + 1;
        prop_assume!(palette > target);
        prop_assert!(palette <= 1 << 16);
        let sim = Simulator::with_shuffled_ids(&g, seed);
        let mut by_id = vec![0; n];
        for (v, &c) in input.iter().enumerate() {
            by_id[sim.id_of(v) as usize] = c;
        }
        let mk = |ctx: &lll_local::NodeContext| ReduceProgram::new(by_id[ctx.id as usize], palette, target);
        let seq = sim.run(mk, 100_000).expect("converges");
        let out: Vec<usize> = seq.outputs.iter().map(|&c| c as usize).collect();
        prop_assert!(g.is_proper_coloring(&out));
        prop_assert!(seq.outputs.iter().all(|&c| c < target));
        prop_assert_eq!(seq.rounds, reduction_rounds(palette, target));
        for t in [1usize, 3, 8] {
            let par = sim.clone().threads(t).run_auto(mk, 100_000).expect("converges");
            prop_assert_eq!(&par.outputs, &seq.outputs, "threads {}", t);
            prop_assert_eq!(par.rounds, seq.rounds, "threads {}", t);
            prop_assert_eq!(par.messages, seq.messages, "threads {}", t);
        }
    }

    #[test]
    fn linial_always_proper(n in 4usize..60, seed in 0u64..1000) {
        let g = gnp(n, 0.2, seed);
        prop_assume!(g.max_degree() >= 1);
        let sim = Simulator::with_shuffled_ids(&g, seed ^ 1);
        let c = linial_coloring(&sim, 100_000).expect("converges");
        prop_assert!(g.is_proper_coloring(&c.colors));
    }

    #[test]
    fn explicit_targets_are_respected(n in 6usize..30, seed in 0u64..100) {
        let g = gnp(n, 0.3, seed);
        prop_assume!(g.max_degree() >= 1);
        let target = g.max_degree() + 3;
        let sim = Simulator::with_shuffled_ids(&g, seed);
        let rough = linial_coloring(&sim, 100_000).expect("converges");
        let c = reduce_coloring(&sim, &rough, target, 100_000).expect("converges");
        prop_assert!(g.is_proper_coloring(&c.colors));
        prop_assert!(c.colors.iter().all(|&x| x < target));
    }

    #[test]
    fn edge_coloring_on_random_regular(k in 3usize..12, seed in 0u64..100) {
        let n = 2 * k + 6;
        let g = random_regular(n, 3, seed).expect("feasible");
        let sim = Simulator::with_shuffled_ids(&g, seed);
        let c = edge_coloring(&sim, 100_000).expect("converges");
        prop_assert!(g.is_proper_edge_coloring(&c.colors));
        prop_assert!(c.palette < 2 * g.max_degree());
    }

    #[test]
    fn distance2_coloring_on_random_regular(k in 3usize..10, seed in 0u64..100) {
        let n = 2 * k + 8;
        let g = random_regular(n, 4, seed).expect("feasible");
        let sim = Simulator::with_shuffled_ids(&g, seed);
        let c = distance2_coloring(&sim, 100_000).expect("converges");
        prop_assert!(g.is_distance2_coloring(&c.colors));
    }

    #[test]
    fn colorings_work_under_adversarial_id_orders(n in 8usize..40, seed in 0u64..50) {
        // Reversed ids (high ids clustered at low indices) and identity
        // ids — deterministic LOCAL algorithms must handle any distinct
        // assignment.
        let g = gnp(n, 0.25, seed);
        prop_assume!(g.max_degree() >= 1);
        let rev: Vec<u64> = (0..n as u64).rev().collect();
        let sim = Simulator::with_ids(&g, rev).expect("distinct ids");
        let c = vertex_coloring(&sim, 100_000).expect("converges");
        prop_assert!(g.is_proper_coloring(&c.colors));
        let sim = Simulator::new(&g);
        let c = vertex_coloring(&sim, 100_000).expect("converges");
        prop_assert!(g.is_proper_coloring(&c.colors));
    }
}
