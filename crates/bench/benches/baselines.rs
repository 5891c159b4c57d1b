//! Benchmarks for the randomized baselines and threshold kernels
//! (experiments E7/E9/E10): sequential and parallel Moser–Tardos, and
//! the greedy fixer running unchecked above the threshold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lll_apps::sinkless::sinkless_orientation_instance;
use lll_bench::workloads::{random_rank2_instance, shuffled_order};
use lll_core::Fixer2;
use lll_graphs::gen::{random_regular, ring, torus};
use lll_mt::dist::distributed_mt;
use lll_mt::{parallel_mt, sequential_mt};

fn bench_mt(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_moser_tardos");
    for n in [256usize, 1024] {
        let graph = ring(n);
        let inst = random_rank2_instance(&graph, 8, 0.9, 31);
        g.bench_with_input(BenchmarkId::new("sequential", n), &inst, |b, inst| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                sequential_mt(black_box(inst), seed, 10_000_000).expect("converges")
            })
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &inst, |b, inst| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                parallel_mt(black_box(inst), seed, 10_000_000).expect("converges")
            })
        });
        g.bench_with_input(BenchmarkId::new("message-passing", n), &inst, |b, inst| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                distributed_mt(black_box(inst), seed, 1 << 20, 1).expect("converges")
            })
        });
    }
    g.finish();
}

fn bench_boundary(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_boundary_sinkless");
    let graph = random_regular(512, 4, 21).expect("feasible parameters");
    let inst = sinkless_orientation_instance::<f64>(&graph).expect("no isolated nodes");
    g.bench_function("parallel_mt_512", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            parallel_mt(black_box(&inst), seed, 10_000_000).expect("classic regime")
        })
    });
    g.finish();

    let mut g = c.benchmark_group("e7_greedy_above_threshold");
    let torus_g = torus(6, 6);
    let inst = random_rank2_instance(&torus_g, 4, 1.5, 11);
    let order = shuffled_order(inst.num_variables(), 3);
    g.bench_function("fixer2_unchecked_t1.5", |b| {
        b.iter(|| {
            Fixer2::new_unchecked(black_box(&inst))
                .expect("rank 2")
                .run(order.clone())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_mt, bench_boundary
}
criterion_main!(benches);
