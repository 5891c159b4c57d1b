//! Benchmarks for the distributed pipelines (experiments E2/E6): the
//! full coloring + class-scheduled fixing runs, and the coloring
//! subroutines in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lll_bench::workloads::{random_rank2_instance, random_rank3_instance};
use lll_coloring::{distance2_coloring, edge_coloring, vertex_coloring};
use lll_core::dist::{self, Schedule, Sweep};
use lll_graphs::gen::{hyper_ring, ring};
use lll_local::Simulator;
use lll_obs::{NullRecorder, NullTiming};

fn bench_distributed(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_dist_rank2");
    for n in [256usize, 1024, 4096] {
        let graph = ring(n);
        let inst = random_rank2_instance(&graph, 8, 0.9, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let inst = black_box(inst);
                let schedule = Schedule::edge(inst.dependency_graph(), 5, 1).expect("converges");
                let sweep = Sweep::default();
                let rep = dist::run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
                    .expect("below threshold");
                assert!(rep.fix.is_success());
                rep.rounds
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("e6_dist_rank3");
    for n in [64usize, 256] {
        let h = hyper_ring(n);
        let inst = random_rank3_instance(&h, 8, 0.9, 7);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let inst = black_box(inst);
                let schedule =
                    Schedule::distance2(inst.dependency_graph(), 5, 1).expect("converges");
                let sweep = Sweep::default();
                let rep = dist::run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
                    .expect("below threshold");
                assert!(rep.fix.is_success());
                rep.rounds
            })
        });
    }
    g.finish();
}

fn bench_coloring(c: &mut Criterion) {
    let mut g = c.benchmark_group("coloring_subroutines");
    let graph = ring(4096);
    g.bench_function("vertex_delta_plus_one_ring4096", |b| {
        b.iter(|| {
            let sim = Simulator::with_shuffled_ids(black_box(&graph), 3);
            vertex_coloring(&sim, 100_000).expect("converges")
        })
    });
    g.bench_function("edge_coloring_ring4096", |b| {
        b.iter(|| {
            let sim = Simulator::with_shuffled_ids(black_box(&graph), 3);
            edge_coloring(&sim, 100_000).expect("converges")
        })
    });
    let dep = hyper_ring(512).dependency_graph();
    g.bench_function("distance2_hyperring512", |b| {
        b.iter(|| {
            let sim = Simulator::with_shuffled_ids(black_box(&dep), 3);
            distance2_coloring(&sim, 100_000).expect("converges")
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_distributed, bench_coloring
}
criterion_main!(benches);
