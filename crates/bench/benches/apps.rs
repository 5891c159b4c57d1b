//! Benchmarks for the applications (experiment E8): building each
//! application instance and solving it with the deterministic pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lll_apps::hyper_orientation::hyper_orientation_instance;
use lll_apps::sat::{ring_formula, solve};
use lll_apps::weak_splitting::weak_splitting_instance;
use lll_core::dist::{self, Schedule, Sweep};
use lll_core::Fixer3;
use lll_graphs::gen::{hyper_ring, random_bipartite_biregular};
use lll_obs::{NullRecorder, NullTiming};

fn bench_apps(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_applications");

    let h = hyper_ring(48);
    g.bench_function("hyper_orientation_build+fix_48", |b| {
        b.iter(|| {
            let inst = hyper_orientation_instance::<f64>(black_box(&h)).expect("valid input");
            Fixer3::new(&inst).expect("below threshold").run_default()
        })
    });
    let inst = hyper_orientation_instance::<f64>(&h).expect("valid input");
    g.bench_function("hyper_orientation_distributed_48", |b| {
        b.iter(|| {
            let inst = black_box(&inst);
            let schedule = Schedule::distance2(inst.dependency_graph(), 3, 1).expect("converges");
            let sweep = Sweep::default();
            dist::run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
                .expect("below threshold")
        })
    });

    let bip = random_bipartite_biregular(48, 3, 48, 3, 5).expect("feasible parameters");
    g.bench_function("weak_splitting_build+fix_48", |b| {
        b.iter(|| {
            let inst =
                weak_splitting_instance::<f64>(black_box(&bip), 48, 16).expect("valid input");
            Fixer3::new(&inst).expect("below threshold").run_default()
        })
    });

    let cnf = ring_formula(48, 5, 13);
    g.bench_function("sat_solve_48_clauses", |b| {
        b.iter(|| solve(black_box(&cnf)).expect("inside the regime"))
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_apps
}
criterion_main!(benches);
