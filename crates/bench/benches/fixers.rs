//! Benchmarks for the sequential fixers (experiments E1/E5 kernels and
//! ablation A1): full fixing passes per instance, both value rules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lll_bench::workloads::{
    random_rank2_instance, random_rank3_instance, random_rank3_instance_in, shuffled_order,
};
use lll_core::{audit_p_star, Fixer2, Fixer3, ValueRule};
use lll_graphs::gen::{hyper_ring, ring, torus};
use lll_numeric::BigRational;
use lll_obs::{NullRecorder, NullTiming};

fn bench_fixer2(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_fixer2");
    for (label, graph) in [("ring-64", ring(64)), ("torus-8x8", torus(8, 8))] {
        let inst = random_rank2_instance(&graph, 4, 0.9, 7);
        let order = shuffled_order(inst.num_variables(), 3);
        g.bench_with_input(BenchmarkId::from_parameter(label), &inst, |b, inst| {
            b.iter(|| {
                let report = Fixer2::new(black_box(inst))
                    .expect("below threshold")
                    .run(order.clone())
                    .expect("finite costs below the threshold");
                assert!(report.is_success());
                report
            })
        });
    }
    g.finish();
}

fn bench_fixer3(c: &mut Criterion) {
    let mut g = c.benchmark_group("e5_fixer3");
    for n in [24usize, 48, 96] {
        let h = hyper_ring(n);
        let inst = random_rank3_instance(&h, 8, 0.9, 7);
        let order = shuffled_order(inst.num_variables(), 3);
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                let report = Fixer3::new(black_box(inst))
                    .expect("below threshold")
                    .run(order.clone())
                    .expect("finite costs below the threshold");
                assert!(report.is_success());
                report
            })
        });
    }
    // Exact backend with the P* audit after every fixing step — the
    // configuration the invariant experiments run. "exact-audit" uses
    // the incremental auditor (Fixer3::run_with); "exact-audit-full"
    // is the full-rescan-per-step ablation it replaced.
    for n in [24usize, 48] {
        let h = hyper_ring(n);
        let inst = random_rank3_instance_in::<BigRational>(&h, 8, 0.9, 7);
        let order = shuffled_order(inst.num_variables(), 3);
        let p = inst.max_event_probability();
        g.bench_with_input(BenchmarkId::new("exact-audit", n), &inst, |b, inst| {
            b.iter(|| {
                let report = Fixer3::new(black_box(inst))
                    .expect("below threshold")
                    .run_with(
                        order.clone(),
                        Some((&p, &BigRational::zero())),
                        &mut NullRecorder,
                        &mut NullTiming,
                    )
                    .expect("P* holds below the threshold");
                assert!(report.is_success());
                report
            })
        });
        g.bench_with_input(BenchmarkId::new("exact-audit-full", n), &inst, |b, inst| {
            b.iter(|| {
                let mut fixer = Fixer3::new(black_box(inst)).expect("below threshold");
                for &x in &order {
                    fixer.fix_variable(x).expect("finite costs");
                    let audit =
                        audit_p_star(inst, fixer.partial(), fixer.phi(), &p, &BigRational::zero());
                    assert!(audit.holds());
                }
                let report = fixer.into_report();
                assert!(report.is_success());
                report
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("a1_value_rule");
    let h = hyper_ring(48);
    let inst = random_rank3_instance(&h, 8, 0.9, 7);
    let order = shuffled_order(inst.num_variables(), 3);
    for (label, rule) in [
        ("best-score", ValueRule::BestScore),
        ("first-feasible", ValueRule::FirstFeasible),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &rule, |b, &rule| {
            b.iter(|| {
                Fixer3::new(black_box(&inst))
                    .expect("below threshold")
                    .with_rule(rule)
                    .run(order.clone())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_fixer2, bench_fixer3
}
criterion_main!(benches);
