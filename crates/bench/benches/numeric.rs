//! Criterion kernels for the exact arithmetic: the two-`Small` gcd fast
//! path, and a product that overflows `i128` into the limb path.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lll_numeric::BigInt;

fn bench_numeric_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("numeric_kernels");

    // The two-`Small` gcd fast path (the overwhelmingly common case in
    // audited runs, which stay in `Small`).
    let (sa, sb) = (
        BigInt::from(0x1234_5678_9abc_def0_1234_5678_i128),
        BigInt::from(0x0fed_cba9_8765_4321_0fed_cba9_i128),
    );
    g.bench_function("gcd_small_fast_path", |bch| {
        bch.iter(|| black_box(&sa).gcd(black_box(&sb)))
    });

    // Two ~96-bit inline operands whose product overflows `i128`: the
    // fast path counts a promotion and hands over to the limb path.
    g.bench_function("mul_i128_overflow", |bch| {
        bch.iter(|| black_box(&sa) * black_box(&sb))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_numeric_kernels
}
criterion_main!(benches);
