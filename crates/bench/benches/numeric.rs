//! Criterion kernels for experiment E22: the fixed-width 256-bit
//! `Wide` tier against the `#[doc(hidden)]` `limb_*` reference methods
//! on the same operands, plus the two-`Small` gcd fast path. The
//! reference timings include materializing both operands as limb
//! vectors, which is part of what the `Wide` tier saves.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lll_numeric::{BigInt, BigRational};

/// Two ~200-bit operands, inside the `Wide` window.
fn mid_operands() -> (BigInt, BigInt) {
    let a = &(&BigInt::one() << 200) + &BigInt::from(0x1234_5678_9abc_def0_i128);
    let b = &(&BigInt::one() << 197) + &BigInt::from(0xfeed_face_cafe_f00d_i128);
    (a, b)
}

fn bench_wide_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("e22_wide_kernels");
    let (a, b) = mid_operands();
    g.bench_function("mul_200bit_wide", |bch| {
        bch.iter(|| black_box(&a) * black_box(&b))
    });
    g.bench_function("mul_200bit_limb", |bch| {
        bch.iter(|| black_box(&a).limb_mul(black_box(&b)))
    });
    g.bench_function("add_200bit_wide", |bch| {
        bch.iter(|| black_box(&a) + black_box(&b))
    });
    g.bench_function("add_200bit_limb", |bch| {
        bch.iter(|| black_box(&a).limb_add(black_box(&b)))
    });
    g.bench_function("divrem_200bit_wide", |bch| {
        bch.iter(|| black_box(&a).divrem(black_box(&b)))
    });
    g.bench_function("divrem_200bit_limb", |bch| {
        bch.iter(|| black_box(&a).limb_divrem(black_box(&b)))
    });
    g.bench_function("gcd_200bit_wide", |bch| {
        bch.iter(|| black_box(&a).gcd(black_box(&b)))
    });
    g.bench_function("gcd_200bit_limb", |bch| {
        bch.iter(|| black_box(&a).limb_gcd(black_box(&b)))
    });

    // The engine's inner-loop shape at this magnitude: a rational
    // product whose normalization gcds land in the mid window.
    let num = BigRational::from_ratio(823_543, 1_048_576);
    let mut acc = BigRational::one();
    for _ in 0..12 {
        acc = &acc * &num;
    }
    g.bench_function("rational_mul_mid_wide", |bch| {
        bch.iter(|| black_box(&acc) * black_box(&num))
    });

    // The two-`Small` gcd fast path (the overwhelmingly common case in
    // audited runs — E22's rank-2 pass never leaves `Small`).
    let (sa, sb) = (
        BigInt::from(0x1234_5678_9abc_def0_1234_5678_i128),
        BigInt::from(0x0fed_cba9_8765_4321_0fed_cba9_i128),
    );
    g.bench_function("gcd_small_fast_path", |bch| {
        bch.iter(|| black_box(&sa).gcd(black_box(&sb)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_wide_kernels
}
criterion_main!(benches);
