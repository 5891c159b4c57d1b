//! Differential tests pinning the inline (`i128`) fast paths of
//! [`BigInt`] against the limb-vector reference implementations,
//! bit-for-bit, with operands straddling the inline/heap crossover at
//! `|v| = i128::MAX` — exactly where the representation switches and a
//! canonicalization bug would hide — plus heap values of 256 bits and
//! more.

use lll_numeric::{BigInt, BigRational, Num, Tier};
use proptest::prelude::*;

/// Operands concentrated around the inline/heap boundary: a random
/// offset applied to one of the representation-critical anchors, plus
/// plain multi-limb values.
fn crossover_bigint(anchor: u8, offset: i64, extra_limb: u32, negate: bool) -> BigInt {
    let base = match anchor % 8 {
        0 => BigInt::zero(),
        1 => BigInt::from(i64::MAX),
        2 => BigInt::from(i128::MAX), // last inline value
        3 => &BigInt::from(i128::MAX) + &BigInt::one(), // first heap value, 2^127
        4 => BigInt::from(i128::MIN), // heap despite fitting i128
        5 => &(&BigInt::one() << 130) + &BigInt::from(extra_limb), // clearly heap
        6 => &(&BigInt::one() << 256) - &BigInt::one(), // 256 bits
        _ => &BigInt::one() << (256 + (extra_limb % 64) as u64), // past 256 bits
    };
    let v = &base + &BigInt::from(offset);
    if negate {
        -v
    } else {
        v
    }
}

prop_compose! {
    fn arb_crossover()(
        anchor in any::<u8>(),
        offset in any::<i64>(),
        extra_limb in any::<u32>(),
        negate in any::<bool>(),
    ) -> BigInt {
        crossover_bigint(anchor, offset, extra_limb, negate)
    }
}

/// Asserts the canonical-form invariant on an operation result: inline
/// iff the magnitude fits `i128::MAX`, and the decimal round-trip (which
/// re-canonicalizes from scratch) rebuilds the same structure.
fn assert_canonical(v: &BigInt) {
    let fits = v.clone().max(-v) <= BigInt::from(i128::MAX);
    let want = if fits { Tier::Small } else { Tier::Heap };
    assert_eq!(v.tier(), want, "canonical form violated for {v}");
    assert_eq!(v.is_inline(), fits);
    let reparsed: BigInt = v.to_string().parse().unwrap();
    assert_eq!(&reparsed, v);
    assert_eq!(reparsed.tier(), v.tier());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Every ring operation must agree with the limb reference exactly —
    /// same value *and* same canonical representation (asserted via
    /// structural equality plus the tier invariant).
    #[test]
    fn fast_paths_match_limb_reference(a in arb_crossover(), b in arb_crossover()) {
        let sum = &a + &b;
        prop_assert_eq!(&sum, &a.limb_add(&b));
        let diff = &a - &b;
        prop_assert_eq!(&diff, &a.limb_sub(&b));
        let prod = &a * &b;
        prop_assert_eq!(&prod, &a.limb_mul(&b));
        prop_assert_eq!(a.cmp(&b), a.limb_cmp(&b));
        prop_assert_eq!(a == b, a.limb_cmp(&b).is_eq());
        let g = a.gcd(&b);
        prop_assert_eq!(&g, &a.limb_gcd(&b));
        prop_assert!(!g.is_negative());
        if !b.is_zero() {
            let (q, r) = a.divrem(&b);
            prop_assert_eq!((&q, &r), (&a.limb_divrem(&b).0, &a.limb_divrem(&b).1));
            prop_assert_eq!(&(&(&q * &b) + &r), &a);
        }
    }

    /// The canonical-form invariant holds for every result, on both
    /// sides of the crossover.
    #[test]
    fn results_are_canonical(a in arb_crossover(), b in arb_crossover()) {
        assert_canonical(&a);
        for v in [&a + &b, &a - &b, &a * &b, a.gcd(&b)] {
            assert_canonical(&v);
        }
        if !b.is_zero() {
            let (q, r) = a.divrem(&b);
            assert_canonical(&q);
            assert_canonical(&r);
        }
    }

    /// Shifts across the 127-bit inline budget and past 256 bits, and
    /// back.
    #[test]
    fn shifts_round_trip_across_crossover(a in arb_crossover(), bits in 0u64..300) {
        let up = &a << bits;
        assert_canonical(&up);
        prop_assert_eq!(&(&up >> bits), &a);
        // magnitude comparison: |a << bits| >= |a|
        prop_assert!(up.clone().max(-&up) >= a.clone().max(-&a));
    }

    /// BigRational built from crossover-spanning parts stays exact and
    /// fully reduced (its invariants rest on the BigInt gcd/divrem fast
    /// paths).
    #[test]
    fn rational_field_laws_across_crossover(
        n1 in arb_crossover(), n2 in arb_crossover(), d1 in arb_crossover(), d2 in arb_crossover()
    ) {
        prop_assume!(!d1.is_zero() && !d2.is_zero());
        let x = BigRational::new(n1, d1);
        let y = BigRational::new(n2, d2);
        prop_assert_eq!(&(&(&x + &y) - &y), &x);
        if !y.is_zero() {
            prop_assert_eq!(&(&(&x * &y) / &y), &x);
        }
        // Canonical invariants: positive denominator, reduced fraction.
        prop_assert!(x.denom().is_positive());
        prop_assert_eq!(x.numer().gcd(x.denom()), BigInt::one());
    }

    /// The two-`Small` GCD fast path (binary GCD on `u128`) is pinned to
    /// the limb reference over the full inline range.
    #[test]
    fn small_gcd_matches_limb_gcd(a in any::<i128>(), b in any::<i128>()) {
        let (a, b) = (BigInt::from(a), BigInt::from(b));
        prop_assert_eq!(&a.gcd(&b), &a.limb_gcd(&b));
    }
}

#[cfg(feature = "serde")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Serde round-trips preserve value *and* canonical tier on both
    /// sides of the crossover (every tier encodes as the same decimal
    /// string).
    #[test]
    fn serde_round_trips_across_crossover(a in arb_crossover()) {
        let json = serde_json::to_string(&a).unwrap();
        let back: BigInt = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &a);
        prop_assert_eq!(back.tier(), a.tier());
    }
}

/// Squares straddling the inline/heap boundary at `2^127`: roots near
/// `⌊√(2^127)⌋` whose squares land on either side, exercising the
/// square-root kernels of the exact decomposition right where the
/// representation switches.
#[test]
fn perfect_sqrt_at_the_inline_boundary() {
    // ⌊√(i128::MAX)⌋ — the largest root whose square is still inline.
    let root127 = BigInt::from(i128::MAX).isqrt();
    for d in -3i64..=3 {
        let r = &root127 + &BigInt::from(d);
        let sq = &r * &r;
        // The squares cross the boundary within this window.
        assert_eq!(sq.perfect_sqrt().as_ref(), Some(&r), "root {r}");
        assert_eq!(sq.isqrt(), r);
        // Off-by-one neighbours are never squares (consecutive squares
        // differ by 2r+1 > 2 here).
        assert_eq!((&sq + &BigInt::one()).perfect_sqrt(), None);
        assert_eq!((&sq - &BigInt::one()).perfect_sqrt(), None);
        // isqrt of the neighbours still floors correctly.
        assert_eq!((&sq + &BigInt::one()).isqrt(), r);
        assert_eq!((&sq - &BigInt::one()).isqrt(), &r - &BigInt::one());
    }
    // Sanity: the window really does straddle the tier boundary.
    let below = &root127 * &root127;
    let above = &(&root127 + &BigInt::one()) * &(&root127 + &BigInt::one());
    assert_eq!(below.tier(), Tier::Small);
    assert_eq!(above.tier(), Tier::Heap);
}

/// Same boundary through `Num::exact_sqrt` on rationals: numerators and
/// denominators whose squares straddle `2^127` must still produce exact
/// rational roots (or exactly `None`).
#[test]
fn exact_sqrt_at_the_inline_boundary() {
    let root127 = BigInt::from(i128::MAX).isqrt();
    for dn in -2i64..=2 {
        for dd in -2i64..=2 {
            let n = &root127 + &BigInt::from(dn);
            let d = &root127 + &BigInt::from(dd);
            let q = BigRational::new(&n * &n, &d * &d);
            let r = q.exact_sqrt().expect("ratio of squares has an exact root");
            assert_eq!(&(r.clone() * r.clone()), &q);
            assert!(!r.is_negative());
            // A non-square numerator must reject exactly.
            let off = BigRational::new(&(&n * &n) + &BigInt::one(), &d * &d);
            if off.exact_sqrt().is_some() {
                // Only possible if the bumped numerator is itself a
                // square — rule it out explicitly.
                assert!((&(&n * &n) + &BigInt::one()).perfect_sqrt().is_some());
            }
        }
    }
}

/// Two tiers keep a `BigInt` at two words plus the inline `i128`, and a
/// `BigRational` at two of them.
#[test]
fn bigint_is_32_bytes() {
    assert_eq!(std::mem::size_of::<BigInt>(), 32);
    assert_eq!(std::mem::size_of::<BigRational>(), 64);
}
