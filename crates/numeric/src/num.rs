//! The arithmetic-backend abstraction.
//!
//! Every algorithm in the workspace — the probability engine, the
//! representable-triple geometry and both fixers — is generic over a
//! numeric backend implementing [`Num`]. Two backends are provided:
//!
//! * [`BigRational`] — exact. Used in tests and whenever an audit of the
//!   paper's property `P*` must be airtight.
//! * `f64` — fast. Used by the benchmark harness; geometric membership
//!   tests performed through this backend should apply a small relative
//!   slack ([`F64_MARGIN`]) which the callers in `lll-core` add on the
//!   conservative side.

use std::fmt::{Debug, Display};
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::rational::BigRational;

/// Relative slack recommended when comparing derived `f64` quantities
/// (e.g. membership of a triple in `S_rep`) so rounding noise cannot flip a
/// decision the exact backend would make the other way.
pub const F64_MARGIN: f64 = 1e-9;

/// A numeric backend: an ordered field with the extra primitives the
/// representable-triple geometry needs.
///
/// Implemented by `f64` (fast, approximate) and [`BigRational`] (exact).
/// The arithmetic operator bounds are on owned values; generic code clones
/// operands, which is free for `f64` and cheap relative to the bignum
/// operations themselves for [`BigRational`].
///
/// `Send + Sync` are supertraits so that instances built over any
/// backend can be shared read-only with the LOCAL simulator's worker
/// threads; both provided backends are plain owned data.
pub trait Num:
    Clone
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;

    /// Multiplicative identity.
    fn one() -> Self;

    /// The exact value `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    fn from_ratio(num: i64, den: u64) -> Self;

    /// Best-effort conversion from `f64` (exact for the rational backend —
    /// every finite `f64` is dyadic).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite.
    fn from_f64_approx(v: f64) -> Self;

    /// Approximate `f64` value.
    fn to_f64(&self) -> f64;

    /// Whether this backend makes exact decisions (`true` for
    /// [`BigRational`], `false` for `f64`).
    fn is_exact() -> bool;

    /// The value as an exact rational: `Some` for [`BigRational`],
    /// `None` for `f64`. Together with [`from_rational`](Num::from_rational)
    /// this is the seam through which generic code runs integer kernels
    /// on exact backends; the branch resolves at monomorphization.
    fn as_rational(&self) -> Option<&BigRational>;

    /// The backend value of an exact rational (the identity for
    /// [`BigRational`]; `f64` rounds, and its callers never reach it).
    fn from_rational(r: BigRational) -> Self;

    /// Decides `sqrt(radicand) <= bound` (for `radicand >= 0`).
    ///
    /// Exact backends decide this via `bound >= 0 && radicand <= bound²`;
    /// the `f64` backend compares square roots directly.
    ///
    /// # Panics
    ///
    /// May panic if `radicand` is negative.
    fn sqrt_leq(radicand: &Self, bound: &Self) -> bool;

    /// Returns `true` iff the value is zero.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Returns `true` iff the value is strictly positive.
    fn is_positive(&self) -> bool {
        *self > Self::zero()
    }

    /// Returns `true` iff the value is strictly negative.
    fn is_negative(&self) -> bool {
        *self < Self::zero()
    }

    /// Midpoint of two values, `(a + b) / 2` — used by the exact ternary
    /// search in the triple-decomposition routine.
    fn midpoint(a: &Self, b: &Self) -> Self {
        (a.clone() + b.clone()) / Self::from_ratio(2, 1)
    }

    /// Square root if *exactly* representable in the backend, else `None`
    /// (negative values never are).
    ///
    /// The default synthesises a candidate through `f64` and falls back to
    /// a dyadic bisection, which can only discover **dyadic** roots — good
    /// enough for `f64`, where every value is dyadic. Exact backends must
    /// override it: [`BigRational`] returns perfect rational roots such as
    /// `√(7744/2025) = 88/45`, which no dyadic search can reach. The
    /// triple-decomposition boundary fallback (`lll-core`) depends on this
    /// for triples lying exactly on the surface `c = f(a, b)`.
    fn exact_sqrt(&self) -> Option<Self> {
        if self.is_negative() {
            return None;
        }
        let f = self.to_f64();
        if !f.is_finite() {
            return None;
        }
        let guess = Self::from_f64_approx(f.sqrt());
        if guess.clone() * guess.clone() == *self {
            return Some(guess);
        }
        // The f64 guess may be off; try neighbouring dyadics via a short
        // bisection around the guess.
        let mut lo = Self::zero();
        let mut hi = guess + Self::one();
        for _ in 0..256 {
            let mid = Self::midpoint(&lo, &hi);
            let sq = mid.clone() * mid.clone();
            if sq == *self {
                return Some(mid);
            }
            if sq < *self {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        None
    }

    /// Product of a sequence of factors — the φ-product kernel used by
    /// `Phi::product_at` and the `P*` auditors.
    ///
    /// The default is the literal left fold `acc = acc * f.clone()` that
    /// the call sites historically inlined, so the `f64` backend's
    /// rounding *sequence* (and hence every recorded stream byte) is
    /// unchanged. [`BigRational`] overrides it to accumulate numerators
    /// and denominators separately and renormalize **once**; canonical
    /// -form uniqueness makes the result structurally identical to the
    /// reduce-per-step fold while skipping the intermediate gcds.
    fn product_of<'a, I>(factors: I) -> Self
    where
        I: IntoIterator<Item = &'a Self>,
        Self: 'a,
    {
        let mut p = Self::one();
        for f in factors {
            p = p * f.clone();
        }
        p
    }

    /// Sum of a sequence of terms — the kernel of the representability
    /// polynomial `r = 8 + ab − 2a − 2b − 2c` (`lll-core`'s `triples`).
    ///
    /// The default is the literal left fold `acc = acc + t.clone()`
    /// starting from zero, so the `f64` backend's rounding sequence is
    /// that of the inline sum. [`BigRational`] overrides it with a raw
    /// numerator/denominator accumulator that turns same-denominator runs
    /// into plain integer additions, normalizing once; exact
    /// associativity plus canonical-form uniqueness make the result
    /// structurally identical.
    fn sum_of<'a, I>(terms: I) -> Self
    where
        I: IntoIterator<Item = &'a Self>,
        Self: 'a,
    {
        let mut acc = Self::zero();
        for t in terms {
            acc = acc + t.clone();
        }
        acc
    }

    /// The fixers' combined update step `(a / c) · b`, with `inc_given`'s
    /// zero-divisor convention: a zero `c` yields an `Inc` of zero (the
    /// "φ entry already zero" fast path), so the result is `0 · b`.
    ///
    /// The default performs literally `(if c = 0 { 0 } else { a / c }) · b`
    /// — the exact operation sequence the fixers used before batching, so
    /// `f64` results are bit-identical, including NaN propagation when
    /// `b` is non-finite. [`BigRational`] overrides it with a single
    /// renormalization over the combined numerator and denominator.
    fn mul_div(a: Self, b: Self, c: Self) -> Self {
        let inc = if c.is_zero() { Self::zero() } else { a / c };
        inc * b
    }
}

impl Num for f64 {
    fn zero() -> Self {
        0.0
    }

    fn one() -> Self {
        1.0
    }

    fn from_ratio(num: i64, den: u64) -> Self {
        assert!(den != 0, "from_ratio with zero denominator");
        num as f64 / den as f64
    }

    fn from_f64_approx(v: f64) -> Self {
        assert!(v.is_finite(), "from_f64_approx of non-finite value");
        v
    }

    fn to_f64(&self) -> f64 {
        *self
    }

    fn is_exact() -> bool {
        false
    }

    fn as_rational(&self) -> Option<&BigRational> {
        None
    }

    fn from_rational(r: BigRational) -> Self {
        r.to_f64()
    }

    fn sqrt_leq(radicand: &Self, bound: &Self) -> bool {
        debug_assert!(*radicand >= -F64_MARGIN, "negative radicand {radicand}");
        radicand.max(0.0).sqrt() <= *bound
    }
}

impl Num for BigRational {
    fn zero() -> Self {
        BigRational::zero()
    }

    fn one() -> Self {
        BigRational::one()
    }

    fn from_ratio(num: i64, den: u64) -> Self {
        BigRational::from_ratio(num, den)
    }

    fn from_f64_approx(v: f64) -> Self {
        BigRational::from_f64(v).expect("from_f64_approx of non-finite value")
    }

    fn to_f64(&self) -> f64 {
        BigRational::to_f64(self)
    }

    fn is_exact() -> bool {
        true
    }

    fn as_rational(&self) -> Option<&BigRational> {
        Some(self)
    }

    fn from_rational(r: BigRational) -> Self {
        r
    }

    fn sqrt_leq(radicand: &Self, bound: &Self) -> bool {
        BigRational::sqrt_leq(radicand, bound)
    }

    fn is_zero(&self) -> bool {
        BigRational::is_zero(self)
    }

    fn is_positive(&self) -> bool {
        BigRational::is_positive(self)
    }

    fn is_negative(&self) -> bool {
        BigRational::is_negative(self)
    }

    fn exact_sqrt(&self) -> Option<Self> {
        BigRational::perfect_sqrt(self)
    }

    fn product_of<'a, I>(factors: I) -> Self
    where
        I: IntoIterator<Item = &'a Self>,
    {
        // Multiply numerators and denominators separately and reduce
        // once at the end: each factor is canonical, so the single
        // renormalization yields the same canonical pair as reducing
        // after every step — with one gcd instead of one per factor.
        // Zero- and one-factor products short-circuit without touching
        // the renormalization at all (a lone factor is already
        // canonical).
        let mut it = factors.into_iter();
        let Some(first) = it.next() else {
            return BigRational::one();
        };
        let Some(second) = it.next() else {
            return first.clone();
        };
        let mut num = first.numer() * second.numer();
        let mut den = first.denom() * second.denom();
        for f in it {
            num = &num * f.numer();
            den = &den * f.denom();
        }
        BigRational::new(num, den)
    }

    fn sum_of<'a, I>(terms: I) -> Self
    where
        I: IntoIterator<Item = &'a Self>,
    {
        BigRational::sum_of_refs(terms)
    }

    fn mul_div(a: Self, b: Self, c: Self) -> Self {
        if c.is_zero() {
            return BigRational::zero();
        }
        // Reduce in two stages rather than once over the combined
        // six-factor pair: the staged gcds stay within the inline/u128
        // fast path for the magnitudes the fixers produce, where the
        // combined pair would cross into the wide tier. Both routes end
        // at the same canonical value.
        (a / c) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend_smoke<T: Num>() {
        let half = T::from_ratio(1, 2);
        let quarter = half.clone() * half.clone();
        assert_eq!(quarter, T::from_ratio(1, 4));
        assert!(quarter < half);
        assert_eq!(half.clone() + half.clone(), T::one());
        assert_eq!(T::one() - T::one(), T::zero());
        assert!(T::zero().is_zero());
        assert!(T::one().is_positive());
        assert!((-T::one()).is_negative());
        assert_eq!(T::midpoint(&T::zero(), &T::one()), half);
        // sqrt(1/4) = 1/2
        assert!(T::sqrt_leq(&quarter, &half));
        assert!(!T::sqrt_leq(&quarter, &T::from_ratio(49, 100)));
        assert!((T::from_ratio(-7, 4).to_f64() + 1.75).abs() < 1e-12);
    }

    #[test]
    fn f64_backend() {
        backend_smoke::<f64>();
        assert!(!<f64 as Num>::is_exact());
    }

    #[test]
    fn rational_backend() {
        backend_smoke::<BigRational>();
        assert!(<BigRational as Num>::is_exact());
    }

    #[test]
    fn rational_seam() {
        let r = BigRational::from_ratio(-3, 8);
        assert_eq!(r.as_rational(), Some(&r));
        assert_eq!(BigRational::from_rational(r.clone()), r);
        assert_eq!(0.25f64.as_rational(), None);
        assert_eq!(f64::from_rational(r), -0.375);
    }

    #[test]
    fn exact_sqrt_finds_non_dyadic_rational_roots() {
        // 7744/2025 = (88/45)²; 88/45 is not dyadic, so the default
        // (dyadic-bisection) implementation cannot find it — the
        // BigRational override must.
        let d = BigRational::new(7744u32.into(), 2025u32.into());
        let r = Num::exact_sqrt(&d).expect("perfect rational square");
        assert_eq!(r, BigRational::new(88u32.into(), 45u32.into()));
        assert_eq!(Num::exact_sqrt(&BigRational::from_ratio(2, 1)), None);
        assert_eq!(Num::exact_sqrt(&BigRational::from_ratio(-4, 1)), None);
        // f64 keeps the default: perfect squares of dyadics round-trip.
        assert_eq!(2.25f64.exact_sqrt(), Some(1.5));
        assert_eq!((-1.0f64).exact_sqrt(), None);
    }

    #[test]
    fn batched_kernels_match_stepwise() {
        fn check<T: Num>() {
            let f = [
                T::from_ratio(3, 4),
                T::from_ratio(7, 6),
                T::from_ratio(-2, 9),
                T::zero(),
                T::from_ratio(11, 5),
            ];
            for n in 0..=f.len() {
                let step = f[..n].iter().fold(T::one(), |acc, x| acc * x.clone());
                assert_eq!(T::product_of(f[..n].iter()), step, "prefix {n}");
                let step = f[..n].iter().fold(T::zero(), |acc, x| acc + x.clone());
                assert_eq!(T::sum_of(f[..n].iter()), step, "sum prefix {n}");
            }
            // Same-denominator runs exercise the integer-add fast branch.
            let same_den = [
                T::from_ratio(1, 16),
                T::from_ratio(3, 16),
                T::from_ratio(-5, 16),
                T::from_ratio(7, 16),
            ];
            let step = same_den.iter().fold(T::zero(), |acc, x| acc + x.clone());
            assert_eq!(T::sum_of(same_den.iter()), step);
            let (a, b, c) = (
                T::from_ratio(5, 8),
                T::from_ratio(-9, 2),
                T::from_ratio(3, 7),
            );
            assert_eq!(
                T::mul_div(a.clone(), b.clone(), c.clone()),
                (a.clone() / c) * b
            );
            // Zero divisor: the inc_given convention yields zero.
            assert_eq!(T::mul_div(a, T::from_ratio(4, 1), T::zero()), T::zero());
        }
        check::<f64>();
        check::<BigRational>();
        assert_eq!(
            BigRational::product_of(std::iter::empty::<&BigRational>()),
            BigRational::one()
        );
    }

    #[test]
    fn from_f64_approx_is_exact_for_rationals() {
        let r = BigRational::from_f64_approx(0.1);
        // 0.1 is not exactly 1/10 in binary; the conversion must be the
        // exact dyadic value, not a decimal re-interpretation.
        assert_ne!(r, BigRational::from_ratio(1, 10));
        assert_eq!(r.to_f64(), 0.1);
    }
}
