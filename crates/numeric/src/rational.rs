//! Exact rational numbers with [`BigInt`] numerator and denominator.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{BigInt, ParseBigIntError, Sign};

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive, the fraction is fully
/// reduced, and zero is represented as `0/1`. Structural equality therefore
/// coincides with numeric equality.
///
/// # Examples
///
/// ```
/// use lll_numeric::BigRational;
///
/// let p = BigRational::from_ratio(2, 6);
/// assert_eq!(p, BigRational::from_ratio(1, 3));
/// assert_eq!((&p * &BigRational::from_ratio(3, 1)).to_string(), "1");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRational {
    num: BigInt,
    den: BigInt,
}

impl BigRational {
    /// The value `0`.
    pub fn zero() -> BigRational {
        BigRational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The value `1`.
    pub fn one() -> BigRational {
        BigRational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Creates `num/den` from primitive parts.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: u64) -> BigRational {
        BigRational::new(BigInt::from(num), BigInt::from(den))
    }

    /// Creates `num/den` from big parts, normalizing sign and reducing.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> BigRational {
        assert!(!den.is_zero(), "zero denominator in BigRational");
        if num.is_zero() {
            return BigRational::zero();
        }
        // A magnitude-1 numerator or denominator makes the fraction
        // already reduced (gcd 1): skip the gcd *and* the two divisions.
        // `bit_len() == 1` is exactly "magnitude is 1", and a gcd that
        // comes back 1 likewise short-circuits the divisions — both
        // rewrites produce the identical canonical pair.
        let (mut num, mut den) = if num.bit_len() == 1 || den.bit_len() == 1 {
            (num, den)
        } else {
            let g = num.gcd(&den);
            if g.bit_len() == 1 {
                (num, den)
            } else {
                (&num / &g, &den / &g)
            }
        };
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        BigRational { num, den }
    }

    /// Creates a rational from a whole [`BigInt`].
    pub fn from_int(v: BigInt) -> BigRational {
        BigRational {
            num: v,
            den: BigInt::one(),
        }
    }

    /// The exact value of an `f64` (every finite `f64` is a dyadic
    /// rational). Returns `None` for NaN and infinities.
    pub fn from_f64(v: f64) -> Option<BigRational> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(BigRational::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 {
            Sign::Minus
        } else {
            Sign::Plus
        };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if exp == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1 << 52), exp - 1075)
        };
        let mag = BigInt::from(mantissa);
        let mag = if sign == Sign::Minus { -mag } else { mag };
        Some(if exp >= 0 {
            BigRational::from_int(&mag << exp as u64)
        } else {
            BigRational::new(mag, &BigInt::one() << (-exp) as u64)
        })
    }

    /// Numerator (carries the sign).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRational {
        BigRational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> BigRational {
        assert!(!self.is_zero(), "reciprocal of zero");
        BigRational::new(self.den.clone(), self.num.clone())
    }

    /// Raises to an integer power (negative exponents invert).
    ///
    /// # Panics
    ///
    /// Panics if the value is zero and `exp < 0`.
    pub fn pow(&self, exp: i32) -> BigRational {
        let mag = exp.unsigned_abs();
        let r = BigRational {
            num: self.num.pow(mag),
            den: self.den.pow(mag),
        };
        if exp < 0 {
            r.recip()
        } else {
            r
        }
    }

    /// Approximate `f64` value.
    pub fn to_f64(&self) -> f64 {
        // Scale so that the integer division keeps ~80 bits of precision,
        // then undo the scaling in chunks so exponents far outside the f64
        // range (e.g. subnormal results) are still handled gracefully.
        let nb = self.num.bit_len() as i64;
        let db = self.den.bit_len() as i64;
        let shift = (db - nb + 80).max(0) as u64;
        let scaled = &(&self.num << shift) / &self.den;
        let mut v = scaled.to_f64();
        let mut rem = shift;
        while rem > 0 {
            let step = rem.min(512) as i32;
            v *= 2f64.powi(-step);
            rem -= step as u64;
        }
        v
    }

    /// Decides `sqrt(radicand) <= bound` exactly.
    ///
    /// This is the primitive behind the exact membership test for the set
    /// of representable triples (`lll-core`).
    ///
    /// # Panics
    ///
    /// Panics if `radicand` is negative.
    pub fn sqrt_leq(radicand: &BigRational, bound: &BigRational) -> bool {
        assert!(!radicand.is_negative(), "sqrt_leq of negative radicand");
        if bound.is_negative() {
            return false;
        }
        radicand <= &(bound * bound)
    }

    /// Returns the exact square root if the value is a perfect rational
    /// square, else `None`.
    pub fn perfect_sqrt(&self) -> Option<BigRational> {
        let n = self.num.perfect_sqrt()?;
        let d = self.den.perfect_sqrt()?;
        Some(BigRational { num: n, den: d })
    }

    /// `a ± b` for canonical operands. A zero operand short-circuits to
    /// a clone — identities of exact addition, so the result is the
    /// canonical pair the cross-multiply would produce, without its gcd.
    fn add_sub(a: &BigRational, b: &BigRational, subtract: bool) -> BigRational {
        if b.is_zero() {
            return a.clone();
        }
        let b_num = if subtract {
            -b.num.clone()
        } else {
            b.num.clone()
        };
        if a.is_zero() {
            return BigRational {
                num: b_num,
                den: b.den.clone(),
            };
        }
        BigRational::new(&(&a.num * &b.den) + &(&b_num * &a.den), &a.den * &b.den)
    }

    /// Returns `true` iff the value is exactly 1 (`num == den` holds
    /// only for 1 in canonical form).
    fn is_one(&self) -> bool {
        self.num == self.den
    }

    /// Exact sum of `terms` in one pass: the accumulator is kept as a
    /// *raw* numerator/denominator pair so consecutive terms over the
    /// same denominator cost a single integer addition instead of a
    /// cross-multiply plus gcd. Rational addition is exactly associative
    /// and canonical forms are unique, so the final [`BigRational::new`]
    /// yields bit-for-bit the value of the naive left fold.
    pub(crate) fn sum_of_refs<'a, I>(terms: I) -> BigRational
    where
        I: IntoIterator<Item = &'a BigRational>,
    {
        let mut num = BigInt::zero();
        let mut den = BigInt::one();
        for t in terms {
            if t.num.is_zero() {
                continue;
            }
            if num.is_zero() {
                num = t.num.clone();
                den = t.den.clone();
            } else if t.den == den {
                num = &num + &t.num;
            } else {
                num = &(&num * &t.den) + &(&t.num * &den);
                den = &den * &t.den;
                // Keep the raw pair bounded: normalise once the
                // denominator outgrows 256 bits.
                if den.bit_len() > 256 {
                    let r = BigRational::new(num, den);
                    num = r.num;
                    den = r.den;
                }
            }
        }
        BigRational::new(num, den)
    }

    /// Minimum of two values (by reference, cloning the smaller).
    pub fn min(a: &BigRational, b: &BigRational) -> BigRational {
        if a <= b {
            a.clone()
        } else {
            b.clone()
        }
    }

    /// Maximum of two values (by reference, cloning the larger).
    pub fn max(a: &BigRational, b: &BigRational) -> BigRational {
        if a >= b {
            a.clone()
        } else {
            b.clone()
        }
    }
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl From<BigInt> for BigRational {
    fn from(v: BigInt) -> Self {
        BigRational::from_int(v)
    }
}

macro_rules! impl_from_prim {
    ($($t:ty),*) => {$(
        impl From<$t> for BigRational {
            fn from(v: $t) -> Self {
                BigRational::from_int(BigInt::from(v))
            }
        }
    )*};
}

impl_from_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Different signs decide without any multiplication; a shared
        // denominator reduces to a numerator compare. Otherwise
        // a/b <=> c/d iff a*d <=> c*b (b, d > 0).
        let sa = i8::from(self.num.is_positive()) - i8::from(self.num.is_negative());
        let sb = i8::from(other.num.is_positive()) - i8::from(other.num.is_negative());
        if sa != sb {
            return sa.cmp(&sb);
        }
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Add for &BigRational {
    type Output = BigRational;
    fn add(self, other: &BigRational) -> BigRational {
        BigRational::add_sub(self, other, false)
    }
}

impl Sub for &BigRational {
    type Output = BigRational;
    fn sub(self, other: &BigRational) -> BigRational {
        BigRational::add_sub(self, other, true)
    }
}

impl Mul for &BigRational {
    type Output = BigRational;
    fn mul(self, other: &BigRational) -> BigRational {
        // Annihilator and identity fast paths return the exact canonical
        // result without the product's gcd.
        if self.is_zero() || other.is_zero() {
            return BigRational::zero();
        }
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        BigRational::new(&self.num * &other.num, &self.den * &other.den)
    }
}

impl Div for &BigRational {
    type Output = BigRational;
    fn div(self, other: &BigRational) -> BigRational {
        assert!(!other.is_zero(), "division by zero BigRational");
        if self.is_zero() {
            return BigRational::zero();
        }
        if other.is_one() {
            return self.clone();
        }
        BigRational::new(&self.num * &other.den, &self.den * &other.num)
    }
}

impl Neg for &BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational {
            num: -(&self.num),
            den: self.den.clone(),
        }
    }
}

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational {
            num: -self.num,
            den: self.den,
        }
    }
}

macro_rules! forward_owned_binop {
    ($($tr:ident :: $m:ident),*) => {$(
        impl $tr for BigRational {
            type Output = BigRational;
            fn $m(self, other: BigRational) -> BigRational {
                (&self).$m(&other)
            }
        }
        impl $tr<&BigRational> for BigRational {
            type Output = BigRational;
            fn $m(self, other: &BigRational) -> BigRational {
                (&self).$m(other)
            }
        }
        impl $tr<BigRational> for &BigRational {
            type Output = BigRational;
            fn $m(self, other: BigRational) -> BigRational {
                self.$m(&other)
            }
        }
    )*};
}

forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&BigRational> for BigRational {
    fn add_assign(&mut self, other: &BigRational) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigRational> for BigRational {
    fn sub_assign(&mut self, other: &BigRational) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigRational> for BigRational {
    fn mul_assign(&mut self, other: &BigRational) {
        *self = &*self * other;
    }
}

impl FromStr for BigRational {
    type Err = ParseBigIntError;

    /// Parses `"a"` or `"a/b"` decimal forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            None => Ok(BigRational::from_int(s.parse()?)),
            Some((n, d)) => {
                let den: BigInt = d.parse()?;
                if den.is_zero() {
                    return Err(ParseBigIntError::new(s));
                }
                Ok(BigRational::new(n.parse()?, den))
            }
        }
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == BigInt::one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn reduction_and_canonical_form() {
        assert_eq!(q(2, 4), q(1, 2));
        assert_eq!(q(-2, 4), q(-1, 2));
        assert_eq!(q(0, 7), BigRational::zero());
        assert_eq!(q(0, 7).denom(), &BigInt::one());
        let neg_den = BigRational::new(BigInt::from(3), BigInt::from(-6));
        assert_eq!(neg_den, q(-1, 2));
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(&q(1, 3) + &q(1, 6), q(1, 2));
        assert_eq!(&q(1, 3) - &q(1, 2), q(-1, 6));
        assert_eq!(&q(2, 3) * &q(3, 4), q(1, 2));
        assert_eq!(&q(2, 3) / &q(4, 3), q(1, 2));
        assert_eq!(q(3, 7).recip(), q(7, 3));
        assert_eq!(-q(3, 7), q(-3, 7));
    }

    #[test]
    fn ordering() {
        assert!(q(1, 3) < q(1, 2));
        assert!(q(-1, 2) < q(-1, 3));
        assert!(q(7, 7) == BigRational::one());
        let mut v = vec![q(3, 2), q(-1, 5), q(0, 1), q(22, 7)];
        v.sort();
        assert_eq!(v, vec![q(-1, 5), q(0, 1), q(3, 2), q(22, 7)]);
    }

    #[test]
    fn pow() {
        assert_eq!(q(2, 3).pow(3), q(8, 27));
        assert_eq!(q(2, 3).pow(-2), q(9, 4));
        assert_eq!(q(5, 1).pow(0), BigRational::one());
    }

    #[test]
    fn f64_roundtrips() {
        for v in [0.0, 1.0, -1.5, 0.1, 1e-300, 12345.6789, -2f64.powi(-1074)] {
            let r = BigRational::from_f64(v).unwrap();
            assert_eq!(r.to_f64(), v, "roundtrip {v}");
        }
        assert_eq!(BigRational::from_f64(0.5), Some(q(1, 2)));
        assert_eq!(BigRational::from_f64(f64::NAN), None);
        assert_eq!(BigRational::from_f64(f64::INFINITY), None);
    }

    #[test]
    fn from_f64_subnormal_and_boundary_exactness() {
        let one = BigInt::one();
        // Smallest positive subnormal: exactly 2^-1074.
        let tiny = BigRational::from_f64(f64::from_bits(1)).unwrap();
        assert_eq!(tiny, BigRational::new(one.clone(), &one << 1074));
        assert!(tiny.is_positive());
        // Largest subnormal: (2^52 − 1) · 2^-1074.
        let max_sub = BigRational::from_f64(f64::from_bits((1u64 << 52) - 1)).unwrap();
        assert_eq!(
            max_sub,
            BigRational::new(&(&one << 52) - &one, &one << 1074)
        );
        // Smallest normal: exactly 2^-1022; the subnormal/normal boundary
        // must stay monotone (no gap, no overlap).
        let min_norm = BigRational::from_f64(f64::MIN_POSITIVE).unwrap();
        assert_eq!(min_norm, BigRational::new(one.clone(), &one << 1022));
        assert!(max_sub < min_norm);
        // Largest finite: (2^53 − 1) · 2^971.
        let max = BigRational::from_f64(f64::MAX).unwrap();
        assert_eq!(max, BigRational::from_int(&(&(&one << 53) - &one) << 971));
        // Negative zero collapses to the canonical zero.
        assert_eq!(BigRational::from_f64(-0.0), Some(BigRational::zero()));
        // Round-trips at every edge of the f64 range.
        for v in [
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits((1u64 << 52) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ] {
            assert_eq!(
                BigRational::from_f64(v).unwrap().to_f64(),
                v,
                "roundtrip {v:e}"
            );
        }
    }

    #[test]
    fn to_f64_extreme_ratio() {
        // numerator and denominator individually overflow f64
        let n = BigInt::from(3u32).pow(800);
        let d = BigInt::from(3u32).pow(801);
        let r = BigRational::new(n, d);
        assert!((r.to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sqrt_leq_exact() {
        // sqrt(2) vs rational approximations
        assert!(BigRational::sqrt_leq(&q(2, 1), &q(3, 2)));
        assert!(!BigRational::sqrt_leq(&q(2, 1), &q(7, 5)));
        assert!(BigRational::sqrt_leq(
            &q(2, 1),
            &q(141_421_356_238, 100_000_000_000)
        ));
        assert!(!BigRational::sqrt_leq(
            &q(2, 1),
            &q(141_421_356_237, 100_000_000_000)
        ));
        // boundary: sqrt(9/4) <= 3/2 exactly
        assert!(BigRational::sqrt_leq(&q(9, 4), &q(3, 2)));
        assert!(!BigRational::sqrt_leq(&q(9, 4), &q(149, 100)));
        // negative bound
        assert!(!BigRational::sqrt_leq(&q(1, 4), &q(-1, 2)));
        assert!(BigRational::sqrt_leq(
            &BigRational::zero(),
            &BigRational::zero()
        ));
    }

    #[test]
    fn perfect_sqrt() {
        assert_eq!(q(9, 4).perfect_sqrt(), Some(q(3, 2)));
        assert_eq!(q(2, 1).perfect_sqrt(), None);
        assert_eq!(q(1, 3).perfect_sqrt(), None);
        assert_eq!(
            BigRational::zero().perfect_sqrt(),
            Some(BigRational::zero())
        );
    }

    #[test]
    fn parse_display() {
        assert_eq!("3/4".parse::<BigRational>().unwrap(), q(3, 4));
        assert_eq!("-6/8".parse::<BigRational>().unwrap(), q(-3, 4));
        assert_eq!("42".parse::<BigRational>().unwrap(), q(42, 1));
        assert_eq!(q(-3, 4).to_string(), "-3/4");
        assert_eq!(q(5, 1).to_string(), "5");
        assert!("1/0".parse::<BigRational>().is_err());
        assert!("a/2".parse::<BigRational>().is_err());
    }
}
