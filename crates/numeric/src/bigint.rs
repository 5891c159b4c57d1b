//! Sign–magnitude arbitrary-precision integers with an inline fast
//! tier.
//!
//! The representation is a tagged union ([`Repr`]) with two tiers:
//!
//! 1. `Small` — magnitudes up to `i128::MAX`, stored inline as a single
//!    `i128`.
//! 2. `Heap` — everything larger, as a little-endian vector of `u32`
//!    limbs plus a [`Sign`].
//!
//! The representation is *canonical* — `Small` iff the magnitude is at
//! most `i128::MAX` (so `i128::MIN`, whose magnitude `2^127` has no
//! inline negation, is `Heap`), `Heap` limb vectors carry no
//! most-significant zero limbs, and zero is `Small(0)` — so a value's
//! tier depends on its magnitude alone, and derived structural equality
//! and hashing coincide with numeric equality. Tier crossings are
//! counted ([`tier_counters`]) so benchmarks can report tier residency;
//! the counters only observe and never change a result.
//!
//! Arithmetic on two inline values uses checked `i128`/`u128`
//! primitives and **never allocates** while the result still fits;
//! overflow (and any heap operand) falls back to the limb algorithms,
//! whose results demote back inline as soon as they fit again. The limb
//! paths remain reachable directly through the `#[doc(hidden)]` `limb_*`
//! reference methods so differential tests can pin the inline fast paths
//! against them bit-for-bit.
//!
//! Only the operations needed by the workspace are implemented — ring
//! arithmetic, Euclidean division, binary GCD, bit shifts, integer square
//! roots and conversions — but they are implemented for arbitrary sizes and
//! tested against `i128` reference arithmetic and with property tests.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Inline results that spilled into the limb path.
static TIER_PROMOTE: AtomicU64 = AtomicU64::new(0);
/// Limb-path results that canonicalized back inline.
static TIER_DEMOTE: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the representation-tier transition counters.
///
/// `promote` counts results that outgrew their operands' tier (an inline
/// `i128` fast path overflowing into the limb path). `demote` counts
/// limb-path results that canonicalized back into the inline tier. Both
/// are process-wide relaxed counters — cheap enough to leave on, precise
/// enough to spot tier-residency regressions without a profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounters {
    /// Inline fast-path overflows into the limb path.
    pub promote: u64,
    /// Limb-path results canonicalized into the inline tier.
    pub demote: u64,
}

/// Current values of the tier-transition counters.
pub fn tier_counters() -> TierCounters {
    TierCounters {
        promote: TIER_PROMOTE.load(AtomicOrdering::Relaxed),
        demote: TIER_DEMOTE.load(AtomicOrdering::Relaxed),
    }
}

/// Resets both tier-transition counters to zero (benchmark setup).
pub fn reset_tier_counters() {
    TIER_PROMOTE.store(0, AtomicOrdering::Relaxed);
    TIER_DEMOTE.store(0, AtomicOrdering::Relaxed);
}

#[inline]
fn count_promote() {
    TIER_PROMOTE.fetch_add(1, AtomicOrdering::Relaxed);
}

#[inline]
fn count_demote() {
    TIER_DEMOTE.fetch_add(1, AtomicOrdering::Relaxed);
}

/// Sign of a [`BigInt`].
///
/// Zero always carries [`Sign::Plus`]; this keeps the representation of
/// every value unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Negative values.
    Minus,
    /// Zero and positive values.
    Plus,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

/// Canonical tagged representation: `Small` iff the magnitude fits
/// `i128::MAX`, otherwise normalized heap limbs (never empty, top limb
/// non-zero).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small(i128),
    Heap {
        sign: Sign,
        /// Little-endian limbs; no trailing (most significant) zeros.
        limbs: Vec<u32>,
    },
}

/// The representation tier a [`BigInt`] currently occupies (diagnostic;
/// see [`BigInt::tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Inline `i128`.
    Small,
    /// Heap-allocated limb vector.
    Heap,
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use lll_numeric::BigInt;
///
/// let a = BigInt::from(1_000_000_007_i64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    repr: Repr,
}

const BASE_BITS: u32 = 32;
const SMALL_MAX_MAG: u128 = i128::MAX as u128;

impl BigInt {
    /// The value `0`.
    pub fn zero() -> BigInt {
        BigInt {
            repr: Repr::Small(0),
        }
    }

    /// The value `1`.
    pub fn one() -> BigInt {
        BigInt {
            repr: Repr::Small(1),
        }
    }

    fn small(v: i128) -> BigInt {
        debug_assert!(v != i128::MIN);
        BigInt {
            repr: Repr::Small(v),
        }
    }

    /// Builds the canonical representation of `sign · mag`.
    fn from_sign_mag(sign: Sign, mag: u128) -> BigInt {
        if mag <= SMALL_MAX_MAG {
            let v = mag as i128;
            BigInt::small(if sign == Sign::Minus { -v } else { v })
        } else {
            BigInt {
                repr: Repr::Heap {
                    sign,
                    limbs: Self::mag_to_limbs(mag),
                },
            }
        }
    }

    fn mag_to_limbs(mut mag: u128) -> Vec<u32> {
        let mut limbs = Vec::new();
        while mag != 0 {
            limbs.push(mag as u32);
            mag >>= BASE_BITS;
        }
        limbs
    }

    /// `Some(magnitude)` iff the (normalized) limb slice fits `u128`.
    fn limbs_to_mag(limbs: &[u32]) -> Option<u128> {
        if limbs.len() > 4 {
            return None;
        }
        let mut mag = 0u128;
        for &l in limbs.iter().rev() {
            mag = (mag << BASE_BITS) | l as u128;
        }
        Some(mag)
    }

    /// Normalizes a limb vector into the canonical representation,
    /// demoting to the inline tier when the magnitude fits.
    fn canonical(sign: Sign, mut limbs: Vec<u32>) -> BigInt {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match Self::limbs_to_mag(&limbs) {
            Some(mag) if mag <= SMALL_MAX_MAG => {
                count_demote();
                Self::from_sign_mag(sign, mag)
            }
            _ => BigInt {
                repr: Repr::Heap { sign, limbs },
            },
        }
    }

    /// Sign and limb view of the magnitude; borrows for heap values,
    /// materializes (allocates) for inline ones — only the limb fallback
    /// paths call this.
    fn to_parts(&self) -> (Sign, Cow<'_, [u32]>) {
        match &self.repr {
            Repr::Small(v) => {
                let sign = if *v < 0 { Sign::Minus } else { Sign::Plus };
                (sign, Cow::Owned(Self::mag_to_limbs(v.unsigned_abs())))
            }
            Repr::Heap { sign, limbs } => (*sign, Cow::Borrowed(limbs)),
        }
    }

    /// Creates a value from sign and little-endian `u32` limbs.
    ///
    /// The limb vector is normalized (and demoted to the inline
    /// representation when it fits) and a zero magnitude forces the sign
    /// to [`Sign::Plus`].
    pub fn from_limbs(sign: Sign, limbs: Vec<u32>) -> BigInt {
        Self::canonical(sign, limbs)
    }

    /// `true` iff the value is stored in the inline `i128`
    /// representation — every magnitude up to `i128::MAX`, by the
    /// canonical-form invariant. Exposed for tests and diagnostics.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small(_))
    }

    /// The representation tier the value currently occupies. By the
    /// canonical-form invariant this is determined by the magnitude
    /// alone. Exposed for tests and diagnostics.
    pub fn tier(&self) -> Tier {
        match &self.repr {
            Repr::Small(_) => Tier::Small,
            Repr::Heap { .. } => Tier::Heap,
        }
    }

    /// Returns `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0))
    }

    /// Returns `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => *v < 0,
            Repr::Heap { sign, .. } => *sign == Sign::Minus,
        }
    }

    /// Returns `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => *v > 0,
            // Heap magnitudes are never zero (canonical form).
            Repr::Heap { sign, .. } => *sign == Sign::Plus,
        }
    }

    /// Returns `true` iff the value is even.
    pub fn is_even(&self) -> bool {
        match &self.repr {
            Repr::Small(v) => v & 1 == 0,
            Repr::Heap { limbs, .. } => limbs.first().is_none_or(|l| l % 2 == 0),
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small(v) => {
                if *v < 0 {
                    Sign::Minus
                } else {
                    Sign::Plus
                }
            }
            Repr::Heap { sign, .. } => *sign,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.repr {
            Repr::Small(v) => BigInt::small(v.abs()),
            Repr::Heap { limbs, .. } => BigInt {
                repr: Repr::Heap {
                    sign: Sign::Plus,
                    limbs: limbs.clone(),
                },
            },
        }
    }

    /// Number of bits in the magnitude (`0` for zero).
    pub fn bit_len(&self) -> u64 {
        match &self.repr {
            Repr::Small(v) => (128 - v.unsigned_abs().leading_zeros()) as u64,
            Repr::Heap { limbs, .. } => Self::mag_bit_len(limbs),
        }
    }

    /// Number of significant bits of a normalized limb slice.
    fn mag_bit_len(limbs: &[u32]) -> u64 {
        match limbs.last() {
            None => 0,
            Some(&top) => {
                (limbs.len() as u64 - 1) * BASE_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    /// Value of bit `i` of the magnitude (little-endian indexing).
    pub fn bit(&self, i: u64) -> bool {
        match &self.repr {
            Repr::Small(v) => i < 128 && (v.unsigned_abs() >> i) & 1 == 1,
            Repr::Heap { limbs, .. } => {
                let limb = (i / BASE_BITS as u64) as usize;
                let off = (i % BASE_BITS as u64) as u32;
                limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
            }
        }
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            if x != y {
                return x.cmp(y);
            }
        }
        Ordering::Equal
    }

    #[allow(clippy::needless_range_loop)] // index arithmetic over two slices
    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let s = long[i] as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(s as u32);
            carry = s >> BASE_BITS;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Subtracts magnitudes, requiring `a >= b`.
    #[allow(clippy::needless_range_loop)] // index arithmetic over two slices
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for i in 0..a.len() {
            let d = a[i] as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << BASE_BITS)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] as u64 + x as u64 * y as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> BASE_BITS;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> BASE_BITS;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn shl_mag(a: &[u32], bits: u64) -> Vec<u32> {
        if a.is_empty() {
            return Vec::new();
        }
        let limb_shift = (bits / BASE_BITS as u64) as usize;
        let bit_shift = (bits % BASE_BITS as u64) as u32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(a);
        } else {
            let mut carry = 0u32;
            for &l in a {
                out.push((l << bit_shift) | carry);
                carry = l >> (BASE_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn shr_mag(a: &[u32], bits: u64) -> Vec<u32> {
        let limb_shift = (bits / BASE_BITS as u64) as usize;
        let bit_shift = (bits % BASE_BITS as u64) as u32;
        if limb_shift >= a.len() {
            return Vec::new();
        }
        let mut out: Vec<u32> = a[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u32;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (BASE_BITS - bit_shift);
                *l = new;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn is_even_mag(a: &[u32]) -> bool {
        a.first().is_none_or(|l| l % 2 == 0)
    }

    /// Halves a magnitude in place (`a >>= 1`), keeping it normalized.
    fn shr1_in_place(a: &mut Vec<u32>) {
        let mut carry = 0u32;
        for l in a.iter_mut().rev() {
            let new = (*l >> 1) | (carry << (BASE_BITS - 1));
            carry = *l & 1;
            *l = new;
        }
        while a.last() == Some(&0) {
            a.pop();
        }
    }

    /// Subtracts magnitudes in place (`a -= b`), requiring `a >= b`.
    fn sub_mag_in_place(a: &mut Vec<u32>, b: &[u32]) {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut borrow = 0i64;
        for (i, l) in a.iter_mut().enumerate() {
            let d = *l as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
            if d < 0 {
                *l = (d + (1i64 << BASE_BITS)) as u32;
                borrow = 1;
            } else {
                *l = d as u32;
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        while a.last() == Some(&0) {
            a.pop();
        }
    }

    /// Binary GCD on raw magnitudes.
    ///
    /// The loop mutates two working copies in place
    /// (`shr1_in_place`/`sub_mag_in_place`) instead of allocating a fresh
    /// vector per halving or subtraction.
    fn gcd_mag(a_in: &[u32], b_in: &[u32]) -> Vec<u32> {
        if a_in.is_empty() {
            return b_in.to_vec();
        }
        if b_in.is_empty() {
            return a_in.to_vec();
        }
        let mut a = a_in.to_vec();
        let mut b = b_in.to_vec();
        let mut shift = 0u64;
        while Self::is_even_mag(&a) && Self::is_even_mag(&b) {
            Self::shr1_in_place(&mut a);
            Self::shr1_in_place(&mut b);
            shift += 1;
        }
        while Self::is_even_mag(&a) {
            Self::shr1_in_place(&mut a);
        }
        loop {
            while Self::is_even_mag(&b) {
                Self::shr1_in_place(&mut b);
            }
            if Self::cmp_mag(&a, &b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            Self::sub_mag_in_place(&mut b, &a);
            if b.is_empty() {
                break;
            }
        }
        Self::shl_mag(&a, shift)
    }

    /// Binary GCD on `u128` magnitudes (the inline fast path).
    fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
        if a == 0 {
            return b;
        }
        if b == 0 {
            return a;
        }
        let shift = (a | b).trailing_zeros();
        a >>= a.trailing_zeros();
        loop {
            b >>= b.trailing_zeros();
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b -= a;
            if b == 0 {
                return a << shift;
            }
        }
    }

    /// Floor square root of a `u128` (Newton, monotonically decreasing
    /// from the over-estimate `2^ceil(bits/2)`).
    fn isqrt_u128(n: u128) -> u128 {
        if n < 2 {
            return n;
        }
        let bits = (128 - n.leading_zeros()) as u64;
        let mut x = 1u128 << bits.div_ceil(2);
        loop {
            let next = (x + n / x) >> 1;
            if next >= x {
                return x;
            }
            x = next;
        }
    }

    /// Magnitude division: returns `(quotient, remainder)` of `a / b`.
    ///
    /// Uses shift–subtract binary long division, which is `O(bits · limbs)`
    /// — entirely adequate for the few-hundred-bit operands arising in the
    /// exact probability computations of this workspace.
    fn divrem_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero BigInt");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        // Short division when the divisor fits in one limb.
        if b.len() == 1 {
            let d = b[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem = 0u64;
            for i in (0..a.len()).rev() {
                let cur = (rem << BASE_BITS) | a[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u32]
            };
            return (q, r);
        }
        // Shift–subtract: the remainder and the walking shifted divisor
        // are mutated in place, not reallocated per subtraction or per
        // halving of the divisor.
        let mut shift = Self::mag_bit_len(a) - Self::mag_bit_len(b);
        let mut rem = a.to_vec();
        let mut quo: Vec<u32> = vec![0; (shift / BASE_BITS as u64 + 1) as usize];
        let mut cur = Self::shl_mag(b, shift);
        loop {
            if Self::cmp_mag(&rem, &cur) != Ordering::Less {
                Self::sub_mag_in_place(&mut rem, &cur);
                let limb = (shift / BASE_BITS as u64) as usize;
                quo[limb] |= 1 << (shift % BASE_BITS as u64);
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
            Self::shr1_in_place(&mut cur);
        }
        while quo.last() == Some(&0) {
            quo.pop();
        }
        (quo, rem)
    }

    /// Euclidean division returning `(quotient, remainder)` with the
    /// remainder carrying the sign of `self` (truncated division, matching
    /// Rust's primitive `/` and `%`).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => {
                assert!(*b != 0, "division by zero BigInt");
                // `a` is never `i128::MIN` (canonical form), so `a / b`
                // cannot overflow even for `b == -1`.
                (BigInt::small(a / b), BigInt::small(a % b))
            }
            // |heap| > i128::MAX >= |small|: the quotient is zero.
            (Repr::Small(_), Repr::Heap { .. }) => (BigInt::zero(), self.clone()),
            _ => self.limb_divrem(other),
        }
    }

    /// Reference limb-path division used by the inline fast path's
    /// fallback and by differential tests.
    #[doc(hidden)]
    pub fn limb_divrem(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (sa, la) = self.to_parts();
        let (sb, lb) = other.to_parts();
        let (q_mag, r_mag) = Self::divrem_mag(&la, &lb);
        let q_sign = if sa == sb { Sign::Plus } else { Sign::Minus };
        (Self::canonical(q_sign, q_mag), Self::canonical(sa, r_mag))
    }

    /// Greatest common divisor of the magnitudes (binary GCD; no division).
    ///
    /// `gcd(0, 0) = 0` by convention.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            // The result divides both magnitudes, so it always fits inline.
            return Self::from_sign_mag(
                Sign::Plus,
                Self::gcd_u128(a.unsigned_abs(), b.unsigned_abs()),
            );
        }
        self.limb_gcd(other)
    }

    /// Reference limb-path GCD used by the inline fast path's fallback and
    /// by differential tests.
    #[doc(hidden)]
    pub fn limb_gcd(&self, other: &BigInt) -> BigInt {
        let (_, la) = self.to_parts();
        let (_, lb) = other.to_parts();
        Self::canonical(Sign::Plus, Self::gcd_mag(&la, &lb))
    }

    /// Raises `self` to the power `exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Floor of the square root of a non-negative value.
    ///
    /// # Panics
    ///
    /// Panics if `self` is negative.
    pub fn isqrt(&self) -> BigInt {
        assert!(!self.is_negative(), "isqrt of negative BigInt");
        if let Repr::Small(v) = &self.repr {
            // Fits u128, and the root fits u64 — always inline.
            return Self::from_sign_mag(Sign::Plus, Self::isqrt_u128(v.unsigned_abs()));
        }
        // Newton iteration seeded from the inline root of the top ≤126
        // bits: with `m = ⌊n / 4^t⌋`, `(isqrt(m) + 1) · 2^t` over-
        // estimates `√n` by at most one part in ~2^62, so the descent
        // below needs only a couple of big divisions instead of the
        // ~bits/4 a `2^⌈bits/2⌉` start costs. The loop's fixed point is
        // the floor root no matter the (over-estimating) seed, so the
        // result is unchanged.
        let bits = self.bit_len();
        let shift = bits.saturating_sub(126).div_ceil(2) * 2;
        let top = self >> shift;
        let seed = match &top.repr {
            Repr::Small(v) => Self::isqrt_u128(v.unsigned_abs()) + 1,
            _ => unreachable!("126-bit values are inline"),
        };
        let mut x = &Self::from_sign_mag(Sign::Plus, seed) << (shift / 2);
        loop {
            // x' = (x + n/x) / 2
            let (div, _) = self.divrem(&x);
            let next = &(&x + &div) >> 1;
            if next >= x {
                return x;
            }
            x = next;
        }
    }

    /// Bitmask of the quadratic residues of 64: bit `r` is set iff some
    /// square is ≡ `r` (mod 64). Only 12 of the 64 classes qualify.
    const SQUARES_MOD_64: u64 = {
        let mut mask = 0u64;
        let mut r = 0u64;
        while r < 64 {
            mask |= 1 << ((r * r) & 63);
            r += 1;
        }
        mask
    };

    /// Returns `Some(r)` with `r*r == self` iff the value is a perfect
    /// square (negative values never are).
    pub fn perfect_sqrt(&self) -> Option<BigInt> {
        if self.is_negative() {
            return None;
        }
        // A square's low six bits land in one of 12 residue classes;
        // the other 52 reject without computing a root.
        let low = match &self.repr {
            Repr::Small(v) => (v.unsigned_abs() & 63) as u64,
            Repr::Heap { limbs, .. } => (limbs.first().copied().unwrap_or(0) & 63) as u64,
        };
        if Self::SQUARES_MOD_64 >> low & 1 == 0 {
            return None;
        }
        let r = self.isqrt();
        if &(&r * &r) == self {
            Some(r)
        } else {
            None
        }
    }

    /// Converts to `f64`, rounding; very large magnitudes saturate to
    /// `±inf`.
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(v) => *v as f64,
            Repr::Heap { sign, limbs } => {
                let mut v = 0.0f64;
                for &l in limbs.iter().rev() {
                    v = v * (u32::MAX as f64 + 1.0) + l as f64;
                }
                if *sign == Sign::Minus {
                    -v
                } else {
                    v
                }
            }
        }
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small(v) => u64::try_from(*v).ok(),
            // Heap magnitudes exceed i128::MAX and hence u64::MAX.
            Repr::Heap { .. } => None,
        }
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match &self.repr {
            Repr::Small(v) => i64::try_from(*v).ok(),
            Repr::Heap { .. } => None,
        }
    }

    /// Reference limb-path comparison used by differential tests.
    #[doc(hidden)]
    pub fn limb_cmp(&self, other: &BigInt) -> Ordering {
        let (sa, la) = self.to_parts();
        let (sb, lb) = other.to_parts();
        match (sa, sb) {
            // Signs differ only for non-zero values (zero carries Plus).
            (Sign::Plus, Sign::Minus) => Ordering::Greater,
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => Self::cmp_mag(&la, &lb),
            (Sign::Minus, Sign::Minus) => Self::cmp_mag(&lb, &la),
        }
    }

    /// Reference limb-path addition used by the inline fast path's
    /// fallback and by differential tests.
    #[doc(hidden)]
    pub fn limb_add(&self, other: &BigInt) -> BigInt {
        let (sa, la) = self.to_parts();
        let (sb, lb) = other.to_parts();
        if sa == sb {
            Self::canonical(sa, Self::add_mag(&la, &lb))
        } else {
            match Self::cmp_mag(&la, &lb) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => Self::canonical(sa, Self::sub_mag(&la, &lb)),
                Ordering::Less => Self::canonical(sb, Self::sub_mag(&lb, &la)),
            }
        }
    }

    /// Reference limb-path subtraction used by differential tests.
    #[doc(hidden)]
    pub fn limb_sub(&self, other: &BigInt) -> BigInt {
        self.limb_add(&-other)
    }

    /// Reference limb-path multiplication used by the inline fast path's
    /// fallback and by differential tests.
    #[doc(hidden)]
    pub fn limb_mul(&self, other: &BigInt) -> BigInt {
        let (sa, la) = self.to_parts();
        let (sb, lb) = other.to_parts();
        let sign = if sa == sb { Sign::Plus } else { Sign::Minus };
        Self::canonical(sign, Self::mul_mag(&la, &lb))
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt::from_sign_mag(Sign::Plus, v as u128)
            }
        }
    )*};
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
                BigInt::from_sign_mag(sign, (v as i128).unsigned_abs())
            }
        }
    )*};
}

impl_from_unsigned!(u8, u16, u32, u64, u128, usize);
impl_from_signed!(i8, i16, i32, i64, i128, isize);

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl BigInt {
    /// Compares magnitudes across any tier pair without allocating.
    fn cmp_abs(&self, other: &BigInt) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.unsigned_abs().cmp(&b.unsigned_abs()),
            // A canonical heap magnitude exceeds every inline one.
            (Repr::Small(_), Repr::Heap { .. }) => Ordering::Less,
            (Repr::Heap { .. }, Repr::Small(_)) => Ordering::Greater,
            (Repr::Heap { limbs: la, .. }, Repr::Heap { limbs: lb, .. }) => Self::cmp_mag(la, lb),
        }
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            return a.cmp(b);
        }
        // Zero is always `Small` (sign `Plus`), so differing signs decide
        // correctly even against zero.
        match (self.sign(), other.sign()) {
            (Sign::Plus, Sign::Minus) => Ordering::Greater,
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.cmp_abs(other),
            (Sign::Minus, Sign::Minus) => other.cmp_abs(self),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.repr {
            // Canonical form excludes i128::MIN, so negation never overflows.
            Repr::Small(v) => BigInt::small(-v),
            Repr::Heap { sign, limbs } => BigInt {
                repr: Repr::Heap {
                    sign: sign.flip(),
                    limbs: limbs.clone(),
                },
            },
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.repr {
            Repr::Small(v) => BigInt::small(-v),
            Repr::Heap { sign, limbs } => BigInt {
                repr: Repr::Heap {
                    sign: sign.flip(),
                    limbs,
                },
            },
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            if let Some(s) = a.checked_add(*b) {
                // `s == i128::MIN` is representable but not canonical
                // inline; route it through the sign/magnitude constructor.
                return BigInt::from(s);
            }
            // `i128` overflow implies equal signs, so the magnitude sum
            // is exact in `u128` (at most `2^128 - 2`).
            count_promote();
            let sign = if *a < 0 { Sign::Minus } else { Sign::Plus };
            return BigInt::from_sign_mag(sign, a.unsigned_abs() + b.unsigned_abs());
        }
        self.limb_add(other)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            if let Some(s) = a.checked_sub(*b) {
                return BigInt::from(s);
            }
            // Overflowing `a - b` implies opposite signs and `a != 0`,
            // so the result carries `a`'s sign with magnitude `|a|+|b|`.
            count_promote();
            let sign = if *a < 0 { Sign::Minus } else { Sign::Plus };
            return BigInt::from_sign_mag(sign, a.unsigned_abs() + b.unsigned_abs());
        }
        self.limb_sub(other)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, other: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.repr, &other.repr) {
            if let Some(p) = a.checked_mul(*b) {
                return BigInt::from(p);
            }
            // Overflow: the product leaves the inline tier.
            count_promote();
        }
        self.limb_mul(other)
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, other: &BigInt) -> BigInt {
        self.divrem(other).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, other: &BigInt) -> BigInt {
        self.divrem(other).1
    }
}

impl Shl<u64> for &BigInt {
    type Output = BigInt;
    fn shl(self, bits: u64) -> BigInt {
        if let Repr::Small(v) = &self.repr {
            let mag = v.unsigned_abs();
            if mag == 0 {
                return BigInt::zero();
            }
            let width = (128 - mag.leading_zeros()) as u64;
            if width + bits <= 127 {
                return BigInt::from_sign_mag(self.sign(), mag << bits);
            }
            // The result leaves the inline tier.
            count_promote();
        }
        let (sign, limbs) = self.to_parts();
        BigInt::canonical(sign, BigInt::shl_mag(&limbs, bits))
    }
}

impl Shr<u64> for &BigInt {
    type Output = BigInt;
    fn shr(self, bits: u64) -> BigInt {
        if let Repr::Small(v) = &self.repr {
            let mag = v.unsigned_abs();
            let shifted = if bits >= 128 { 0 } else { mag >> bits };
            return BigInt::from_sign_mag(self.sign(), shifted);
        }
        let (sign, limbs) = self.to_parts();
        BigInt::canonical(sign, BigInt::shr_mag(&limbs, bits))
    }
}

macro_rules! forward_owned_binop {
    ($($tr:ident :: $m:ident),*) => {$(
        impl $tr for BigInt {
            type Output = BigInt;
            fn $m(self, other: BigInt) -> BigInt {
                (&self).$m(&other)
            }
        }
        impl $tr<&BigInt> for BigInt {
            type Output = BigInt;
            fn $m(self, other: &BigInt) -> BigInt {
                (&self).$m(other)
            }
        }
        impl $tr<BigInt> for &BigInt {
            type Output = BigInt;
            fn $m(self, other: BigInt) -> BigInt {
                self.$m(&other)
            }
        }
    )*};
}

forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, other: &BigInt) {
        *self = &*self + other;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, other: &BigInt) {
        *self = &*self - other;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, other: &BigInt) {
        *self = &*self * other;
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    offending: String,
}

impl ParseBigIntError {
    pub(crate) fn new(offending: impl Into<String>) -> ParseBigIntError {
        ParseBigIntError {
            offending: offending.into(),
        }
    }
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal integer literal: {:?}", self.offending)
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Minus, rest),
            None => (Sign::Plus, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError {
                offending: s.to_owned(),
            });
        }
        // Accumulate in u128 while it fits (no allocation for ≤ 38-digit
        // literals), then continue with big arithmetic for the tail.
        let bytes = digits.as_bytes();
        let mut small = 0u128;
        let mut i = 0;
        while i < bytes.len() {
            let d = (bytes[i] - b'0') as u128;
            match small.checked_mul(10).and_then(|a| a.checked_add(d)) {
                Some(v) => {
                    small = v;
                    i += 1;
                }
                None => break,
            }
        }
        let mut acc = BigInt::from_sign_mag(Sign::Plus, small);
        if i < bytes.len() {
            let ten = BigInt::from(10u32);
            for &b in &bytes[i..] {
                acc = &(&acc * &ten) + &BigInt::from(b - b'0');
            }
        }
        Ok(if sign == Sign::Minus { -acc } else { acc })
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Repr::Small(v) = &self.repr {
            return f.pad_integral(*v >= 0, "", &v.unsigned_abs().to_string());
        }
        let (sign, limbs) = self.to_parts();
        let mut digits = Vec::new();
        let mut mag = limbs.into_owned();
        let billion = [1_000_000_000u32];
        while !mag.is_empty() {
            let (q, r) = BigInt::divrem_mag(&mag, &billion);
            digits.push(r.first().copied().unwrap_or(0));
            mag = q;
        }
        let mut s = digits.last().unwrap().to_string();
        for chunk in digits.iter().rev().skip(1) {
            s.push_str(&format!("{chunk:09}"));
        }
        f.pad_integral(sign == Sign::Plus, "", &s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert_eq!(big(0), BigInt::zero());
        assert_eq!(BigInt::from_limbs(Sign::Minus, vec![0, 0]), BigInt::zero());
        assert!(!BigInt::zero().is_negative());
        assert_eq!(BigInt::zero().to_string(), "0");
        assert!(BigInt::zero().is_inline());
    }

    #[test]
    fn small_arithmetic_matches_i128() {
        let samples: Vec<i128> = vec![
            0,
            1,
            -1,
            7,
            -13,
            1 << 31,
            (1i128 << 32) - 1,
            1 << 32,
            -(1i128 << 40),
            123_456_789_012_345,
            -987_654_321_000,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(big(a) + big(b), big(a + b), "{a} + {b}");
                assert_eq!(big(a) - big(b), big(a - b), "{a} - {b}");
                assert_eq!(big(a) * big(b), big(a * b), "{a} * {b}");
                if b != 0 {
                    let (q, r) = big(a).divrem(&big(b));
                    assert_eq!(q, big(a / b), "{a} / {b}");
                    assert_eq!(r, big(a % b), "{a} % {b}");
                }
                assert_eq!(big(a).cmp(&big(b)), a.cmp(&b), "cmp {a} {b}");
            }
        }
    }

    #[test]
    fn multi_limb_mul_div_roundtrip() {
        let a: BigInt = "340282366920938463463374607431768211455".parse().unwrap(); // 2^128-1
        let b: BigInt = "18446744073709551629".parse().unwrap();
        let prod = &a * &b;
        let (q, r) = prod.divrem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let (q2, r2) = (&prod + &BigInt::from(17u32)).divrem(&b);
        assert_eq!(q2, a);
        assert_eq!(r2, BigInt::from(17u32));
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in [
            "0",
            "-1",
            "123456789012345678901234567890",
            "-340282366920938463463374607431768211456",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("--5".parse::<BigInt>().is_err());
    }

    #[test]
    fn shifts() {
        let one = BigInt::one();
        assert_eq!((&one << 100).to_string(), "1267650600228229401496703205376");
        assert_eq!(&(&one << 100) >> 100, one);
        assert_eq!(&(&one << 100) >> 101, BigInt::zero());
        let v = big(0b1011);
        assert_eq!(&v >> 2, big(0b10));
    }

    #[test]
    fn gcd_matches_euclid() {
        let cases = [
            (12i128, 18, 6),
            (0, 5, 5),
            (5, 0, 5),
            (0, 0, 0),
            (-12, 18, 6),
            (17, 13, 1),
            (1 << 40, 1 << 35, 1 << 35),
        ];
        for (a, b, g) in cases {
            assert_eq!(big(a).gcd(&big(b)), big(g), "gcd({a},{b})");
        }
        let a: BigInt = "123456789123456789123456789".parse().unwrap();
        let b: BigInt = "987654321987654321".parse().unwrap();
        let g = a.gcd(&b);
        assert!((&a % &g).is_zero());
        assert!((&b % &g).is_zero());
    }

    #[test]
    fn pow_and_bitlen() {
        assert_eq!(big(2).pow(100), &BigInt::one() << 100);
        assert_eq!(big(3).pow(5), big(243));
        assert_eq!(big(0).pow(0), BigInt::one());
        assert_eq!(big(255).bit_len(), 8);
        assert_eq!(big(256).bit_len(), 9);
        assert_eq!(BigInt::zero().bit_len(), 0);
    }

    #[test]
    fn isqrt_and_perfect_square() {
        for n in 0u64..2000 {
            let r = BigInt::from(n).isqrt().to_u64().unwrap();
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
        let big_square = big(12345678901234567).pow(2);
        assert_eq!(big_square.perfect_sqrt(), Some(big(12345678901234567)));
        assert_eq!((&big_square + &BigInt::one()).perfect_sqrt(), None);
        assert_eq!(big(-4).perfect_sqrt(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(big(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(big(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(big(i64::MIN as i128 - 1).to_i64(), None);
        assert_eq!(BigInt::from(u64::MAX).to_u64(), Some(u64::MAX));
        assert_eq!((&BigInt::from(u64::MAX) + &BigInt::one()).to_u64(), None);
        assert_eq!(big(-1).to_u64(), None);
        let v = big(1i128 << 80);
        assert!((v.to_f64() - 2f64.powi(80)).abs() < 1e60);
        assert_eq!(big(-42).to_f64(), -42.0);
    }

    #[test]
    fn bit_access() {
        let v = big(0b1010_0001);
        assert!(v.bit(0));
        assert!(!v.bit(1));
        assert!(v.bit(5));
        assert!(v.bit(7));
        assert!(!v.bit(64));
    }

    // --- inline/heap representation invariants ---------------------------

    #[test]
    fn representation_is_canonical_at_the_boundary() {
        let max = BigInt::from(i128::MAX);
        assert!(max.is_inline());
        let above = &max + &BigInt::one(); // 2^127
        assert!(!above.is_inline());
        assert_eq!(above.to_string(), "170141183460469231731687303715884105728");
        // Crossing back down demotes to the inline form again.
        let back = &above - &BigInt::one();
        assert!(back.is_inline());
        assert_eq!(back, max);
    }

    #[test]
    fn i128_min_is_heap_but_correct() {
        let min = BigInt::from(i128::MIN);
        assert!(!min.is_inline());
        assert_eq!(min.to_string(), "-170141183460469231731687303715884105728");
        assert_eq!(-&min, &BigInt::from(i128::MAX) + &BigInt::one());
        assert_eq!(&min + &BigInt::one(), BigInt::from(i128::MIN + 1));
        assert!(BigInt::from(i128::MIN + 1).is_inline());
        assert_eq!(min.to_i64(), None);
        // Parsing produces the same (heap) canonical value.
        let parsed: BigInt = "-170141183460469231731687303715884105728".parse().unwrap();
        assert_eq!(parsed, min);
    }

    #[test]
    fn heap_results_demote_when_they_fit() {
        let big_val = &BigInt::one() << 200;
        let (q, r) = big_val.divrem(&(&BigInt::one() << 150));
        assert!(q.is_inline());
        assert_eq!(q, &BigInt::one() << 50);
        assert!(r.is_zero() && r.is_inline());
        assert!((&big_val - &big_val).is_inline());
        assert!((&big_val >> 150).is_inline());
        assert!(big_val.gcd(&(&BigInt::one() << 37)).is_inline());
        assert!(big_val.isqrt().is_inline());
    }

    #[test]
    fn fast_paths_agree_with_limb_reference() {
        let samples: Vec<BigInt> = [
            0i128,
            1,
            -1,
            42,
            -1 << 40,
            i128::MAX / 2,
            i128::MAX,
            i128::MIN + 1,
        ]
        .into_iter()
        .map(BigInt::from)
        .chain([
            BigInt::from(i128::MIN),
            &BigInt::one() << 127,
            -(&BigInt::one() << 200),
        ])
        .collect();
        for a in &samples {
            for b in &samples {
                assert_eq!(a + b, a.limb_add(b), "{a:?} + {b:?}");
                assert_eq!(a - b, a.limb_sub(b), "{a:?} - {b:?}");
                assert_eq!(a * b, a.limb_mul(b), "{a:?} * {b:?}");
                assert_eq!(a.cmp(b), a.limb_cmp(b), "cmp {a:?} {b:?}");
                assert_eq!(a.gcd(b), a.limb_gcd(b), "gcd {a:?} {b:?}");
                if !b.is_zero() {
                    assert_eq!(a.divrem(b), a.limb_divrem(b), "{a:?} divrem {b:?}");
                }
            }
        }
    }
}
