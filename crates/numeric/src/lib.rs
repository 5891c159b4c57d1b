//! Exact arbitrary-precision arithmetic for the `sharp-lll` toolkit.
//!
//! The reproduction of Brandt–Maus–Uitto (PODC 2019) relies on *exact*
//! decisions in two places:
//!
//! 1. Membership in the set `S_rep` of representable triples
//!    (Definition 3.3 of the paper) reduces, for rational inputs, to the
//!    polynomial inequality `ab(4-a)(4-b) ≤ (8 + ab - 2a - 2b - 2c)²`
//!    guarded by a sign condition — decidable exactly over ℚ.
//! 2. Auditing property `P*` (Definition 3.1) after every fixing step
//!    requires exact conditional probabilities of bad events.
//!
//! This crate provides the [`BigInt`]/[`BigRational`] types used for those
//! exact decisions, a small prime toolkit needed by Linial's coloring
//! algorithm, and the [`Num`] abstraction that lets every algorithm in the
//! workspace run on either exact rationals or `f64`.
//!
//! # Examples
//!
//! ```
//! use lll_numeric::{BigRational, Num};
//!
//! let third = BigRational::from_ratio(1, 3);
//! let sum = &(&third + &third) + &third;
//! assert_eq!(sum, BigRational::one());
//!
//! // sqrt(2) <= 3/2 ?
//! assert!(BigRational::sqrt_leq(
//!     &BigRational::from_ratio(2, 1),
//!     &BigRational::from_ratio(3, 2),
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod num;
mod primes;
mod rational;
#[cfg(feature = "serde")]
mod serde_impls;

pub use bigint::{
    reset_tier_counters, tier_counters, BigInt, ParseBigIntError, Sign, Tier, TierCounters,
};
pub use num::{Num, F64_MARGIN};
pub use primes::{is_prime_u64, next_prime, primes_below};
pub use rational::BigRational;
