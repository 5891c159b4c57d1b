//! Linial's iterated color reduction.
//!
//! One reduction step maps a proper `m`-coloring to a proper
//! `q²`-coloring in a single communication round, where `q` is a prime
//! chosen so that (i) every color of the current palette can be encoded
//! as a polynomial of degree ≤ `k` over `F_q` (i.e. `q^(k+1) ≥ m`) and
//! (ii) `q > k·Δ`. A node with polynomial `p_v` owns the point set
//! `S_v = {(x, p_v(x)) : x ∈ F_q}`; two distinct polynomials of degree
//! ≤ `k` agree on at most `k` points, so the ≤ `Δ` neighbors of `v` can
//! forbid at most `k·Δ < q` elements of `S_v` — some point survives and
//! becomes the new color. Iterating reaches the fixed-point palette
//! `q₁²` with `q₁ = nextprime(Δ + 1) = O(Δ)` after `log* m + O(1)`
//! steps.

use lll_local::{Inbox, NodeContext, NodeProgram, RoundResult};
use lll_numeric::next_prime;

/// Computes the reduction schedule `(k, q)` per round for initial palette
/// `m` and maximum degree `delta >= 1`, stopping when a step would no
/// longer shrink the palette.
///
/// All nodes derive the identical schedule from the globally known `n`
/// and `Δ`, so the algorithm needs no coordination rounds.
///
/// # Panics
///
/// Panics if `delta == 0` (callers special-case edgeless graphs).
pub fn linial_schedule(m: u64, delta: u64) -> Vec<(u64, u64)> {
    assert!(delta >= 1, "schedule undefined for edgeless graphs");
    let mut m = m;
    let mut steps = Vec::new();
    loop {
        let (k, q) = choose_step(m, delta);
        let m_next = q * q;
        if m_next >= m {
            return steps;
        }
        steps.push((k, q));
        m = m_next;
    }
}

/// Smallest `k >= 1` (with its prime `q = nextprime(kΔ + 1)`) such that
/// polynomials of degree ≤ `k` over `F_q` can encode `m` colors.
fn choose_step(m: u64, delta: u64) -> (u64, u64) {
    for k in 1u64.. {
        let q = next_prime(k * delta + 1);
        // q^(k+1) >= m, computed with saturation.
        let mut pow = 1u128;
        for _ in 0..=k {
            pow = pow.saturating_mul(q as u128);
            if pow >= m as u128 {
                return (k, q);
            }
        }
        if pow >= m as u128 {
            return (k, q);
        }
    }
    unreachable!("q^(k+1) grows without bound in k")
}

/// Evaluates the polynomial encoding of `color` (base-`q` digits as
/// coefficients, degree ≤ `k`) at point `x` over `F_q`.
fn poly_eval(color: u64, k: u64, q: u64, x: u64) -> u64 {
    let mut c = color;
    let mut acc = 0u64;
    let mut x_pow = 1u64;
    for _ in 0..=k {
        let digit = c % q;
        c /= q;
        acc = (acc + digit * x_pow) % q;
        x_pow = (x_pow * x) % q;
    }
    acc
}

/// The Linial color-reduction [`NodeProgram`].
///
/// Initial color = the node's id (must be `< n`); after running the whole
/// schedule the node halts with its final color in the fixed-point
/// palette `q_T²`.
#[derive(Debug, Clone)]
pub struct LinialProgram {
    // Shared, not owned: the schedule is identical at every node, and
    // the drivers clone one template program per node, so `Clone` must
    // not deep-copy it.
    schedule: std::sync::Arc<[(u64, u64)]>,
    step: usize,
    color: u64,
}

impl LinialProgram {
    /// Creates the program for one node; every node must receive the same
    /// `schedule` (see [`linial_schedule`]). Cloning the program shares
    /// the schedule, so instantiating it at every node is cheap.
    pub fn new(schedule: Vec<(u64, u64)>) -> LinialProgram {
        LinialProgram {
            schedule: schedule.into(),
            step: 0,
            color: 0,
        }
    }

    /// One reduction step: pick a point of our polynomial's graph not
    /// owned by any neighbor (read straight off the inbox — silent ports
    /// forbid nothing).
    fn reduce(&self, inbox: Inbox<'_, u32>, k: u64, q: u64) -> u64 {
        'point: for x in 0..q {
            let y = poly_eval(self.color, k, q, x);
            for nc in inbox.iter().flatten() {
                let nc = u64::from(*nc);
                debug_assert_ne!(nc, self.color, "input coloring must be proper");
                if poly_eval(nc, k, q, x) == y {
                    continue 'point;
                }
            }
            return x * q + y;
        }
        unreachable!("q > kΔ guarantees a surviving point")
    }
}

impl NodeProgram for LinialProgram {
    type Message = u32;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<u32> {
        self.color = ctx.id;
        // Colors only shrink from here, so the id bounds every message;
        // a 32-bit message halves the node slot of a u64.
        assert!(
            self.color <= u64::from(u32::MAX),
            "Linial requires ids < n, which must fit in 32 bits"
        );
        Some(self.color as u32)
    }

    /// One schedule step; halts with the final color once the schedule
    /// is exhausted (immediately, if it was empty).
    fn round(&mut self, ctx: &mut NodeContext, inbox: Inbox<'_, u32>) -> RoundResult<u32, u64> {
        let Some(&(k, q)) = self.schedule.get(self.step) else {
            // Schedule was empty (palette already at fixed point).
            return RoundResult::Halt(self.color);
        };
        debug_assert_eq!(
            inbox.iter().flatten().count(),
            ctx.degree,
            "all neighbors broadcast"
        );
        self.color = self.reduce(inbox, k, q);
        self.step += 1;
        if self.step == self.schedule.len() {
            RoundResult::Halt(self.color)
        } else {
            RoundResult::Continue(Some(self.color as u32))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poly_eval_is_base_q_polynomial() {
        // color 11 = 1*9 + 0*3 + 2 in base 3 -> coefficients [2, 0, 1]
        // p(x) = 2 + 0x + 1x² over F_3
        assert_eq!(poly_eval(11, 2, 3, 0), 2);
        assert_eq!(poly_eval(11, 2, 3, 1), 0); // 2 + 1 = 3 ≡ 0
        assert_eq!(poly_eval(11, 2, 3, 2), 0); // 2 + 4 = 6 ≡ 0
    }

    #[test]
    fn distinct_colors_give_distinct_polynomials() {
        let (k, q) = (2u64, 5u64);
        let palette = q.pow(k as u32 + 1);
        for a in 0..palette {
            for b in (a + 1)..palette {
                let agree = (0..q)
                    .filter(|&x| poly_eval(a, k, q, x) == poly_eval(b, k, q, x))
                    .count();
                assert!(
                    agree as u64 <= k,
                    "colors {a},{b} agree on {agree} > k points"
                );
            }
        }
    }

    #[test]
    fn schedule_shrinks_to_fixed_point() {
        let delta = 4u64;
        let steps = linial_schedule(1 << 20, delta);
        assert!(!steps.is_empty());
        // Walk the schedule: palette strictly shrinks, constraints hold.
        let mut m = 1u64 << 20;
        for &(k, q) in &steps {
            assert!(q > k * delta, "q must exceed kΔ");
            assert!(
                (q as u128).pow(k as u32 + 1) >= m as u128,
                "palette must fit"
            );
            let m2 = q * q;
            assert!(m2 < m, "palette must shrink");
            m = m2;
        }
        // Fixed point: q² with q = nextprime(2Δ+1) = 11 for Δ = 4 (the
        // k = 1 step would need q² ≥ m with q > Δ, which cannot shrink
        // below the k = 2 fixed point here).
        assert_eq!(m, 121);
        assert!(m <= (2 * delta + 3).pow(2));
    }

    #[test]
    fn schedule_lengths_are_log_star_like() {
        let delta = 3u64;
        let len = |m: u64| linial_schedule(m, delta).len();
        assert!(len(1 << 8) <= 3);
        assert!(len(1 << 16) <= 4);
        assert!(len(1 << 32) <= 5);
        assert!(len(u64::MAX) <= 6);
        // Monotone-ish growth, tiny everywhere.
        assert!(len(u64::MAX) >= len(1 << 8));
    }

    #[test]
    fn schedule_empty_when_palette_small() {
        // Palette 10, Δ = 4: fixed point is 25 ≥ 10, nothing to do.
        assert!(linial_schedule(10, 4).is_empty());
    }
}
