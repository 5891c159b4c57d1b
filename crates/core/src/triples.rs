//! Representable triples — the geometry behind the rank-3 fixer.
//!
//! Definition 3.3 of the paper: `(a, b, c) ∈ ℝ³≥0` is *representable* if
//! there are `a₁, a₂, b₁, b₃, c₂, c₃ ∈ [0, 2]` with
//! `a₁a₂ = a`, `b₁b₃ = b`, `c₂c₃ = c` and the pair sums
//! `a₁ + b₁ ≤ 2`, `a₂ + c₂ ≤ 2`, `b₃ + c₃ ≤ 2`. The six values are the
//! candidate `φ` entries on the three dependency-graph edges of a
//! hyperedge `{u, v, w}`; representability of the triple of target
//! products is exactly sub-property (1) of `P*`.
//!
//! Lemma 3.5 characterises the set `S_rep` of representable triples as
//! `a + b ≤ 4 ∧ c ≤ f(a, b)` with
//!
//! ```text
//! f(a, b) = 4 + ½·(ab − 2a − 2b − √(ab(4−a)(4−b)))
//! ```
//!
//! For rational inputs membership is decidable *exactly*:
//! `c ≤ f(a,b) ⟺ √D ≤ R` with `D = ab(4−a)(4−b)` and
//! `R = 8 + ab − 2a − 2b − 2c`, i.e. `R ≥ 0 ∧ D ≤ R²` — a polynomial
//! inequality over ℚ (this crate's [`is_representable`]).
//!
//! [`decompose`] reverses the characterisation constructively, following
//! the appendix proof: with `a₁ = x` the one-parameter family
//! `a₂ = a/x`, `b₁ = 2−x`, `b₃ = b/(2−x)`, `c₂ = 2−a₂`, `c₃ = 2−b₃`
//! attains `c₂c₃ = c(x) = (2−a/x)(2−b/(2−x))`, a unimodal function whose
//! maximum over `x ∈ [a/2, 2−b/2]` is `f(a, b)`.

use lll_graphs::Graph;
use lll_numeric::Num;

use crate::error::FixerError;

/// The surface `f(a, b)` of Lemma 3.5 bounding `S_rep` from above
/// (`f64`; Figure 1 of the paper is the plot of this function).
///
/// # Panics
///
/// Panics unless `a, b ≥ 0` and `a + b ≤ 4` (the function's domain).
pub fn f_surface(a: f64, b: f64) -> f64 {
    assert!(
        a >= 0.0 && b >= 0.0 && a + b <= 4.0 + 1e-12,
        "outside the domain of f"
    );
    let d = (a * b * (4.0 - a) * (4.0 - b)).max(0.0);
    4.0 + 0.5 * (a * b - 2.0 * a - 2.0 * b - d.sqrt())
}

/// Decides membership of `(a, b, c)` in `S_rep`.
///
/// Exact for exact backends: the square root of Lemma 3.5 is eliminated
/// into a polynomial inequality. For `f64`, plain floating comparisons
/// are used; callers that need one-sided robustness should test a
/// slightly shrunk triple (see [`representability_score`]).
///
/// # Examples
///
/// ```
/// use lll_core::triples::is_representable;
/// use lll_numeric::BigRational;
///
/// // The paper's Figure 2 example, decided exactly:
/// let (a, b, c) = (
///     BigRational::from_ratio(1, 4),
///     BigRational::from_ratio(3, 2),
///     BigRational::from_ratio(1, 10),
/// );
/// assert!(is_representable(&a, &b, &c));
/// // The all-ones initial state of φ sits exactly on the surface:
/// let one = BigRational::one();
/// assert!(is_representable(&one, &one, &one));
/// ```
pub fn is_representable<T: Num>(a: &T, b: &T, c: &T) -> bool {
    let zero = T::zero();
    if *a < zero || *b < zero || *c < zero {
        return false;
    }
    let four = T::from_ratio(4, 1);
    if a.clone() + b.clone() > four {
        return false;
    }
    let (r, d) = surface_terms(a, b, c);
    if r < zero {
        return false;
    }
    T::sqrt_leq(&d, &r)
}

/// The two polynomial terms of the representability inequality,
/// `r = 8 + ab - 2a - 2b - 2c` and `d = ab(4-a)(4-b)`, evaluated through
/// the [`Num`] accumulation kernels: the kernel defaults reproduce the
/// historical operation-for-operation `f64` folds (subtraction is
/// exactly addition of the negation), while the exact backend
/// renormalizes each term once instead of per partial product/sum.
fn surface_terms<T: Num>(a: &T, b: &T, c: &T) -> (T, T) {
    let two = T::from_ratio(2, 1);
    let four = T::from_ratio(4, 1);
    let ab = a.clone() * b.clone();
    let r_terms = [
        T::from_ratio(8, 1),
        ab.clone(),
        -(two.clone() * a.clone()),
        -(two.clone() * b.clone()),
        -(two * c.clone()),
    ];
    let r = T::sum_of(r_terms.iter());
    let d_terms = [ab, four.clone() - a.clone(), four - b.clone()];
    (r, T::product_of(d_terms.iter()))
}

/// A smooth ranking of how comfortably `(a, b, c)` sits inside `S_rep`:
/// non-negative iff representable (up to backend exactness), larger is
/// deeper inside. Used by the rank-3 fixer to choose, among the values of
/// a variable, the one whose induced triple is most robustly
/// representable.
pub fn representability_score<T: Num>(a: &T, b: &T, c: &T) -> T {
    let zero = T::zero();
    if *a < zero || *b < zero || *c < zero {
        return T::from_ratio(-1, 1);
    }
    let four = T::from_ratio(4, 1);
    let slack = four.clone() - a.clone() - b.clone();
    if slack < zero {
        return slack - T::one();
    }
    let (r, d) = surface_terms(a, b, c);
    if r < zero {
        return r;
    }
    r.clone() * r - d
}

/// A closed interval `[lo, hi]` of reals with `f64` endpoints: the
/// arithmetic of the rank-3 fixer's score filter.
///
/// Every operation rounds each endpoint to nearest and then moves it one
/// ulp outward. A round-to-nearest result lies within half an ulp of the
/// exact one, so the result encloses the exact result of the operation
/// for every choice of operands in the operand intervals. The only
/// results kept unwidened are exact by construction: a product or
/// quotient with a zero operand, a sum or difference with one, and the
/// conversion of an integer of at most 53 bits. This is the interval
/// form of the forward error bounds of Shewchuk's adaptive predicates
/// ("Adaptive Precision Floating-Point Arithmetic and Fast Robust
/// Geometric Predicates", 1997): a decision the enclosure makes is
/// certain, and one it cannot make is left to exact arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// The lower endpoint.
    pub lo: f64,
    /// The upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// The interval of every real: it decides nothing.
    pub const UNBOUNDED: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The exact value `x`.
    pub fn point(x: f64) -> Interval {
        Interval { lo: x, hi: x }
    }

    /// An enclosure of the integer `n`: the point `n` when it has at
    /// most 53 significant bits, else one ulp either side of the
    /// correctly rounded `n as f64`.
    pub fn of_int(n: i128) -> Interval {
        let x = n as f64;
        if n.unsigned_abs() <= 1 << 53 {
            Interval::point(x)
        } else {
            Interval {
                lo: x.next_down(),
                hi: x.next_up(),
            }
        }
    }

    fn is_zero(self) -> bool {
        self.lo == 0.0 && self.hi == 0.0
    }

    /// The interval with every negative part cut off (for a quantity
    /// known to be non-negative).
    fn at_least_zero(self) -> Interval {
        Interval {
            lo: self.lo.max(0.0),
            hi: self.hi,
        }
    }

    /// The smallest interval containing both.
    fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn finite(self) -> Option<Interval> {
        (self.lo.is_finite() && self.hi.is_finite()).then_some(self)
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        if other.is_zero() {
            return self;
        }
        if self.is_zero() {
            return other;
        }
        Interval {
            lo: (self.lo + other.lo).next_down(),
            hi: (self.hi + other.hi).next_up(),
        }
    }
}

impl std::ops::Sub for Interval {
    type Output = Interval;

    fn sub(self, other: Interval) -> Interval {
        if other.is_zero() {
            return self;
        }
        Interval {
            lo: (self.lo - other.hi).next_down(),
            hi: (self.hi - other.lo).next_up(),
        }
    }
}

/// The product of two non-negative intervals (the only kind the score
/// filter multiplies).
impl std::ops::Mul for Interval {
    type Output = Interval;

    fn mul(self, other: Interval) -> Interval {
        debug_assert!(self.lo >= 0.0 && other.lo >= 0.0, "{self:?} · {other:?}");
        if self.is_zero() || other.is_zero() {
            return Interval::point(0.0);
        }
        Interval {
            lo: (self.lo * other.lo).next_down().max(0.0),
            hi: (self.hi * other.hi).next_up(),
        }
    }
}

/// The quotient of a non-negative interval by a positive one (the only
/// kind the score filter divides).
impl std::ops::Div for Interval {
    type Output = Interval;

    fn div(self, other: Interval) -> Interval {
        debug_assert!(self.lo >= 0.0 && other.lo > 0.0, "{self:?} / {other:?}");
        if self.is_zero() {
            return self;
        }
        Interval {
            lo: (self.lo / other.hi).next_down().max(0.0),
            hi: (self.hi / other.lo).next_up(),
        }
    }
}

/// An enclosure of [`representability_score`] over a box of triples:
/// `Some(s)` contains the exact score of every `(a, b, c)` in
/// `a × b × c`, so `s.lo ≥ 0` certifies representability, `s.hi < 0`
/// certifies its absence, and disjoint enclosures certify the order of
/// two scores. Where the box straddles one of the score's piece
/// boundaries (`a + b = 4` or `r = 0`, see [`representability_score`]),
/// `s` is the hull of the pieces' enclosures.
///
/// `None` when the box reaches below 0 or an endpoint overflows: there
/// the caller decides exactly.
///
/// # Examples
///
/// ```
/// use lll_core::triples::{score_enclosure, Interval};
///
/// // (1/4, 3/2, 1/10) from the paper's Figure 2, each coordinate known
/// // to within one ulp, sits comfortably inside S_rep.
/// let near = |x: f64| Interval { lo: x.next_down(), hi: x.next_up() };
/// let s = score_enclosure(near(0.25), near(1.5), near(0.1)).unwrap();
/// assert!(s.lo > 0.0 && s.hi - s.lo < 1e-12);
/// // The all-ones start state lies exactly on the surface (score 0):
/// // no enclosure of a box around it can certify the sign.
/// let s = score_enclosure(near(1.0), near(1.0), near(1.0)).unwrap();
/// assert!(s.lo < 0.0 && s.hi > 0.0);
/// ```
pub fn score_enclosure(a: Interval, b: Interval, c: Interval) -> Option<Interval> {
    if [a, b, c].iter().any(|x| !(x.lo >= 0.0 && x.hi.is_finite())) {
        return None;
    }
    let (two, four) = (Interval::point(2.0), Interval::point(4.0));
    let slack = four - a - b;
    // The score where `a + b > 4`.
    let outside = slack - Interval::point(1.0);
    if slack.hi < 0.0 {
        return outside.finite();
    }
    let ab = a * b;
    let r = Interval::point(8.0) + ab - two * a - two * b - two * c;
    let inside = if r.hi < 0.0 {
        r
    } else {
        // Where `a + b ≤ 4`, `4 − a, 4 − b ≥ 0`; where `r ≥ 0`, `r² − d`.
        let d = ab * (four - a).at_least_zero() * (four - b).at_least_zero();
        let r_pos = r.at_least_zero();
        let squared = r_pos * r_pos - d;
        if r.lo < 0.0 {
            r.hull(squared)
        } else {
            squared
        }
    };
    if slack.lo < 0.0 {
        outside.hull(inside).finite()
    } else {
        inside.finite()
    }
}

/// Brute-force inner maximisation of `c` over decompositions — the
/// reference against which [`f_surface`] is validated (test-only quality,
/// exported for the Figure 1 experiment).
pub fn max_c_brute(a: f64, b: f64, steps: usize) -> f64 {
    if a + b > 4.0 {
        return f64::NEG_INFINITY;
    }
    if a == 0.0 && b == 0.0 {
        return 4.0;
    }
    if a == 0.0 {
        return 4.0 - b;
    }
    if b == 0.0 {
        return 4.0 - a;
    }
    let lo = a / 2.0;
    let hi = 2.0 - b / 2.0;
    let mut best = 0.0f64;
    for i in 0..=steps {
        let x = lo + (hi - lo) * i as f64 / steps as f64;
        if x <= 0.0 || x >= 2.0 {
            continue;
        }
        let c = (2.0 - a / x) * (2.0 - b / (2.0 - x));
        best = best.max(c);
    }
    best
}

/// The six edge values witnessing representability (Definition 3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition<T> {
    /// Value on edge `{u,v}`, side `u`.
    pub a1: T,
    /// Value on edge `{u,w}`, side `u`.
    pub a2: T,
    /// Value on edge `{u,v}`, side `v`.
    pub b1: T,
    /// Value on edge `{v,w}`, side `v`.
    pub b3: T,
    /// Value on edge `{u,w}`, side `w`.
    pub c2: T,
    /// Value on edge `{v,w}`, side `w`.
    pub c3: T,
}

impl<T: Num> Decomposition<T> {
    /// Checks the Definition 3.3 constraints and that the products
    /// *cover* the triple (products ≥ `a`, `b`, `c` within `tol`, which
    /// is what property `P*` needs — exact callers pass zero tolerance).
    pub fn covers(&self, a: &T, b: &T, c: &T, tol: &T) -> bool {
        let zero = T::zero();
        let two = T::from_ratio(2, 1);
        let within = |v: &T| *v >= zero.clone() - tol.clone() && *v <= two.clone() + tol.clone();
        let vals = [&self.a1, &self.a2, &self.b1, &self.b3, &self.c2, &self.c3];
        if !vals.iter().all(|v| within(v)) {
            return false;
        }
        let sums_ok = self.a1.clone() + self.b1.clone() <= two.clone() + tol.clone()
            && self.a2.clone() + self.c2.clone() <= two.clone() + tol.clone()
            && self.b3.clone() + self.c3.clone() <= two + tol.clone();
        let prods_ok = self.a1.clone() * self.a2.clone() >= a.clone() - tol.clone()
            && self.b1.clone() * self.b3.clone() >= b.clone() - tol.clone()
            && self.c2.clone() * self.c3.clone() >= c.clone() - tol.clone();
        sums_ok && prods_ok
    }
}

/// Evaluates `c(x) = (2 − a/x)(2 − b/(2−x))` — the product `c₂c₃`
/// reachable with `a₁ = x` (requires `0 < x < 2`).
fn c_of_x<T: Num>(a: &T, b: &T, x: &T) -> T {
    let two = T::from_ratio(2, 1);
    (two.clone() - a.clone() / x.clone()) * (two.clone() - b.clone() / (two - x.clone()))
}

/// How many ternary-search iterations the exact decomposition performs
/// before falling back to the closed form. `(2/3)^128 ≈ 6e-23` of the
/// initial interval is far below any margin arising in practice.
const TERNARY_ITERS: usize = 128;

/// Constructively decomposes a representable triple into the six edge
/// values (Definition 3.3), with `c₂c₃` *exactly* `c` and the other two
/// products exactly `a` and `b`.
///
/// Follows the appendix proof of Lemma 3.5: degenerate zero coordinates
/// are handled in closed form, the general case searches the unimodal
/// family `c(x)`; for exact backends a candidate `x` is first guessed in
/// floating point and verified exactly, then recovered through the exact
/// algebraic closed form whenever `√D` is representable (in particular
/// for every triple exactly on the boundary surface), and finally located
/// by an exact ternary search for strictly interior triples.
///
/// On exact backends the floating-point guess `x_f` is first rounded to
/// `k = 1, 2, …, 53` fractional bits, and the first of these dyadics
/// that passes the exact check becomes `a₁`. The proof needs only
/// *some* `x ∈ [a/2, 2 − b/2]` with `c(x) ≥ c`: every such `x` yields
/// six values that satisfy Definition 3.3 and cover the triple, so `P*`
/// holds after the step, and the next step's existence argument uses
/// `P*` alone. A short `a₁` keeps the φ entries' numerators and
/// denominators short (the full 53-bit `x_f` would divide into `a₂`,
/// `b₃` and `c₂`). The `f64` backend takes `x_f` unrounded.
///
/// Returns `None` if the triple is not representable (or, for the `f64`
/// backend, sits too close to the boundary for the search to certify).
///
/// # Examples
///
/// ```
/// use lll_core::triples::decompose;
/// use lll_numeric::BigRational;
///
/// let (a, b, c) = (
///     BigRational::from_ratio(1, 4),
///     BigRational::from_ratio(3, 2),
///     BigRational::from_ratio(1, 10),
/// );
/// let d = decompose(&a, &b, &c).expect("representable");
/// assert_eq!(d.a1.clone() * d.a2.clone(), a); // products are exact
/// assert!(d.a1.clone() + d.b1.clone() <= BigRational::from_ratio(2, 1));
/// ```
pub fn decompose<T: Num>(a: &T, b: &T, c: &T) -> Option<Decomposition<T>> {
    if !is_representable(a, b, c) {
        return None;
    }
    let zero = T::zero();
    let two = T::from_ratio(2, 1);

    // Degenerate coordinates first (closed forms from the appendix).
    if a.is_zero() {
        let b3 = b.clone() / two.clone();
        let c3 = two.clone() - b3.clone();
        let c2 = if c3.is_zero() {
            zero.clone()
        } else {
            c.clone() / c3.clone()
        };
        return Some(Decomposition {
            a1: zero.clone(),
            a2: zero,
            b1: two,
            b3,
            c2,
            c3,
        });
    }
    if b.is_zero() {
        let a2 = a.clone() / two.clone();
        let c2 = two.clone() - a2.clone();
        let c3 = if c2.is_zero() {
            zero.clone()
        } else {
            c.clone() / c2.clone()
        };
        return Some(Decomposition {
            a1: two.clone(),
            a2,
            b1: zero.clone(),
            b3: zero,
            c2,
            c3,
        });
    }
    if c.is_zero() {
        let a1 = a.clone() / two.clone();
        let a2 = two.clone();
        let b1 = two.clone() - a1.clone();
        let b3 = b.clone() / b1.clone(); // b1 > 0 since a < 4 (else b = 0)
        return Some(Decomposition {
            a1,
            a2,
            b1,
            b3,
            c2: zero.clone(),
            c3: zero,
        });
    }

    // General case: find x in [a/2, 2 - b/2] with c(x) >= c.
    let lo = a.clone() / two.clone();
    let hi = two.clone() - b.clone() / two.clone();
    let build = |x: &T| -> Decomposition<T> {
        let a1 = x.clone();
        let a2 = a.clone() / x.clone();
        let b1 = two.clone() - x.clone();
        let b3 = b.clone() / (two.clone() - x.clone());
        let c3 = two.clone() - b3.clone();
        let c2 = if c3.is_zero() {
            T::zero()
        } else {
            c.clone() / c3.clone()
        };
        Decomposition {
            a1,
            a2,
            b1,
            b3,
            c2,
            c3,
        }
    };
    let good =
        |x: &T| -> bool { *x > zero && *x < two && *x >= lo && *x <= hi && c_of_x(a, b, x) >= *c };

    // 1. Floating-point guess at the arg-max of c(x), verified in T. Exact
    //    backends first try the guess rounded to k = 1, 2, … fractional
    //    bits and keep the first rounding that passes, so φ entries stay
    //    short; f64 takes the full guess, as it always has.
    if let Some(xf) = closed_form_x_f64(a.to_f64(), b.to_f64()) {
        let xf = xf.clamp(lo.to_f64(), hi.to_f64());
        if xf.is_finite() {
            if T::is_exact() {
                let mut tried = f64::NAN;
                for k in 1..=53 {
                    // Scaling by 2^k and rounding are exact in f64.
                    let scale = (1u64 << k) as f64;
                    let xk = (xf * scale).round() / scale;
                    if xk != tried {
                        tried = xk;
                        let x = T::from_f64_approx(xk);
                        if good(&x) {
                            return Some(build(&x));
                        }
                    }
                }
            }
            let x = T::from_f64_approx(xf);
            if good(&x) {
                return Some(build(&x));
            }
        }
    }

    // 2. Exact closed form: when √D is exactly representable (always for
    //    triples exactly on the boundary surface with rational c — there
    //    c = f(a, b) forces √D rational), the arg-max itself is exact.
    //    Tried before the ternary search because on the boundary the
    //    search can only converge *towards* the single good x, never
    //    reach it.
    if let Some(x) = closed_form_x_exact(a, b) {
        if good(&x) {
            return Some(build(&x));
        }
    }

    // 3. Ternary search on the unimodal c(x) (strictly interior triples).
    let mut l = lo.clone();
    let mut h = hi.clone();
    let third = T::from_ratio(1, 3);
    for _ in 0..TERNARY_ITERS {
        let gap = h.clone() - l.clone();
        let m1 = l.clone() + gap.clone() * third.clone();
        let m2 = h.clone() - gap * third.clone();
        if good(&m1) {
            return Some(build(&m1));
        }
        if good(&m2) {
            return Some(build(&m2));
        }
        if c_of_x(a, b, &m1) < c_of_x(a, b, &m2) {
            l = m1;
        } else {
            h = m2;
        }
    }
    None
}

/// Floating-point arg-max of `c(x)` (appendix of the paper):
/// `x₁ = (a(4−b) − √(ab(4−a)(4−b))) / (2(a−b))`, or `1` when `a = b`.
fn closed_form_x_f64(a: f64, b: f64) -> Option<f64> {
    if !(a > 0.0 && b > 0.0) {
        return None;
    }
    if (a - b).abs() < 1e-12 {
        return Some(1.0);
    }
    let d = (a * b * (4.0 - a) * (4.0 - b)).max(0.0);
    Some((a * (4.0 - b) - d.sqrt()) / (2.0 * (a - b)))
}

/// Exact arg-max of `c(x)` for backends where `√D` happens to be exactly
/// representable (`a = b`, or `D` a perfect rational square — decided by
/// [`Num::exact_sqrt`], which for the rational backend finds non-dyadic
/// roots like `√(7744/2025) = 88/45` exactly).
fn closed_form_x_exact<T: Num>(a: &T, b: &T) -> Option<T> {
    if a == b {
        return Some(T::one());
    }
    // x1 = (a(4-b) - sqrt(D)) / (2(a-b)); find sqrt(D) as a T if exact.
    let four = T::from_ratio(4, 1);
    let d = a.clone() * b.clone() * (four.clone() - a.clone()) * (four.clone() - b.clone());
    let s = d.exact_sqrt()?;
    let num = a.clone() * (four - b.clone()) - s;
    let den = T::from_ratio(2, 1) * (a.clone() - b.clone());
    Some(num / den)
}

/// The paper's potential function `φ` (Definition 3.1): one value in
/// `[0, 2]` per (dependency-graph edge, endpoint) pair, initially 1.
///
/// Property `P*` requires `φ_e^u + φ_e^v ≤ 2` on every edge and
/// `Pr[E_v | fixed] ≤ p · Π_{e∋v} φ_e^v` at every node; the audit lives
/// in [`audit_p_star`](crate::audit_p_star).
#[derive(Debug, Clone, PartialEq)]
pub struct Phi<T> {
    /// Per edge id: (value at min endpoint, value at max endpoint).
    values: Vec<(T, T)>,
    edges: Vec<(usize, usize)>,
}

impl<T: Num> Phi<T> {
    /// The all-ones potential on the edges of `g` (the paper's initial
    /// state).
    pub fn ones(g: &Graph) -> Phi<T> {
        Phi {
            values: vec![(T::one(), T::one()); g.num_edges()],
            edges: g.edges().to_vec(),
        }
    }

    /// The value `φ_e^v`.
    ///
    /// # Errors
    ///
    /// [`FixerError::NotAnEndpoint`] if `v` is not an endpoint of edge
    /// `eid` — adversarial-order drivers that mis-route a lookup get a
    /// typed error instead of an abort.
    pub fn get(&self, eid: usize, v: usize) -> Result<&T, FixerError> {
        let (a, b) = self.edges[eid];
        if v == a {
            Ok(&self.values[eid].0)
        } else if v == b {
            Ok(&self.values[eid].1)
        } else {
            Err(FixerError::NotAnEndpoint { edge: eid, node: v })
        }
    }

    /// Overwrites `φ_e^v`.
    ///
    /// # Errors
    ///
    /// [`FixerError::NotAnEndpoint`] if `v` is not an endpoint of edge
    /// `eid`; the potential is left unchanged.
    pub fn set(&mut self, eid: usize, v: usize, val: T) -> Result<(), FixerError> {
        let (a, b) = self.edges[eid];
        if v == a {
            self.values[eid].0 = val;
            Ok(())
        } else if v == b {
            self.values[eid].1 = val;
            Ok(())
        } else {
            Err(FixerError::NotAnEndpoint { edge: eid, node: v })
        }
    }

    /// Overwrites both values of edge `eid` with `other`'s (a sweep
    /// shard's potential over the same graph).
    pub(crate) fn copy_edge(&mut self, other: &Phi<T>, eid: usize) {
        self.values[eid].clone_from(&other.values[eid]);
    }

    /// The pair sum `φ_e^u + φ_e^v` of edge `eid` (sub-property (1) of
    /// `P*` demands ≤ 2).
    pub fn pair_sum(&self, eid: usize) -> T {
        self.values[eid].0.clone() + self.values[eid].1.clone()
    }

    /// The product `Π_{e∋v} φ_e^v` bounding event `v`'s probability
    /// blow-up (sub-property (2) of `P*`).
    pub fn product_at(&self, g: &Graph, v: usize) -> T {
        T::product_of(g.incident_edges(v).iter().map(|&eid| {
            self.get(eid, v)
                .expect("incident edges have v as an endpoint")
        }))
    }

    /// Number of edges carrying potential values.
    pub fn num_edges(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_numeric::BigRational;

    fn q(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn paper_figure2_triple_is_representable() {
        // Figure 2: (a, b, c) = (1/4, 3/2, 1/10).
        assert!(is_representable(&q(1, 4), &q(3, 2), &q(1, 10)));
        assert!(is_representable(&0.25f64, &1.5, &0.1));
        let d = decompose(&q(1, 4), &q(3, 2), &q(1, 10)).unwrap();
        assert!(d.covers(&q(1, 4), &q(3, 2), &q(1, 10), &BigRational::zero()));
        // a1 is a dyadic j/2^k with k <= 53 ...
        let den = d.a1.denom();
        let k = den.bit_len() - 1;
        assert_eq!(den, &(&lll_numeric::BigInt::one() << k), "a1 = {}", d.a1);
        assert!(k <= 53, "a1 = {}", d.a1);
        // ... and the products are still exact
        assert_eq!(d.a1.clone() * d.a2.clone(), q(1, 4));
        assert_eq!(d.b1.clone() * d.b3.clone(), q(3, 2));
        assert_eq!(d.c2.clone() * d.c3.clone(), q(1, 10));
    }

    #[test]
    fn extremes_of_s_rep() {
        // (0,0,4) is the apex.
        assert!(is_representable(&q(0, 1), &q(0, 1), &q(4, 1)));
        assert!(!is_representable(&q(0, 1), &q(0, 1), &q(41, 10)));
        // f(0, b) = 4 - b.
        assert!(is_representable(&q(0, 1), &q(3, 1), &q(1, 1)));
        assert!(!is_representable(&q(0, 1), &q(3, 1), &q(11, 10)));
        // a + b = 4 boundary: only c = 0 (f(a, 4-a) = ... >= 0).
        assert!(is_representable(&q(4, 1), &q(0, 1), &q(0, 1)));
        assert!(!is_representable(&q(4, 1), &q(0, 1), &q(1, 100)));
        assert!(!is_representable(&q(3, 1), &q(2, 1), &q(0, 1)));
        // f(2,2) = 0.
        assert!(is_representable(&q(2, 1), &q(2, 1), &q(0, 1)));
        assert!(!is_representable(&q(2, 1), &q(2, 1), &q(1, 1000)));
        // negative coordinates are never representable
        assert!(!is_representable(&q(-1, 1), &q(0, 1), &q(0, 1)));
        // all-ones (the initial φ state) is comfortably inside: f(1,1)=1.
        assert!(is_representable(&q(1, 1), &q(1, 1), &q(1, 1)));
        assert!(!is_representable(&q(1, 1), &q(1, 1), &q(1001, 1000)));
    }

    #[test]
    fn boundary_triple_with_rational_surface_decomposes_exactly() {
        // f(1,1) = 1 and D = 9 is a perfect square: the exact closed-form
        // fallback must handle (1,1,1).
        let d = decompose(&q(1, 1), &q(1, 1), &q(1, 1)).unwrap();
        assert!(d.covers(&q(1, 1), &q(1, 1), &q(1, 1), &BigRational::zero()));
        assert_eq!(d.c2.clone() * d.c3.clone(), q(1, 1));
    }

    #[test]
    fn boundary_triple_with_non_dyadic_sqrt_decomposes_exactly() {
        // (a, b) = (1/3, 16/15): D = ab(4−a)(4−b) = 7744/2025 is a
        // perfect rational square with the *non-dyadic* root
        // √D = 88/45, arg-max x = 2/3 and f(a, b) = 9/5 exactly. A
        // dyadic-only root search can never certify this boundary
        // triple — it needs the rational backend's exact perfect-square
        // roots (Num::exact_sqrt).
        let (a, b, c) = (q(1, 3), q(16, 15), q(9, 5));
        assert!(is_representable(&a, &b, &c));
        let d = decompose(&a, &b, &c).expect("triple exactly on the surface");
        assert!(d.covers(&a, &b, &c, &BigRational::zero()));
        assert_eq!(d.a1, q(2, 3), "decomposition sits at the exact arg-max");
        assert_eq!(d.c2.clone() * d.c3.clone(), c);
        // Nudged just above the surface it must be rejected again.
        let off = &c + &q(1, 1_000_000_000);
        assert!(!is_representable(&a, &b, &off));
        assert!(decompose(&a, &b, &off).is_none());
    }

    #[test]
    fn figure2_pair_on_and_just_off_the_surface() {
        // For the Figure 2 pair (a, b) = (1/4, 3/2): D = 225/64 with
        // √D = 15/8, so f(a, b) = 4 + ½(ab − 2a − 2b − √D) = 3/2
        // exactly. The surface point itself must decompose with exact
        // products, and any c beyond it must be rejected.
        let (a, b) = (q(1, 4), q(3, 2));
        let on = q(3, 2);
        assert!(is_representable(&a, &b, &on));
        let d = decompose(&a, &b, &on).expect("surface point is representable");
        assert!(d.covers(&a, &b, &on, &BigRational::zero()));
        assert_eq!(d.a1, q(1, 2), "exact arg-max x = 1/2");
        let off = &on + &q(1, 1_000_000_000_000);
        assert!(!is_representable(&a, &b, &off));
        assert!(decompose(&a, &b, &off).is_none());
        // The interior Figure 2 triple (c = 1/10 < 3/2) keeps working.
        assert!(decompose(&a, &b, &q(1, 10)).is_some());
    }

    #[test]
    fn surface_matches_brute_force() {
        for (a, b) in [
            (0.5, 0.5),
            (1.0, 2.0),
            (0.1, 3.5),
            (2.0, 1.9),
            (1.0, 1.0),
            (3.0, 0.2),
        ] {
            let f = f_surface(a, b);
            let brute = max_c_brute(a, b, 20_000);
            assert!(
                (f - brute).abs() < 1e-3,
                "f({a},{b}) = {f} vs brute {brute}"
            );
            // And the surface point itself is (just) representable in f64.
            assert!(is_representable(&a, &b, &(f - 1e-9)));
            assert!(!is_representable(&a, &b, &(f + 1e-6)));
        }
    }

    #[test]
    fn downward_closure() {
        // S_rep is downward closed: shrinking any coordinate preserves
        // membership (used implicitly by the fixer's "cover" semantics).
        let pts = [
            (q(1, 4), q(3, 2), q(1, 10)),
            (q(1, 1), q(1, 1), q(1, 1)),
            (q(2, 1), q(1, 1), q(1, 4)),
        ];
        for (a, b, c) in pts {
            assert!(is_representable(&a, &b, &c));
            let half = q(1, 2);
            assert!(is_representable(&(a.clone() * half.clone()), &b, &c));
            assert!(is_representable(&a, &(b.clone() * half.clone()), &c));
            assert!(is_representable(&a, &b, &(c * half)));
        }
    }

    #[test]
    fn score_sign_agrees_with_membership() {
        let cases = [
            (q(1, 1), q(1, 1), q(1, 1), true),
            (q(1, 1), q(1, 1), q(2, 1), false),
            (q(3, 1), q(2, 1), q(0, 1), false),
            (q(1, 4), q(3, 2), q(1, 10), true),
            (q(0, 1), q(0, 1), q(4, 1), true),
        ];
        for (a, b, c, member) in cases {
            assert_eq!(is_representable(&a, &b, &c), member);
            let score = representability_score(&a, &b, &c);
            assert_eq!(
                score >= BigRational::zero(),
                member,
                "score {score} for member {member}"
            );
        }
    }

    #[test]
    fn decompose_interior_triples_exactly() {
        let pts = [
            (q(1, 1), q(1, 1), q(1, 2)),
            (q(1, 2), q(1, 2), q(2, 1)),
            (q(3, 1), q(1, 2), q(1, 10)),
            (q(0, 1), q(2, 1), q(2, 1)),
            (q(2, 1), q(0, 1), q(1, 1)),
            (q(1, 1), q(3, 1), q(0, 1)),
            (q(0, 1), q(0, 1), q(4, 1)),
            (q(7, 8), q(9, 8), q(3, 4)),
        ];
        for (a, b, c) in pts {
            let d = decompose(&a, &b, &c)
                .unwrap_or_else(|| panic!("decompose failed for ({a}, {b}, {c})"));
            assert!(
                d.covers(&a, &b, &c, &BigRational::zero()),
                "({a}, {b}, {c}) -> {d:?}"
            );
            assert_eq!(d.c2.clone() * d.c3.clone(), c, "c product must be exact");
        }
    }

    #[test]
    fn decompose_rejects_non_representable() {
        assert!(decompose(&q(1, 1), &q(1, 1), &q(3, 2)).is_none());
        assert!(decompose(&q(3, 1), &q(2, 1), &q(0, 1)).is_none());
    }

    #[test]
    fn decompose_f64_backend() {
        for (a, b, c) in [
            (0.25, 1.5, 0.1),
            (1.0, 1.0, 0.5),
            (0.0, 2.0, 1.5),
            (2.5, 0.5, 0.3),
        ] {
            let d = decompose(&a, &b, &c).unwrap();
            assert!(d.covers(&a, &b, &c, &1e-9), "({a}, {b}, {c}) -> {d:?}");
        }
    }

    #[test]
    fn incurvedness_on_random_segments() {
        // Lemma 3.7: no segment between two outside points passes through
        // S_rep. Deterministic pseudo-random sampling.
        let mut state = 0x12345678u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 5.0) // in [0, 5)
        };
        let mut tested = 0;
        for _ in 0..2000 {
            let s = (rnd(), rnd(), rnd());
            let s2 = (rnd(), rnd(), rnd());
            if is_representable(&s.0, &s.1, &s.2) || is_representable(&s2.0, &s2.1, &s2.2) {
                continue;
            }
            tested += 1;
            for k in 1..10 {
                let t = k as f64 / 10.0;
                let m = (
                    s.0 * t + s2.0 * (1.0 - t),
                    s.1 * t + s2.1 * (1.0 - t),
                    s.2 * t + s2.2 * (1.0 - t),
                );
                // Allow a hair of float noise on the boundary.
                assert!(
                    !is_representable(&(m.0 + 1e-9), &(m.1 + 1e-9), &(m.2 + 1e-9)),
                    "segment {s:?} -- {s2:?} enters S_rep at t={t}"
                );
            }
        }
        assert!(tested > 100, "sampling produced too few outside pairs");
    }

    #[test]
    fn f_convexity_by_midpoints() {
        // Lemma 3.6 via midpoint convexity on a grid.
        let grid: Vec<f64> = (1..40).map(|i| i as f64 * 0.1).collect();
        for &a in &grid {
            for &b in &grid {
                if a + b >= 4.0 {
                    continue;
                }
                for (a2, b2) in [(a * 0.5, b * 0.7), (a * 0.9, (4.0 - a) * 0.5)] {
                    if a2 + b2 >= 4.0 || a2 <= 0.0 || b2 <= 0.0 {
                        continue;
                    }
                    let mid = f_surface((a + a2) / 2.0, (b + b2) / 2.0);
                    let avg = 0.5 * (f_surface(a, b) + f_surface(a2, b2));
                    assert!(
                        mid <= avg + 1e-9,
                        "convexity fails at ({a},{b})-({a2},{b2})"
                    );
                }
            }
        }
    }

    #[test]
    fn phi_basics() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut phi = Phi::<BigRational>::ones(&g);
        assert_eq!(phi.num_edges(), 3);
        let e01 = g.edge_id(0, 1).unwrap();
        assert_eq!(phi.get(e01, 0).unwrap(), &BigRational::one());
        assert_eq!(phi.pair_sum(e01), q(2, 1));
        assert_eq!(phi.product_at(&g, 1), BigRational::one());
        phi.set(e01, 1, q(3, 2)).unwrap();
        assert_eq!(phi.get(e01, 1).unwrap(), &q(3, 2));
        assert_eq!(phi.get(e01, 0).unwrap(), &BigRational::one());
        assert_eq!(phi.pair_sum(e01), q(5, 2));
        let e12 = g.edge_id(1, 2).unwrap();
        phi.set(e12, 1, q(1, 2)).unwrap();
        assert_eq!(phi.product_at(&g, 1), q(3, 4));
    }

    #[test]
    fn phi_rejects_foreign_nodes_with_typed_error() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut phi = Phi::<f64>::ones(&g);
        let e01 = g.edge_id(0, 1).unwrap();
        assert_eq!(
            phi.get(e01, 2).unwrap_err(),
            FixerError::NotAnEndpoint { edge: e01, node: 2 }
        );
        assert_eq!(
            phi.set(e01, 2, 1.5).unwrap_err(),
            FixerError::NotAnEndpoint { edge: e01, node: 2 }
        );
        // A failed set leaves the potential untouched.
        assert_eq!(phi.get(e01, 0).unwrap(), &1.0);
        assert_eq!(phi.get(e01, 1).unwrap(), &1.0);
    }
}
