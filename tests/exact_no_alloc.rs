//! The exact probability engine allocates nothing while its integers
//! stay in the `Small` tier: `probability` and `probability_with` on a
//! `BigRational` instance, up to events whose `Π lcd` sits just under
//! `i128::MAX`, and whole fixing steps of rank 1, 2 and 3 once the
//! fixer's buffers are warm, are counted by a global allocator that
//! tallies the calling thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lll_core::{Fixer2, Fixer3, Instance, InstanceBuilder, PartialAssignment};
use lll_numeric::{BigInt, BigRational};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: a thread being torn down may still free memory.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: each method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the only extra work is a
// thread-local counter update, which neither allocates nor touches the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller of `realloc` guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller of `dealloc` guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Every tuple over value counts `ks` (position 0 fastest) on which
/// `bad` holds: a wide event's bad set, listed by brute force.
fn tuples_where(ks: &[usize], bad: impl Fn(&[usize]) -> bool) -> Vec<Vec<usize>> {
    let size: usize = ks.iter().product();
    (0..size)
        .map(|idx| {
            let mut rest = idx;
            ks.iter()
                .map(|&k| {
                    let y = rest % k;
                    rest /= k;
                    y
                })
                .collect::<Vec<usize>>()
        })
        .filter(|t| bad(t))
        .collect()
}

/// Event 0 has a short support of three biased variables with mixed
/// denominators; event 1 shares the first and adds three 33-valued
/// variables, past `MAX_BAD_TUPLES` value combinations, so its bad set
/// is given as tuples (a list of about 15,000).
fn instance() -> Instance<BigRational> {
    let q = BigRational::from_ratio;
    let mut b = InstanceBuilder::<BigRational>::new(2);
    let x = b.add_variable(&[0, 1], vec![q(1, 6), q(1, 2), q(1, 3)]);
    let y = b.add_variable(&[0], vec![q(3, 10), q(7, 10)]);
    let z = b.add_uniform_variable(&[0], 4);
    for _ in 0..3 {
        b.add_uniform_variable(&[1], 33);
    }
    b.set_event_predicate(0, move |vals| vals[x] + vals[y] + vals[z] == 2);
    // Support order: x, then the three wide variables.
    b.set_event_bad_tuples(
        1,
        tuples_where(&[3, 33, 33, 33], |t| (t[0] + t[1] * t[2] + t[3]) % 7 == 3),
    );
    b.build().unwrap()
}

#[test]
fn exact_probabilities_on_small_values_allocate_nothing() {
    let inst = instance();
    let empty = PartialAssignment::new(inst.num_variables());
    let mut partial = empty.clone();
    partial.fix(1, 1);
    partial.fix(3, 5);
    for p in [&empty, &partial] {
        for v in 0..inst.num_events() {
            let (n, pr) = allocations(|| inst.probability(v, p));
            assert_eq!(n, 0, "probability({v}) = {pr} allocated");
            assert!(pr.is_positive());
            for value in 0..3 {
                let (n, pr) = allocations(|| inst.probability_with(v, p, 0, value));
                assert_eq!(n, 0, "probability_with({v}, x0 = {value}) = {pr} allocated");
            }
        }
    }
    // The counter sees this thread's allocations.
    let (n, _) = allocations(|| vec![0u8; 16]);
    assert_eq!(n, 1);
}

/// `Pr[X = 0] = 1/d`, `Pr[X = 1] = (d − 1)/d`: `lcd = d`, and value 1
/// weighs almost all of it.
fn skewed_coin(d: u128) -> Vec<BigRational> {
    let d = BigInt::from(d);
    let rest = &d - &BigInt::one();
    vec![
        BigRational::new(BigInt::one(), d.clone()),
        BigRational::new(rest, d),
    ]
}

/// `Σ Π p` over the occurring tuples of `support`, in rationals: the
/// fold the integer engine must agree with.
fn rational_fold(
    inst: &Instance<BigRational>,
    support: &[usize],
    occurs: impl Fn(&[usize]) -> bool,
) -> BigRational {
    let mut values = vec![0; support.len()];
    let mut total = BigRational::zero();
    loop {
        if occurs(&values) {
            let mut w = BigRational::one();
            for (&x, &y) in support.iter().zip(&values) {
                w = &w * inst.variable(x).prob(y);
            }
            total = &total + &w;
        }
        let Some(i) = (0..values.len()).find(|&i| values[i] + 1 < 2) else {
            return total;
        };
        values[i] += 1;
        values[..i].fill(0);
    }
}

/// Event 0 is certified by a hair: its `Π lcd` is
/// `(2^63 − 25)·(2^64 − 59)`, just under `i128::MAX`, and the tuple it
/// counts weighs almost all of it. Its probabilities stay in machine
/// words and allocate nothing. Event 1's `Π lcd` is past `2^128`: its
/// enumeration takes the `BigInt` fallback, which may allocate but
/// equals the rational fold.
#[test]
fn certificate_boundary_events() {
    let mut b = InstanceBuilder::<BigRational>::new(2);
    let (d0, d1) = ((1u128 << 63) - 25, (1u128 << 64) - 59);
    assert!(d0.checked_mul(d1).is_some_and(|p| p <= i128::MAX as u128));
    let u = b.add_variable(&[0], skewed_coin(d0));
    let v = b.add_variable(&[0], skewed_coin(d1));
    let w = b.add_variable(&[1], skewed_coin((1 << 64) + 13));
    let z = b.add_variable(&[1], skewed_coin((1 << 64) + 1));
    b.set_event_predicate(0, move |vals| vals[u] == 1 && vals[v] == 1);
    b.set_event_predicate(1, move |vals| vals[w] + vals[z] >= 1);
    let inst = b.build().unwrap();
    let empty = PartialAssignment::new(inst.num_variables());
    let mut partial = empty.clone();
    partial.fix(u, 1);

    for p in [&empty, &partial] {
        let (n, pr) = allocations(|| inst.probability(0, p));
        assert_eq!(n, 0, "certified probability {pr} allocated");
        for value in 0..2 {
            let (n, pr) = allocations(|| inst.probability_with(0, p, v, value));
            assert_eq!(
                n, 0,
                "certified probability_with(v = {value}) = {pr} allocated"
            );
        }
    }
    let want = rational_fold(&inst, &[u, v], |t| t == [1, 1]);
    assert_eq!(inst.probability(0, &empty), want);
    assert!(want.numer().is_inline() && want.denom().is_inline());

    let want = rational_fold(&inst, &[w, z], |t| t[0] + t[1] >= 1);
    assert!(
        !want.denom().is_inline(),
        "event 1's denominator is past i128"
    );
    assert_eq!(inst.probability(1, &empty), want);
    assert_eq!(inst.unconditional_probability(1), want);
}

/// A fixing step walks each touched event once into buffers the fixer
/// keeps across steps. Once a rank-1 and a rank-2 step have grown them
/// (and the step log has its first capacity), further rank-1 and rank-2
/// steps over no more values allocate nothing: the pass, the integer
/// value search and the φ update all stay in the `Small` tier. So does a
/// rank-3 step after a first one: its pass, its filtered winner search
/// (the candidate buffer is the fixer's), the winner's exact triple and
/// its `decompose`.
#[test]
fn warm_fixing_steps_on_small_values_allocate_nothing() {
    let q = BigRational::from_ratio;
    let mut b = InstanceBuilder::<BigRational>::new(2);
    let thirds = || vec![q(1, 6), q(1, 2), q(1, 3)];
    let thirds4 = || vec![q(1, 6), q(1, 3), q(1, 6), q(1, 3)];
    let a = b.add_variable(&[0, 1], thirds());
    let c = b.add_variable(&[0, 1], thirds());
    let wide4 = b.add_uniform_variable(&[0], 4);
    let coin = b.add_variable(&[0], vec![q(3, 10), q(7, 10)]);
    for _ in 0..3 {
        b.add_uniform_variable(&[1], 33);
    }
    b.set_event_predicate(0, move |vals| {
        vals[a] + vals[c] + vals[wide4] + vals[coin] == 2
    });
    // Support order: a, c, then the three wide variables; modulo 14
    // keeps the list within `MAX_BAD_TUPLES`.
    b.set_event_bad_tuples(
        1,
        tuples_where(&[3, 3, 33, 33, 33], |t| {
            (t[0] + t[1] + t[2] * t[3] + t[4]) % 14 == 3
        }),
    );
    let inst = b.build().unwrap();
    let mut fixer = Fixer2::new_unchecked(&inst).unwrap();
    // Warm-up: a 4-valued rank-1 step and a rank-2 step.
    fixer.fix_variable(wide4).unwrap();
    fixer.fix_variable(a).unwrap();
    for (x, rank) in [(c, 2), (coin, 1)] {
        let (n, y) = allocations(|| fixer.fix_variable(x));
        assert_eq!(
            n, 0,
            "rank-{rank} step on variable {x} (chose {y:?}) allocated"
        );
    }

    // Rank 3: three 4-valued variables on one hyperedge, and per event a
    // private variable with its own denominator.
    let mut b = InstanceBuilder::<BigRational>::new(3);
    let xs: Vec<usize> = (0..3)
        .map(|_| b.add_variable(&[0, 1, 2], thirds4()))
        .collect();
    let own: Vec<usize> = (0..3)
        .map(|e| {
            b.add_variable(
                &[e],
                vec![q(2, 7 + e as u64), q(5 + e as i64, 7 + e as u64)],
            )
        })
        .collect();
    for (e, &z) in own.iter().enumerate() {
        let xs = xs.clone();
        b.set_event_predicate(e, move |vals| {
            (vals[xs[0]] + 2 * vals[xs[1]] + vals[xs[2]] + e) % 4 == 0 && vals[z] == 0
        });
    }
    let inst = b.build().unwrap();
    let mut fixer = Fixer3::new(&inst).unwrap();
    fixer.fix_variable(xs[0]).unwrap();
    for &x in &xs[1..] {
        let (n, y) = allocations(|| fixer.fix_variable(x));
        assert_eq!(n, 0, "rank-3 step on variable {x} (chose {y:?}) allocated");
    }
}
