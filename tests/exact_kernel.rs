//! Differential tests of the exact engine against plain rational folds.
//!
//! * The conditional-probability kernel (integer weights over interned
//!   common denominators) against a test-only `Σ Π p` fold, on every
//!   engine arm: stack and heap buffers, the truth table's
//!   occurring-tuple list, and the predicate odometer past the table
//!   limit; with mixed denominators (some past `i128`), ranks 1 to 3
//!   and impossible events.
//! * The shared rank-≤2 value search of both fixers against the
//!   rational argmin of `φ_e^u·Inc(u, y) + φ_e^v·Inc(v, y)`, exact ties
//!   and zero `φ` entries included, and replay against the live step.

use lll_core::{Fixer2, Fixer3, Instance, InstanceBuilder, PartialAssignment, Phi};
use lll_numeric::{BigRational, Num};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `Σ Π p` over every support tuple of event `v` consistent with
/// `fixed`, folded in plain rational steps.
fn reference(
    inst: &Instance<BigRational>,
    v: usize,
    fixed: &dyn Fn(usize) -> Option<usize>,
) -> BigRational {
    fn go(
        inst: &Instance<BigRational>,
        v: usize,
        fixed: &dyn Fn(usize) -> Option<usize>,
        values: &mut Vec<usize>,
        weight: BigRational,
        total: &mut BigRational,
    ) {
        let event = inst.event(v);
        let Some(&x) = event.support().get(values.len()) else {
            if event.occurs(values) {
                *total = &*total + &weight;
            }
            return;
        };
        let choices = match fixed(x) {
            Some(y) => y..y + 1,
            None => 0..inst.variable(x).num_values(),
        };
        for y in choices {
            let w = match fixed(x) {
                Some(_) => weight.clone(),
                None => &weight * inst.variable(x).prob(y),
            };
            values.push(y);
            go(inst, v, fixed, values, w, total);
            values.pop();
        }
    }
    let mut total = BigRational::zero();
    go(
        inst,
        v,
        fixed,
        &mut Vec::new(),
        BigRational::one(),
        &mut total,
    );
    total
}

/// Checks `probability` and every `probability_with` extension of
/// `partial` by one free variable against the reference, for every
/// event.
fn assert_matches_reference(inst: &Instance<BigRational>, partial: &PartialAssignment) {
    for v in 0..inst.num_events() {
        let want = reference(inst, v, &|x| partial.get(x));
        assert_eq!(inst.probability(v, partial), want, "event {v}");
        let support = inst.event(v).support();
        if let Some(&var) = support.iter().find(|&&x| partial.get(x).is_none()) {
            for value in 0..inst.variable(var).num_values() {
                let fixed = |x| {
                    if x == var {
                        Some(value)
                    } else {
                        partial.get(x)
                    }
                };
                let got = inst.probability_with(v, partial, var, value);
                assert_eq!(
                    got,
                    reference(inst, v, &fixed),
                    "event {v}, {var} = {value}"
                );
            }
        }
    }
}

/// Fixes each variable with probability one half, to a random value.
fn random_partial(inst: &Instance<BigRational>, rng: &mut StdRng) -> PartialAssignment {
    let mut partial = PartialAssignment::new(inst.num_variables());
    for x in 0..inst.num_variables() {
        if rng.random_bool(0.5) {
            partial.fix(x, rng.random_range(0..inst.variable(x).num_values()));
        }
    }
    partial
}

/// Biased probabilities over `k` values: weights `1..=5` over their sum,
/// so variables carry different denominators.
fn biased(k: usize, rng: &mut StdRng) -> Vec<BigRational> {
    let w: Vec<u64> = (0..k).map(|_| rng.random_range(1..6u64)).collect();
    let total: u64 = w.iter().sum();
    w.iter()
        .map(|&wi| BigRational::from_ratio(wi as i64, total))
        .collect()
}

/// Probabilities over `k` values with dyadic denominators near 2^55:
/// the `f64` values of biased weights, the last value taking the exact
/// remainder. A few such variables push the kernel's common
/// denominators past `i128` into the `Heap` tier.
fn dyadic(k: usize, rng: &mut StdRng) -> Vec<BigRational> {
    let mut probs: Vec<BigRational> = biased(k, rng)
        .iter()
        .map(|p| BigRational::from_f64(p.to_f64() * 0.999).expect("finite"))
        .collect();
    let rest = probs[..k - 1]
        .iter()
        .fold(BigRational::one(), |acc, p| &acc - p);
    probs[k - 1] = rest;
    probs
}

/// Value counts of event 0's support, one shape per engine arm:
/// a short tabled support; a tabled support longer than the 16-slot
/// stack buffers (kept small by single-valued variables); three
/// 33-valued variables, past the 2^15-entry table limit; and a long
/// untabled support.
fn arm_shape(arm: usize, extra: usize) -> Vec<usize> {
    match arm {
        0 => (0..1 + extra % 6).map(|i| 2 + (i + extra) % 3).collect(),
        1 => (0..17 + extra % 4)
            .map(|i| if i % 6 == 0 { 2 } else { 1 })
            .collect(),
        2 => vec![33; 3],
        _ => {
            let mut ks = vec![2; 11];
            ks.push(17);
            ks.extend(std::iter::repeat_n(1, 5 + extra % 3));
            ks
        }
    }
}

/// Event 0 over variables with the given value counts, occurring where a
/// weighted value sum hits `residue` modulo `modulus`; event 1 shares
/// event 0's first variable and owns one more.
fn arm_instance(
    ks: &[usize],
    modulus: usize,
    residue: usize,
    rng: &mut StdRng,
) -> Instance<BigRational> {
    let mut b = InstanceBuilder::<BigRational>::new(2);
    let support: Vec<usize> = ks
        .iter()
        .enumerate()
        .map(|(j, &k)| {
            let affects: &[usize] = if j == 0 { &[0, 1] } else { &[0] };
            b.add_variable(affects, biased(k, rng))
        })
        .collect();
    let own = b.add_uniform_variable(&[1], 3);
    let first = support[0];
    b.set_event_predicate(0, move |vals| {
        let sum: usize = support
            .iter()
            .enumerate()
            .map(|(i, &x)| (i + 1) * vals[x])
            .sum();
        sum % modulus == residue
    });
    b.set_event_predicate(1, move |vals| vals[first] + vals[own] == residue % 3);
    b.build().unwrap()
}

/// A random instance over `events` events with variables of rank 1 to
/// `max_rank` with 1 to 4 biased values, some with dyadic denominators. About one event in five never
/// occurs; the others occur where a seeded weighted value sum hits a
/// residue.
fn random_instance(seed: u64, events: usize, max_rank: usize) -> Instance<BigRational> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::<BigRational>::new(events);
    let mut supports = vec![Vec::new(); events];
    for _ in 0..events + rng.random_range(0..events + 2) {
        let rank = rng.random_range(1..max_rank + 1);
        let mut affects: Vec<usize> = (0..rank).map(|_| rng.random_range(0..events)).collect();
        affects.sort_unstable();
        affects.dedup();
        let k = rng.random_range(1..5usize);
        let probs = if rng.random_bool(0.3) {
            dyadic(k, &mut rng)
        } else {
            biased(k, &mut rng)
        };
        let x = b.add_variable(&affects, probs);
        for &ev in &affects {
            supports[ev].push(x);
        }
    }
    for (ev, support) in supports.into_iter().enumerate() {
        if rng.random_range(0..5u32) == 0 {
            continue;
        }
        let coef: Vec<usize> = support
            .iter()
            .map(|_| rng.random_range(1..4usize))
            .collect();
        let modulus = rng.random_range(2..5usize);
        let residue = rng.random_range(0..modulus);
        b.set_event_predicate(ev, move |vals| {
            let sum: usize = support.iter().zip(&coef).map(|(&x, &c)| c * vals[x]).sum();
            sum % modulus == residue
        });
    }
    b.build().unwrap()
}

/// The rational cost of fixing `x = y` from reference probabilities,
/// with `mul_div`'s zero-divisor convention: `Inc(u, y)` at rank 1,
/// `φ_e^u·Inc(u, y) + φ_e^v·Inc(v, y)` at rank 2.
fn reference_cost(
    inst: &Instance<BigRational>,
    partial: &PartialAssignment,
    phi: &Phi<BigRational>,
    x: usize,
    y: usize,
) -> BigRational {
    let fixed = |x0| if x0 == x { Some(y) } else { partial.get(x0) };
    let term = |ev: usize, w: &BigRational| {
        let old = reference(inst, ev, &|x0| partial.get(x0));
        BigRational::mul_div(reference(inst, ev, &fixed), w.clone(), old)
    };
    match *inst.variable(x).affects() {
        [u] => term(u, &BigRational::one()),
        [u, v] => {
            let eid = inst.dependency_graph().edge_id(u, v).unwrap();
            &term(u, phi.get(eid, u).unwrap()) + &term(v, phi.get(eid, v).unwrap())
        }
        _ => unreachable!("rank ≤ 2"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The kernel equals the rational fold on every engine arm, under
    /// the empty and a random partial assignment.
    #[test]
    fn kernel_matches_the_rational_fold_on_every_arm(
        extra in 0usize..64,
        modulus in 5usize..13,
        residue in 0usize..13,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for arm in 0..4 {
            let inst = arm_instance(&arm_shape(arm, extra), modulus, residue % modulus, &mut rng);
            assert_matches_reference(&inst, &PartialAssignment::new(inst.num_variables()));
            assert_matches_reference(&inst, &random_partial(&inst, &mut rng));
        }
    }

    /// The same on random instances of rank 1 to 3.
    #[test]
    fn kernel_matches_the_rational_fold_at_mixed_ranks(seed in 0u64..1 << 32) {
        let inst = random_instance(seed, 5, 3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..3 {
            assert_matches_reference(&inst, &random_partial(&inst, &mut rng));
        }
    }
}

/// Seven free dyadic variables make the common denominator about
/// 2^385, so the kernel's numerator and denominator are far past 256
/// bits.
#[test]
fn kernel_matches_the_rational_fold_past_256_bits() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = InstanceBuilder::<BigRational>::new(2);
    let xs: Vec<usize> = (0..7)
        .map(|i| {
            let affects: &[usize] = if i == 0 { &[0, 1] } else { &[0] };
            b.add_variable(affects, dyadic(2 + i % 2, &mut rng))
        })
        .collect();
    let own = b.add_variable(&[1], dyadic(3, &mut rng));
    let (first, fixed) = (xs[0], xs[3]);
    b.set_event_predicate(0, move |vals| {
        xs.iter().map(|&x| vals[x]).sum::<usize>() % 3 == 1
    });
    b.set_event_predicate(1, move |vals| vals[first] != vals[own]);
    let inst = b.build().unwrap();
    let mut partial = PartialAssignment::new(inst.num_variables());
    assert_matches_reference(&inst, &partial);
    partial.fix(fixed, 1);
    assert_matches_reference(&inst, &partial);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Run in a random order, every step of both fixers picks the
    /// rational argmin of its cost, the lowest index among exact ties,
    /// and writes the winner's weighted factors into φ (a winner that
    /// makes an event impossible writes a zero entry, and impossible
    /// events cost 0). Replaying the chosen values reproduces the state.
    #[test]
    fn rank_le2_search_is_the_rational_argmin(seed in 0u64..1 << 32) {
        let inst = random_instance(seed, 5, 2);
        let mut order: Vec<usize> = (0..inst.num_variables()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut f2 = Fixer2::new_unchecked(&inst).unwrap();
        let mut f3 = Fixer3::new_unchecked(&inst).unwrap();
        let mut replayed = Fixer2::new_unchecked(&inst).unwrap();
        for &x in &order {
            let costs: Vec<BigRational> = (0..inst.variable(x).num_values())
                .map(|y| reference_cost(&inst, f2.partial(), f2.phi(), x, y))
                .collect();
            let want = (0..costs.len()).fold(0, |b, y| if costs[y] < costs[b] { y } else { b });
            prop_assert_eq!(f2.fix_variable(x), Ok(want), "variable {}, costs {:?}", x, costs);
            prop_assert_eq!(f3.fix_variable(x), Ok(want));
            replayed.replay_variable(x, want).unwrap();
            if let [u, v] = *inst.variable(x).affects() {
                let eid = inst.dependency_graph().edge_id(u, v).unwrap();
                let phi = f2.phi();
                let sum = phi.get(eid, u).unwrap() + phi.get(eid, v).unwrap();
                prop_assert_eq!(&sum, &costs[want]);
            }
            prop_assert_eq!(f3.phi(), f2.phi());
            prop_assert_eq!(replayed.phi(), f2.phi());
            prop_assert_eq!(replayed.partial(), f2.partial());
        }
    }
}

/// Every value costs the same, `2·φ_e^0` or `2·φ_e^1`, so the four-way
/// exact tie selects value 0; its factors `Inc(0, 0) = 2` and
/// `Inc(1, 0) = 0` become the edge's φ entries.
#[test]
fn rank2_ties_select_lowest_value_index() {
    let mut b = InstanceBuilder::<BigRational>::new(2);
    let x = b.add_uniform_variable(&[0, 1], 4);
    let z = b.add_uniform_variable(&[0], 2);
    let w = b.add_uniform_variable(&[1], 2);
    b.set_event_predicate(0, move |vals| vals[x] < 2 && vals[z] == 0);
    b.set_event_predicate(1, move |vals| vals[x] >= 2 && vals[w] == 0);
    let inst = b.build().unwrap();
    let eid = inst.dependency_graph().edge_id(0, 1).unwrap();
    let mut fixer = Fixer2::new(&inst).unwrap();
    assert_eq!(fixer.fix_variable(x), Ok(0));
    assert_eq!(
        fixer.phi().get(eid, 0).unwrap(),
        &BigRational::from_ratio(2, 1)
    );
    assert!(fixer.phi().get(eid, 1).unwrap().is_zero());
    let mut fixer = Fixer3::new(&inst).unwrap();
    assert_eq!(fixer.fix_variable(x), Ok(0));
}
