//! Differential tests of the exact engine against plain rational folds.
//!
//! * The conditional-probability kernel (integer weights over interned
//!   common denominators) against a test-only `Σ Π p` fold, on both
//!   engine arms (stack and heap buffers), for events built from a
//!   predicate and, past `MAX_BAD_TUPLES` value combinations, from
//!   shuffled bad tuples; with mixed denominators (some past `i128`),
//!   ranks 1 to 3 and impossible events.
//! * The shared rank-≤2 value search of both fixers against the
//!   rational argmin of `φ_e^u·Inc(u, y) + φ_e^v·Inc(v, y)`, exact ties
//!   and zero `φ` entries included.
//! * The filtered rank-3 winner search against the exact sort it
//!   replaced, under both value rules: built exact ties, near-ties
//!   below one `f64` ulp, triples exactly on the surface of `S_rep`, and
//!   events whose `Π lcd` is past `i128::MAX`.

use std::cmp::Ordering;

use lll_core::triples::{decompose, representability_score};
use lll_core::{
    Fixer2, Fixer3, Instance, InstanceBuilder, PartialAssignment, Phi, ValueRule, MAX_BAD_TUPLES,
};
use lll_numeric::{BigInt, BigRational, Num};
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

/// Value counts of event 0's support: a short support; a support
/// longer than the 16-slot stack buffers (its `Π k` kept small by
/// single-valued variables); three 33-valued variables, past
/// `MAX_BAD_TUPLES` value combinations; and a long support past it.
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
    let bad = move |values: &mut dyn Iterator<Item = usize>| {
        let sum: usize = values.enumerate().map(|(i, y)| (i + 1) * y).sum();
        sum % modulus == residue
    };
    let size: usize = ks.iter().product();
    if size <= MAX_BAD_TUPLES {
        b.set_event_predicate(0, move |vals| bad(&mut support.iter().map(|&x| vals[x])));
    } else {
        let mut tuples: Vec<Vec<usize>> = (0..size)
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
            .filter(|t| bad(&mut t.iter().copied()))
            .collect();
        tuples.shuffle(rng);
        b.set_event_bad_tuples(0, tuples);
    }
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

    /// The kernel equals the rational fold on every shape of
    /// `arm_shape`, under the empty and a random partial assignment.
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
    /// events cost 0).
    #[test]
    fn rank_le2_search_is_the_rational_argmin(seed in 0u64..1 << 32) {
        let inst = random_instance(seed, 5, 2);
        let mut order: Vec<usize> = (0..inst.num_variables()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut f2 = Fixer2::new_unchecked(&inst).unwrap();
        let mut f3 = Fixer3::new_unchecked(&inst).unwrap();
        for &x in &order {
            let costs: Vec<BigRational> = (0..inst.variable(x).num_values())
                .map(|y| reference_cost(&inst, f2.partial(), f2.phi(), x, y))
                .collect();
            let want = (0..costs.len()).fold(0, |b, y| if costs[y] < costs[b] { y } else { b });
            prop_assert_eq!(f2.fix_variable(x), Ok(want), "variable {}, costs {:?}", x, costs);
            prop_assert_eq!(f3.fix_variable(x), Ok(want));
            if let [u, v] = *inst.variable(x).affects() {
                let eid = inst.dependency_graph().edge_id(u, v).unwrap();
                let phi = f2.phi();
                let sum = phi.get(eid, u).unwrap() + phi.get(eid, v).unwrap();
                prop_assert_eq!(&sum, &costs[want]);
            }
            prop_assert_eq!(f3.phi(), f2.phi());
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

/// One rank-3 step of the sort the filtered search replaced, kept as
/// its oracle (on `f64` the search keeps this arithmetic and this order
/// of tried candidates). Every value's scaled triple
/// `s_y = (Inc(u,y)·a, Inc(v,y)·b, Inc(w,y)·c)` and its exact
/// representability score are built, the candidates sorted by the rule,
/// and the first triple that decomposes is spliced into a copy of
/// `phi`; if none does, the multiplicative fallback is. Returns the
/// chosen value, the updated copy and whether a triple decomposed.
fn oracle_rank3_step<T: Num>(
    inst: &Instance<T>,
    partial: &PartialAssignment,
    phi: &Phi<T>,
    x: usize,
    rule: ValueRule,
) -> (usize, Phi<T>, bool) {
    let [u, v, w] = *inst.variable(x).affects() else {
        panic!("variable {x} has rank 3");
    };
    let edge = |p: usize, q: usize| inst.dependency_graph().edge_id(p, q).unwrap();
    let (e, e1, e2) = (edge(u, v), edge(u, w), edge(v, w));
    let at = |eid: usize, node: usize| phi.get(eid, node).unwrap().clone();
    let a = at(e, u) * at(e1, u);
    let b = at(e, v) * at(e2, v);
    let c = at(e1, w) * at(e2, w);
    let (old_u, old_v, old_w) = (
        inst.probability(u, partial),
        inst.probability(v, partial),
        inst.probability(w, partial),
    );
    let inc_or_zero = |p: T, old: &T| {
        if old.is_zero() {
            T::zero()
        } else {
            p / old.clone()
        }
    };
    let mut candidates = Vec::new();
    for y in 0..inst.variable(x).num_values() {
        let sa = T::mul_div(
            inst.probability_with(u, partial, x, y),
            a.clone(),
            old_u.clone(),
        );
        let sb = T::mul_div(
            inst.probability_with(v, partial, x, y),
            b.clone(),
            old_v.clone(),
        );
        let p_w = if old_w.is_zero() {
            T::zero()
        } else {
            inst.probability_with(w, partial, x, y)
        };
        let sc = inc_or_zero(p_w, &old_w) * c.clone();
        candidates.push((representability_score(&sa, &sb, &sc), y, (sa, sb, sc)));
    }
    let cmp = |s1: &T, s2: &T| s1.partial_cmp(s2).expect("comparable scores");
    match rule {
        ValueRule::BestScore => {
            candidates.sort_by(|(s1, y1, _), (s2, y2, _)| cmp(s2, s1).then(y1.cmp(y2)));
        }
        ValueRule::FirstFeasible => candidates.sort_by(|(s1, y1, _), (s2, y2, _)| {
            let (r1, r2) = (*s1 >= T::zero(), *s2 >= T::zero());
            r2.cmp(&r1)
                .then(if r1 && r2 { y1.cmp(y2) } else { cmp(s2, s1) })
                .then(y1.cmp(y2))
        }),
    }
    let mut out = phi.clone();
    for (_, y, (sa, sb, sc)) in &candidates {
        if let Some(d) = decompose(sa, sb, sc) {
            for (eid, node, val) in [
                (e, u, d.a1),
                (e1, u, d.a2),
                (e, v, d.b1),
                (e2, v, d.b3),
                (e1, w, d.c2),
                (e2, w, d.c3),
            ] {
                out.set(eid, node, val).unwrap();
            }
            return (*y, out, true);
        }
    }
    let (_, y, (sa, sb, sc)) = candidates.swap_remove(0);
    let scale = |target: T, denom: &T| {
        if denom.is_zero() {
            T::zero()
        } else {
            target / denom.clone()
        }
    };
    let new_a1 = scale(sa, out.get(e1, u).unwrap());
    out.set(e, u, new_a1).unwrap();
    let new_b1 = scale(sb, out.get(e2, v).unwrap());
    out.set(e, v, new_b1).unwrap();
    let new_c2 = scale(sc, out.get(e2, w).unwrap());
    out.set(e1, w, new_c2).unwrap();
    (y, out, false)
}

/// Fixes every variable of `inst` in `order` under both rules, checking
/// each rank-3 step's value and `φ` against the oracle. Returns the
/// number of rank-3 steps checked.
fn assert_rank3_steps_match_the_oracle<T: Num>(
    inst: &Instance<T>,
    order: &[usize],
) -> Result<usize, TestCaseError> {
    let mut checked = 0;
    for rule in [ValueRule::BestScore, ValueRule::FirstFeasible] {
        let mut fixer = Fixer3::new_unchecked(inst).unwrap().with_rule(rule);
        let mut intact = true;
        for &x in order {
            let want = (inst.variable(x).rank() == 3)
                .then(|| oracle_rank3_step(inst, fixer.partial(), fixer.phi(), x, rule));
            let got = fixer.fix_variable(x);
            if let Some((y, phi, decomposed)) = want {
                prop_assert_eq!(got, Ok(y), "{:?}, variable {}", rule, x);
                prop_assert_eq!(fixer.phi(), &phi, "{:?}, variable {}", rule, x);
                intact &= decomposed;
                checked += 1;
            }
            prop_assert!(fixer.invariant_intact() || !intact);
        }
        prop_assert_eq!(fixer.invariant_intact(), intact, "{:?}", rule);
    }
    Ok(checked)
}

/// `k` probabilities: uniform, biased, or dyadic with denominators near
/// 2^55.
fn some_probs(k: usize, rng: &mut StdRng) -> Vec<BigRational> {
    match rng.random_range(0..3u32) {
        0 => vec![BigRational::from_ratio(1, k as u64); k],
        1 => biased(k, rng),
        _ => dyadic(k, rng),
    }
}

/// A random instance over 3 or 4 events whose main variables have rank
/// 3, with up to `max_k` values, beside rank-1 and rank-2 variables of
/// 2 or 3 values. An event occurs where a weighted value sum of its
/// support falls in a few residues, so uniform values and small moduli
/// give many exact score ties and triples on the surface of `S_rep`.
/// With `uncertified`, event 0 also gets two coins whose denominators
/// are past 2^64, so its `Π lcd` is past `i128::MAX`.
fn random_rank3_instance<T: Num>(seed: u64, max_k: usize, uncertified: bool) -> Instance<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let events = rng.random_range(3..5usize);
    let mut b = InstanceBuilder::<T>::new(events);
    let backend = |probs: Vec<BigRational>| probs.into_iter().map(T::from_rational).collect();
    let mut supports = vec![Vec::new(); events];
    let mut ks = Vec::new(); // value counts, by variable
    let main = if max_k > 8 {
        2
    } else {
        rng.random_range(1..4usize)
    };
    for _ in 0..main {
        let mut triple: Vec<usize> = (0..events).collect();
        triple.shuffle(&mut rng);
        triple.truncate(3);
        triple.sort_unstable();
        let k = rng.random_range(2..=max_k);
        let probs = if rng.random_bool(0.6) {
            vec![BigRational::from_ratio(1, k as u64); k]
        } else {
            some_probs(k, &mut rng)
        };
        let x = b.add_variable(&triple, backend(probs));
        ks.push(k);
        for &e in &triple {
            supports[e].push(x);
        }
    }
    for _ in 0..rng.random_range(0..4usize) {
        let u = rng.random_range(0..events);
        let mut affects = vec![u];
        if rng.random_bool(0.5) {
            affects.push((u + rng.random_range(1..events)) % events);
            affects.sort_unstable();
        }
        let k = rng.random_range(2..4usize);
        let x = b.add_variable(&affects, backend(some_probs(k, &mut rng)));
        ks.push(k);
        for &e in &affects {
            supports[e].push(x);
        }
    }
    if uncertified {
        for d in [(1u128 << 64) + 13, (1 << 64) + 1] {
            let d = BigInt::from(d);
            let rest = &d - &BigInt::one();
            let x = b.add_variable(
                &[0],
                backend(vec![
                    BigRational::new(BigInt::one(), d.clone()),
                    BigRational::new(rest, d),
                ]),
            );
            ks.push(2);
            supports[0].push(x);
        }
    }
    for (ev, support) in supports.into_iter().enumerate() {
        let coef: Vec<usize> = support
            .iter()
            .map(|_| rng.random_range(1..4usize))
            .collect();
        let modulus = rng.random_range(2..7usize);
        let hits: Vec<bool> = (0..modulus).map(|_| rng.random_bool(0.3)).collect();
        let bad = move |values: &mut dyn Iterator<Item = usize>| {
            let sum: usize = values.zip(&coef).map(|(y, &c)| c * y).sum();
            hits[sum % modulus]
        };
        let event_ks: Vec<usize> = support.iter().map(|&x| ks[x]).collect();
        let size: usize = event_ks.iter().product();
        if size <= MAX_BAD_TUPLES {
            b.set_event_predicate(ev, move |vals| bad(&mut support.iter().map(|&x| vals[x])));
        } else {
            // Past the bound (up to 64 values with the uncertified
            // coins): the predicate's first `MAX_BAD_TUPLES` bad tuples
            // in index order.
            let tuples = (0..size)
                .map(|idx| {
                    let mut rest = idx;
                    event_ks
                        .iter()
                        .map(|&k| {
                            let y = rest % k;
                            rest /= k;
                            y
                        })
                        .collect::<Vec<usize>>()
                })
                .filter(|t| bad(&mut t.iter().copied()))
                .take(MAX_BAD_TUPLES);
            b.set_event_bad_tuples(ev, tuples);
        }
    }
    b.build().unwrap()
}

/// Three events on one hyperedge, the main variable `x` on all three
/// with probabilities `px`, and per event `e` a private uniform
/// variable `z_e` over `moduli[e]` values: event `e` occurs iff
/// `z_e < thresholds[e][x]`. So `Inc(e, y) = t_e(y) / Σ_y' px(y')·t_e(y')`
/// at the first step, and the thresholds place the candidate triples
/// where a case needs them. Variable 0 is `x`.
fn threshold_instance<T: Num>(
    px: &[BigRational],
    thresholds: [Vec<usize>; 3],
    moduli: [usize; 3],
) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(3);
    let x = b.add_variable(
        &[0, 1, 2],
        px.iter().cloned().map(T::from_rational).collect(),
    );
    for (e, (t, m)) in thresholds.into_iter().zip(moduli).enumerate() {
        let z = b.add_uniform_variable(&[e], m);
        b.set_event_predicate(e, move |vals| vals[z] < t[vals[x]]);
    }
    b.build().unwrap()
}

/// Event 0 occurs on `x = 1` with probability `q1` and on `x = 2` with
/// probability `q2` (through two private coins); events 1 and 2 only on
/// `x = 0`. So `s_1 = (3·q1/(q1+q2), 0, 0)` and `s_2 = (3·q2/(q1+q2), 0,
/// 0)`: scores `(8 − 2·s)²` as close as `q1` and `q2` are.
fn near_tie_instance<T: Num>(q1: BigRational, q2: BigRational) -> Instance<T> {
    let coin = |q: &BigRational| {
        vec![
            T::from_rational(q.clone()),
            T::from_rational(&BigRational::one() - q),
        ]
    };
    let mut b = InstanceBuilder::<T>::new(3);
    let x = b.add_uniform_variable(&[0, 1, 2], 3);
    let z1 = b.add_variable(&[0], coin(&q1));
    let z2 = b.add_variable(&[0], coin(&q2));
    let half = BigRational::from_ratio(1, 2);
    let z3 = b.add_variable(&[1], coin(&half));
    let z4 = b.add_variable(&[2], coin(&half));
    b.set_event_predicate(0, move |vals| {
        (vals[x] == 1 && vals[z1] == 0) || (vals[x] == 2 && vals[z2] == 0)
    });
    b.set_event_predicate(1, move |vals| vals[x] == 0 && vals[z3] == 0);
    b.set_event_predicate(2, move |vals| vals[x] == 0 && vals[z4] == 0);
    b.build().unwrap()
}

/// Near-ties through two different events: event 0 occurs on `x = 1`
/// or `x = 0` by the values of its private 3-valued variable, with
/// weights `(p, q, r)`; event 1 likewise on `x = 2` or `x = 0`, with
/// weights `(λp + ε, λq − ε, λr)`; event 2 only on `x = 0`. So
/// `s_1 = (3p/(p+q), 0, 0)` and `s_2 = (0, 3(λp+ε)/(λ(p+q)), 0)`: their
/// scores differ by about `ε/(λ(p+q))` relative, below one ulp, and the
/// two are rounded through different per-event constants.
fn cross_near_tie_instance<T: Num>(p: u64, q: u64, r: u64, lambda: u64, eps: i64) -> Instance<T> {
    let weights = |w: [u64; 3]| {
        let total: u64 = w.iter().sum();
        w.iter()
            .map(|&wi| T::from_rational(BigRational::from_ratio(wi as i64, total)))
            .collect::<Vec<_>>()
    };
    let shifted = |v: u64, d: i64| v.checked_add_signed(d).unwrap();
    let mut b = InstanceBuilder::<T>::new(3);
    let x = b.add_uniform_variable(&[0, 1, 2], 3);
    let zu = b.add_variable(&[0], weights([p, q, r]));
    let zv = b.add_variable(
        &[1],
        weights([
            shifted(lambda * p, eps),
            shifted(lambda * q, -eps),
            lambda * r,
        ]),
    );
    let zw = b.add_uniform_variable(&[2], 2);
    b.set_event_predicate(0, move |vals| {
        (vals[x] == 1 && vals[zu] == 0) || (vals[x] == 0 && vals[zu] == 1)
    });
    b.set_event_predicate(1, move |vals| {
        (vals[x] == 2 && vals[zv] == 0) || (vals[x] == 0 && vals[zv] == 1)
    });
    b.set_event_predicate(2, move |vals| vals[x] == 0 && vals[zw] == 0);
    b.build().unwrap()
}

/// The built cases: exact ties of different triples, near-ties below
/// one `f64` ulp in both directions, triples on the surface of `S_rep`,
/// and an uncertified event; each is checked against the oracle.
fn built_rank3_cases<T: Num>(perturb: &[i64]) -> Vec<(String, Instance<T>)> {
    let q = BigRational::from_ratio;
    let u3 = || vec![q(1, 3); 3];
    let mut cases = vec![
        // s_0 = (0,0,3), s_1 = (3,0,0), s_2 = (0,3,0): three different
        // triples, one exact score 4; value 0 wins.
        (
            "exact three-way tie".to_owned(),
            threshold_instance(&u3(), [vec![0, 1, 0], vec![0, 0, 1], vec![1, 0, 0]], [2; 3]),
        ),
        // s_1 = (5/2, 0, 0) and s_2 = (0, 5/2, 0) tie at 9 above
        // s_0 = (0, 0, 5); value 1 wins.
        (
            "exact tie of swapped triples".to_owned(),
            threshold_instance(
                &[q(1, 5), q(2, 5), q(2, 5)],
                [vec![0, 1, 0], vec![0, 0, 1], vec![1, 0, 0]],
                [2; 3],
            ),
        ),
        // s_0 = (1, 1, 1), the all-ones start state, exactly on the
        // surface; s_1 = (2, 2, 2) outside, s_2 = (0, 0, 0).
        (
            "all-ones triple".to_owned(),
            threshold_instance(&u3(), [vec![1, 2, 0], vec![1, 2, 0], vec![1, 2, 0]], [4; 3]),
        ),
        // s_0 = (1/2, 1/2, 9/4) and s_1 = (3/2, 3/2, 1/4), both of the
        // surface family (a, a, (2 − a)²); s_2 = (1, 1, 3/4) inside.
        (
            "(a, a, (2 - a)^2) triples".to_owned(),
            threshold_instance(
                &[q(1, 4), q(1, 4), q(1, 2)],
                [vec![1, 3, 2], vec![1, 3, 2], vec![9, 1, 3]],
                [9; 3],
            ),
        ),
    ];
    // s_0 = (1/m, 1/m, (2 − 1/m)²) on the surface, off the dyadics: x
    // uniform over 4 values, `Inc(e, 0) = 4·t_0 / Σ_y t_y`.
    for m in 3..13 {
        let split = |t0: usize, rest: usize| vec![t0, rest / 3, rest / 3, rest - 2 * (rest / 3)];
        let (tu, tw) = (
            split(1, 4 * m - 1),
            split((2 * m - 1) * (2 * m - 1), 4 * m - 1),
        );
        let modulus = (2 * m - 1) * (2 * m - 1);
        cases.push((
            format!("(1/{m}, 1/{m}, (2 - 1/{m})^2) triple"),
            threshold_instance(&vec![q(1, 4); 4], [tu.clone(), tu, tw], [modulus; 3]),
        ));
    }
    // Coins 1/2 + δ against 1/2, δ = ±2^-e: scores a hair apart, either
    // way round.
    for &p in perturb {
        let delta = BigRational::new(BigInt::from(p.signum()), &BigInt::one() << p.unsigned_abs());
        let q1 = &q(1, 2) + &delta;
        cases.push((
            format!("near-tie 1/2 + {delta}"),
            near_tie_instance(q1, q(1, 2)),
        ));
    }
    let mut rng = StdRng::seed_from_u64(0x7e5);
    for _ in 0..48 {
        let (p, q, r) = (
            rng.random_range(1u64 << 38..1 << 40),
            rng.random_range(1u64 << 38..1 << 40),
            rng.random_range(1u64 << 38..1 << 40),
        );
        let (lambda, eps) = (
            rng.random_range(1u64 << 18..1 << 20) | 1,
            if rng.random_bool(0.5) { 1 } else { -1 },
        );
        cases.push((
            format!("cross near-tie ({p}, {q}, {r}) x {lambda} {eps:+}"),
            cross_near_tie_instance(p, q, r, lambda, eps),
        ));
    }
    cases.push((
        "uncertified event".to_owned(),
        random_rank3_instance(3, 4, true),
    ));
    cases
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Run in a random order under both value rules and on both
    /// backends, every rank-3 step chooses the value the old sort chose
    /// and writes the same `φ`.
    #[test]
    fn rank3_search_is_the_rational_argmax(seed in 0u64..1 << 32, wide in 0u32..5) {
        let inst = random_rank3_instance::<BigRational>(seed, 6, wide == 0);
        let mut order: Vec<usize> = (0..inst.num_variables()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        assert_rank3_steps_match_the_oracle(&inst, &order)?;
        let inst = random_rank3_instance::<f64>(seed, 6, wide == 0);
        assert_rank3_steps_match_the_oracle(&inst, &order)?;
    }
}

/// The built cases on both backends, each in its natural order and
/// reversed.
#[test]
fn rank3_search_is_the_rational_argmax_on_built_cases() {
    fn check<T: Num>() {
        let perturb: Vec<i64> = (40..72).flat_map(|e| [e, -e]).collect();
        for (tag, inst) in built_rank3_cases::<T>(&perturb) {
            let order: Vec<usize> = (0..inst.num_variables()).collect();
            let rev: Vec<usize> = order.iter().rev().copied().collect();
            for o in [order, rev] {
                let checked = assert_rank3_steps_match_the_oracle(&inst, &o)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert!(checked >= 2, "{tag}");
            }
        }
    }
    check::<BigRational>();
    check::<f64>();
}

/// The built cases really are what they say: the ties are exact, the
/// near-ties differ by less than an ulp of their `f64` scores, and the
/// surface triples score exactly 0.
#[test]
fn built_rank3_cases_hold_their_ties() {
    let score = |inst: &Instance<BigRational>, y: usize| {
        let partial = PartialAssignment::new(inst.num_variables());
        let s: Vec<BigRational> = (0..3)
            .map(|e| {
                let old = inst.probability(e, &partial);
                BigRational::mul_div(
                    inst.probability_with(e, &partial, 0, y),
                    BigRational::one(),
                    old,
                )
            })
            .collect();
        representability_score(&s[0], &s[1], &s[2])
    };
    let cases = built_rank3_cases::<BigRational>(&[60, -60]);
    let q = BigRational::from_ratio;
    let all = |i: usize| (0..3).map(|y| score(&cases[i].1, y)).collect::<Vec<_>>();
    assert_eq!(all(0), vec![q(4, 1); 3]);
    assert_eq!(all(1)[1..], [q(9, 1), q(9, 1)]);
    assert_eq!(all(2)[0], q(0, 1));
    assert_eq!(all(3)[..2], [q(0, 1), q(0, 1)]);
    let tagged = |prefix: &'static str| cases.iter().filter(move |c| c.0.starts_with(prefix));
    assert_eq!(tagged("(1/").count(), 10);
    for case in tagged("(1/") {
        assert_eq!(score(&case.1, 0), q(0, 1), "{}", case.0);
    }
    let near: Vec<_> = tagged("near-tie").collect();
    assert_eq!(near.len(), 2);
    for case in &near {
        let (s1, s2) = (score(&case.1, 1), score(&case.1, 2));
        assert_ne!(s1, s2, "{}", case.0);
        let ulp = s2.to_f64().next_up() - s2.to_f64();
        assert!((&s1 - &s2).to_f64().abs() < ulp, "{}", case.0);
    }
    // δ = +2^-60 makes value 1's score the lower one.
    assert_eq!(
        score(&near[0].1, 1).cmp(&score(&near[0].1, 2)),
        Ordering::Less
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The long-budget variant that CI runs in release mode: more cases,
    /// and up to 64 values per variable.
    #[test]
    #[ignore = "long budget: cargo test --release --test exact_kernel -- --ignored"]
    fn rank3_search_is_the_rational_argmax_long(seed in 0u64..1 << 32, max_k in 2usize..65, wide in 0u32..5) {
        let inst = random_rank3_instance::<BigRational>(seed, max_k, wide == 0);
        let mut order: Vec<usize> = (0..inst.num_variables()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        assert_rank3_steps_match_the_oracle(&inst, &order)?;
        let inst = random_rank3_instance::<f64>(seed, max_k, wide == 0);
        assert_rank3_steps_match_the_oracle(&inst, &order)?;
    }
}
