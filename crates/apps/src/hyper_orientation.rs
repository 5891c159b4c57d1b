//! Hypergraph sinkless orientation — the paper's rank-3 application.
//!
//! Given a 3-uniform hypergraph, compute **three** orientations (each
//! hyperedge picks one of its three nodes as head, per orientation) such
//! that every node is a non-sink — i.e. *not* the head of all of its
//! hyperedges — in **at least two** of the three orientations.
//!
//! One random variable per hyperedge holds the triple of heads (27
//! uniform values), so each variable affects exactly the 3 events of its
//! nodes — rank 3. The bad event at a degree-`δ` node has probability
//! `3q²(1−q) + q³` with `q = 3^-δ` (sink in ≥ 2 of 3 independent
//! orientations), which drops *strictly below* the threshold `2^-d`
//! (with `d ≤ 2δ`) for every `δ ≥ 2` on linear hypergraphs — in contrast
//! to plain sinkless orientation, which sits exactly at the threshold.

use lll_core::{BuildError, Instance, InstanceBuilder};
use lll_graphs::Hypergraph;
use lll_numeric::Num;

use crate::AppError;

/// Number of independent orientations computed.
pub const NUM_ORIENTATIONS: usize = 3;

/// Builds the LLL instance: one 27-valued uniform variable per
/// (3-uniform) hyperedge, one bad event per node ("sink in ≥ 2 of the 3
/// orientations").
///
/// # Errors
///
/// Returns [`AppError::BadInput`] as
/// [`hyper_orientation_instance_general`] does for `m = 3, t = 2`.
pub fn hyper_orientation_instance<T: Num>(h: &Hypergraph) -> Result<Instance<T>, AppError> {
    hyper_orientation_instance_general(h, NUM_ORIENTATIONS, 2)
}

/// Decodes an assignment into heads: `heads[i][round]` is the *node*
/// chosen as head of hyperedge `i` in that orientation round.
pub fn heads_from_assignment(
    h: &Hypergraph,
    assignment: &[usize],
) -> Vec<[usize; NUM_ORIENTATIONS]> {
    assert_eq!(assignment.len(), h.num_edges(), "one value per hyperedge");
    (0..h.num_edges())
        .map(|i| {
            let nodes = h.edge(i).nodes();
            let y = assignment[i];
            [nodes[y % 3], nodes[(y / 3) % 3], nodes[(y / 9) % 3]]
        })
        .collect()
}

/// In how many of the three orientations is `v` a non-sink?
pub fn non_sink_rounds(h: &Hypergraph, heads: &[[usize; NUM_ORIENTATIONS]], v: usize) -> usize {
    (0..NUM_ORIENTATIONS)
        .filter(|&round| h.incident(v).iter().any(|&i| heads[i][round] != v))
        .count()
}

/// Whether the solution is valid: every node is a non-sink in at least
/// two orientations.
pub fn is_valid_orientation(h: &Hypergraph, heads: &[[usize; NUM_ORIENTATIONS]]) -> bool {
    (0..h.num_nodes()).all(|v| non_sink_rounds(h, heads, v) >= 2)
}

/// Generalisation of the paper's application: `m` independent
/// orientations, every node must be a non-sink in at least `t` of them.
/// The paper's setting is `m = 3, t = 2` ([`hyper_orientation_instance`]
/// is the specialisation). One variable per hyperedge with `3^m` uniform
/// values (one head per orientation) — rank stays 3 for any `m`.
///
/// # Errors
///
/// Returns [`AppError::BadInput`] for non-3-uniform hypergraphs,
/// isolated nodes, `m = 0`, `t = 0` or `t > m` (and `m > 6`, where the
/// value space `3^m` stops being sensible for the exact engine), or a
/// node with more than [`lll_core::MAX_BAD_TUPLES`] bad tuples (counted
/// with repeats).
pub fn hyper_orientation_instance_general<T: Num>(
    h: &Hypergraph,
    m: usize,
    t: usize,
) -> Result<Instance<T>, AppError> {
    if m == 0 || t == 0 || t > m || m > 6 {
        return Err(AppError::BadInput(format!(
            "need 1 <= t <= m <= 6, got m = {m}, t = {t}"
        )));
    }
    for (i, e) in h.edges().iter().enumerate() {
        if e.rank() != 3 {
            return Err(AppError::BadInput(format!(
                "hyperedge {i} has rank {}, need exactly 3",
                e.rank()
            )));
        }
    }
    if (0..h.num_nodes()).any(|v| h.degree(v) == 0) {
        return Err(AppError::BadInput(
            "isolated node can never be non-sink".to_owned(),
        ));
    }
    let num_values = 3usize.pow(m as u32);
    let mut b = InstanceBuilder::<T>::new(h.num_nodes());
    for i in 0..h.num_edges() {
        b.add_uniform_variable(h.edge(i).nodes(), num_values);
    }
    for v in 0..h.num_nodes() {
        // Variable ids are hyperedge ids, so support order is the
        // incident hyperedges' ids ascending; `heads[i]` is v's index in
        // the i-th. The event occurs iff v heads all of them in more
        // than m − t rounds: the union, over every set of m − t + 1
        // rounds, of the values with v as head in those rounds and any
        // heads in the other t − 1. The builder drops the repeats and
        // reads at most one tuple past its bound.
        let mut incident = h.incident(v).to_vec();
        incident.sort_unstable();
        let heads: Vec<usize> = incident
            .iter()
            .map(|&i| h.edge(i).nodes().iter().position(|&u| u == v))
            .collect::<Option<_>>()
            .expect("v is incident");
        let combos = 3usize
            .checked_pow((heads.len() * (t - 1)) as u32)
            .unwrap_or(usize::MAX);
        let sets = (0..1usize << m).filter(|set| set.count_ones() as usize == m - t + 1);
        let tuples = sets.flat_map(|set| {
            let heads = &heads;
            (0..combos).map(move |mut free| {
                let mut digit = |r: usize| {
                    if set >> r & 1 == 1 {
                        return None;
                    }
                    let d = free % 3;
                    free /= 3;
                    Some(d)
                };
                heads
                    .iter()
                    .map(|&head| {
                        (0..m)
                            .rev()
                            .fold(0, |y, r| 3 * y + digit(r).unwrap_or(head))
                    })
                    .collect::<Vec<usize>>()
            })
        });
        b.set_event_bad_tuples(v, tuples);
    }
    b.build()
        .map_err(|e: BuildError| AppError::BadInput(e.to_string()))
}

#[cfg(test)]
pub(crate) fn tests_support_fix(inst: &Instance<f64>) -> lll_core::FixReport {
    lll_core::Fixer3::new(inst)
        .expect("below threshold")
        .run_default()
        .expect("finite costs below the threshold")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::Fixer3;
    use lll_graphs::gen::{hyper_ring, random_3_uniform};
    use lll_graphs::Hyperedge;
    use lll_numeric::BigRational;

    /// The failure probability of a degree-`delta` node under `m` random
    /// orientations requiring `t` non-sink rounds: `Pr[sink in > m − t]`
    /// with per-round sink probability `q = 3^-delta`.
    fn analytic_failure(delta: usize, m: usize, t: usize) -> f64 {
        let q = 3f64.powi(-(delta as i32));
        let binomial =
            |n: usize, k: usize| (0..k).fold(1u64, |acc, i| acc * (n - i) as u64 / (i + 1) as u64);
        ((m - t + 1)..=m)
            .map(|j| binomial(m, j) as f64 * q.powi(j as i32) * (1.0 - q).powi((m - j) as i32))
            .sum()
    }

    /// The instance's former form: each event a predicate counting
    /// sink rounds.
    fn predicate_form<T: Num>(h: &Hypergraph, m: usize, t: usize) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(h.num_nodes());
        for i in 0..h.num_edges() {
            b.add_uniform_variable(h.edge(i).nodes(), 3usize.pow(m as u32));
        }
        for v in 0..h.num_nodes() {
            let incident: Vec<(usize, usize)> = h
                .incident(v)
                .iter()
                .map(|&i| (i, h.edge(i).nodes().iter().position(|&u| u == v).unwrap()))
                .collect();
            b.set_event_predicate(v, move |vals| {
                let sink_rounds = (0..m)
                    .filter(|&round| {
                        let divisor = 3usize.pow(round as u32);
                        incident
                            .iter()
                            .all(|&(x, pos)| (vals[x] / divisor) % 3 == pos)
                    })
                    .count();
                sink_rounds > m - t
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn bad_tuples_build_the_predicate_form() {
        let cases = [
            (
                hyper_ring(9),
                vec![(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)],
            ),
            (
                random_3_uniform(12, 4, 2).unwrap(),
                vec![(1, 1), (2, 1), (2, 2)],
            ),
        ];
        for (h, shapes) in cases {
            for (m, t) in shapes {
                let f = hyper_orientation_instance_general::<f64>(&h, m, t).unwrap();
                crate::assert_same_events(&f, &predicate_form(&h, m, t));
                let r = hyper_orientation_instance_general::<BigRational>(&h, m, t).unwrap();
                crate::assert_same_events(&r, &predicate_form(&h, m, t));
            }
        }
        let paper = hyper_orientation_instance::<f64>(&hyper_ring(9)).unwrap();
        crate::assert_same_events(&paper, &predicate_form(&hyper_ring(9), 3, 2));
    }

    #[test]
    fn criterion_holds_strictly_below_threshold() {
        let h = hyper_ring(12); // δ = 3, dependency degree 4
        let inst = hyper_orientation_instance::<BigRational>(&h).unwrap();
        assert_eq!(inst.max_dependency_degree(), 4);
        // p = 3q²(1-q) + q³ with q = 27^-1... q = 3^-3 = 1/27.
        let q = BigRational::from_ratio(1, 27);
        let one = BigRational::one();
        let three = BigRational::from_ratio(3, 1);
        let expected = &(&(&three * &q) * &q) * &(&one - &q) + &(&(&q * &q) * &q);
        assert_eq!(inst.max_event_probability(), expected);
        assert!(inst.satisfies_exponential_criterion());
        assert!(inst.criterion_value() < BigRational::from_ratio(1, 10));
    }

    #[test]
    fn fixer3_solves_hyper_ring() {
        let h = hyper_ring(10);
        let inst = hyper_orientation_instance::<f64>(&h).unwrap();
        let report = Fixer3::new(&inst).unwrap().run_default().unwrap();
        assert!(report.is_success());
        let heads = heads_from_assignment(&h, report.assignment());
        assert!(is_valid_orientation(&h, &heads));
    }

    #[test]
    fn fixer3_solves_random_3_uniform() {
        let h = random_3_uniform(18, 3, 5).unwrap();
        let inst = hyper_orientation_instance::<f64>(&h).unwrap();
        // Random hypergraphs may have dependency degree up to 6; the
        // criterion still holds (p ≈ 4e-3 < 2^-6).
        assert!(inst.satisfies_exponential_criterion());
        let report = Fixer3::new(&inst).unwrap().run_default().unwrap();
        assert!(report.is_success());
        let heads = heads_from_assignment(&h, report.assignment());
        assert!(is_valid_orientation(&h, &heads));
    }

    #[test]
    fn decoding_matches_encoding() {
        let h = hyper_ring(6);
        // Value 5 = 0·9 + 1·3 + 2: heads at local positions (2, 1, 0).
        let assignment = vec![5; 6];
        let heads = heads_from_assignment(&h, &assignment);
        let nodes = h.edge(0).nodes();
        assert_eq!(heads[0], [nodes[2], nodes[1], nodes[0]]);
    }

    #[test]
    fn validity_checker_catches_double_sinks() {
        let h = hyper_ring(6);
        // Every hyperedge heads toward its smallest node in all three
        // rounds (value 0). All three edges containing node 0 have 0 as
        // their minimum (ring wrap-around), so node 0 is a sink in every
        // round — the checker must reject.
        let heads = heads_from_assignment(&h, &[0; 6]);
        assert_eq!(non_sink_rounds(&h, &heads, 0), 0);
        assert!(!is_valid_orientation(&h, &heads));
        // Now a genuinely bad configuration on a tiny custom hypergraph:
        // one node in all hyperedges, always the head.
        let star = Hypergraph::new(
            5,
            vec![Hyperedge::new([0, 1, 2]), Hyperedge::new([0, 3, 4])],
            3,
        )
        .unwrap();
        let bad_heads = vec![[0, 0, 1], [0, 0, 3]];
        // Node 0 is sink in rounds 0 and 1 -> non-sink in only 1 round.
        assert_eq!(non_sink_rounds(&star, &bad_heads, 0), 1);
        assert!(!is_valid_orientation(&star, &bad_heads));
    }

    #[test]
    fn general_form_specialises_to_the_paper() {
        let h = hyper_ring(9);
        let special = hyper_orientation_instance::<BigRational>(&h).unwrap();
        let general = hyper_orientation_instance_general::<BigRational>(&h, 3, 2).unwrap();
        assert_eq!(
            special.max_event_probability(),
            general.max_event_probability()
        );
        assert_eq!(
            special.max_dependency_degree(),
            general.max_dependency_degree()
        );
    }

    #[test]
    fn analytic_failure_matches_exact_engine() {
        let h = hyper_ring(9); // delta = 3
        for (m, t) in [(2usize, 1usize), (3, 2), (4, 2)] {
            let inst = hyper_orientation_instance_general::<f64>(&h, m, t).unwrap();
            let analytic = analytic_failure(3, m, t);
            let measured = inst.max_event_probability();
            assert!(
                (analytic - measured).abs() < 1e-12,
                "m={m}, t={t}: analytic {analytic} vs engine {measured}"
            );
        }
    }

    #[test]
    fn stricter_demands_cross_the_threshold() {
        let h = hyper_ring(12); // delta = 3, d = 4
                                // t = 2 of 3: below threshold (the paper's setting).
        let relaxed = hyper_orientation_instance_general::<f64>(&h, 3, 2).unwrap();
        assert!(relaxed.satisfies_exponential_criterion());
        // t = 3 of 3 (non-sink in EVERY orientation): p jumps to
        // ~3·q = 1/9 > 2^-4 — above the threshold, as expected for the
        // unrelaxed problem.
        let strict = hyper_orientation_instance_general::<f64>(&h, 3, 3).unwrap();
        assert!(!strict.satisfies_exponential_criterion());
        // m = 2, t = 1: p = q² ... plus cross terms; still below.
        let two = hyper_orientation_instance_general::<f64>(&h, 2, 1).unwrap();
        assert!(two.satisfies_exponential_criterion());
        let report = crate::hyper_orientation::tests_support_fix(&two);
        assert!(report.is_success());
    }

    #[test]
    fn general_form_validation() {
        let h = hyper_ring(9);
        assert!(hyper_orientation_instance_general::<f64>(&h, 0, 0).is_err());
        assert!(hyper_orientation_instance_general::<f64>(&h, 3, 4).is_err());
        assert!(hyper_orientation_instance_general::<f64>(&h, 7, 2).is_err());
    }

    #[test]
    fn rejects_rank2_hyperedges() {
        let h = Hypergraph::new(3, vec![Hyperedge::new([0, 1])], 3).unwrap();
        assert!(matches!(
            hyper_orientation_instance::<f64>(&h),
            Err(AppError::BadInput(_))
        ));
    }
}
