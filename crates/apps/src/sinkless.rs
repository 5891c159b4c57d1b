//! Sinkless orientation — the problem *at* the sharp threshold.
//!
//! Orient every edge of a graph such that no node has all of its edges
//! pointing inward. With one fair coin per edge the bad event "node `v`
//! is a sink" has probability exactly `2^-deg(v)`, and the dependency
//! degree of the event equals `deg(v)`; on a `δ`-regular graph the
//! criterion value is `p·2^d = 2^-δ·2^δ = 1` — *exactly* the threshold.
//! This is the instance family behind the Ω(log log n) randomized and
//! Ω(log n) deterministic lower bounds the paper cites, and experiment
//! E9 uses it as the boundary witness: the deterministic fixers refuse
//! it (criterion check) while Moser–Tardos still solves it whenever the
//! classic criterion `e·p·(d+1) < 1` holds (δ ≥ 4).

use lll_core::{BuildError, Instance, InstanceBuilder};
use lll_graphs::Graph;
use lll_numeric::Num;

use crate::AppError;

/// Orientation of one edge: value `0` points the edge toward its
/// smaller-indexed endpoint, value `1` toward the larger.
pub const TOWARD_MIN: usize = 0;

/// Builds the sinkless-orientation LLL instance of a graph: one fair
/// binary variable per edge, one bad event ("is a sink") per node.
///
/// # Errors
///
/// Returns [`AppError::BadInput`] if the graph has an isolated node
/// (its sink event would be a certain event over no variables).
pub fn sinkless_orientation_instance<T: Num>(g: &Graph) -> Result<Instance<T>, AppError> {
    if (0..g.num_nodes()).any(|v| g.degree(v) == 0) {
        return Err(AppError::BadInput(
            "isolated node can never be non-sink".to_owned(),
        ));
    }
    let mut b = InstanceBuilder::<T>::new(g.num_nodes());
    // Variable x_e has id e; it affects both endpoints.
    for eid in 0..g.num_edges() {
        let (u, v) = g.edge(eid);
        b.add_uniform_variable(&[u, v], 2);
    }
    for v in 0..g.num_nodes() {
        // v is a sink iff every incident edge points toward v: one bad
        // tuple, in support order (variable ids ascending).
        let mut incident: Vec<(usize, usize)> = g
            .incident_edges(v)
            .iter()
            .map(|&eid| {
                let (a, _) = g.edge(eid);
                let toward_v = if v == a { TOWARD_MIN } else { 1 - TOWARD_MIN };
                (eid, toward_v)
            })
            .collect();
        incident.sort_unstable();
        let sink: Vec<usize> = incident.iter().map(|&(_, toward_v)| toward_v).collect();
        b.set_event_bad_tuples(v, [sink]);
    }
    b.build()
        .map_err(|e: BuildError| AppError::BadInput(e.to_string()))
}

/// Decodes an assignment into an orientation: `orientation[eid]` is the
/// node edge `eid` points *to* (the head).
pub fn orientation_from_assignment(g: &Graph, assignment: &[usize]) -> Vec<usize> {
    assert_eq!(assignment.len(), g.num_edges(), "one value per edge");
    (0..g.num_edges())
        .map(|eid| {
            let (u, v) = g.edge(eid);
            if assignment[eid] == TOWARD_MIN {
                u
            } else {
                v
            }
        })
        .collect()
}

/// Nodes that are sinks under the given orientation (heads per edge id).
pub fn sinks(g: &Graph, orientation: &[usize]) -> Vec<usize> {
    assert_eq!(orientation.len(), g.num_edges(), "one head per edge");
    (0..g.num_nodes())
        .filter(|&v| {
            g.degree(v) > 0 && g.incident_edges(v).iter().all(|&eid| orientation[eid] == v)
        })
        .collect()
}

/// Whether the orientation is sinkless.
pub fn is_sinkless(g: &Graph, orientation: &[usize]) -> bool {
    sinks(g, orientation).is_empty()
}

/// Expected number of sinks under uniformly random orientation —
/// `Σ_v 2^-deg(v)`; used by experiment E9 to show the random assignment
/// fails somewhere on large graphs (the quantity grows linearly in `n`
/// for bounded-degree graphs).
pub fn expected_sinks(g: &Graph) -> f64 {
    (0..g.num_nodes())
        .map(|v| 0.5f64.powi(g.degree(v) as i32))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::{Fixer2, FixerError};
    use lll_graphs::gen::{random_regular, ring, torus};
    use lll_mt::sequential_mt;
    use lll_numeric::BigRational;

    /// The instance's former form: each sink event a predicate.
    fn predicate_form<T: Num>(g: &Graph) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(g.num_nodes());
        for eid in 0..g.num_edges() {
            let (u, v) = g.edge(eid);
            b.add_uniform_variable(&[u, v], 2);
        }
        for v in 0..g.num_nodes() {
            let incident: Vec<(usize, usize)> = g
                .incident_edges(v)
                .iter()
                .map(|&eid| {
                    let toward_v = if v == g.edge(eid).0 {
                        TOWARD_MIN
                    } else {
                        1 - TOWARD_MIN
                    };
                    (eid, toward_v)
                })
                .collect();
            b.set_event_predicate(v, move |vals| {
                incident.iter().all(|&(x, toward_v)| vals[x] == toward_v)
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn bad_tuples_build_the_predicate_form() {
        for g in [torus(4, 4), ring(9), random_regular(20, 3, 5).unwrap()] {
            let f = sinkless_orientation_instance::<f64>(&g).unwrap();
            crate::assert_same_events(&f, &predicate_form(&g));
            let r = sinkless_orientation_instance::<BigRational>(&g).unwrap();
            crate::assert_same_events(&r, &predicate_form(&g));
        }
    }

    #[test]
    fn instance_sits_exactly_at_threshold_on_regular_graphs() {
        let g = torus(4, 4); // 4-regular
        let inst = sinkless_orientation_instance::<BigRational>(&g).unwrap();
        assert_eq!(inst.max_dependency_degree(), 4);
        assert_eq!(inst.max_event_probability(), BigRational::from_ratio(1, 16));
        assert_eq!(inst.criterion_value(), BigRational::one());
        assert!(!inst.satisfies_exponential_criterion());
        // The deterministic fixer refuses: this is the boundary.
        assert!(matches!(
            Fixer2::new(&inst),
            Err(FixerError::CriterionViolated { .. })
        ));
    }

    #[test]
    fn moser_tardos_solves_it_above_the_threshold() {
        let g = torus(5, 5); // 4-regular: classic criterion e/16·5 < 1 holds
        let inst = sinkless_orientation_instance::<f64>(&g).unwrap();
        assert!(inst.satisfies_classic_criterion());
        let rep = sequential_mt(&inst, 9, 100_000).unwrap();
        let orientation = orientation_from_assignment(&g, &rep.assignment);
        assert!(is_sinkless(&g, &orientation));
    }

    #[test]
    fn orientation_decoding_is_consistent() {
        let g = ring(4);
        // All edges toward the larger endpoint.
        let assignment = vec![1 - TOWARD_MIN; 4];
        let orientation = orientation_from_assignment(&g, &assignment);
        for (eid, &head) in orientation.iter().enumerate() {
            let (u, v) = g.edge(eid);
            assert_eq!(head, v, "edge ({u},{v})");
        }
        // Node 0's incident edges (0,1) and (0,3) point to 1 and 3: not a sink.
        assert!(!sinks(&g, &orientation).contains(&0));
    }

    #[test]
    fn sink_detection() {
        // Star K_{1,3}: all edges toward the center -> center is a sink.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let all_to_center = vec![0, 0, 0];
        assert_eq!(sinks(&g, &all_to_center), vec![0]);
        assert!(!is_sinkless(&g, &all_to_center));
        let away = vec![1, 2, 3];
        // Leaves are sinks now.
        assert_eq!(sinks(&g, &away), vec![1, 2, 3]);
    }

    #[test]
    fn expected_sinks_grows_linearly() {
        let small = random_regular(40, 4, 2).unwrap();
        let large = random_regular(400, 4, 2).unwrap();
        assert!((expected_sinks(&small) - 40.0 / 16.0).abs() < 1e-9);
        assert!((expected_sinks(&large) - 400.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_isolated_nodes() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(matches!(
            sinkless_orientation_instance::<f64>(&g),
            Err(AppError::BadInput(_))
        ));
    }

    use lll_graphs::Graph;
}
