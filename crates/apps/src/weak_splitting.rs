//! Relaxed weak splitting — the paper's second application.
//!
//! Weak splitting: given a bipartite graph `B = (V ∪ U, E)`, color the
//! nodes of `U` such that every node of `V` sees at least a prescribed
//! number of distinct colors among its neighbors. The standard variant
//! (2 colors, see both) is P-SLOCAL-complete and sits *above* the
//! exponential threshold; the paper relaxes it to `r ≤ 3` (maximum
//! degree on the `U` side), **16 colors**, and the requirement to see at
//! least **2** distinct colors — which drops strictly below `p = 2^-d`
//! whenever every `V` node has degree ≥ 3, so the rank-3 fixer solves it
//! deterministically.
//!
//! The bad event at `v ∈ V` is "all neighbors of `v` received the same
//! color": probability `colors^(1-deg(v))`.

use lll_core::{BuildError, Instance, InstanceBuilder};
use lll_graphs::Graph;
use lll_numeric::Num;

use crate::AppError;

/// The paper's palette size for the relaxed variant.
pub const DEFAULT_COLORS: usize = 16;

/// Builds the weak-splitting LLL instance.
///
/// `bip` must be bipartite with constraint side `V = 0..nv` and variable
/// side `U = nv..`; every `U` node becomes one uniform variable over
/// `colors` values affecting its `V` neighbors; every `V` node becomes
/// the bad event "sees fewer than 2 distinct colors".
///
/// # Errors
///
/// Returns [`AppError::BadInput`] if an edge fails to cross the
/// bipartition, a `U` node has degree > 3 (rank bound) or 0, or a `V`
/// node has degree 0 (it can never see 2 colors... it has nothing to
/// see — such inputs are rejected rather than silently satisfied).
pub fn weak_splitting_instance<T: Num>(
    bip: &Graph,
    nv: usize,
    colors: usize,
) -> Result<Instance<T>, AppError> {
    let n = bip.num_nodes();
    if nv == 0 || nv >= n {
        return Err(AppError::BadInput(format!(
            "invalid split nv = {nv} of {n} nodes"
        )));
    }
    for &(a, b) in bip.edges() {
        if (a < nv) == (b < nv) {
            return Err(AppError::BadInput(format!(
                "edge ({a},{b}) does not cross the split"
            )));
        }
    }
    if colors < 2 {
        return Err(AppError::BadInput("need at least 2 colors".to_owned()));
    }
    for u in nv..n {
        if bip.degree(u) > 3 {
            return Err(AppError::BadInput(format!(
                "U node {u} has degree {} > 3 (rank bound r = 3)",
                bip.degree(u)
            )));
        }
        if bip.degree(u) == 0 {
            return Err(AppError::BadInput(format!("U node {u} is isolated")));
        }
    }
    for v in 0..nv {
        if bip.degree(v) == 0 {
            return Err(AppError::BadInput(format!("V node {v} is isolated")));
        }
    }

    let mut b = InstanceBuilder::<T>::new(nv);
    for u in nv..n {
        b.add_uniform_variable(bip.neighbors(u), colors);
    }
    // Monochromatic: one bad tuple per color.
    for v in 0..nv {
        b.set_event_bad_tuples(v, (0..colors).map(|c| vec![c; bip.degree(v)]));
    }
    b.build()
        .map_err(|e: BuildError| AppError::BadInput(e.to_string()))
}

/// Verifies a coloring of `U` (indexed by `u - nv`): every `V` node must
/// see at least `min_colors` distinct colors.
pub fn is_weak_splitting(bip: &Graph, nv: usize, coloring: &[usize], min_colors: usize) -> bool {
    assert_eq!(coloring.len(), bip.num_nodes() - nv, "one color per U node");
    (0..nv).all(|v| {
        let mut seen: Vec<usize> = bip.neighbors(v).iter().map(|&u| coloring[u - nv]).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len() >= min_colors
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::{Fixer3, FixerError};
    use lll_graphs::gen::random_bipartite_biregular;
    use lll_numeric::BigRational;

    /// The instances' former form: each event a predicate counting
    /// distinct colors.
    fn predicate_form<T: Num>(bip: &Graph, nv: usize, colors: usize, min: usize) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(nv);
        for u in nv..bip.num_nodes() {
            b.add_uniform_variable(bip.neighbors(u), colors);
        }
        for v in 0..nv {
            let nbrs: Vec<usize> = bip.neighbors(v).iter().map(|&u| u - nv).collect();
            b.set_event_predicate(v, move |vals| {
                let mut seen: Vec<usize> = nbrs.iter().map(|&x| vals[x]).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len() < min
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn bad_tuples_build_the_predicate_form() {
        for (seed, colors) in [(1, 16), (2, 5)] {
            let bip = random_bipartite_biregular(12, 3, 12, 3, seed).unwrap();
            let f = weak_splitting_instance::<f64>(&bip, 12, colors).unwrap();
            crate::assert_same_events(&f, &predicate_form(&bip, 12, colors, 2));
            let r = weak_splitting_instance::<BigRational>(&bip, 12, colors).unwrap();
            crate::assert_same_events(&r, &predicate_form(&bip, 12, colors, 2));
        }
    }

    #[test]
    fn criterion_analysis_matches_paper() {
        // V nodes of degree k = 3, U nodes of degree r = 3 (16 colors):
        // p = 16^(1-3) = 2^-8, d <= 2k = 6 ⇒ p·2^d <= 1/4 < 1.
        let bip = random_bipartite_biregular(12, 3, 12, 3, 1).unwrap();
        let inst = weak_splitting_instance::<BigRational>(&bip, 12, 16).unwrap();
        assert_eq!(
            inst.max_event_probability(),
            BigRational::from_ratio(1, 256)
        );
        assert!(inst.max_dependency_degree() <= 6);
        assert!(inst.satisfies_exponential_criterion());
    }

    #[test]
    fn fixer3_solves_weak_splitting() {
        let bip = random_bipartite_biregular(20, 3, 20, 3, 7).unwrap();
        let inst = weak_splitting_instance::<f64>(&bip, 20, 16).unwrap();
        let report = Fixer3::new(&inst).unwrap().run_default().unwrap();
        assert!(report.is_success());
        assert!(is_weak_splitting(&bip, 20, report.assignment(), 2));
    }

    #[test]
    fn degree2_constraints_sit_above_threshold() {
        // k = 2 with 2 colors ("see both") is the P-SLOCAL-complete
        // variant: p = 1/2, d >= 2 ⇒ p·2^d >= 2 — the fixer must refuse.
        let bip = random_bipartite_biregular(9, 2, 6, 3, 3).unwrap();
        let inst = weak_splitting_instance::<f64>(&bip, 9, 2).unwrap();
        assert!(!inst.satisfies_exponential_criterion());
        assert!(matches!(
            Fixer3::new(&inst),
            Err(FixerError::CriterionViolated { .. })
        ));
    }

    #[test]
    fn verifier_detects_monochromatic_constraints() {
        let bip = random_bipartite_biregular(6, 3, 6, 3, 11).unwrap();
        assert!(!is_weak_splitting(&bip, 6, &[5; 6], 2));
        // With all-distinct colors every V node of degree 3 sees 3.
        let rainbow: Vec<usize> = (0..6).collect();
        assert!(is_weak_splitting(&bip, 6, &rainbow, 2));
    }

    #[test]
    fn demanding_more_colors_crosses_the_threshold() {
        let bip = random_bipartite_biregular(12, 3, 12, 3, 2).unwrap();
        // min_colors = 2: p = 16^-2 = 2^-8 < 2^-6 — below.
        let relaxed = weak_splitting_instance::<f64>(&bip, 12, 16).unwrap();
        assert!(relaxed.satisfies_exponential_criterion());
        // min_colors = 3 (all three neighbors distinct): p = Pr[<= 2
        // distinct among 3 of 16] = 1 - 15*14/16² ≈ 0.18 > 2^-6 — above.
        let strict = predicate_form::<f64>(&bip, 12, 16, 3);
        assert!(!strict.satisfies_exponential_criterion());
        let expected = 1.0 - (15.0 * 14.0) / (16.0 * 16.0);
        assert!((strict.max_event_probability() - expected).abs() < 1e-12);
    }

    #[test]
    fn input_validation() {
        use lll_graphs::Graph;
        // Edge within one side.
        let bad = Graph::from_edges(4, [(0, 1), (2, 3), (0, 2)]).unwrap();
        assert!(matches!(
            weak_splitting_instance::<f64>(&bad, 2, 16),
            Err(AppError::BadInput(_))
        ));
        // U-degree 4 violates the rank bound.
        let too_dense = Graph::from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)]).unwrap();
        assert!(matches!(
            weak_splitting_instance::<f64>(&too_dense, 4, 16),
            Err(AppError::BadInput(_))
        ));
    }
}
