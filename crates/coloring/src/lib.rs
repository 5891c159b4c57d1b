//! Distributed symmetry breaking on the LOCAL simulator.
//!
//! The deterministic LLL algorithms of Brandt–Maus–Uitto are parallelised
//! by coloring: Corollary 1.2 needs an `O(d)` **edge coloring** of the
//! dependency graph, Corollary 1.4 a **distance-2 coloring** with
//! `O(d²)` colors. The paper invokes Panconesi–Rizzi resp.
//! Fraigniaud–Heinrich–Kosowski for these; this crate substitutes the
//! classic **Linial color reduction** (via polynomials over `F_q`)
//! followed by Kuhn–Wattenhofer **block color reduction** to `Δ + 1`
//! colors in `O(Δ·log(P/Δ))` rounds from a `P`-coloring. The
//! substitution preserves the `log* n` dependence on `n` — the quantity
//! the sharp-threshold statement is about — and only adds a `log d`
//! factor to the additive `poly(d)` term: `O(d log d + log* n)` for
//! the edge coloring, `O(d² log d + log* n)` for the distance-2
//! coloring (documented in `DESIGN.md`).
//!
//! All algorithms here are real [`NodeProgram`](lll_local::NodeProgram)s
//! executed round-by-round on the [`Simulator`]; the reported round
//! counts are honest communication-round counts, and the drivers that
//! run a vertex-coloring program on a derived graph (`G²` for
//! distance-2, the line graph for edge coloring) convert its native
//! round count into host-graph rounds with the standard factor-2
//! simulation overhead.
//!
//! # Examples
//!
//! ```
//! use lll_coloring::vertex_coloring;
//! use lll_graphs::gen::ring;
//! use lll_local::Simulator;
//!
//! let g = ring(64);
//! let sim = Simulator::new(&g);
//! let c = vertex_coloring(&sim, 1000).unwrap();
//! assert!(g.is_proper_coloring(&c.colors));
//! assert!(c.palette <= 3); // Δ + 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lll_graphs::Graph;
use lll_local::{SimError, Simulator};

mod linial;
mod reduce;

pub use linial::{linial_schedule, LinialProgram};
pub use reduce::{reduction_rounds, ReduceProgram};

/// A computed coloring together with its honest round cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color of each node (vertex colorings) or each edge id (edge
    /// colorings).
    pub colors: Vec<usize>,
    /// Size of the palette the algorithm guarantees
    /// (`colors[i] < palette` for all `i`).
    pub palette: usize,
    /// Communication rounds spent, measured on the graph the returned
    /// coloring refers to (for derived-graph colorings this is already
    /// converted to host-graph rounds).
    pub rounds: usize,
}

/// Runs Linial's color reduction alone: from ids (`< n`) down to the
/// `O(Δ²)` fixed-point palette in `log* n + O(1)` rounds. When no step
/// of [`linial_schedule`] would shrink the palette, the ids are returned
/// as the coloring, at palette `n`, in 0 rounds and without a simulator
/// run.
///
/// # Errors
///
/// Propagates simulator errors; [`SimError::RoundLimitExceeded`] if
/// `max_rounds` is too small.
///
/// # Panics
///
/// Panics if any simulator id is `>= n` (the algorithm derives its
/// initial palette from `n`).
pub fn linial_coloring(sim: &Simulator<'_>, max_rounds: usize) -> Result<Coloring, SimError> {
    let g = sim.graph();
    let n = g.num_nodes();
    if n == 0 {
        return Ok(Coloring {
            colors: vec![],
            palette: 1,
            rounds: 0,
        });
    }
    for v in 0..n {
        assert!(sim.id_of(v) < n as u64, "linial_coloring requires ids < n");
    }
    let delta = g.max_degree();
    if delta == 0 {
        return Ok(Coloring {
            colors: vec![0; n],
            palette: 1,
            rounds: 0,
        });
    }
    let schedule = linial_schedule(n as u64, delta as u64);
    let Some(&(_, q)) = schedule.last() else {
        // No step shrinks the id palette (`n` is at most the fixed point
        // `q²` already): the ids are the coloring, and deciding on them
        // costs no communication.
        return Ok(Coloring {
            colors: (0..n).map(|v| sim.id_of(v) as usize).collect(),
            palette: n,
            rounds: 0,
        });
    };
    let palette = q * q;
    let template = LinialProgram::new(schedule);
    let run = sim.run_auto(|_| template.clone(), max_rounds)?;
    Ok(Coloring {
        colors: run.outputs.iter().map(|&c| c as usize).collect(),
        palette: palette as usize,
        rounds: run.rounds,
    })
}

/// Reduces an existing proper `P`-coloring to `target` colors with the
/// block reduction of [`ReduceProgram`]: every block of `target + 1`
/// colors clears its top class each round, so the run takes
/// [`reduction_rounds`]`(P, target) = O(target·log(P/target))` rounds.
///
/// `target` must be at least `Δ + 1`; the input coloring must be proper.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `target <= Δ` or the input coloring is not proper (both
/// would make the recoloring step unsound), or if any simulator id is
/// `>= n` (as in [`linial_coloring`], whose output this reduces).
pub fn reduce_coloring(
    sim: &Simulator<'_>,
    input: &Coloring,
    target: usize,
    max_rounds: usize,
) -> Result<Coloring, SimError> {
    let g = sim.graph();
    assert!(target > g.max_degree(), "reduction target must exceed Δ");
    assert!(
        g.is_proper_coloring(&input.colors),
        "input coloring must be proper"
    );
    if input.palette <= target {
        return Ok(input.clone());
    }
    let palette = input.palette;
    // Recover each node's input color through its id: the driver
    // addresses nodes by graph index, the program only sees ids (honest
    // LOCAL algorithms receive their input locally anyway).
    let n = g.num_nodes();
    let mut color_of_id = vec![0usize; n];
    for v in 0..n {
        let id = sim.id_of(v) as usize;
        assert!(id < n, "reduce_coloring requires ids < n");
        color_of_id[id] = input.colors[v];
    }
    let run = sim.run_auto(
        |ctx| {
            let c = color_of_id[ctx.id as usize];
            ReduceProgram::new(c as u64, palette as u64, target as u64)
        },
        max_rounds,
    )?;
    let out: Vec<usize> = run.outputs.iter().map(|&c| c as usize).collect();
    Ok(Coloring {
        colors: out,
        palette: target,
        rounds: input.rounds + run.rounds,
    })
}

/// Full vertex coloring: Linial to `O(Δ²)` colors, then block reduction
/// to `Δ + 1`. Round cost `log* n + O(Δ log Δ)`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn vertex_coloring(sim: &Simulator<'_>, max_rounds: usize) -> Result<Coloring, SimError> {
    let rough = linial_coloring(sim, max_rounds)?;
    let target = sim.graph().max_degree() + 1;
    reduce_coloring(sim, &rough, target, max_rounds)
}

/// Distance-2 vertex coloring with `deg(G²) + 1 = O(Δ²)` colors in
/// `log* n + O(Δ² log Δ)` host rounds — the 2-hop coloring used to
/// schedule the rank-3 fixer (Corollary 1.4).
///
/// Internally colors the square graph `G²`; one `G²` round is simulated
/// by 2 rounds on `G`, and the returned round count is already converted.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn distance2_coloring(sim: &Simulator<'_>, max_rounds: usize) -> Result<Coloring, SimError> {
    let g = sim.graph();
    let g2 = g.square();
    let ids: Vec<u64> = (0..g.num_nodes()).map(|v| sim.id_of(v)).collect();
    let sim2 = Simulator::with_ids(&g2, ids)
        .expect("ids already validated")
        .threads(sim.num_threads());
    let mut c = vertex_coloring(&sim2, max_rounds)?;
    c.rounds *= 2;
    debug_assert!(g.is_distance2_coloring(&c.colors));
    Ok(c)
}

/// Edge coloring with `2Δ - 1` colors in `log* n + O(Δ log Δ)` host rounds —
/// the scheduling structure of the rank-2 fixer (Corollary 1.2).
///
/// Internally colors the line graph `L(G)` (ids: edge ids); one `L(G)`
/// round is simulated by 2 rounds on `G`, and the returned round count is
/// already converted. `colors[e]` is the color of edge id `e`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn edge_coloring(sim: &Simulator<'_>, max_rounds: usize) -> Result<Coloring, SimError> {
    let g = sim.graph();
    let lg = g.line_graph();
    let lsim = Simulator::new(&lg).threads(sim.num_threads());
    let mut c = vertex_coloring(&lsim, max_rounds)?;
    c.rounds *= 2;
    debug_assert!(g.is_proper_edge_coloring(&c.colors));
    Ok(c)
}

/// Sequential greedy coloring — a non-distributed reference used in tests
/// and as a baseline (`Δ + 1` colors, zero rounds, but inherently
/// sequential).
pub fn greedy_coloring_sequential(g: &Graph) -> Vec<usize> {
    let mut colors = vec![usize::MAX; g.num_nodes()];
    for v in 0..g.num_nodes() {
        let used: Vec<usize> = g
            .neighbors(v)
            .iter()
            .map(|&u| colors[u])
            .filter(|&c| c != usize::MAX)
            .collect();
        colors[v] = (0..)
            .find(|c| !used.contains(c))
            .expect("some color below deg+1 is free");
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::{complete, hypercube, random_regular, ring, torus};
    use lll_local::log_star;

    #[test]
    fn linial_produces_proper_small_palette() {
        for (g, name) in [
            (ring(64), "ring"),
            (torus(6, 6), "torus"),
            (random_regular(80, 4, 3).unwrap(), "4-regular"),
            (hypercube(5), "Q5"),
        ] {
            let sim = Simulator::with_shuffled_ids(&g, 17);
            let c = linial_coloring(&sim, 1000).unwrap();
            assert!(g.is_proper_coloring(&c.colors), "{name}");
            assert!(c.colors.iter().all(|&x| x < c.palette), "{name}");
            // Fixed-point palette is O(Δ²): at most nextprime(2Δ+1)².
            let d = g.max_degree() as u64;
            let q = lll_numeric::next_prime(2 * d + 2);
            assert!(c.palette as u64 <= q * q, "{name}: palette {}", c.palette);
        }
    }

    #[test]
    fn linial_with_an_empty_schedule_returns_the_ids_in_zero_rounds() {
        // K6: Δ = 5, so the fixed point nextprime(6)² = 49 ≥ 6 ids and no
        // schedule step shrinks the palette.
        let g = complete(6);
        assert!(linial_schedule(6, 5).is_empty());
        let sim = Simulator::with_shuffled_ids(&g, 4);
        let c = linial_coloring(&sim, 0).unwrap();
        let ids: Vec<usize> = (0..6).map(|v| sim.id_of(v) as usize).collect();
        assert_eq!(c.colors, ids);
        assert_eq!(c.palette, 6);
        assert_eq!(c.rounds, 0);
        // The reduction after it still reaches Δ + 1 colors.
        let v = vertex_coloring(&sim, 100).unwrap();
        assert!(g.is_proper_coloring(&v.colors));
        assert_eq!(v.palette, 6);
        assert_eq!(v.rounds, 0, "palette n = Δ + 1 needs no reduction");
    }

    #[test]
    fn linial_rounds_grow_like_log_star() {
        // Rounds should be ≤ log*(n) + c for a small constant c.
        for exp in [4u32, 8, 12, 16] {
            let n = 1usize << exp;
            let g = ring(n);
            let sim = Simulator::with_shuffled_ids(&g, 1);
            let c = linial_coloring(&sim, 100).unwrap();
            assert!(
                (c.rounds as u32) <= log_star(n as u64) + 4,
                "n = {n}: rounds {} too large",
                c.rounds
            );
        }
    }

    #[test]
    fn vertex_coloring_reaches_delta_plus_one() {
        for (g, name) in [
            (ring(50), "ring"),
            (torus(5, 7), "torus"),
            (complete(6), "K6"),
            (random_regular(60, 6, 5).unwrap(), "6-regular"),
        ] {
            let sim = Simulator::with_shuffled_ids(&g, 23);
            let c = vertex_coloring(&sim, 2000).unwrap();
            assert!(g.is_proper_coloring(&c.colors), "{name}");
            assert_eq!(c.palette, g.max_degree() + 1, "{name}");
            assert!(c.colors.iter().all(|&x| x < c.palette), "{name}");
        }
    }

    #[test]
    fn reduction_requires_proper_input() {
        let g = ring(6);
        let sim = Simulator::new(&g);
        let bad = Coloring {
            colors: vec![0; 6],
            palette: 1,
            rounds: 0,
        };
        assert!(std::panic::catch_unwind(|| reduce_coloring(&sim, &bad, 3, 100)).is_err());
    }

    #[test]
    fn distance2_coloring_is_valid() {
        let g = torus(6, 6);
        let sim = Simulator::with_shuffled_ids(&g, 7);
        let c = distance2_coloring(&sim, 5000).unwrap();
        assert!(g.is_distance2_coloring(&c.colors));
        assert_eq!(c.palette, g.square().max_degree() + 1);
    }

    #[test]
    fn edge_coloring_is_valid() {
        for (g, name) in [
            (ring(40), "ring"),
            (random_regular(40, 5, 9).unwrap(), "5-regular"),
        ] {
            let sim = Simulator::new(&g);
            let c = edge_coloring(&sim, 5000).unwrap();
            assert!(g.is_proper_edge_coloring(&c.colors), "{name}");
            assert!(c.palette < 2 * g.max_degree(), "{name}");
        }
    }

    #[test]
    fn greedy_sequential_reference() {
        let g = torus(5, 5);
        let colors = greedy_coloring_sequential(&g);
        assert!(g.is_proper_coloring(&colors));
        assert!(colors.iter().all(|&c| c <= g.max_degree()));
    }

    #[test]
    fn singleton_and_empty_graphs() {
        let g = Graph::empty(5);
        let sim = Simulator::new(&g);
        let c = vertex_coloring(&sim, 10).unwrap();
        assert_eq!(c.colors, vec![0; 5]);
        assert_eq!(c.palette, 1);
        let g0 = Graph::empty(0);
        let sim0 = Simulator::new(&g0);
        let c0 = vertex_coloring(&sim0, 10).unwrap();
        assert!(c0.colors.is_empty());
    }
}
