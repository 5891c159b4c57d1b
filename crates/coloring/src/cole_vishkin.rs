//! Cole–Vishkin 3-coloring of oriented rings.
//!
//! The classic `log* n` symmetry-breaking algorithm, included both as a
//! reference point for the `log* n` lower bound the paper's runtime
//! matches, and as an independent cross-check of the Linial pipeline's
//! round counts on rings.
//!
//! One iteration maps a proper `2^w`-coloring to a proper `2w`-coloring:
//! each node compares its color bitstring with its *predecessor's*
//! (rings are consistently oriented; the driver derives successor and
//! predecessor ports from the ring structure), finds the lowest bit
//! index `i` where they differ, and adopts `2i + bit_i(own)` as its new
//! color. After `log* n + O(1)` iterations the palette stabilises at
//! `{0, …, 5}`; three clean-up rounds recolor the classes 5, 4, 3
//! greedily into `{0, 1, 2}`.

use lll_local::{broadcast, NodeContext, NodeProgram, RoundResult, SimError, Simulator};

use crate::Coloring;

/// The iteration schedule on a ring of `n` nodes: bit widths
/// `w₀ → w₁ → …` until the fixed point `w = 3` (palette `{0..5}`). All
/// nodes of a run share it; [`cole_vishkin_ring`] derives it from `n`.
pub fn cv_schedule(n: u64) -> Vec<u32> {
    if n <= 6 {
        return Vec::new(); // ids already fit the cleanup palette {0..5}
    }
    let mut w = 64 - n.leading_zeros(); // bits to express ids < n
    let mut steps = Vec::new();
    while w > 3 {
        // 2i + b with i < w needs ceil(log2(2w)) bits.
        let next = 64 - (2 * w as u64 - 1).leading_zeros();
        steps.push(w);
        w = next.max(3);
    }
    // One final fold at width 3 lands in {0..5} (a width-4 step only
    // guarantees colors < 8).
    steps.push(3);
    steps
}

/// One node of the Cole–Vishkin protocol.
#[derive(Debug, Clone)]
pub struct ColeVishkinProgram {
    schedule: Vec<u32>,
    step: usize,
    color: u64,
    pred_port: usize,
    cleanup_class: u64,
    neighbor_colors: Vec<u64>,
}

impl ColeVishkinProgram {
    /// Creates the program for a node whose predecessor sits behind
    /// `pred_port`; all nodes must share the same schedule (the driver
    /// derives it from `n`).
    pub fn new(schedule: Vec<u32>, pred_port: usize) -> ColeVishkinProgram {
        ColeVishkinProgram {
            schedule,
            step: 0,
            color: 0,
            pred_port,
            cleanup_class: 5,
            neighbor_colors: Vec::new(),
        }
    }

    fn cv_step(own: u64, pred: u64, width: u32) -> u64 {
        debug_assert_ne!(own, pred, "input coloring must be proper");
        let diff = own ^ pred;
        let i = diff.trailing_zeros().min(width - 1) as u64;
        2 * i + ((own >> i) & 1)
    }
}

impl NodeProgram for ColeVishkinProgram {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<u64>> {
        self.color = ctx.id;
        self.neighbor_colors = vec![u64::MAX; ctx.degree];
        broadcast(self.color, ctx.degree)
    }

    fn round(&mut self, ctx: &mut NodeContext, inbox: &[Option<u64>]) -> RoundResult<u64, u64> {
        for (port, msg) in inbox.iter().enumerate() {
            if let Some(c) = msg {
                self.neighbor_colors[port] = *c;
            }
        }
        if self.step < self.schedule.len() {
            // Reduction phase: fold against the predecessor's color.
            let width = self.schedule[self.step];
            let pred = self.neighbor_colors[self.pred_port];
            self.color = Self::cv_step(self.color, pred, width);
            self.step += 1;
            return RoundResult::Continue(broadcast(self.color, ctx.degree));
        }
        // Cleanup phase: recolor classes 5, 4, 3 into {0, 1, 2}.
        if self.color == self.cleanup_class {
            self.color = (0..3u64)
                .find(|c| !self.neighbor_colors.contains(c))
                .expect("2 neighbors block at most 2 of 3 colors");
        }
        if self.cleanup_class == 3 {
            RoundResult::Halt(self.color)
        } else {
            self.cleanup_class -= 1;
            RoundResult::Continue(broadcast(self.color, ctx.degree))
        }
    }
}

/// 3-colors an oriented ring with Cole–Vishkin on the simulator.
///
/// The graph must be the cycle produced by
/// [`ring`](lll_graphs::gen::ring) (nodes `i` and `i+1 mod n`
/// adjacent) — the driver derives the consistent orientation from that
/// structure, which is input in the oriented-ring LOCAL model.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if the graph is not such a ring or ids are not `< n`.
pub fn cole_vishkin_ring(sim: &Simulator<'_>, max_rounds: usize) -> Result<Coloring, SimError> {
    let g = sim.graph();
    let n = g.num_nodes();
    assert!(n >= 3, "rings have at least 3 nodes");
    for v in 0..n {
        assert_eq!(g.degree(v), 2, "node {v} is not of ring degree");
        assert!(
            g.has_edge(v, (v + 1) % n),
            "missing ring edge ({v}, {})",
            (v + 1) % n
        );
        assert!(
            sim.id_of(v) < n as u64,
            "cole_vishkin_ring requires ids < n"
        );
    }
    let schedule = cv_schedule(n as u64);
    // Predecessor of node v is (v + n - 1) % n; find its port.
    let pred_ports: Vec<usize> = (0..n)
        .map(|v| g.port_to(v, (v + n - 1) % n).expect("ring edge exists"))
        .collect();
    let pred_of_id: std::collections::HashMap<u64, usize> =
        (0..n).map(|v| (sim.id_of(v), pred_ports[v])).collect();
    let run = sim.run_auto(
        |ctx| ColeVishkinProgram::new(schedule.clone(), pred_of_id[&ctx.id]),
        max_rounds,
    )?;
    let colors: Vec<usize> = run.outputs.iter().map(|&c| c as usize).collect();
    debug_assert!(g.is_proper_coloring(&colors));
    Ok(Coloring {
        colors,
        palette: 3,
        rounds: run.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::ring;
    use lll_local::log_star;

    #[test]
    fn schedule_reaches_six_colors_fast() {
        assert!(cv_schedule(2).is_empty());
        assert!(cv_schedule(6).is_empty());
        assert_eq!(cv_schedule(7), vec![3]);
        let s = cv_schedule(1 << 20);
        assert!(s.len() <= 5, "{s:?}");
        let s = cv_schedule(u64::MAX);
        assert!(s.len() <= 6, "{s:?}");
        // widths decrease to the final 3
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(*s.last().unwrap(), 3);
    }

    #[test]
    fn cv_step_preserves_properness_locally() {
        // For any distinct pair, successive applications must produce
        // distinct colors for adjacent nodes: check the core property
        // that own != pred implies step(own, pred) != step(pred, pred2)
        // whenever the differing bit positions differ... exercised
        // globally below; here check the output range.
        for own in 0..64u64 {
            for pred in 0..64u64 {
                if own != pred {
                    let c = ColeVishkinProgram::cv_step(own, pred, 6);
                    assert!(c < 12);
                }
            }
        }
    }

    #[test]
    fn three_colors_rings_of_many_sizes() {
        for n in [3usize, 4, 5, 6, 7, 8, 50, 257, 4096] {
            let g = ring(n);
            let sim = Simulator::with_shuffled_ids(&g, n as u64);
            let c = cole_vishkin_ring(&sim, 10_000).unwrap();
            assert!(g.is_proper_coloring(&c.colors), "n = {n}");
            assert!(c.colors.iter().all(|&x| x < 3), "n = {n}");
            assert_eq!(c.palette, 3);
        }
    }

    #[test]
    fn rounds_are_log_star_plus_constant() {
        for (n, max_expected) in [(16usize, 8u32), (4096, 9), (65536, 9)] {
            let g = ring(n);
            let sim = Simulator::new(&g);
            let c = cole_vishkin_ring(&sim, 10_000).unwrap();
            assert!(
                (c.rounds as u32) <= log_star(n as u64) + max_expected,
                "n = {n}: {} rounds",
                c.rounds
            );
        }
    }

    #[test]
    #[should_panic(expected = "not of ring degree")]
    fn rejects_non_rings() {
        let g = lll_graphs::gen::path(5);
        let sim = Simulator::new(&g);
        let _ = cole_vishkin_ring(&sim, 100);
    }
}
