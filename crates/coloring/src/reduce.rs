//! Greedy color-class reduction.
//!
//! Given a proper `m`-coloring, one color class is eliminated per round:
//! in round `t` every node of color `m - t` recolors to the smallest
//! color in `[0, target)` not used by a neighbor. A color class is an
//! independent set (the input coloring is proper), so simultaneous
//! recoloring within a class is safe, and `target > Δ` guarantees a free
//! color. After `m - target` rounds the palette is `[0, target)`.

use lll_local::{broadcast, NodeContext, NodeProgram, RoundResult, StepResult};

/// The color-class reduction [`NodeProgram`].
///
/// State is kept in 32 bits throughout (colors are bounded by the
/// palette, which must fit in the 32-bit message type anyway): one
/// program instance lives at every node and the whole per-node state is
/// streamed through the cache each round, so compactness is wall-clock.
#[derive(Debug, Clone)]
pub struct ReduceProgram {
    color: u32,
    palette: u32,
    target: u32,
    round: u32,
    port_colors: Vec<u32>,
}

impl ReduceProgram {
    /// Creates the program for one node with its input `color`, the input
    /// `palette` size and the `target` palette size.
    ///
    /// # Panics
    ///
    /// Panics if `color >= palette` or `target >= palette` (the driver
    /// short-circuits the no-op case) or `target == 0`.
    pub fn new(color: u64, palette: u64, target: u64) -> ReduceProgram {
        assert!(color < palette, "input color out of palette");
        assert!(
            target > 0 && target < palette,
            "target must be in (0, palette)"
        );
        // Messages carry colors in 32 bits (half the slab traffic of a
        // u64); a palette beyond 2^32 would overflow the id space of any
        // graph the simulator can hold anyway.
        assert!(
            palette <= u64::from(u32::MAX),
            "palette must fit in 32-bit messages"
        );
        ReduceProgram {
            color: color as u32,
            palette: palette as u32,
            target: target as u32,
            round: 0,
            port_colors: Vec::new(),
        }
    }

    fn mex(&self) -> u32 {
        (0..self.target)
            .find(|c| !self.port_colors.contains(c))
            .expect("target > Δ guarantees a free color")
    }

    /// The state transition shared by both engine entry points: ingest
    /// neighbor colors, recolor if this round clears our class, and
    /// return `Some(final color)` when the palette has reached `target`.
    fn advance(&mut self, inbox: &[Option<u32>]) -> Option<u64> {
        for (port, msg) in inbox.iter().enumerate() {
            if let Some(c) = msg {
                self.port_colors[port] = *c;
            }
        }
        self.round += 1;
        let class = self.palette - self.round;
        if self.color == class {
            self.color = self.mex();
        }
        (class == self.target).then_some(u64::from(self.color))
    }
}

impl NodeProgram for ReduceProgram {
    type Message = u32;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<u32>> {
        self.port_colors = vec![u32::MAX; ctx.degree];
        broadcast(self.color, ctx.degree)
    }

    fn round(&mut self, ctx: &mut NodeContext, inbox: &[Option<u32>]) -> RoundResult<u32, u64> {
        match self.advance(inbox) {
            Some(color) => RoundResult::Halt(color),
            None => RoundResult::Continue(broadcast(self.color, ctx.degree)),
        }
    }

    // The reduction dominates the fixers' scheduling cost (palette −
    // target rounds of it), so it takes the allocation-free path.
    fn round_into(
        &mut self,
        _ctx: &mut NodeContext,
        inbox: &[Option<u32>],
        out: &mut [Option<u32>],
    ) -> StepResult<u64> {
        match self.advance(inbox) {
            Some(color) => StepResult::Halt(color),
            None => {
                out.fill(Some(self.color));
                StepResult::Continue
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::{ring, torus};
    use lll_local::Simulator;

    /// Drives the reduction directly with a hand-made input coloring.
    fn run_reduce(
        g: &lll_graphs::Graph,
        input: &[u64],
        palette: u64,
        target: u64,
    ) -> (Vec<usize>, usize) {
        let sim = Simulator::new(g);
        let input = input.to_vec();
        let run = sim
            .run(
                |ctx| ReduceProgram::new(input[ctx.id as usize], palette, target),
                10_000,
            )
            .unwrap();
        (
            run.outputs.iter().map(|&c| c as usize).collect(),
            run.rounds,
        )
    }

    #[test]
    fn reduces_ring_to_three_colors() {
        let g = ring(12);
        // A valid 4-coloring using colors {0,1,2,3}.
        let input: Vec<u64> = (0..12)
            .map(|i| (i % 2) as u64 + if i == 11 { 2 } else { 0 })
            .collect();
        assert!(g.is_proper_coloring(&input.iter().map(|&c| c as usize).collect::<Vec<_>>()));
        let (out, rounds) = run_reduce(&g, &input, 4, 3);
        assert!(g.is_proper_coloring(&out));
        assert!(out.iter().all(|&c| c < 3));
        assert_eq!(rounds, 1); // one class (color 3) to clear
    }

    #[test]
    fn round_count_is_palette_minus_target() {
        let g = torus(5, 5);
        // Inflate a greedy coloring into a sparse large palette.
        let greedy = crate::greedy_coloring_sequential(&g);
        let input: Vec<u64> = greedy.iter().map(|&c| (c * 7 + 3) as u64).collect();
        let palette = 5 * 7 + 3 + 1;
        let proper: Vec<usize> = input.iter().map(|&c| c as usize).collect();
        assert!(g.is_proper_coloring(&proper));
        let target = g.max_degree() as u64 + 1;
        let (out, rounds) = run_reduce(&g, &input, palette as u64, target);
        assert!(g.is_proper_coloring(&out));
        assert!(out.iter().all(|&c| (c as u64) < target));
        assert_eq!(rounds, palette - target as usize);
    }

    #[test]
    #[should_panic(expected = "input color out of palette")]
    fn rejects_out_of_palette_color() {
        ReduceProgram::new(5, 5, 3);
    }

    #[test]
    fn in_place_entry_point_matches_allocating_round() {
        // The native `round_into` override must be observationally
        // identical to `round`: the sequential engine uses the latter,
        // the slab engine the former.
        let g = torus(6, 7);
        let greedy = crate::greedy_coloring_sequential(&g);
        let input: Vec<u64> = greedy.iter().map(|&c| (c * 5 + 2) as u64).collect();
        let palette = 5 * 5 + 2 + 1;
        let target = g.max_degree() as u64 + 1;
        let sim = Simulator::new(&g);
        let mk = |ctx: &lll_local::NodeContext| {
            ReduceProgram::new(input[ctx.id as usize], palette, target)
        };
        let seq = sim.run(mk, 10_000).unwrap();
        for t in [1usize, 3, 8] {
            let par = sim.clone().threads(t).run_auto(mk, 10_000).unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads {t}");
            assert_eq!(par.rounds, seq.rounds, "threads {t}");
            assert_eq!(par.messages, seq.messages, "threads {t}");
        }
    }
}
