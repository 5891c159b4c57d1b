//! Block color-class reduction (Kuhn–Wattenhofer with blocks of
//! `target + 1` colors).
//!
//! Given a proper `P`-coloring and a `target > Δ`, the palette is split
//! into blocks of `b = target + 1` consecutive colors. In every round the
//! top class of every full block recolors at once to the smallest color
//! among its block's first `target` colors not used by a neighbor in the
//! same block, and then every node re-encodes its color
//! `c ↦ ⌊c/b⌋·target + c mod b`, which packs the blocks into disjoint
//! ranges of `target` colors each. A color class is an independent set
//! (the coloring is proper), and a node has at most `Δ < target`
//! neighbors in its block, so the recoloring is safe and always finds a
//! free color; distinct blocks land in distinct ranges, so the
//! re-encoded coloring stays proper.
//!
//! Each round shrinks the palette from `P` to
//! `(G − 1)·target + min(rem, target)` with `G = ⌈P/b⌉` blocks and
//! `rem = P − (G − 1)·b` colors in the last one: one color per full
//! block, so large palettes lose a `1/b` fraction per round and the walk
//! down to `target` takes `O(Δ·log(P/Δ))` rounds ([`reduction_rounds`]).
//! While `P ≤ 2·target + 1` there is only one full block, and the rule is
//! the classic one-class-per-round reduction, round for round.

use lll_local::{Inbox, NodeContext, NodeProgram, RoundResult};

/// The palette after one round of block reduction from `palette` colors
/// toward `target`.
fn next_palette(palette: u64, target: u64) -> u64 {
    let b = target + 1;
    let blocks = palette.div_ceil(b);
    let rem = palette - (blocks - 1) * b;
    (blocks - 1) * target + rem.min(target)
}

/// The number of rounds [`ReduceProgram`] takes to bring a proper
/// `palette`-coloring down to `target` colors (0 if `palette <= target`).
///
/// This is the palette walk every node runs to decide when to halt, so a
/// run's round count equals it exactly. It never exceeds
/// `palette − target`, the one-class-per-round count, and equals it
/// exactly when `palette <= 2·target + 1`.
///
/// # Panics
///
/// Panics if `target == 0`.
pub fn reduction_rounds(mut palette: u64, target: u64) -> usize {
    assert!(target > 0, "target must be positive");
    let mut rounds = 0;
    while palette > target {
        palette = next_palette(palette, target);
        rounds += 1;
    }
    rounds
}

/// The block color-class reduction [`NodeProgram`].
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
    /// Scratch for the free-color search: `used[c]` marks local color `c`
    /// as taken by a neighbor in this node's block. Sized `target + 1`
    /// once in `init`, so rounds never allocate.
    used: Vec<bool>,
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
        // Messages carry colors in 32 bits (half the node slot of a
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
            used: Vec::new(),
        }
    }
}

impl NodeProgram for ReduceProgram {
    type Message = u32;
    type Output = u64;

    fn init(&mut self, _ctx: &mut NodeContext) -> Option<u32> {
        self.used = vec![false; self.target as usize + 1];
        Some(self.color)
    }

    /// Recolors if this node is in the top class of a full block,
    /// re-encodes into the packed palette, and halts once the palette has
    /// reached `target`. Every neighbor broadcasts its current color every
    /// round, so `inbox` is the whole neighborhood in this round's
    /// encoding — but only the top class of a block reads it, so the
    /// other nodes cost no delivery at all.
    fn round(&mut self, _ctx: &mut NodeContext, inbox: Inbox<'_, u32>) -> RoundResult<u32, u64> {
        let b = self.target + 1;
        let block = self.color / b;
        let mut local = self.color % b;
        if local == self.target {
            self.used.fill(false);
            // A neighbor is in this block iff its color lies within `b`
            // of the block's first color (no division per read).
            let first = block * b;
            for &c in inbox.iter().flatten() {
                let offset = c.wrapping_sub(first);
                if offset < b {
                    self.used[offset as usize] = true;
                }
            }
            local = self.used[..self.target as usize]
                .iter()
                .position(|&u| !u)
                .expect("target > Δ guarantees a free color") as u32;
        }
        self.color = block * self.target + local;
        self.palette = next_palette(u64::from(self.palette), u64::from(self.target)) as u32;
        if self.palette <= self.target {
            RoundResult::Halt(u64::from(self.color))
        } else {
            RoundResult::Continue(Some(self.color))
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
    fn round_count_is_the_palette_walk() {
        let g = torus(5, 5);
        // Inflate a greedy coloring into a sparse large palette: from 39
        // colors to 5, six full blocks of 6 shrink at once in round 1.
        let greedy = crate::greedy_coloring_sequential(&g);
        let input: Vec<u64> = greedy.iter().map(|&c| (c * 7 + 3) as u64).collect();
        let palette = 5 * 7 + 3 + 1;
        let proper: Vec<usize> = input.iter().map(|&c| c as usize).collect();
        assert!(g.is_proper_coloring(&proper));
        let target = g.max_degree() as u64 + 1;
        let (out, rounds) = run_reduce(&g, &input, palette, target);
        assert!(g.is_proper_coloring(&out));
        assert!(out.iter().all(|&c| (c as u64) < target));
        assert_eq!(rounds, reduction_rounds(palette, target));
        assert_eq!(rounds, 14); // one class per round: 34
    }

    #[test]
    fn palette_walk_pins_known_counts() {
        assert_eq!(reduction_rounds(4, 3), 1);
        assert_eq!(reduction_rounds(3, 3), 0);
        assert_eq!(reduction_rounds(1, 3), 0);
        // dense-d8's distance-2 coloring: raw ids 0..600 down to Δ(G²)+1.
        assert_eq!(reduction_rounds(600, 57), 165);
        assert_eq!(next_palette(600, 57), 590);
        // One full block plus a partial one: the classic single class.
        assert_eq!(next_palette(9, 4), 8);
        // Two full blocks: two classes at once.
        assert_eq!(next_palette(10, 4), 8);
    }

    #[test]
    fn block_reduction_never_takes_more_rounds_than_one_class_per_round() {
        for target in 1..=64u64 {
            for palette in target + 1..=4096 {
                let rounds = reduction_rounds(palette, target) as u64;
                let greedy = palette - target;
                assert!(rounds <= greedy, "P={palette} t={target}");
                assert_eq!(
                    rounds == greedy,
                    palette <= 2 * target + 1,
                    "P={palette} t={target}: {rounds} vs {greedy}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "input color out of palette")]
    fn rejects_out_of_palette_color() {
        ReduceProgram::new(5, 5, 3);
    }
}
