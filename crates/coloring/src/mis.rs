//! Luby's randomized maximal independent set.
//!
//! The classic `O(log n)`-round MIS: per iteration every undecided node
//! draws a random value; local minima (ties broken by id) join the MIS
//! and their neighbors drop out. Two communication rounds per
//! iteration. Used as a building block by the honest distributed
//! Moser–Tardos implementation (violated events elect an independent
//! set to resample) and as a reference symmetry-breaking primitive.

use lll_local::{Inbox, NodeContext, NodeProgram, RoundResult, SimError, Simulator};
use rand::RngExt;

/// Message of the MIS protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMsg {
    /// Undecided, with this iteration's draw and the node id as a
    /// tiebreaker.
    Draw(u64, u64),
    /// Joined the MIS.
    Joined,
    /// Dropped out (a neighbor joined).
    Dropped,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Undecided,
    In,
    Out,
}

/// One node of Luby's algorithm; halts after `max_iterations` with
/// `Some(in_mis)` if decided, `None` if still undecided (callers retry
/// with a larger budget — whp `O(log n)` iterations suffice).
#[derive(Debug, Clone)]
pub struct LubyProgram {
    status: Status,
    draw: u64,
    phase_b: bool,
    iterations_left: usize,
}

impl LubyProgram {
    /// Creates a node with an iteration budget.
    pub fn new(max_iterations: usize) -> LubyProgram {
        LubyProgram {
            status: Status::Undecided,
            draw: 0,
            phase_b: false,
            iterations_left: max_iterations,
        }
    }

    fn message(&self, ctx: &NodeContext) -> MisMsg {
        match self.status {
            Status::Undecided => MisMsg::Draw(self.draw, ctx.id),
            Status::In => MisMsg::Joined,
            Status::Out => MisMsg::Dropped,
        }
    }
}

impl NodeProgram for LubyProgram {
    type Message = MisMsg;
    type Output = Option<bool>;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<MisMsg> {
        self.draw = ctx.rng.random();
        if ctx.degree == 0 {
            // Isolated nodes join immediately (no one to contest).
            self.status = Status::In;
        }
        Some(self.message(ctx))
    }

    fn round(
        &mut self,
        ctx: &mut NodeContext,
        inbox: Inbox<'_, MisMsg>,
    ) -> RoundResult<MisMsg, Option<bool>> {
        if !self.phase_b {
            // Phase A: compare draws; local minima join.
            if self.status == Status::Undecided {
                let mut wins = true;
                for msg in inbox.iter().flatten() {
                    if let MisMsg::Draw(d, id) = msg {
                        if (*d, *id) < (self.draw, ctx.id) {
                            wins = false;
                        }
                    }
                }
                if wins {
                    self.status = Status::In;
                }
            }
            self.phase_b = true;
            RoundResult::Continue(Some(self.message(ctx)))
        } else {
            // Phase B: neighbors of fresh MIS members drop out.
            if self.status == Status::Undecided
                && inbox.iter().flatten().any(|m| matches!(m, MisMsg::Joined))
            {
                self.status = Status::Out;
            }
            self.phase_b = false;
            self.iterations_left -= 1;
            if self.iterations_left == 0 {
                return RoundResult::Halt(match self.status {
                    Status::Undecided => None,
                    Status::In => Some(true),
                    Status::Out => Some(false),
                });
            }
            self.draw = ctx.rng.random();
            RoundResult::Continue(Some(self.message(ctx)))
        }
    }
}

/// Result of a completed MIS computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisResult {
    /// Membership flag per node.
    pub in_mis: Vec<bool>,
    /// Honest LOCAL rounds spent (including retries).
    pub rounds: usize,
}

/// Computes an MIS with Luby's algorithm on the simulator, doubling the
/// iteration budget until every node decides.
///
/// # Errors
///
/// Propagates simulator errors; gives up (with
/// [`SimError::RoundLimitExceeded`]) once the budget exceeds `16·n + 64`
/// iterations, far beyond the whp bound.
pub fn luby_mis(sim: &Simulator<'_>, seed: u64) -> Result<MisResult, SimError> {
    let n = sim.graph().num_nodes();
    if n == 0 {
        return Ok(MisResult {
            in_mis: vec![],
            rounds: 0,
        });
    }
    let mut budget = 4usize.max(2 * (64 - (n as u64).leading_zeros()) as usize);
    let mut rounds = 0usize;
    let mut attempt = 0u64;
    loop {
        let run = sim
            .clone()
            .seed(seed ^ (attempt.wrapping_mul(0x9E37_79B9)))
            .run_auto(|_| LubyProgram::new(budget), 4 * budget + 8)?;
        rounds += run.rounds;
        if run.outputs.iter().all(Option::is_some) {
            let in_mis = run
                .outputs
                .into_iter()
                .map(|o| o.expect("checked"))
                .collect();
            return Ok(MisResult { in_mis, rounds });
        }
        budget *= 2;
        attempt += 1;
        if budget > 16 * n + 64 {
            return Err(SimError::RoundLimitExceeded { limit: budget });
        }
    }
}

/// Validates an MIS: independent and maximal.
pub fn is_mis(g: &lll_graphs::Graph, in_mis: &[bool]) -> bool {
    if in_mis.len() != g.num_nodes() {
        return false;
    }
    let independent = g.edges().iter().all(|&(u, v)| !(in_mis[u] && in_mis[v]));
    let maximal =
        (0..g.num_nodes()).all(|v| in_mis[v] || g.neighbors(v).iter().any(|&u| in_mis[u]));
    independent && maximal
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::{complete, random_regular, ring, torus};
    use lll_graphs::Graph;

    #[test]
    fn produces_valid_mis_on_standard_graphs() {
        for (name, g) in [
            ("ring", ring(40)),
            ("torus", torus(6, 6)),
            ("K7", complete(7)),
            ("4-regular", random_regular(50, 4, 1).unwrap()),
        ] {
            for seed in 0..3 {
                let sim = Simulator::with_shuffled_ids(&g, seed);
                let res = luby_mis(&sim, seed).unwrap();
                assert!(is_mis(&g, &res.in_mis), "{name}, seed {seed}");
                assert!(res.rounds >= 2);
            }
        }
    }

    #[test]
    fn isolated_nodes_always_join() {
        let g = Graph::empty(5);
        let sim = Simulator::new(&g);
        let res = luby_mis(&sim, 0).unwrap();
        assert_eq!(res.in_mis, vec![true; 5]);
    }

    #[test]
    fn complete_graph_has_exactly_one_member() {
        let g = complete(12);
        let sim = Simulator::new(&g);
        let res = luby_mis(&sim, 3).unwrap();
        assert_eq!(res.in_mis.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn rounds_grow_slowly() {
        let small = ring(32);
        let large = ring(4096);
        let r_small = luby_mis(&Simulator::new(&small), 1).unwrap().rounds;
        let r_large = luby_mis(&Simulator::new(&large), 1).unwrap().rounds;
        // O(log n) whp: allow a generous factor.
        assert!(r_large <= 6 * r_small + 60, "{r_small} -> {r_large}");
    }

    #[test]
    fn mis_validation_catches_errors() {
        let g = ring(4);
        assert!(!is_mis(&g, &[true, true, false, false])); // not independent
        assert!(!is_mis(&g, &[false, false, false, false])); // not maximal
        assert!(is_mis(&g, &[true, false, true, false]));
        assert!(!is_mis(&g, &[true, false])); // wrong length
    }
}
