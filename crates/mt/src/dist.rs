//! Distributed Moser–Tardos as an *actual* message-passing protocol.
//!
//! Unlike [`parallel_mt`](crate::parallel_mt) — which reproduces the
//! standard accounting with a global loop — this module runs MT as a
//! genuine [`NodeProgram`] on the LOCAL simulator, so the reported round
//! count is measured, not estimated:
//!
//! * every random variable is *owned* by the lowest-indexed event it
//!   affects; owners sample initial values and broadcast them (1 round);
//! * each MT iteration costs exactly 2 rounds: **(a)** every event node
//!   evaluates its predicate on its locally known support values and
//!   broadcasts its violated flag; **(b)** violated nodes that hold the
//!   smallest id among their violated neighbors resample *all* their
//!   support variables and broadcast the new values (any two events
//!   affected by a common variable are adjacent, so the selected set
//!   touches each variable at most once and every affected event hears
//!   the update).
//!
//! Termination is the one global fact a LOCAL protocol cannot detect,
//! so the driver uses the standard doubling trick: run for `K`
//! iterations, verify the assembled assignment, and retry with `2K`
//! (fresh seed) on failure — at most doubling the honest round bill.

use std::collections::HashMap;

use lll_core::Instance;
use lll_local::{broadcast, NodeContext, NodeProgram, RoundResult, Simulator};
use lll_numeric::Num;
use rand::RngExt;

use crate::{MtError, MtReport};

/// Message of the distributed MT protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtMsg {
    /// Variable values `(var, value)` being announced.
    Values(Vec<(usize, usize)>),
    /// This node's violated flag plus its id for the tiebreak.
    Violated(bool, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the initial value announcements.
    Warmup,
    /// Received values; about to announce the violated flag.
    Exchange,
    /// Received violated flags; about to resample (or stay silent).
    Resample,
}

/// One event node of the distributed MT protocol.
pub struct MtProgram<'i, T> {
    inst: &'i Instance<T>,
    node: usize,
    owned: Vec<usize>,
    values: HashMap<usize, usize>,
    phase: Phase,
    iterations_left: usize,
    resamplings: usize,
    violated: bool,
}

/// Final per-node output: owned variable values, how often this node
/// resampled, and its last known violated flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtNodeOutput {
    /// `(var, value)` pairs for the variables this node owns.
    pub owned_values: Vec<(usize, usize)>,
    /// Resampling operations performed by this node.
    pub resamplings: usize,
    /// Violated flag at the end of the budget.
    pub violated: bool,
}

impl<'i, T: Num> MtProgram<'i, T> {
    /// Creates the program for event node `node` with an iteration
    /// budget.
    pub fn new(inst: &'i Instance<T>, node: usize, iterations: usize) -> MtProgram<'i, T> {
        let owned: Vec<usize> = inst
            .event(node)
            .support()
            .iter()
            .copied()
            .filter(|&x| inst.variable(x).affects().first() == Some(&node))
            .collect();
        MtProgram {
            inst,
            node,
            owned,
            values: HashMap::new(),
            phase: Phase::Warmup,
            iterations_left: iterations,
            resamplings: 0,
            violated: false,
        }
    }

    fn sample(&mut self, x: usize, ctx: &mut NodeContext) -> usize {
        let var = self.inst.variable(x);
        let u: f64 = ctx.rng.random();
        let mut acc = 0.0;
        for y in 0..var.num_values() {
            acc += var.prob(y).to_f64();
            if u < acc {
                return y;
            }
        }
        var.num_values() - 1
    }

    fn absorb_values(&mut self, inbox: &[Option<MtMsg>]) {
        let support = self.inst.event(self.node).support();
        for msg in inbox.iter().flatten() {
            if let MtMsg::Values(pairs) = msg {
                for &(x, val) in pairs {
                    if support.binary_search(&x).is_ok() {
                        self.values.insert(x, val);
                    }
                }
            }
        }
    }

    fn compute_violated(&self) -> bool {
        let support = self.inst.event(self.node).support();
        let vals: Vec<usize> = support
            .iter()
            .map(|x| *self.values.get(x).expect("all support values announced"))
            .collect();
        self.inst.event(self.node).occurs(&vals)
    }

    fn output(&self) -> MtNodeOutput {
        MtNodeOutput {
            owned_values: self.owned.iter().map(|&x| (x, self.values[&x])).collect(),
            resamplings: self.resamplings,
            violated: self.violated,
        }
    }
}

impl<T: Num> NodeProgram for MtProgram<'_, T> {
    type Message = MtMsg;
    type Output = MtNodeOutput;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<MtMsg>> {
        let pairs: Vec<(usize, usize)> = self
            .owned
            .clone()
            .into_iter()
            .map(|x| {
                let val = self.sample(x, ctx);
                self.values.insert(x, val);
                (x, val)
            })
            .collect();
        broadcast(MtMsg::Values(pairs), ctx.degree)
    }

    fn round(
        &mut self,
        ctx: &mut NodeContext,
        inbox: &[Option<MtMsg>],
    ) -> RoundResult<MtMsg, MtNodeOutput> {
        match self.phase {
            Phase::Warmup | Phase::Resample => {
                // Absorb value announcements (initial samples or the
                // selected neighbors' resamples), then either halt (budget
                // spent) or announce the fresh violated flag.
                self.absorb_values(inbox);
                self.violated = self.compute_violated();
                if self.phase == Phase::Resample {
                    self.iterations_left -= 1;
                }
                if self.iterations_left == 0 {
                    return RoundResult::Halt(self.output());
                }
                self.phase = Phase::Exchange;
                RoundResult::Continue(broadcast(
                    MtMsg::Violated(self.violated, ctx.id),
                    ctx.degree,
                ))
            }
            Phase::Exchange => {
                // Learn the neighbors' violated flags; local minima among
                // the violated resample their entire support.
                let selected = self.violated
                    && inbox.iter().flatten().all(|m| match m {
                        MtMsg::Violated(true, nid) => ctx.id < *nid,
                        _ => true,
                    });
                self.phase = Phase::Resample;
                if selected {
                    self.resamplings += 1;
                    let support = self.inst.event(self.node).support().to_vec();
                    let pairs: Vec<(usize, usize)> = support
                        .into_iter()
                        .map(|x| {
                            let val = self.sample(x, ctx);
                            self.values.insert(x, val);
                            (x, val)
                        })
                        .collect();
                    RoundResult::Continue(broadcast(MtMsg::Values(pairs), ctx.degree))
                } else {
                    RoundResult::Continue(broadcast(MtMsg::Values(Vec::new()), ctx.degree))
                }
            }
        }
    }
}

/// Runs distributed Moser–Tardos on the simulator, doubling the
/// iteration budget until the assembled assignment avoids all events.
/// The LOCAL simulation runs on `threads` worker threads (see
/// [`Simulator::run_auto`]); the outcome — assignment, resamplings and
/// round bill — is identical for every thread count.
///
/// The returned [`MtReport::rounds`] is the honest total of LOCAL rounds
/// across all attempts (the doubling trick's price included);
/// `resamplings` sums the per-node resample operations of the successful
/// attempt.
///
/// # Errors
///
/// [`MtError::BudgetExhausted`] once the iteration budget exceeds
/// `max_iterations`.
pub fn distributed_mt<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    max_iterations: usize,
    threads: usize,
) -> Result<MtReport, MtError> {
    let g = inst.dependency_graph();
    let mut budget = 8usize;
    let mut total_rounds = 0usize;
    let mut attempt = 0u64;
    loop {
        let sim = Simulator::new(g)
            .seed(seed ^ attempt.wrapping_mul(0x517c_c1b7_2722_0a95))
            .threads(threads);
        let run = sim
            .run_auto(
                |ctx| MtProgram::new(inst, ctx.id as usize, budget),
                4 * budget + 8,
            )
            .expect("protocol respects degrees and budget");
        total_rounds += run.rounds;
        // Assemble the assignment from the owners.
        let mut assignment = vec![usize::MAX; inst.num_variables()];
        let mut resamplings = 0;
        for out in &run.outputs {
            resamplings += out.resamplings;
            for &(x, val) in &out.owned_values {
                assignment[x] = val;
            }
        }
        // Variables affecting no event cannot exist (builder validation),
        // so every variable has an owner.
        debug_assert!(assignment.iter().all(|&v| v != usize::MAX));
        if inst
            .violated_events(&assignment)
            .expect("well-formed assignment")
            .is_empty()
        {
            return Ok(MtReport {
                assignment,
                resamplings,
                rounds: total_rounds,
            });
        }
        attempt += 1;
        budget *= 2;
        if budget > max_iterations {
            return Err(MtError::BudgetExhausted { budget });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::InstanceBuilder;

    fn ring_instance(n: usize, k: usize) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
            .collect();
        for i in 0..n {
            let (l, r) = (vars[(i + n - 1) % n], vars[i]);
            b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
        }
        b.build().unwrap()
    }

    #[test]
    fn converges_and_verifies() {
        let inst = ring_instance(60, 4);
        let rep = distributed_mt(&inst, 3, 1 << 20, 1).unwrap();
        assert!(inst.no_event_occurs(&rep.assignment).unwrap());
        assert!(rep.rounds >= 2);
    }

    #[test]
    fn owners_partition_the_variables() {
        let inst = ring_instance(10, 3);
        let rep = distributed_mt(&inst, 1, 1 << 16, 1).unwrap();
        assert_eq!(rep.assignment.len(), inst.num_variables());
        // Every variable got exactly one owner-written value in range.
        for (x, &v) in rep.assignment.iter().enumerate() {
            assert!(v < inst.variable(x).num_values());
        }
    }

    #[test]
    fn honest_rounds_track_iterations() {
        // Budget K costs 1 warmup round + 2K iteration rounds; on an
        // easy instance the first attempt (K = 8) should succeed.
        let inst = ring_instance(20, 8);
        let rep = distributed_mt(&inst, 5, 1 << 16, 1).unwrap();
        assert_eq!(rep.rounds, 1 + 2 * 8);
    }

    #[test]
    fn reproducible_by_seed() {
        let inst = ring_instance(30, 4);
        let a = distributed_mt(&inst, 9, 1 << 16, 1).unwrap();
        let b = distributed_mt(&inst, 9, 1 << 16, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_driver_matches_sequential_bit_for_bit() {
        let inst = ring_instance(40, 4);
        let base = distributed_mt(&inst, 9, 1 << 16, 1).unwrap();
        for t in [2usize, 8] {
            let par = distributed_mt(&inst, 9, 1 << 16, t).unwrap();
            assert_eq!(par, base, "threads {t}");
        }
    }

    #[test]
    fn impossible_instances_exhaust_the_budget() {
        let mut b = InstanceBuilder::<f64>::new(2);
        let x = b.add_uniform_variable(&[0, 1], 2);
        b.set_event_predicate(0, |_| true);
        b.set_event_predicate(1, move |vals| vals[x] == 0);
        let inst = b.build().unwrap();
        assert!(matches!(
            distributed_mt(&inst, 0, 64, 1),
            Err(MtError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn agrees_with_loop_based_parallel_mt_on_solvability() {
        let inst = ring_instance(40, 3);
        let dist = distributed_mt(&inst, 2, 1 << 20, 1).unwrap();
        let par = crate::parallel_mt(&inst, 2, 1 << 20, crate::Selection::IdMinima).unwrap();
        assert!(inst.no_event_occurs(&dist.assignment).unwrap());
        assert!(inst.no_event_occurs(&par.assignment).unwrap());
    }
}
