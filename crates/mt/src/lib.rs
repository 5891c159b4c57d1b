//! Moser–Tardos resampling baselines.
//!
//! The paper's randomized point of comparison: under the classic
//! symmetric criterion `e·p·(d+1) < 1`, the Moser–Tardos algorithm
//! [MT'10] — sample every variable, then keep resampling the variables
//! of some occurring bad event — terminates after an expected `O(m)`
//! resamplings, and its straightforward distributed parallelisation
//! (resample a maximal independent set of violated events per round)
//! finishes in `O(log² n)` LOCAL rounds. The threshold experiments run
//! these baselines against the deterministic fixers: above `p = 2^-d`
//! the fixers lose their guarantee while MT keeps working (given the
//! classic criterion), below it the fixers win by an exponential round
//! margin.
//!
//! Two drivers:
//!
//! * [`sequential_mt`] — the textbook loop (lowest-index violated event
//!   first, which is a valid selection rule under MT's analysis).
//! * [`parallel_mt`] — per round, all violated events that are local
//!   minima among their violated neighbors (by event index or by fresh
//!   random priorities, see [`Selection`]) resample their variables
//!   simultaneously; this is the classic distributed
//!   variant whose round count the experiments record. One MT round
//!   costs a constant number of LOCAL rounds (exchange values, agree on
//!   the independent set, resample); [`MtReport::local_rounds`] applies
//!   that constant.
//!
//! # Examples
//!
//! ```
//! use lll_core::InstanceBuilder;
//! use lll_mt::sequential_mt;
//!
//! let mut b = InstanceBuilder::<f64>::new(2);
//! let x = b.add_uniform_variable(&[0, 1], 8);
//! b.set_event_predicate(0, move |vals| vals[x] == 0);
//! b.set_event_predicate(1, move |vals| vals[x] == 1);
//! let inst = b.build()?;
//! let report = sequential_mt(&inst, 42, 10_000)?;
//! assert!(inst.no_event_occurs(&report.assignment)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;

use std::fmt;

use lll_core::Instance;
use lll_numeric::Num;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// LOCAL rounds per parallel-MT iteration (exchange assignments, detect
/// violations, elect local minima, resample): the constant the paper's
/// `O(log² n)` hides.
pub const LOCAL_ROUNDS_PER_MT_ROUND: usize = 3;

/// Error produced by the resampling drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtError {
    /// The resampling budget ran out before all events were avoided —
    /// expected when the classic criterion is badly violated.
    BudgetExhausted {
        /// The exhausted budget (resamplings or rounds).
        budget: usize,
    },
}

impl fmt::Display for MtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtError::BudgetExhausted { budget } => {
                write!(f, "resampling budget {budget} exhausted before convergence")
            }
        }
    }
}

impl std::error::Error for MtError {}

/// Outcome of a Moser–Tardos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtReport {
    /// The final assignment (avoids all bad events).
    pub assignment: Vec<usize>,
    /// Total variable-set resamplings performed (MT's work measure).
    pub resamplings: usize,
    /// Parallel MT rounds (`0` for the sequential driver).
    pub rounds: usize,
}

impl MtReport {
    /// LOCAL-round cost of the parallel run
    /// (`rounds · LOCAL_ROUNDS_PER_MT_ROUND`).
    pub fn local_rounds(&self) -> usize {
        self.rounds * LOCAL_ROUNDS_PER_MT_ROUND
    }
}

fn sample_variable<T: Num>(inst: &Instance<T>, x: usize, rng: &mut StdRng) -> usize {
    let var = inst.variable(x);
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for y in 0..var.num_values() {
        acc += var.prob(y).to_f64();
        if u < acc {
            return y;
        }
    }
    var.num_values() - 1
}

fn violated<T: Num>(inst: &Instance<T>, assignment: &[usize]) -> Vec<usize> {
    inst.violated_events(assignment)
        .expect("assignment is complete and in range")
}

/// The sequential Moser–Tardos algorithm: resample the lowest-index
/// occurring event until none occurs.
///
/// # Errors
///
/// [`MtError::BudgetExhausted`] after `max_resamplings` resamplings.
pub fn sequential_mt<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    max_resamplings: usize,
) -> Result<MtReport, MtError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment: Vec<usize> = (0..inst.num_variables())
        .map(|x| sample_variable(inst, x, &mut rng))
        .collect();
    let mut resamplings = 0;
    loop {
        let bad = violated(inst, &assignment);
        let Some(&v) = bad.first() else {
            return Ok(MtReport {
                assignment,
                resamplings,
                rounds: 0,
            });
        };
        if resamplings >= max_resamplings {
            return Err(MtError::BudgetExhausted {
                budget: max_resamplings,
            });
        }
        resamplings += 1;
        for &x in inst.event(v).support() {
            assignment[x] = sample_variable(inst, x, &mut rng);
        }
    }
}

/// Selection rule for the parallel driver: which violated events
/// resample in a round (both yield independent sets; random priorities
/// select larger sets in expectation — ablated in the benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Violated events that are index-minimal among violated neighbors.
    #[default]
    IdMinima,
    /// Luby-style: fresh random priorities per round, local minima win.
    RandomPriority,
}

/// The parallel (distributed) Moser–Tardos algorithm: each round, the
/// violated events that `selection` picks resample simultaneously.
///
/// # Errors
///
/// [`MtError::BudgetExhausted`] after `max_rounds` rounds.
pub fn parallel_mt<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    max_rounds: usize,
    selection: Selection,
) -> Result<MtReport, MtError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = inst.dependency_graph();
    let mut assignment: Vec<usize> = (0..inst.num_variables())
        .map(|x| sample_variable(inst, x, &mut rng))
        .collect();
    let mut resamplings = 0;
    let mut rounds = 0;
    loop {
        let bad = violated(inst, &assignment);
        if bad.is_empty() {
            return Ok(MtReport {
                assignment,
                resamplings,
                rounds,
            });
        }
        if rounds >= max_rounds {
            return Err(MtError::BudgetExhausted { budget: max_rounds });
        }
        rounds += 1;
        let is_bad = {
            let mut flags = vec![false; inst.num_events()];
            for &v in &bad {
                flags[v] = true;
            }
            flags
        };
        // Local minima among violated events form an independent set of
        // the dependency graph (ties impossible: indices resp. fresh
        // random priorities with index tiebreak are distinct).
        let priority: Vec<(u64, usize)> = match selection {
            Selection::IdMinima => (0..inst.num_events()).map(|v| (0, v)).collect(),
            Selection::RandomPriority => (0..inst.num_events())
                .map(|v| (rng.random::<u64>(), v))
                .collect(),
        };
        let selected: Vec<usize> = bad
            .iter()
            .copied()
            .filter(|&v| {
                g.neighbors(v)
                    .iter()
                    .all(|&u| !is_bad[u] || priority[u] > priority[v])
            })
            .collect();
        debug_assert!(
            !selected.is_empty(),
            "a nonempty violated set has a local minimum"
        );
        for &v in &selected {
            resamplings += 1;
            for &x in inst.event(v).support() {
                assignment[x] = sample_variable(inst, x, &mut rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::InstanceBuilder;

    /// Ring instance: event i occurs iff both incident k-valued
    /// variables are 0. p = k^-2, d = 2.
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
    fn sequential_converges_under_classic_criterion() {
        let inst = ring_instance(50, 4); // e·(1/16)·3 ≈ 0.51 < 1
        assert!(inst.satisfies_classic_criterion());
        let rep = sequential_mt(&inst, 1, 100_000).unwrap();
        assert!(inst.no_event_occurs(&rep.assignment).unwrap());
        // Expected resamplings are O(m); enforce a generous linear bound.
        assert!(
            rep.resamplings <= 10 * inst.num_events(),
            "{}",
            rep.resamplings
        );
    }

    #[test]
    fn parallel_converges_and_counts_rounds() {
        let inst = ring_instance(100, 4);
        let rep = parallel_mt(&inst, 3, 10_000, Selection::IdMinima).unwrap();
        assert!(inst.no_event_occurs(&rep.assignment).unwrap());
        assert!(rep.rounds >= 1);
        assert_eq!(rep.local_rounds(), rep.rounds * LOCAL_ROUNDS_PER_MT_ROUND);
    }

    #[test]
    fn random_priority_selection_also_converges() {
        let inst = ring_instance(80, 4);
        let id = parallel_mt(&inst, 3, 10_000, Selection::IdMinima).unwrap();
        let luby = parallel_mt(&inst, 3, 10_000, Selection::RandomPriority).unwrap();
        assert!(inst.no_event_occurs(&id.assignment).unwrap());
        assert!(inst.no_event_occurs(&luby.assignment).unwrap());
    }

    #[test]
    fn reproducible_by_seed() {
        let inst = ring_instance(30, 3);
        let a = sequential_mt(&inst, 7, 100_000).unwrap();
        let b = sequential_mt(&inst, 7, 100_000).unwrap();
        assert_eq!(a, b);
        let c = sequential_mt(&inst, 8, 100_000).unwrap();
        // Different seed: allowed to differ (and in practice does).
        assert!(c.assignment.len() == 30);
    }

    #[test]
    fn budget_is_enforced() {
        // An event that *always* occurs: MT can never converge.
        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_uniform_variable(&[0], 2);
        b.set_event_predicate(0, |_| true);
        let inst = b.build().unwrap();
        assert_eq!(
            sequential_mt(&inst, 0, 50),
            Err(MtError::BudgetExhausted { budget: 50 })
        );
        assert_eq!(
            parallel_mt(&inst, 0, 50, Selection::IdMinima),
            Err(MtError::BudgetExhausted { budget: 50 })
        );
    }

    #[test]
    fn solves_at_the_exponential_threshold() {
        // p·2^d = 1 (where the deterministic guarantee dies) but the
        // classic criterion still holds: MT shines exactly there.
        let inst = ring_instance(40, 2); // p = 1/4, d = 2: e·p·3 ≈ 2.04 — classic fails too!
        assert!(!inst.satisfies_exponential_criterion());
        // Classic criterion fails, but the instance is so small-degree
        // that MT still converges in practice.
        let rep = sequential_mt(&inst, 5, 1_000_000).unwrap();
        assert!(inst.no_event_occurs(&rep.assignment).unwrap());
    }

    #[test]
    fn zero_event_instances_are_trivial() {
        let mut b = InstanceBuilder::<f64>::new(1);
        b.add_uniform_variable(&[0], 3);
        let inst = b.build().unwrap();
        let rep = sequential_mt(&inst, 0, 10).unwrap();
        assert_eq!(rep.resamplings, 0);
        let rep = parallel_mt(&inst, 0, 10, Selection::IdMinima).unwrap();
        assert_eq!(rep.rounds, 0);
    }
}
