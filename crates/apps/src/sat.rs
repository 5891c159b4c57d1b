//! Bounded-intersection SAT via the rank-3 fixer.
//!
//! A CNF formula is the canonical LLL instance: clauses are bad events
//! ("clause falsified"), boolean variables are the random variables, and
//! a clause of width `w` is falsified by a uniform assignment with
//! probability `2^-w`. When every variable occurs in at most 3 clauses
//! (rank ≤ 3) and every clause intersects at most `d < w_min` other
//! clauses, the formula satisfies `p < 2^-d` and [`solve`] finds a
//! satisfying assignment **deterministically** — a by-product of the
//! paper's machinery that also makes a nice end-to-end example.

use std::fmt;
use std::str::FromStr;

use lll_core::{BuildError, Fixer3, FixerError, Instance, InstanceBuilder};
use lll_numeric::Num;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::AppError;

/// A CNF formula with 1-based DIMACS-style literals (`-3` = ¬x₃).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    clauses: Vec<Vec<i32>>,
}

impl CnfFormula {
    /// Creates a formula, validating literals.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::BadInput`] on zero literals, out-of-range
    /// variables, empty clauses, or clauses containing a variable twice
    /// (tautological or duplicated literals).
    pub fn new(num_vars: usize, clauses: Vec<Vec<i32>>) -> Result<CnfFormula, AppError> {
        for (i, clause) in clauses.iter().enumerate() {
            if clause.is_empty() {
                return Err(AppError::BadInput(format!("clause {i} is empty")));
            }
            let mut vars: Vec<i32> = clause.iter().map(|&l| l.abs()).collect();
            vars.sort_unstable();
            if vars.windows(2).any(|w| w[0] == w[1]) {
                return Err(AppError::BadInput(format!("clause {i} repeats a variable")));
            }
            for &l in clause {
                if l == 0 || l.unsigned_abs() as usize > num_vars {
                    return Err(AppError::BadInput(format!(
                        "clause {i} has bad literal {l}"
                    )));
                }
            }
        }
        Ok(CnfFormula { num_vars, clauses })
    }

    /// Number of boolean variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<i32>] {
        &self.clauses
    }

    /// Maximum number of clauses any variable occurs in (the LLL rank).
    pub fn max_occurrences(&self) -> usize {
        let mut occ = vec![0usize; self.num_vars];
        for clause in &self.clauses {
            for &l in clause {
                occ[l.unsigned_abs() as usize - 1] += 1;
            }
        }
        occ.into_iter().max().unwrap_or(0)
    }

    /// Evaluates the formula under an assignment (`assignment[i]` is the
    /// value of variable `i+1`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `num_vars`.
    pub fn is_satisfied(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars, "one value per variable");
        self.clauses.iter().all(|clause| {
            clause.iter().any(|&l| {
                let val = assignment[l.unsigned_abs() as usize - 1];
                if l > 0 {
                    val
                } else {
                    !val
                }
            })
        })
    }

    /// Builds the LLL instance of this formula (events = clauses).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::BadInput`] if a variable occurs nowhere (it
    /// would affect no event) — such variables should be removed first.
    pub fn to_instance<T: Num>(&self) -> Result<Instance<T>, AppError> {
        let mut affects: Vec<Vec<usize>> = vec![Vec::new(); self.num_vars];
        for (ci, clause) in self.clauses.iter().enumerate() {
            for &l in clause {
                affects[l.unsigned_abs() as usize - 1].push(ci);
            }
        }
        let mut b = InstanceBuilder::<T>::new(self.clauses.len());
        for (x, a) in affects.iter().enumerate() {
            if a.is_empty() {
                return Err(AppError::BadInput(format!(
                    "variable {} occurs nowhere",
                    x + 1
                )));
            }
            b.add_uniform_variable(a, 2);
        }
        for (ci, clause) in self.clauses.iter().enumerate() {
            // Falsified iff every literal is false (value 1 = true): one
            // bad tuple, in support order (variables ascending).
            let mut lits = clause.clone();
            lits.sort_unstable_by_key(|l| l.unsigned_abs());
            let falsifying: Vec<usize> = lits.iter().map(|&l| usize::from(l < 0)).collect();
            b.set_event_bad_tuples(ci, [falsifying]);
        }
        b.build()
            .map_err(|e: BuildError| AppError::BadInput(e.to_string()))
    }
}

impl FromStr for CnfFormula {
    type Err = AppError;

    /// Parses DIMACS CNF: `c` comment lines, a `p cnf <vars> <clauses>`
    /// header, then whitespace-separated literals with `0` terminating
    /// each clause.
    fn from_str(s: &str) -> Result<CnfFormula, AppError> {
        let mut num_vars: Option<usize> = None;
        let mut declared_clauses = 0usize;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        let mut current: Vec<i32> = Vec::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                if num_vars.is_some() {
                    return Err(AppError::BadInput("duplicate DIMACS header".to_owned()));
                }
                let mut parts = rest.split_whitespace();
                if parts.next() != Some("cnf") {
                    return Err(AppError::BadInput("header is not `p cnf`".to_owned()));
                }
                let nv = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| AppError::BadInput("bad variable count".to_owned()))?;
                declared_clauses = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| AppError::BadInput("bad clause count".to_owned()))?;
                num_vars = Some(nv);
                continue;
            }
            for tok in line.split_whitespace() {
                let lit: i32 = tok
                    .parse()
                    .map_err(|_| AppError::BadInput(format!("bad literal token {tok:?}")))?;
                if lit == 0 {
                    clauses.push(std::mem::take(&mut current));
                } else {
                    current.push(lit);
                }
            }
        }
        let num_vars =
            num_vars.ok_or_else(|| AppError::BadInput("missing `p cnf` header".to_owned()))?;
        if !current.is_empty() {
            return Err(AppError::BadInput("unterminated final clause".to_owned()));
        }
        if clauses.len() != declared_clauses {
            return Err(AppError::BadInput(format!(
                "header declares {declared_clauses} clauses, found {}",
                clauses.len()
            )));
        }
        CnfFormula::new(num_vars, clauses)
    }
}

impl fmt::Display for CnfFormula {
    /// Serializes to DIMACS CNF.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "p cnf {} {}", self.num_vars, self.clauses.len())?;
        for clause in &self.clauses {
            for lit in clause {
                write!(f, "{lit} ")?;
            }
            writeln!(f, "0")?;
        }
        Ok(())
    }
}

/// Error produced by the SAT solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SatError {
    /// The formula is structurally unusable (validation message inside).
    BadFormula(AppError),
    /// The formula does not meet the solver's guarantee conditions
    /// (rank ≤ 3 and `p < 2^-d`): the underlying fixer refused.
    OutOfRegime(FixerError),
}

impl std::fmt::Display for SatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatError::BadFormula(e) => write!(f, "bad formula: {e}"),
            SatError::OutOfRegime(e) => write!(f, "formula outside the LLL regime: {e}"),
        }
    }
}

impl std::error::Error for SatError {}

/// Deterministically solves a bounded-intersection CNF formula with the
/// rank-3 fixer.
///
/// Requirements (checked): every variable occurs in ≤ 3 clauses and the
/// LLL criterion `2^-w_min < 2^-d` holds, where `d` is the maximum
/// number of clauses any clause shares a variable with.
///
/// # Errors
///
/// [`SatError::BadFormula`] for malformed input and
/// [`SatError::OutOfRegime`] when the guarantee conditions fail.
pub fn solve(cnf: &CnfFormula) -> Result<Vec<bool>, SatError> {
    solve_recorded(cnf, &mut lll_obs::NullRecorder)
}

/// [`solve`] with a flight recorder: the rank-3 fixing process streams a
/// `fix_run_start`/`fix_step`.../`fix_run_end` event bracket through
/// `rec`, one `fix_step` per CNF variable in index order.
///
/// # Errors
///
/// Same as [`solve`].
pub fn solve_recorded<R: lll_obs::Recorder>(
    cnf: &CnfFormula,
    rec: &mut R,
) -> Result<Vec<bool>, SatError> {
    let inst: Instance<f64> = cnf.to_instance().map_err(SatError::BadFormula)?;
    let order = 0..inst.num_variables();
    let report = Fixer3::new(&inst)
        .map_err(SatError::OutOfRegime)?
        .run_with(order, None, rec, &mut lll_obs::NullTiming)
        .expect("below the threshold every cost is finite");
    debug_assert!(
        report.is_success(),
        "Theorem 1.3 guarantees success below the threshold"
    );
    Ok(report.assignment().iter().map(|&v| v == 1).collect())
}

/// Generates a satisfiable-by-construction bounded-intersection formula:
/// `num_clauses` clauses of width `width` arranged on a ring where the
/// shared variable `s_i` occurs in clauses `{i, i+1, i+2}` (so every
/// shared variable has rank 3 and every clause intersects exactly 4
/// others), padded with private variables and random polarities.
///
/// # Panics
///
/// Panics if `width < 4` (the criterion `width > 4` needs room) or
/// `num_clauses < 5`.
pub fn ring_formula(num_clauses: usize, width: usize, seed: u64) -> CnfFormula {
    assert!(width >= 4, "need width >= 4");
    assert!(num_clauses >= 5, "need at least 5 clauses on the ring");
    let mut rng = StdRng::seed_from_u64(seed);
    let shared = num_clauses; // s_0..s_{m-1} are variables 1..m
    let privates_per_clause = width - 3;
    let num_vars = shared + num_clauses * privates_per_clause;
    let mut clauses = Vec::with_capacity(num_clauses);
    let mut next_private = shared;
    for i in 0..num_clauses {
        let mut clause = Vec::with_capacity(width);
        for back in 0..3usize {
            let s = (i + num_clauses - back) % num_clauses;
            let lit = (s + 1) as i32;
            clause.push(if rng.random::<bool>() { lit } else { -lit });
        }
        for _ in 0..privates_per_clause {
            next_private += 1;
            let lit = next_private as i32;
            clause.push(if rng.random::<bool>() { lit } else { -lit });
        }
        clauses.push(clause);
    }
    CnfFormula::new(num_vars, clauses).expect("generated formula is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The instance's former form: each clause a predicate.
    fn predicate_form<T: Num>(cnf: &CnfFormula) -> Instance<T> {
        let mut b = InstanceBuilder::<T>::new(cnf.clauses().len());
        let mut affects = vec![Vec::new(); cnf.num_vars()];
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            for &l in clause {
                affects[l.unsigned_abs() as usize - 1].push(ci);
            }
        }
        for a in &affects {
            b.add_uniform_variable(a, 2);
        }
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            let lits: Vec<(usize, usize)> = clause
                .iter()
                .map(|&l| (l.unsigned_abs() as usize - 1, usize::from(l < 0)))
                .collect();
            b.set_event_predicate(ci, move |vals| {
                lits.iter().all(|&(x, falsifying)| vals[x] == falsifying)
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn bad_tuples_build_the_predicate_form() {
        let unsorted = CnfFormula::new(4, vec![vec![3, -1, 4], vec![-4, 2, -3], vec![1, -2]]);
        for cnf in [
            ring_formula(24, 5, 3),
            ring_formula(9, 4, 4),
            unsorted.unwrap(),
        ] {
            let f = cnf.to_instance::<f64>().unwrap();
            crate::assert_same_events(&f, &predicate_form(&cnf));
            let r = cnf.to_instance::<lll_numeric::BigRational>().unwrap();
            crate::assert_same_events(&r, &predicate_form(&cnf));
        }
    }

    #[test]
    fn formula_validation() {
        assert!(CnfFormula::new(2, vec![vec![1, -2]]).is_ok());
        assert!(CnfFormula::new(2, vec![vec![]]).is_err());
        assert!(CnfFormula::new(2, vec![vec![0]]).is_err());
        assert!(CnfFormula::new(2, vec![vec![3]]).is_err());
        assert!(CnfFormula::new(2, vec![vec![1, -1]]).is_err());
        assert!(CnfFormula::new(2, vec![vec![2, 2]]).is_err());
    }

    #[test]
    fn recorded_solve_matches_and_counts_steps() {
        let cnf = ring_formula(12, 6, 5);
        let mut rec = lll_obs::CounterRecorder::new();
        let recorded = solve_recorded(&cnf, &mut rec).unwrap();
        assert_eq!(recorded, solve(&cnf).unwrap());
        assert_eq!(rec.fix_runs, 1);
        assert_eq!(rec.fix_steps, cnf.num_vars());
    }

    #[test]
    fn satisfaction_semantics() {
        let cnf = CnfFormula::new(3, vec![vec![1, 2], vec![-1, 3], vec![-2, -3]]).unwrap();
        assert!(cnf.is_satisfied(&[true, false, true]));
        assert!(!cnf.is_satisfied(&[false, false, true]));
        assert_eq!(cnf.max_occurrences(), 2);
    }

    #[test]
    fn ring_formula_structure() {
        let cnf = ring_formula(10, 6, 3);
        assert_eq!(cnf.clauses().len(), 10);
        assert!(cnf.clauses().iter().all(|c| c.len() == 6));
        assert_eq!(cnf.max_occurrences(), 3);
        let inst: Instance<f64> = cnf.to_instance().unwrap();
        assert_eq!(inst.max_dependency_degree(), 4);
        assert_eq!(inst.max_rank(), 3);
        // p = 2^-6, d = 4: criterion value 2^-2.
        assert!((inst.criterion_value() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn solves_ring_formulas() {
        for seed in 0..5 {
            let cnf = ring_formula(20, 5, seed);
            let assignment = solve(&cnf).unwrap();
            assert!(cnf.is_satisfied(&assignment), "seed {seed}");
        }
    }

    #[test]
    fn width4_is_out_of_regime() {
        // width 4 = d: p·2^d = 1 — exactly at the threshold, refused.
        let cnf = ring_formula(10, 4, 0);
        assert!(matches!(solve(&cnf), Err(SatError::OutOfRegime(_))));
    }

    #[test]
    fn dimacs_roundtrip() {
        let cnf = ring_formula(8, 5, 1);
        let text = cnf.to_string();
        let parsed: CnfFormula = text.parse().unwrap();
        assert_eq!(parsed, cnf);
    }

    #[test]
    fn dimacs_parsing_accepts_comments_and_multiline_clauses() {
        let text = "c a comment\nc another\np cnf 3 2\n1 -2\n3 0\n-1 2 -3 0\n";
        let cnf: CnfFormula = text.parse().unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.clauses(), &[vec![1, -2, 3], vec![-1, 2, -3]]);
    }

    #[test]
    fn dimacs_parsing_rejects_malformed_input() {
        assert!("1 2 0".parse::<CnfFormula>().is_err()); // no header
        assert!("p cnf 2 1\n1 2".parse::<CnfFormula>().is_err()); // unterminated
        assert!("p cnf 2 2\n1 0".parse::<CnfFormula>().is_err()); // count mismatch
        assert!("p cnf 2 1\n7 0".parse::<CnfFormula>().is_err()); // out of range
        assert!("p dnf 2 1\n1 0".parse::<CnfFormula>().is_err()); // wrong format tag
        assert!("p cnf 2 1\nx 0".parse::<CnfFormula>().is_err()); // bad token
    }

    #[test]
    fn rank4_is_out_of_regime() {
        // A variable in 4 clauses -> rank 4.
        let cnf = CnfFormula::new(
            9,
            vec![
                vec![1, 2, 3, 4, 5],
                vec![1, -2, 6, 7, -8],
                vec![-1, 3, -6, 9, 5],
                vec![1, -4, -7, 8, -9],
            ],
        )
        .unwrap();
        assert_eq!(cnf.max_occurrences(), 4);
        assert!(matches!(solve(&cnf), Err(SatError::OutOfRegime(_))));
    }
}
