//! The color-class-parallel fixing sweep.
//!
//! The distributed drivers (Corollaries 1.2 and 1.4) schedule each color
//! class so that its *cells* — one dependency edge's variables for the
//! rank-2 driver, one event node's unfixed incident variables for the
//! rank-3 driver — touch pairwise disjoint events. Variables within a
//! cell interact (they share events), so a cell is fixed sequentially by
//! one worker; cells are independent, so a class's cells can be fixed by
//! concurrent workers, which is exactly what a message-passing
//! implementation does in one LOCAL round.
//!
//! A sweep runs on one [phase pool](lll_local::pool), opened once per
//! `dist::run` and shared by all its classes ([`with_class_pool`]): the
//! calling thread runs band 0, each other band has one OS worker for the
//! whole sweep, and a sharded class is one phase. The coordinator forks
//! the fixer for each shard, posts the fork and its cells to the shard's
//! band mailbox, releases the phase, and absorbs the results.
//!
//! Determinism is by construction, not by luck:
//!
//! * the shard cuts come from [`shard_bounds`] over the class's cell
//!   ends, which are its prefix-sum cell weights — a pure function of
//!   the schedule and the thread count;
//!   bands only decide which thread runs a shard;
//! * each shard's fork (partial assignment + `φ` snapshot) owns a
//!   contiguous run of cells, fixing them in cell order with run-global
//!   step numbers offset by the shard's start position;
//! * per-shard events go into a [`BufRecorder`] and are replayed in
//!   static shard order after the phase, so the merged `--obs` stream is
//!   byte-identical to the sequential emission at every thread count;
//! * shard errors are reduced to the earliest shard's error, and that
//!   shard's partial work *is* absorbed — the fixer state and event
//!   stream on failure match the sequential run's failure state; a
//!   panicking shard is re-raised with its own payload when absorption
//!   reaches it, unless an earlier shard's error ends the class first;
//! * audit checks ([`AuditDelta`]) are computed inside the shards
//!   against the forked state (sound because a shard's events are final
//!   when it finishes and disjoint from every other shard's) and applied
//!   to the [`IncrementalAuditor`](crate::IncrementalAuditor) on the
//!   coordinating thread, keeping the audited driver's parallel section
//!   large enough to beat Amdahl.
//!
//! [`shard_bounds`]: lll_local::shard_bounds

use std::panic;

use lll_local::pool::{self, Phases};
use lll_local::{effective_workers, shard_bounds, PoolStats};
use lll_numeric::Num;
use lll_obs::timing::{span_nanos, span_start};
use lll_obs::{BufRecorder, Event, NullRecorder, Recorder, TimingScope, TimingSink};

use crate::audit::{AuditDelta, IncrementalAuditor};
use crate::error::FixerError;
use crate::fixer::{audit_verdict, fix_run_start_event};
use crate::instance::{Instance, PartialAssignment};
use crate::triples::Phi;
use crate::{FixReport, FixStepRecord};

/// A fixer that the class sweep can fork, run over cells, and merge
/// back. Implemented once by [`Fixer`](crate::Fixer), so by both
/// [`Fixer2`](crate::Fixer2) and [`Fixer3`](crate::Fixer3) (the impl
/// lives in the fixer's module because merging needs the private
/// `partial`/`phi`/`steps` fields). It is also all that the fixers' own
/// sequential run ([`run_in_order`]) and the distributed driver
/// (`crate::dist::run`) need of a fixer, so both are written once for
/// both ranks.
pub(crate) trait ClassFixer<T: Num>: Send + Sized {
    /// The instance being fixed.
    fn instance(&self) -> &Instance<T>;

    /// The current partial assignment.
    fn partial(&self) -> &PartialAssignment;

    /// The current `φ` bookkeeping.
    fn phi(&self) -> &Phi<T>;

    /// Finalizes into a report (all variables must be fixed).
    fn into_report(self) -> FixReport;

    /// Forks the current state for a sweep shard: same partial
    /// assignment and `φ`, empty step log, recorded steps numbered from
    /// `step_base`.
    fn fork(&self, step_base: usize) -> Self;

    /// Fixing steps performed so far (run-global).
    fn steps_done(&self) -> usize;

    /// This fixer's own step log, in fixing order: every step of a
    /// root fixer, or a fork's steps from its `step_base` on. A resumed
    /// `crate::dist::run` checks the recorded prefix against it.
    fn steps(&self) -> &[FixStepRecord];

    /// Fixes every variable of one cell, in order.
    fn fix_cell<R: Recorder>(&mut self, cell: &[usize], rec: &mut R) -> Result<(), FixerError>;

    /// Merges a finished shard fork back into `self`: applies its fixed
    /// values, copies the `φ` entries its steps touched, appends its
    /// step log, and folds its flags. Shards of one class touch
    /// pairwise disjoint events, so absorption in static shard order
    /// reproduces the sequential state exactly.
    fn absorb(&mut self, shard: Self);

    /// The `P*` audit checks for the given already-fixed variables
    /// against this fixer's state (see
    /// [`audit_delta_for`](crate::audit::audit_delta_for)).
    fn audit_delta(&self, vars: &[usize], p_bound: &T, tol: &T) -> AuditDelta<T>;
}

/// The sequential run behind `Fixer::run_with`:
/// fixes `order` one variable at a time, optionally re-verifying `P*`
/// after every step, with the run bracketed in `rec` and timed into
/// `timing`.
pub(crate) fn run_in_order<T, F, R, S>(
    mut fixer: F,
    order: impl IntoIterator<Item = usize>,
    audit: Option<(&T, &T)>,
    rec: &mut R,
    timing: &mut S,
) -> Result<FixReport, FixerError>
where
    T: Num,
    F: ClassFixer<T>,
    R: Recorder,
    S: TimingSink,
{
    let run_started = span_start::<S>();
    if R::ENABLED {
        rec.record(&fix_run_start_event(fixer.instance()));
    }
    let mut auditor = audit.map(|(p_bound, tol)| {
        IncrementalAuditor::new(fixer.instance(), fixer.partial(), fixer.phi(), p_bound, tol)
    });
    for (step, x) in order.into_iter().enumerate() {
        let step_started = span_start::<S>();
        fixer.fix_cell(&[x], rec)?;
        if S::ENABLED {
            timing.record_span(TimingScope::FixStep, span_nanos(step_started));
        }
        let Some(auditor) = auditor.as_mut() else {
            continue;
        };
        let report = auditor.reverify(fixer.instance(), fixer.partial(), fixer.phi(), x);
        audit_verdict(report, step, x, rec)?;
    }
    assert!(
        fixer.partial().is_complete(),
        "order must cover all variables"
    );
    let report = fixer.into_report();
    if R::ENABLED {
        rec.record(&Event::FixRunEnd {
            steps: report.num_steps(),
            violated: report.violated_events().len(),
        });
    }
    if S::ENABLED {
        timing.record_span(TimingScope::FixRun, span_nanos(run_started));
    }
    Ok(report)
}

/// One shard of a class: the fork that fixes it, its cells, and what it
/// leaves in its band's mailbox for the coordinator.
struct Job<'c, T, F> {
    fork: F,
    /// The class's variables; the shard's cells are the windows of
    /// `ends`, its run of the class's cell ends.
    vars: &'c [usize],
    ends: &'c [usize],
    /// Whether the run is recorded: only then are events built and
    /// buffered, exactly like the `R::ENABLED` guards of the sequential
    /// fixers.
    recording: bool,
    buf: BufRecorder,
    /// The shard's outcome and audit delta; `None` until the shard ran,
    /// and still `None` if it panicked.
    done: Option<Result<Option<AuditDelta<T>>, FixerError>>,
}

impl<T: Num, F: ClassFixer<T>> Job<'_, T, F> {
    /// Fixes the shard's cells in order on its fork, then computes the
    /// audit checks for its variables if the run is audited.
    fn fix(&mut self, audit: Option<(&T, &T)>) -> Result<Option<AuditDelta<T>>, FixerError> {
        for cell in self.ends.windows(2) {
            let cell = &self.vars[cell[0]..cell[1]];
            if self.recording {
                self.fork.fix_cell(cell, &mut self.buf)?;
            } else {
                self.fork.fix_cell(cell, &mut NullRecorder)?;
            }
        }
        Ok(audit.map(|(p_bound, tol)| {
            let vars = &self.vars[self.ends[0]..self.ends[self.ends.len() - 1]];
            self.fork.audit_delta(vars, p_bound, tol)
        }))
    }
}

/// A band's mailbox: the shards of the current class posted to it, in
/// shard order.
type Mailbox<'c, T, F> = Vec<Job<'c, T, F>>;

/// A sweep's handle on its [phase pool](lll_local::pool), open for the
/// whole sweep: one phase per sharded class.
pub(crate) struct ClassPool<'a, 'p, 'c, T, F> {
    pool: &'a mut Phases<'p, Mailbox<'c, T, F>, ()>,
    threads: usize,
    audit: Option<(&'a T, &'a T)>,
}

/// Opens the sweep's pool — one band per core the `threads` shards can
/// use, the calling thread running band 0 — for `body`, which fixes the
/// classes through [`ClassPool::fix_class`]. Returns `body`'s result and
/// the pool's counters: a whole sweep spawns at most one worker per band,
/// however many classes it shards.
pub(crate) fn with_class_pool<'c, T, F, O>(
    threads: usize,
    audit: Option<(&T, &T)>,
    body: impl FnOnce(&mut ClassPool<'_, '_, 'c, T, F>) -> O,
) -> (O, PoolStats)
where
    T: Num,
    F: ClassFixer<T>,
{
    let shards = threads.max(1);
    let bands = shards.div_ceil(pool::band_len(shards));
    pool::run(
        (0..bands).map(|_| Mailbox::<'c, T, F>::new()),
        |jobs: &mut Mailbox<'c, T, F>, _: &mut ()| {
            for job in jobs {
                job.done = Some(job.fix(audit));
            }
        },
        |pool| {
            body(&mut ClassPool {
                pool,
                threads,
                audit,
            })
        },
    )
}

impl<'c, T: Num, F: ClassFixer<T>> ClassPool<'_, '_, 'c, T, F> {
    /// Fixes one scheduling class — `vars`, cut into cells by `ends`
    /// (the prefix sums `0, e_1, …, e_c` of the cells' sizes), cell by
    /// cell — on up to `threads` shards, merging state, step logs and
    /// recorded events back in static shard order. In an audited sweep
    /// every shard also computes the `P*` checks for its variables; the
    /// returned deltas (shard order) are applied by the caller to its
    /// [`IncrementalAuditor`](crate::IncrementalAuditor).
    ///
    /// Equivalent to fixing `vars` sequentially, for every `threads` —
    /// outputs, step log, recorded events, audit verdicts, errors and
    /// panics are identical by construction.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first shard (in shard order) that
    /// panicked before any earlier shard failed, with its original
    /// payload, after absorbing every shard before it.
    pub(crate) fn fix_class<R: Recorder>(
        &mut self,
        fixer: &mut F,
        vars: &'c [usize],
        ends: &'c [usize],
        rec: &mut R,
    ) -> Result<Vec<AuditDelta<T>>, FixerError> {
        let shards = effective_workers(self.threads, ends.len() - 1);
        if shards <= 1 {
            for cell in ends.windows(2) {
                fixer.fix_cell(&vars[cell[0]..cell[1]], rec)?;
            }
            return Ok(match self.audit {
                Some((p_bound, tol)) => vec![fixer.audit_delta(vars, p_bound, tol)],
                None => Vec::new(),
            });
        }
        // Slot-balanced cuts over the per-cell step counts (same machinery
        // as the simulator's port-weighted shards).
        let bounds = shard_bounds(ends, shards);
        let base = fixer.steps_done();
        // Fork before the phase: forks are pure functions of the
        // pre-class state and the static shard bounds. Consecutive shards
        // share a band, so band order is shard order.
        let band_len = shards.div_ceil(self.pool.band_count());
        for (s, w) in bounds.windows(2).enumerate() {
            self.pool.band(s / band_len).push(Job {
                fork: fixer.fork(base + ends[w[0]]),
                vars,
                ends: &ends[w[0]..=w[1]],
                recording: R::ENABLED,
                buf: BufRecorder::default(),
                done: None,
            });
        }
        let mut fault = self.pool.phase().err();

        // Absorb in static shard order. The earliest failing shard's
        // prefix is still absorbed (matching where the sequential run
        // would have stopped) and later shards are discarded; a shard
        // that never finished is the one whose panic the sequential run
        // would have raised.
        let mut deltas = Vec::new();
        let mut outcome = Ok(());
        for b in 0..self.pool.band_count() {
            for mut job in self.pool.band(b).drain(..) {
                if outcome.is_err() {
                    continue;
                }
                let Some(done) = job.done else {
                    let fault = fault.take().expect("a shard that did not finish panicked");
                    panic::resume_unwind(fault.payload);
                };
                job.buf.replay_into(rec);
                fixer.absorb(job.fork);
                match done {
                    Ok(delta) => deltas.extend(delta),
                    Err(e) => outcome = Err(e),
                }
            }
        }
        outcome.map(|()| deltas)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;

    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::Fixer2;

    /// The payload a [`Faulty`] fixer panics with.
    #[derive(Debug, PartialEq)]
    struct Boom(usize);

    /// A rank-2 fixer that panics with [`Boom`] on the cell holding
    /// `panics_at` and fails with [`FixerError::NoGoodValue`] on the cell
    /// holding `fails_at`.
    struct Faulty<'i> {
        inner: Fixer2<'i, f64>,
        panics_at: usize,
        fails_at: Option<usize>,
    }

    impl ClassFixer<f64> for Faulty<'_> {
        fn instance(&self) -> &Instance<f64> {
            self.inner.instance()
        }
        fn partial(&self) -> &PartialAssignment {
            self.inner.partial()
        }
        fn phi(&self) -> &Phi<f64> {
            self.inner.phi()
        }
        fn into_report(self) -> FixReport {
            self.inner.into_report()
        }
        fn fork(&self, step_base: usize) -> Self {
            Faulty {
                inner: self.inner.fork(step_base),
                ..*self
            }
        }
        fn steps_done(&self) -> usize {
            self.inner.steps_done()
        }
        fn fix_cell<R: Recorder>(&mut self, cell: &[usize], rec: &mut R) -> Result<(), FixerError> {
            if cell.contains(&self.panics_at) {
                panic::panic_any(Boom(self.panics_at));
            }
            if let Some(variable) = self.fails_at.filter(|x| cell.contains(x)) {
                return Err(FixerError::NoGoodValue { variable });
            }
            self.inner.fix_cell(cell, rec)
        }
        fn steps(&self) -> &[FixStepRecord] {
            self.inner.steps()
        }
        fn absorb(&mut self, shard: Self) {
            self.inner.absorb(shard.inner);
        }
        fn audit_delta(&self, vars: &[usize], p_bound: &f64, tol: &f64) -> AuditDelta<f64> {
            self.inner.audit_delta(vars, p_bound, tol)
        }
    }

    /// A ring of `n` events with one 4-valued variable per edge (variable
    /// `i` on events `i` and `i + 1`).
    fn ring_instance(n: usize) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], 4))
            .collect();
        for i in 0..n {
            let (l, r) = (vars[(i + n - 1) % n], vars[i]);
            b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
        }
        b.build().unwrap()
    }

    /// What fixing one class failed with: its error, or its panic's
    /// payload.
    type Failure = Result<FixerError, Box<dyn std::any::Any + Send>>;

    /// Fixes one class of the even edges of a 40-ring at `threads`, with
    /// the first variable of shard `panics_in` set to panic and that of
    /// shard `fails_in` to fail. Returns how the run failed and the
    /// panicking variable.
    fn fix_even_class(
        threads: usize,
        panics_in: usize,
        fails_in: Option<usize>,
    ) -> (Failure, usize) {
        let inst = ring_instance(40);
        let vars: Vec<usize> = (0..40).step_by(2).collect();
        // Every cell is one variable, so the cell ends count the cells.
        let ends: Vec<usize> = (0..=vars.len()).collect();
        let bounds = shard_bounds(&ends, effective_workers(threads, vars.len()));
        let first_of = |shard: usize| vars[bounds[shard]];
        let mut fixer = Faulty {
            inner: Fixer2::new_unchecked(&inst).unwrap(),
            panics_at: first_of(panics_in),
            fails_at: fails_in.map(first_of),
        };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            with_class_pool(threads, None, |pool| {
                pool.fix_class(&mut fixer, &vars, &ends, &mut NullRecorder)
            })
            .0
        }));
        let failure = match caught {
            Ok(out) => Ok(out.expect_err("a shard fails")),
            Err(payload) => Err(payload),
        };
        (failure, first_of(panics_in))
    }

    #[test]
    fn a_panicking_shard_reraises_its_own_payload() {
        for threads in [2usize, 8] {
            // Returning at all shows the pool released its workers.
            let (failure, bomb) = fix_even_class(threads, 1, None);
            let payload = failure.expect_err("shard 1 panics");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(bomb)),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn an_earlier_shards_error_wins_over_a_later_shards_panic() {
        // The sequential run stops at shard 0's error and never reaches
        // shard 1's panic.
        for threads in [2usize, 8] {
            let (failure, _) = fix_even_class(threads, 1, Some(0));
            assert!(
                matches!(failure, Ok(FixerError::NoGoodValue { variable: 0 })),
                "threads {threads}"
            );
        }
    }
}
