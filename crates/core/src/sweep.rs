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
//! Determinism is by construction, not by luck:
//!
//! * the shard cuts come from [`shard_bounds`] over the prefix-sum cell
//!   weights — a pure function of the schedule and the thread count;
//! * each worker forks the fixer (partial assignment + `φ` snapshot)
//!   and owns a contiguous run of cells, fixing them in cell order with
//!   run-global step numbers offset by the shard's start position;
//! * per-shard events go into a [`BufRecorder`] and are replayed in
//!   static shard order after the join, so the merged `--obs` stream is
//!   byte-identical to the sequential emission at every thread count;
//! * shard errors are reduced to the earliest shard's error, and that
//!   shard's partial work *is* absorbed — the fixer state and event
//!   stream on failure match the sequential run's failure state;
//! * audit checks ([`AuditDelta`]) are computed inside the workers
//!   against the forked state (sound because a shard's events are final
//!   when it finishes and disjoint from every other shard's) and applied
//!   to the [`IncrementalAuditor`](crate::IncrementalAuditor) on the
//!   coordinating thread, keeping the audited driver's parallel section
//!   large enough to beat Amdahl.
//!
//! [`shard_bounds`]: lll_local::shard_bounds

use lll_local::{effective_workers, shard_bounds};
use lll_numeric::Num;
use lll_obs::timing::{span_nanos, span_start};
use lll_obs::{BufRecorder, Event, NullRecorder, Recorder, TimingScope, TimingSink};

use crate::audit::{AuditDelta, IncrementalAuditor};
use crate::error::FixerError;
use crate::fixer2::{audit_verdict, fix_run_start_event};
use crate::instance::{Instance, PartialAssignment};
use crate::triples::Phi;
use crate::FixReport;

/// A fixer that the class sweep can fork, run over cells, and merge
/// back. Implemented by [`Fixer2`](crate::Fixer2) and
/// [`Fixer3`](crate::Fixer3) (the implementations live in their modules
/// because merging needs the private `partial`/`phi`/`steps` fields).
/// It is also all that the fixers' own sequential run
/// ([`run_in_order`]) and the distributed driver (`crate::dist::run`)
/// need of a fixer, so both are written once for both ranks.
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

    /// Fixes every variable of one cell, in order.
    fn fix_cell<R: Recorder>(&mut self, cell: &[usize], rec: &mut R) -> Result<(), FixerError>;

    /// Replays a recorded fixing step: fixes `x` to the value `y` a
    /// previous run chose, applying the exact `φ` updates of a live
    /// step but skipping the value search and emitting no event (see
    /// [`Fixer2::replay_variable`](crate::Fixer2::replay_variable)).
    /// The resumed drivers in `crate::dist` drive this from a recorded
    /// step prefix.
    fn replay(&mut self, x: usize, y: usize) -> Result<(), FixerError>;

    /// A freshly scanned [`IncrementalAuditor`] over the fixer's
    /// current state. The auditor's cache is a pure function of
    /// `(partial, φ)`, so this equals the incremental cache an audited
    /// run carries at the same point — which is what lets a resumed run
    /// rebuild audit state at the live boundary (DESIGN.md §3.12).
    fn fresh_auditor(&self, p_bound: &T, tol: &T) -> IncrementalAuditor<T> {
        IncrementalAuditor::new(self.instance(), self.partial(), self.phi(), p_bound, tol)
    }

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

/// The sequential run behind `Fixer2::run_with` and `Fixer3::run_with`:
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
    let mut auditor = audit.map(|(p_bound, tol)| fixer.fresh_auditor(p_bound, tol));
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

/// The per-worker event buffer: a real [`BufRecorder`] when the run is
/// recorded, a [`NullRecorder`] otherwise — so the unrecorded hot path
/// never constructs an event, exactly like the `R::ENABLED` guards of
/// the sequential fixers.
pub(crate) trait SweepBuf: Recorder + Default + Send {
    /// Replays (and drains) the buffered events into `rec`.
    fn replay<R: Recorder>(&mut self, rec: &mut R);
}

impl SweepBuf for NullRecorder {
    fn replay<R: Recorder>(&mut self, _rec: &mut R) {}
}

impl SweepBuf for BufRecorder {
    fn replay<R: Recorder>(&mut self, rec: &mut R) {
        self.replay_into(rec);
    }
}

/// Fixes one scheduling class — `cells` in order — on up to `threads`
/// workers, merging state, step logs and recorded events back in static
/// shard order. With `audit = Some((p_bound, tol))` every worker also
/// computes the `P*` checks for its variables; the returned deltas
/// (shard order) are applied by the caller to its
/// [`IncrementalAuditor`](crate::IncrementalAuditor).
///
/// Equivalent to fixing the flattened cell list sequentially, for every
/// `threads` — outputs, step log, recorded events and audit verdicts are
/// identical by construction.
pub(crate) fn fix_class_sharded<T, F, R>(
    fixer: &mut F,
    cells: &[Vec<usize>],
    threads: usize,
    audit: Option<(&T, &T)>,
    rec: &mut R,
) -> Result<Vec<AuditDelta<T>>, FixerError>
where
    T: Num,
    F: ClassFixer<T>,
    R: Recorder,
{
    let workers = effective_workers(threads, cells.len());
    if workers <= 1 {
        for cell in cells {
            fixer.fix_cell(cell, rec)?;
        }
        return Ok(match audit {
            Some((p_bound, tol)) => {
                let vars: Vec<usize> = cells.iter().flatten().copied().collect();
                vec![fixer.audit_delta(&vars, p_bound, tol)]
            }
            None => Vec::new(),
        });
    }
    if R::ENABLED {
        sweep_sharded::<T, F, R, BufRecorder>(fixer, cells, workers, audit, rec)
    } else {
        sweep_sharded::<T, F, R, NullRecorder>(fixer, cells, workers, audit, rec)
    }
}

/// One sweep worker's outcome: its fix result, the forked fixer to
/// absorb, its buffered recorder events, and its shard's audit delta.
type ShardOutcome<T, F, B> = (Result<(), FixerError>, F, B, Option<AuditDelta<T>>);

fn sweep_sharded<T, F, R, B>(
    fixer: &mut F,
    cells: &[Vec<usize>],
    workers: usize,
    audit: Option<(&T, &T)>,
    rec: &mut R,
) -> Result<Vec<AuditDelta<T>>, FixerError>
where
    T: Num,
    F: ClassFixer<T>,
    R: Recorder,
    B: SweepBuf,
{
    // Slot-balanced cuts over the per-cell step counts (same machinery
    // as the simulator's port-weighted shards).
    let mut offsets = Vec::with_capacity(cells.len() + 1);
    offsets.push(0usize);
    for cell in cells {
        offsets.push(offsets.last().unwrap() + cell.len());
    }
    let bounds = shard_bounds(&offsets, workers);
    let base = fixer.steps_done();

    // Fork before spawning: forks are pure functions of the pre-class
    // state and the static shard bounds.
    let jobs: Vec<(F, &[Vec<usize>])> = bounds
        .windows(2)
        .map(|w| (fixer.fork(base + offsets[w[0]]), &cells[w[0]..w[1]]))
        .collect();

    let outcomes: Vec<ShardOutcome<T, F, B>> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(mut fork, shard_cells)| {
                s.spawn(move || {
                    let mut buf = B::default();
                    let mut res = Ok(());
                    for cell in shard_cells {
                        if let Err(e) = fork.fix_cell(cell, &mut buf) {
                            res = Err(e);
                            break;
                        }
                    }
                    let delta = match (&res, audit) {
                        (Ok(()), Some((p_bound, tol))) => {
                            let vars: Vec<usize> = shard_cells.iter().flatten().copied().collect();
                            Some(fork.audit_delta(&vars, p_bound, tol))
                        }
                        _ => None,
                    };
                    (res, fork, buf, delta)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    // Absorb in static shard order. On error, the earliest failing
    // shard's prefix is still absorbed (matching where the sequential
    // run would have stopped) and later shards are discarded.
    let mut deltas = Vec::new();
    for (res, fork, mut buf, delta) in outcomes {
        buf.replay(rec);
        fixer.absorb(fork);
        match res {
            Ok(()) => deltas.extend(delta),
            Err(e) => return Err(e),
        }
    }
    Ok(deltas)
}
