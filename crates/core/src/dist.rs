//! Distributed LLL below the sharp threshold (Corollaries 1.2 and 1.4).
//!
//! Both corollaries follow the same scheme: a coloring computed by a real
//! LOCAL algorithm (on the [`Simulator`]) schedules the order-oblivious
//! sequential fixers so that variables fixed in the same round never
//! share an event:
//!
//! * **Rank ≤ 2 (Corollary 1.2)**: variables sit on dependency-graph
//!   edges; a proper *edge coloring* guarantees that same-colored edges
//!   share no endpoint, so all their variables can be fixed
//!   simultaneously. `O(d + log* n)` rounds in the paper with
//!   Panconesi–Rizzi; our Linial-based substitute gives
//!   `O(d²) + log* n` (see `DESIGN.md`).
//! * **Rank ≤ 3 (Corollary 1.4)**: a *distance-2 coloring* of the
//!   dependency graph guarantees that same-colored event nodes are ≥ 3
//!   apart, so each can fix **all** of its incident variables without
//!   touching another fixer's events. `O(d² + log* n)` in the paper with
//!   FHK'16; `O(d⁴) + log* n` with our substitute.
//!
//! Round accounting: the coloring rounds are measured exactly on the
//! simulator; each color class then costs 2 rounds (one to exchange the
//! freshly fixed values and `φ` entries with the 1-hop neighborhood, one
//! to hand over to the next class), matching how the paper iterates
//! through color classes. The scheduling loop below executes the *same*
//! fixing steps a message-passing implementation would — the
//! order-obliviousness of Theorems 1.1/1.3 is exactly what makes the
//! schedule correct — and asserts the no-conflict property of every
//! class as an executable witness.

use std::fmt;

use lll_coloring::{distance2_coloring, edge_coloring};
use lll_local::{SimError, Simulator};
use lll_numeric::Num;
use lll_obs::timing::{span_nanos, span_start};
use lll_obs::{Event, NullRecorder, NullTiming, Recorder, TimingScope, TimingSink};

use crate::audit::{AuditDelta, IncrementalAuditor};
use crate::error::FixerError;
use crate::fg::FgFixer;
use crate::fixer2::{audit_event, fix_run_start_event};
use crate::instance::{max_probability, Instance, PartialAssignment};
use crate::sweep::{fix_class_sharded, ClassFixer};
use crate::triples::Phi;
use crate::{FixReport, Fixer2, Fixer3};

/// Whether to enforce the exponential criterion `p < 2^-d` before
/// running (threshold experiments run the greedy process unchecked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CriterionCheck {
    /// Fail with [`FixerError::CriterionViolated`] above the threshold.
    #[default]
    Enforce,
    /// Run the greedy process regardless.
    Skip,
}

/// Error produced by the distributed drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// The underlying LOCAL simulation failed.
    Sim(SimError),
    /// The fixer rejected the instance.
    Fixer(FixerError),
    /// A precomputed [`Schedule`] was supplied for a different graph (or
    /// the wrong schedule kind for the driver).
    ScheduleMismatch {
        /// Schedule slots the driver requires (edges for the rank-2
        /// driver, nodes for the rank-3 driver).
        expected: usize,
        /// Slots the supplied schedule actually carries.
        found: usize,
    },
    /// A resumed run's recorded step prefix contradicts the schedule it
    /// is replayed against — wrong schedule or instance, a prefix from a
    /// different driver, or corrupt audit accounting. The resumed
    /// drivers fail loudly rather than continue a stream they could not
    /// reproduce byte for byte.
    ResumeMismatch {
        /// Index into the recorded step prefix at which replay failed
        /// (`prefix.len()` for end-of-prefix accounting failures).
        at: usize,
        /// What the schedule expected at that point.
        expected: String,
        /// What the recorded prefix actually carried.
        found: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Sim(e) => write!(f, "simulation error: {e}"),
            DistError::Fixer(e) => write!(f, "fixer error: {e}"),
            DistError::ScheduleMismatch { expected, found } => write!(
                f,
                "schedule mismatch: driver needs {expected} schedule slots, schedule has {found}"
            ),
            DistError::ResumeMismatch {
                at,
                expected,
                found,
            } => write!(
                f,
                "resume mismatch at recorded step {at}: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<SimError> for DistError {
    fn from(e: SimError) -> Self {
        DistError::Sim(e)
    }
}

impl From<FixerError> for DistError {
    fn from(e: FixerError) -> Self {
        DistError::Fixer(e)
    }
}

/// Outcome of a distributed run: the fixing report plus the honest round
/// bill.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Total LOCAL rounds: coloring + 2 per color class (+1 for the
    /// rank-1 warm-up class in the rank-2 driver).
    pub rounds: usize,
    /// Rounds spent computing the schedule coloring.
    pub coloring_rounds: usize,
    /// Number of color classes iterated.
    pub num_classes: usize,
    /// The assignment outcome.
    pub fix: FixReport,
}

/// Budget for the coloring subroutines; generous, only a guard against
/// runaway simulations.
fn round_budget(n: usize) -> usize {
    10_000 + 4 * n
}

/// Which coloring a [`Schedule`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// A proper edge coloring (one color slot per edge) — drives the
    /// rank-2 sweep of Corollary 1.2.
    Edge,
    /// A distance-2 vertex coloring (one color slot per node) — drives
    /// the rank-3 sweep of Corollary 1.4.
    Distance2,
}

/// A reusable scheduling artifact: the coloring a distributed driver
/// computes before its fixing sweep, detached from any one instance.
///
/// The coloring depends only on the dependency *graph* (its labeled
/// structure and the schedule seed), never on probabilities, predicates,
/// or the fixing state — which is what makes it shareable across every
/// instance with the same graph shape. `lll-serve` exploits exactly
/// this: its topology cache keys schedules by
/// [`Graph::fingerprint`](lll_graphs::Graph::fingerprint) and replays
/// them through [`distributed_fixer2_scheduled_recorded`] /
/// [`distributed_fixer3_scheduled_recorded`], so only the fixing sweep
/// runs per request. Determinism contract: the scheduled drivers execute
/// the *same* fixing steps the self-scheduling drivers would (those are
/// now thin wrappers that compute a `Schedule` and delegate), so a
/// cached replay is byte-identical to a cold run — assignment, bills,
/// and recorded stream — at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    kind: ScheduleKind,
    colors: Vec<usize>,
    palette: usize,
    coloring_rounds: usize,
}

impl Schedule {
    /// Computes the rank-2 schedule: a proper edge coloring of `g` via
    /// the real LOCAL simulation (`threads` simulator workers; the
    /// result is identical for every count).
    ///
    /// # Errors
    ///
    /// [`SimError`] if the coloring simulation fails.
    pub fn edge(g: &lll_graphs::Graph, seed: u64, threads: usize) -> Result<Schedule, SimError> {
        if g.num_edges() == 0 {
            return Ok(Schedule {
                kind: ScheduleKind::Edge,
                colors: Vec::new(),
                palette: 0,
                coloring_rounds: 0,
            });
        }
        let sim = Simulator::with_shuffled_ids(g, seed).threads(threads);
        let col = edge_coloring(&sim, round_budget(g.num_nodes()))?;
        Ok(Schedule {
            kind: ScheduleKind::Edge,
            colors: col.colors,
            palette: col.palette,
            coloring_rounds: col.rounds,
        })
    }

    /// Computes the rank-3 schedule: a distance-2 coloring of `g` via the
    /// real LOCAL simulation (`threads` simulator workers; the result is
    /// identical for every count).
    ///
    /// # Errors
    ///
    /// [`SimError`] if the coloring simulation fails.
    pub fn distance2(
        g: &lll_graphs::Graph,
        seed: u64,
        threads: usize,
    ) -> Result<Schedule, SimError> {
        if g.num_nodes() == 0 {
            return Ok(Schedule {
                kind: ScheduleKind::Distance2,
                colors: Vec::new(),
                palette: 0,
                coloring_rounds: 0,
            });
        }
        let sim = Simulator::with_shuffled_ids(g, seed).threads(threads);
        let col = distance2_coloring(&sim, round_budget(g.num_nodes()))?;
        Ok(Schedule {
            kind: ScheduleKind::Distance2,
            colors: col.colors,
            palette: col.palette,
            coloring_rounds: col.rounds,
        })
    }

    /// Which sweep this schedule drives.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// One color per edge ([`ScheduleKind::Edge`]) or node
    /// ([`ScheduleKind::Distance2`]).
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Number of color classes.
    pub fn palette(&self) -> usize {
        self.palette
    }

    /// LOCAL rounds the coloring simulation took — billed once per
    /// *computation*; cached replays still report it so cold and warm
    /// responses agree byte for byte.
    pub fn coloring_rounds(&self) -> usize {
        self.coloring_rounds
    }

    /// Approximate heap footprint in bytes — the color vector plus the
    /// struct header. Feeds the serve daemon's topology-cache memory
    /// gauge; an estimate for accounting, not an allocator truth.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Schedule>() + self.colors.capacity() * std::mem::size_of::<usize>()
    }
}

/// Where to pick an interrupted fixing run back up: the recorded
/// `(variable, value)` step prefix up to a durable `#checkpoint `
/// sidecar, plus the stream accounting the resumed drivers need to
/// continue the event stream byte for byte.
///
/// The fixers are pure functions of their applied step sequence, so the
/// prefix alone determines the mid-run state exactly; the counters
/// determine which bracketing/audit events the prefix already contains
/// (and therefore must *not* be re-emitted). Build one from a folded
/// [`RunState`](lll_obs::replay::RunState) via
/// [`ResumeCursor::from_run_state`], or assemble the parts manually.
#[derive(Debug, Clone, Copy)]
pub struct ResumeCursor<'a> {
    steps: &'a [(u64, u64)],
    audits: u64,
    fix_run_started: bool,
}

impl<'a> ResumeCursor<'a> {
    /// A cursor from raw parts: the step prefix to replay, the number of
    /// audit events the prefix already contains, and whether the prefix
    /// contains the run's `fix_run_start` bracket (it does whenever the
    /// checkpoint landed inside the fixing run).
    pub fn new(steps: &'a [(u64, u64)], audits: u64, fix_run_started: bool) -> ResumeCursor<'a> {
        ResumeCursor {
            steps,
            audits,
            fix_run_started,
        }
    }

    /// The cursor at `state`'s last verified checkpoint, or `None` if
    /// the folded prefix contains no `#checkpoint ` sidecar (or the
    /// fold is short of the sidecar's step count, which means the
    /// caller folded the wrong stream).
    ///
    /// `state` should be the fold of the durable prefix being resumed —
    /// the bytes up to
    /// [`Checkpoint::resume_offset`](lll_obs::Checkpoint::resume_offset).
    /// Folding a *longer* stream also works: the cursor slices the step
    /// list back to the checkpoint.
    pub fn from_run_state(state: &'a lll_obs::replay::RunState) -> Option<ResumeCursor<'a>> {
        let rp = state.last_checkpoint()?;
        let n = usize::try_from(rp.checkpoint.step).ok()?;
        Some(ResumeCursor {
            steps: state.steps().get(..n)?,
            audits: rp.audits,
            fix_run_started: rp.fix_runs > 0,
        })
    }

    /// The recorded step prefix this cursor replays.
    pub fn steps(&self) -> &'a [(u64, u64)] {
        self.steps
    }
}

fn resume_mismatch(at: usize, expected: impl Into<String>, found: impl Into<String>) -> DistError {
    DistError::ResumeMismatch {
        at,
        expected: expected.into(),
        found: found.into(),
    }
}

/// The replay phase of a resumed sweep: walks the recorded step prefix
/// through the schedule's class order, verifying each recorded step
/// against the variable the schedule puts there, and hands the run over
/// to live execution at the exact step where the prefix ends.
struct ReplayPhase<'a> {
    steps: &'a [(u64, u64)],
    pos: usize,
    /// Audit events the prefix already contains.
    audits: u64,
    /// Non-empty classes fully replayed so far.
    classes_replayed: u64,
}

impl ReplayPhase<'_> {
    /// Replays one scheduled class from the prefix. Returns `false`
    /// while the prefix extends beyond the class (the class was fully
    /// replayed, nothing live happened) and `true` once the prefix is
    /// exhausted — at the class boundary or inside the class, in which
    /// case the in-class remainder has been fixed live (sequentially:
    /// identical event order to the shard-merged emission), the
    /// boundary audit emitted, and `auditor` rebuilt for the remaining
    /// classes.
    ///
    /// Rebuilding the auditor by a full scan is sound because the
    /// incremental cache is a pure function of `(partial, φ)` — see
    /// [`ClassFixer::fresh_auditor`]. The boundary class's audit
    /// verdict therefore equals the uninterrupted run's, whose cache
    /// described the same state.
    fn replay_class<T: Num, F: ClassFixer<T>, R: Recorder>(
        &mut self,
        inst: &Instance<T>,
        fixer: &mut F,
        class_vars: &[usize],
        audit: Option<(&T, &T)>,
        auditor: &mut Option<IncrementalAuditor<T>>,
        rec: &mut R,
    ) -> Result<bool, DistError> {
        let take = (self.steps.len() - self.pos).min(class_vars.len());
        for &x in &class_vars[..take] {
            let (rx, ry) = self.steps[self.pos];
            if rx != x as u64 {
                return Err(resume_mismatch(
                    self.pos,
                    format!("variable {x} (schedule order)"),
                    format!("variable {rx}"),
                ));
            }
            let k = inst.variable(x).num_values();
            if ry >= k as u64 {
                return Err(resume_mismatch(
                    self.pos,
                    format!("a value below {k} for variable {x}"),
                    format!("value {ry}"),
                ));
            }
            fixer.replay(x, ry as usize).map_err(DistError::Fixer)?;
            self.pos += 1;
        }
        let boundary_exact = take == class_vars.len();
        if boundary_exact {
            self.classes_replayed += 1;
            if self.pos < self.steps.len() {
                return Ok(false);
            }
        } else {
            // The prefix ends inside this class: the rest of the class
            // runs live. Sequential cell order equals the sharded
            // drivers' static merge order, so the continued stream
            // stays byte-identical at every thread count.
            fixer
                .fix_cell(&class_vars[take..], rec)
                .map_err(DistError::Fixer)?;
        }
        if let Some((p_bound, tol)) = audit {
            let rebuilt = fixer.fresh_auditor(p_bound, tol);
            // Checkpoints land only after event lines, and the class
            // audit event follows the class's last fix_step — so a
            // prefix ending exactly at a class boundary may still owe
            // that class's audit event.
            let pending = if boundary_exact {
                if self.audits == self.classes_replayed {
                    false
                } else if self.audits + 1 == self.classes_replayed {
                    true
                } else {
                    return Err(resume_mismatch(
                        self.pos,
                        format!(
                            "{} or {} audit events for {} replayed classes",
                            self.classes_replayed - 1,
                            self.classes_replayed,
                            self.classes_replayed
                        ),
                        format!("{} audit events", self.audits),
                    ));
                }
            } else {
                if self.audits != self.classes_replayed {
                    return Err(resume_mismatch(
                        self.pos,
                        format!(
                            "{} audit events for {} replayed classes",
                            self.classes_replayed, self.classes_replayed
                        ),
                        format!("{} audit events", self.audits),
                    ));
                }
                true
            };
            if pending {
                let report = rebuilt.report();
                let step = fixer.steps_done() - 1;
                let variable = *class_vars.last().expect("class is non-empty");
                if R::ENABLED {
                    rec.record(&audit_event(step, variable, &report));
                }
                if !report.holds() {
                    return Err(DistError::Fixer(FixerError::PStarViolated {
                        step,
                        variable,
                        pair_violations: report.pair_violations,
                        prob_violations: report.prob_violations,
                    }));
                }
            }
            *auditor = Some(rebuilt);
        }
        Ok(true)
    }
}

/// Sets up the replay phase for a driver: validates the cursor's audit
/// accounting against the driver's mode and decides whether the
/// `fix_run_start` bracket must still be emitted. Returns
/// `(replay, emit_fix_run_start)`.
fn begin_replay<'a>(
    resume: Option<&ResumeCursor<'a>>,
    audited: bool,
) -> Result<(Option<ReplayPhase<'a>>, bool), DistError> {
    let Some(cursor) = resume else {
        return Ok((None, true));
    };
    if !audited && cursor.audits != 0 {
        return Err(resume_mismatch(
            cursor.steps.len(),
            "no audit events (unaudited driver)",
            format!("{} audit events", cursor.audits),
        ));
    }
    let replay = if cursor.steps.is_empty() {
        None
    } else {
        Some(ReplayPhase {
            steps: cursor.steps,
            pos: 0,
            audits: cursor.audits,
            classes_replayed: 0,
        })
    };
    Ok((replay, !cursor.fix_run_started))
}

/// Distributed rank-2 LLL (Corollary 1.2): edge-color the dependency
/// graph, then fix each color class of variables in parallel.
///
/// # Errors
///
/// [`DistError::Fixer`] if the instance has rank > 2 or (under
/// [`CriterionCheck::Enforce`]) violates `p < 2^-d`;
/// [`DistError::Sim`] if the coloring simulation fails.
pub fn distributed_fixer2<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
) -> Result<DistReport, DistError> {
    fixer2_driver(inst, seed, check, 1, None, &mut NullRecorder)
}

/// [`distributed_fixer2`] with the coloring simulation *and* the fixing
/// sweep running on `threads` worker threads: each color class's cells
/// (one dependency edge's variables each) are sharded across workers,
/// which is legitimate precisely because same-colored edges share no
/// event (the witness this driver asserts). The outcome is identical
/// for every thread count — see `crate::sweep`.
///
/// # Errors
///
/// As [`distributed_fixer2`].
pub fn distributed_fixer2_parallel<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    fixer2_driver(inst, seed, check, threads, None, &mut NullRecorder)
}

/// [`distributed_fixer2_parallel`] with a flight recorder: brackets the
/// fixing steps with [`Event::FixRunStart`]/[`Event::FixRunEnd`] and
/// emits one `fix_step` per variable. Per-shard events are buffered and
/// merged in static shard order, so the stream is byte-identical at
/// every thread count.
///
/// # Errors
///
/// As [`distributed_fixer2`].
pub fn distributed_fixer2_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer2_driver(inst, seed, check, threads, None, rec)
}

/// [`distributed_fixer2_parallel`] with a `P*` audit: after each color
/// class, the auditor re-verifies the union of the class variables'
/// `affects` sets ([`IncrementalAuditor::reverify_class`]) — the checks
/// are computed inside the sweep workers and merged, so the audited
/// driver parallelizes end to end. Verdicts are identical to auditing
/// step by step, because a class's cells touch disjoint events.
///
/// # Errors
///
/// As [`distributed_fixer2`], plus [`FixerError::PStarViolated`]
/// (wrapped in [`DistError::Fixer`]) at the first class after which the
/// invariant no longer holds.
pub fn distributed_fixer2_audited<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
) -> Result<DistReport, DistError> {
    fixer2_driver(
        inst,
        seed,
        check,
        threads,
        Some((p_bound, tol)),
        &mut NullRecorder,
    )
}

/// [`distributed_fixer2_audited`] with a flight recorder: additionally
/// emits one [`Event::AuditPass`]/[`Event::AuditViolation`] per color
/// class, tagged with the class's last step and variable.
///
/// # Errors
///
/// As [`distributed_fixer2_audited`].
pub fn distributed_fixer2_audited_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer2_driver(inst, seed, check, threads, Some((p_bound, tol)), rec)
}

/// [`distributed_fixer2_parallel`] driven by a precomputed [`Schedule`]
/// instead of a fresh coloring simulation: only the fixing sweep runs.
/// The self-scheduling drivers are wrappers over this entry point, so a
/// replayed schedule produces the identical report (and, via the
/// recorded variant, the identical event stream) a cold run would.
///
/// # Errors
///
/// As [`distributed_fixer2`], plus [`DistError::ScheduleMismatch`] if
/// `schedule` is not an edge schedule sized for this instance's
/// dependency graph.
pub fn distributed_fixer2_scheduled<T: Num>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    fixer2_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        None,
        None,
        &mut NullRecorder,
        &mut NullTiming,
    )
}

/// [`distributed_fixer2_scheduled`] with a flight recorder; the stream
/// is byte-identical to [`distributed_fixer2_recorded`]'s for the same
/// seed, at every worker count.
///
/// # Errors
///
/// As [`distributed_fixer2_scheduled`].
pub fn distributed_fixer2_scheduled_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer2_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        None,
        None,
        rec,
        &mut NullTiming,
    )
}

/// [`distributed_fixer2_scheduled_recorded`] with a side-band timing
/// sink: the whole sweep is one [`TimingScope::FixRun`] span and each
/// color class one [`TimingScope::FixClass`] span. This is the serve
/// daemon's request-scoped entry point — the caller constructs a
/// per-request recorder (tagged with the request's correlation id) and
/// a per-request sink, so every event and span attributes to the
/// request that caused it. Wall-clock flows only into `sink`; the
/// recorder stream stays byte-identical to the untimed drivers'.
///
/// # Errors
///
/// As [`distributed_fixer2_scheduled`].
pub fn distributed_fixer2_scheduled_traced<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    fixer2_scheduled_driver(inst, schedule, check, threads, None, None, rec, sink)
}

/// [`distributed_fixer2_scheduled_recorded`] resumed from a recorded
/// checkpoint: replays `cursor`'s step prefix through the schedule
/// (verifying every recorded step against the variable the schedule
/// puts there), then continues live from the exact step where the
/// prefix ends. The events written to `rec` are precisely the
/// uninterrupted run's stream minus the prefix — concatenating the
/// durable prefix bytes with `rec`'s output reproduces the
/// uninterrupted stream byte for byte, at every `threads` count
/// (DESIGN.md §3.12). The returned report bills the *whole* logical
/// run, identical to the uninterrupted report.
///
/// # Errors
///
/// As [`distributed_fixer2_scheduled`], plus
/// [`DistError::ResumeMismatch`] if the prefix contradicts the schedule
/// (wrong schedule/instance, or a prefix from an audited run).
pub fn distributed_fixer2_scheduled_resumed<T: Num, R: Recorder>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    cursor: &ResumeCursor<'_>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer2_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        None,
        Some(cursor),
        rec,
        &mut NullTiming,
    )
}

/// The audited counterpart of [`distributed_fixer2_scheduled_resumed`]:
/// resumes a stream produced by an *audited* recorded run. Audit events
/// already contained in the prefix (per `cursor`) are not re-emitted;
/// the audit cache is rebuilt by a full scan at the live boundary,
/// which equals the incremental cache the uninterrupted run carried
/// there — so every remaining verdict, and the continued stream, are
/// identical to the uninterrupted run's.
///
/// # Errors
///
/// As [`distributed_fixer2_audited`], plus
/// [`DistError::ResumeMismatch`] if the prefix contradicts the schedule
/// or its audit accounting.
#[allow(clippy::too_many_arguments)]
pub fn distributed_fixer2_scheduled_resumed_audited<T: Num, R: Recorder>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
    cursor: &ResumeCursor<'_>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer2_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        Some((p_bound, tol)),
        Some(cursor),
        rec,
        &mut NullTiming,
    )
}

fn fixer2_driver<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    audit: Option<(&T, &T)>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::edge(inst.dependency_graph(), seed, threads)?;
    fixer2_scheduled_driver(
        inst,
        &schedule,
        check,
        threads,
        audit,
        None,
        rec,
        &mut NullTiming,
    )
}

#[allow(clippy::too_many_arguments)]
fn fixer2_scheduled_driver<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    audit: Option<(&T, &T)>,
    resume: Option<&ResumeCursor<'_>>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let mut fixer = Fixer2::new_unchecked(inst)?;
    let initial_probs = check_criterion(inst, check)?;
    let g = inst.dependency_graph();
    if schedule.kind() != ScheduleKind::Edge || schedule.colors().len() != g.num_edges() {
        return Err(DistError::ScheduleMismatch {
            expected: g.num_edges(),
            found: schedule.colors().len(),
        });
    }
    let (colors, palette, coloring_rounds) = (
        schedule.colors(),
        schedule.palette(),
        schedule.coloring_rounds(),
    );

    // Schedule: the rank-1 warm-up class first (cells = one event's
    // variables — no two rank-1 variables on different events interact,
    // and several on one event are fixed by that event's node locally),
    // then one class per edge color (cells = one dependency edge's
    // variables, which one endpoint fixes locally and sequentially).
    let mut by_event: Vec<Vec<usize>> = vec![Vec::new(); inst.num_events()];
    let mut by_edge: Vec<Vec<usize>> = vec![Vec::new(); g.num_edges()];
    for x in 0..inst.num_variables() {
        match *inst.variable(x).affects() {
            [u] => by_event[u].push(x),
            [u, v] => {
                let eid = g.edge_id(u, v).expect("co-affected events are adjacent");
                by_edge[eid].push(x);
            }
            _ => unreachable!("rank validated at construction"),
        }
    }
    let mut classes: Vec<Vec<Vec<usize>>> = Vec::with_capacity(palette + 1);
    classes.push(by_event.into_iter().filter(|c| !c.is_empty()).collect());
    classes.resize_with(palette + 1, Vec::new);
    for (eid, cell) in by_edge.into_iter().enumerate() {
        if !cell.is_empty() {
            classes[colors[eid] + 1].push(cell);
        }
    }

    let (mut replay, emit_start) = begin_replay(resume, audit.is_some())?;
    if R::ENABLED && emit_start {
        rec.record(&fix_run_start_event(inst));
    }
    let mut auditor = if replay.is_some() {
        // Rebuilt at the live boundary (see ReplayPhase::replay_class);
        // scanning here would describe pre-replay state.
        None
    } else {
        fresh_start_auditor(inst, fixer.partial(), fixer.phi(), initial_probs, audit)
    };

    let run_started = span_start::<S>();
    for cells in &classes {
        if cells.is_empty() {
            continue;
        }
        let class_started = span_start::<S>();
        let class_vars: Vec<usize> = cells.iter().flatten().copied().collect();
        assert_no_shared_events_across_edges(inst, &class_vars);
        if let Some(rp) = replay.as_mut() {
            if rp.replay_class(inst, &mut fixer, &class_vars, audit, &mut auditor, rec)? {
                replay = None;
            }
            continue;
        }
        let deltas = fix_class_sharded(&mut fixer, cells, threads, audit, rec)?;
        audit_class(&mut auditor, &deltas, &fixer, &class_vars, rec)?;
        if S::ENABLED {
            sink.record_span(TimingScope::FixClass, span_nanos(class_started));
        }
    }
    if S::ENABLED {
        sink.record_span(TimingScope::FixRun, span_nanos(run_started));
    }
    if let Some(rp) = replay {
        return Err(resume_mismatch(
            rp.pos,
            "end of the schedule",
            format!(
                "{} recorded steps beyond the schedule",
                rp.steps.len() - rp.pos
            ),
        ));
    }

    finish_driver(fixer.into_report(), coloring_rounds, palette, 1, rec)
}

/// Distributed rank-3 LLL (Corollary 1.4): distance-2 color the
/// dependency graph; in each class, every node of that color fixes *all*
/// of its still-unfixed incident variables.
///
/// # Errors
///
/// [`DistError::Fixer`] if the instance has rank > 3 or (under
/// [`CriterionCheck::Enforce`]) violates `p < 2^-d`;
/// [`DistError::Sim`] if the coloring simulation fails.
pub fn distributed_fixer3<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
) -> Result<DistReport, DistError> {
    distributed_fixer3_parallel(inst, seed, check, 1)
}

/// [`distributed_fixer3`] with the coloring simulation *and* the fixing
/// sweep running on `threads` worker threads: each color class's cells
/// (one class node's still-unfixed incident variables each) are sharded
/// across workers, which is legitimate precisely because same-colored
/// nodes are ≥ 3 apart in the dependency graph and therefore touch
/// disjoint events (the witness this driver asserts). The outcome is
/// identical for every thread count — see `crate::sweep`.
///
/// # Errors
///
/// As [`distributed_fixer3`].
pub fn distributed_fixer3_parallel<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    fixer3_driver(inst, seed, check, threads, None, &mut NullRecorder)
}

/// [`distributed_fixer3_parallel`] with a flight recorder: brackets the
/// fixing steps with [`Event::FixRunStart`]/[`Event::FixRunEnd`] and
/// emits one `fix_step` per variable. Per-shard events are buffered and
/// merged in static shard order, so the stream is byte-identical at
/// every thread count.
///
/// # Errors
///
/// As [`distributed_fixer3`].
pub fn distributed_fixer3_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer3_driver(inst, seed, check, threads, None, rec)
}

/// [`distributed_fixer3_parallel`] with a `P*` audit: after each color
/// class, the auditor re-verifies the union of the class variables'
/// `affects` sets ([`IncrementalAuditor::reverify_class`]) — the checks
/// are computed inside the sweep workers and merged, so the audited
/// driver parallelizes end to end. Verdicts are identical to auditing
/// step by step, because a class's cells touch disjoint events.
///
/// # Errors
///
/// As [`distributed_fixer3`], plus [`FixerError::PStarViolated`]
/// (wrapped in [`DistError::Fixer`]) at the first class after which the
/// invariant no longer holds.
pub fn distributed_fixer3_audited<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
) -> Result<DistReport, DistError> {
    fixer3_driver(
        inst,
        seed,
        check,
        threads,
        Some((p_bound, tol)),
        &mut NullRecorder,
    )
}

/// [`distributed_fixer3_audited`] with a flight recorder: additionally
/// emits one [`Event::AuditPass`]/[`Event::AuditViolation`] per color
/// class, tagged with the class's last step and variable.
///
/// # Errors
///
/// As [`distributed_fixer3_audited`].
pub fn distributed_fixer3_audited_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer3_driver(inst, seed, check, threads, Some((p_bound, tol)), rec)
}

/// [`distributed_fixer3_parallel`] driven by a precomputed [`Schedule`]
/// instead of a fresh coloring simulation: only the fixing sweep runs.
/// The self-scheduling drivers are wrappers over this entry point, so a
/// replayed schedule produces the identical report (and, via the
/// recorded variant, the identical event stream) a cold run would.
///
/// # Errors
///
/// As [`distributed_fixer3`], plus [`DistError::ScheduleMismatch`] if
/// `schedule` is not a distance-2 schedule sized for this instance's
/// dependency graph.
pub fn distributed_fixer3_scheduled<T: Num>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    fixer3_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        None,
        None,
        &mut NullRecorder,
        &mut NullTiming,
    )
}

/// [`distributed_fixer3_scheduled`] with a flight recorder; the stream
/// is byte-identical to [`distributed_fixer3_recorded`]'s for the same
/// seed, at every worker count.
///
/// # Errors
///
/// As [`distributed_fixer3_scheduled`].
pub fn distributed_fixer3_scheduled_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer3_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        None,
        None,
        rec,
        &mut NullTiming,
    )
}

/// [`distributed_fixer3_scheduled_recorded`] with a side-band timing
/// sink — the rank-3 counterpart of
/// [`distributed_fixer2_scheduled_traced`]: one
/// [`TimingScope::FixRun`] span for the sweep, one
/// [`TimingScope::FixClass`] span per color class, attributed to the
/// caller's per-request recorder/sink pair. The recorder stream stays
/// byte-identical to the untimed drivers'.
///
/// # Errors
///
/// As [`distributed_fixer3_scheduled`].
pub fn distributed_fixer3_scheduled_traced<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    fixer3_scheduled_driver(inst, schedule, check, threads, None, None, rec, sink)
}

/// The rank-3 counterpart of [`distributed_fixer2_scheduled_resumed`]:
/// resumes a recorded rank-3 sweep from a checkpoint, continuing the
/// stream byte for byte at every `threads` count. Replay reproduces the
/// partial assignment exactly, so the per-class still-unfixed cell
/// membership the live phase computes equals the uninterrupted run's.
///
/// # Errors
///
/// As [`distributed_fixer3_scheduled`], plus
/// [`DistError::ResumeMismatch`] if the prefix contradicts the
/// schedule.
pub fn distributed_fixer3_scheduled_resumed<T: Num, R: Recorder>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    cursor: &ResumeCursor<'_>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer3_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        None,
        Some(cursor),
        rec,
        &mut NullTiming,
    )
}

/// The audited counterpart of [`distributed_fixer3_scheduled_resumed`]
/// (see [`distributed_fixer2_scheduled_resumed_audited`] for the audit
/// rebuild argument).
///
/// # Errors
///
/// As [`distributed_fixer3_audited`], plus
/// [`DistError::ResumeMismatch`] if the prefix contradicts the schedule
/// or its audit accounting.
#[allow(clippy::too_many_arguments)]
pub fn distributed_fixer3_scheduled_resumed_audited<T: Num, R: Recorder>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
    cursor: &ResumeCursor<'_>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    fixer3_scheduled_driver(
        inst,
        schedule,
        check,
        threads,
        Some((p_bound, tol)),
        Some(cursor),
        rec,
        &mut NullTiming,
    )
}

fn fixer3_driver<T: Num, R: Recorder>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    audit: Option<(&T, &T)>,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, threads)?;
    fixer3_scheduled_driver(
        inst,
        &schedule,
        check,
        threads,
        audit,
        None,
        rec,
        &mut NullTiming,
    )
}

#[allow(clippy::too_many_arguments)]
fn fixer3_scheduled_driver<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    audit: Option<(&T, &T)>,
    resume: Option<&ResumeCursor<'_>>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let mut fixer = Fixer3::new_unchecked(inst)?;
    let initial_probs = check_criterion(inst, check)?;
    let g = inst.dependency_graph();
    let n = g.num_nodes();
    if schedule.kind() != ScheduleKind::Distance2 || schedule.colors().len() != n {
        return Err(DistError::ScheduleMismatch {
            expected: n,
            found: schedule.colors().len(),
        });
    }
    let (colors, palette, coloring_rounds) = (
        schedule.colors(),
        schedule.palette(),
        schedule.coloring_rounds(),
    );

    // Variables incident to each event node.
    let mut vars_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for x in 0..inst.num_variables() {
        for &v in inst.variable(x).affects() {
            vars_of[v].push(x);
        }
    }

    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); palette];
    for (v, &c) in colors.iter().enumerate() {
        classes[c].push(v);
    }

    let (mut replay, emit_start) = begin_replay(resume, audit.is_some())?;
    if R::ENABLED && emit_start {
        rec.record(&fix_run_start_event(inst));
    }
    let mut auditor = if replay.is_some() {
        // Rebuilt at the live boundary (see ReplayPhase::replay_class);
        // scanning here would describe pre-replay state.
        None
    } else {
        fresh_start_auditor(inst, fixer.partial(), fixer.phi(), initial_probs, audit)
    };

    let run_started = span_start::<S>();
    for class in &classes {
        let class_started = span_start::<S>();
        assert_no_shared_events_across_nodes(inst, class, &vars_of);
        // Cells: one class node's still-unfixed incident variables.
        // Membership is stable while the class runs — the witness above
        // guarantees no other cell of the class touches these events, so
        // the filter can be evaluated up front. During replay the same
        // expression holds: replayed steps update the partial
        // assignment exactly like live ones, so each class sees the
        // membership the uninterrupted run saw.
        let cells: Vec<Vec<usize>> = class
            .iter()
            .map(|&v| {
                vars_of[v]
                    .iter()
                    .copied()
                    .filter(|&x| fixer.partial().get(x).is_none())
                    .collect::<Vec<usize>>()
            })
            .filter(|cell| !cell.is_empty())
            .collect();
        if cells.is_empty() {
            continue;
        }
        let class_vars: Vec<usize> = cells.iter().flatten().copied().collect();
        if let Some(rp) = replay.as_mut() {
            if rp.replay_class(inst, &mut fixer, &class_vars, audit, &mut auditor, rec)? {
                replay = None;
            }
            continue;
        }
        let deltas = fix_class_sharded(&mut fixer, &cells, threads, audit, rec)?;
        audit_class(&mut auditor, &deltas, &fixer, &class_vars, rec)?;
        if S::ENABLED {
            sink.record_span(TimingScope::FixClass, span_nanos(class_started));
        }
    }
    if S::ENABLED {
        sink.record_span(TimingScope::FixRun, span_nanos(run_started));
    }
    if let Some(rp) = replay {
        return Err(resume_mismatch(
            rp.pos,
            "end of the schedule",
            format!(
                "{} recorded steps beyond the schedule",
                rp.steps.len() - rp.pos
            ),
        ));
    }

    finish_driver(fixer.into_report(), coloring_rounds, palette, 0, rec)
}

/// The criterion check of the scheduled drivers under
/// [`CriterionCheck::Enforce`] (after the fixer constructor's rank
/// check, so a rank violation is still reported first). Returns the
/// per-event unconditional probabilities it enumerated, so a fresh-start
/// audited run can seed its auditor from the same pass
/// ([`fresh_start_auditor`]); `None` under [`CriterionCheck::Skip`].
fn check_criterion<T: Num>(
    inst: &Instance<T>,
    check: CriterionCheck,
) -> Result<Option<Vec<T>>, FixerError> {
    if check == CriterionCheck::Skip {
        return Ok(None);
    }
    let probs = inst.unconditional_probabilities();
    inst.check_exponential_criterion(max_probability(probs.iter().cloned()))?;
    Ok(Some(probs))
}

/// The auditor of an audited run that starts fresh (no replay), seeded
/// from the criterion check's probabilities when it ran. Nothing is
/// fixed yet, so `Pr[v | partial]` is the unconditional probability
/// computed by the identical enumeration — the seeded auditor equals
/// [`IncrementalAuditor::new`]'s full scan bit for bit.
fn fresh_start_auditor<T: Num>(
    inst: &Instance<T>,
    partial: &PartialAssignment,
    phi: &Phi<T>,
    probs: Option<Vec<T>>,
    audit: Option<(&T, &T)>,
) -> Option<IncrementalAuditor<T>> {
    let (p_bound, tol) = audit?;
    debug_assert_eq!(partial.num_fixed(), 0, "fresh start");
    let probs = probs.unwrap_or_else(|| inst.unconditional_probabilities());
    Some(IncrementalAuditor::seeded(inst, phi, &probs, p_bound, tol))
}

/// Applies a class's worker-computed audit deltas, emits the per-class
/// audit event, and converts a failed verdict into
/// [`FixerError::PStarViolated`] tagged with the class's last step and
/// variable. No-op when the run is not audited.
fn audit_class<T: Num, F: ClassFixer<T>, R: Recorder>(
    auditor: &mut Option<IncrementalAuditor<T>>,
    deltas: &[AuditDelta<T>],
    fixer: &F,
    class_vars: &[usize],
    rec: &mut R,
) -> Result<(), DistError> {
    let Some(auditor) = auditor.as_mut() else {
        return Ok(());
    };
    for delta in deltas {
        auditor.apply_delta(delta);
    }
    let report = auditor.report();
    let step = fixer.steps_done() - 1;
    let variable = *class_vars.last().expect("class is non-empty");
    if R::ENABLED {
        rec.record(&audit_event(step, variable, &report));
    }
    if report.holds() {
        Ok(())
    } else {
        Err(DistError::Fixer(FixerError::PStarViolated {
            step,
            variable,
            pair_violations: report.pair_violations,
            prob_violations: report.prob_violations,
        }))
    }
}

/// Emits the [`Event::FixRunEnd`] bracket and assembles the round bill:
/// coloring rounds + 2 per color class (+1 for the rank-2 driver's
/// rank-1 warm-up class).
fn finish_driver<R: Recorder>(
    fix: FixReport,
    coloring_rounds: usize,
    palette: usize,
    warmup_classes: usize,
    rec: &mut R,
) -> Result<DistReport, DistError> {
    if R::ENABLED {
        rec.record(&Event::FixRunEnd {
            steps: fix.num_steps(),
            violated: fix.violated_events().len(),
        });
    }
    Ok(DistReport {
        rounds: coloring_rounds + 2 * palette + warmup_classes,
        coloring_rounds,
        num_classes: palette + warmup_classes,
        fix,
    })
}

/// Distributed conditional-expectation fixer (the Remark after
/// Conjecture 1.5): distance-2 color the dependency graph and run the
/// Fischer–Ghaffari-style sweep over the classes. Requires the *strong*
/// criterion `p·(d+1)^C < 1` with `C` the palette actually computed —
/// exponentially more demanding than the sharp `p < 2^-d`, which is the
/// gap experiment E13 documents. Works for any variable rank.
///
/// # Errors
///
/// [`DistError::Fixer`] under [`CriterionCheck::Enforce`] when the
/// strong criterion fails; [`DistError::Sim`] on simulation failure.
pub fn distributed_fg<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
) -> Result<DistReport, DistError> {
    distributed_fg_parallel(inst, seed, check, 1)
}

/// [`distributed_fg`] with the coloring simulation running on `threads`
/// worker threads (see [`Simulator::run_parallel`]); the outcome is
/// identical for every thread count.
///
/// # Errors
///
/// As [`distributed_fg`].
pub fn distributed_fg_parallel<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    let g = inst.dependency_graph();
    let n = g.num_nodes();
    let (colors, palette, coloring_rounds) = if n == 0 {
        (Vec::new(), 0, 0)
    } else {
        let sim = Simulator::with_shuffled_ids(g, seed).threads(threads);
        let col = distance2_coloring(&sim, round_budget(n))?;
        (col.colors, col.palette, col.rounds)
    };
    let fixer = match check {
        CriterionCheck::Enforce => FgFixer::new(inst, palette)?,
        CriterionCheck::Skip => FgFixer::new_unchecked(inst),
    };
    let fix = fixer.run(&colors);
    Ok(DistReport {
        rounds: coloring_rounds + 2 * palette,
        coloring_rounds,
        num_classes: palette,
        fix,
    })
}

/// Witness that a rank-2 color class is conflict-free: variables on the
/// same dependency edge may cohabit (one endpoint fixes them locally,
/// sequentially), but variables on different edges of the class must not
/// share an event.
fn assert_no_shared_events_across_edges<T: Num>(inst: &Instance<T>, class: &[usize]) {
    let mut owner: Vec<Option<(usize, usize)>> = vec![None; inst.num_events()];
    for &x in class {
        if let [u, v] = *inst.variable(x).affects() {
            for ev in [u, v] {
                match owner[ev] {
                    Some(edge) if edge != (u, v) => {
                        panic!(
                            "class schedules edges {edge:?} and {:?} sharing event {ev}",
                            (u, v)
                        )
                    }
                    _ => owner[ev] = Some((u, v)),
                }
            }
        }
    }
}

/// Witness that a rank-3 color class is conflict-free: the events
/// touched by different fixer nodes of the class are disjoint.
fn assert_no_shared_events_across_nodes<T: Num>(
    inst: &Instance<T>,
    class: &[usize],
    vars_of: &[Vec<usize>],
) {
    let mut owner: Vec<Option<usize>> = vec![None; inst.num_events()];
    for &v in class {
        for &x in &vars_of[v] {
            for &ev in inst.variable(x).affects() {
                match owner[ev] {
                    Some(other) if other != v => {
                        panic!("class schedules nodes {other} and {v} touching event {ev}")
                    }
                    _ => owner[ev] = Some(v),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use lll_local::log_star;

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

    fn hyper_ring_instance(n: usize, k: usize) -> Instance<f64> {
        let mut b = InstanceBuilder::<f64>::new(n);
        let vars: Vec<usize> = (0..n)
            .map(|i| b.add_uniform_variable(&[i, (i + 1) % n, (i + 2) % n], k))
            .collect();
        for j in 0..n {
            let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
            b.set_event_predicate(j, move |vals| {
                vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn distributed_rank2_solves_rings() {
        for n in [8, 32, 128] {
            let inst = ring_instance(n, 3);
            let rep = distributed_fixer2(&inst, 5, CriterionCheck::Enforce).unwrap();
            assert!(rep.fix.is_success(), "n = {n}");
            assert!(inst.no_event_occurs(rep.fix.assignment()).unwrap());
            assert!(rep.rounds > rep.coloring_rounds);
        }
    }

    #[test]
    fn distributed_rank3_solves_hyper_rings() {
        for n in [8, 32, 128] {
            let inst = hyper_ring_instance(n, 3);
            let rep = distributed_fixer3(&inst, 11, CriterionCheck::Enforce).unwrap();
            assert!(rep.fix.is_success(), "n = {n}");
        }
    }

    #[test]
    fn rounds_scale_like_log_star_not_n() {
        // d is constant on rings, so rounds must be ~constant + log*.
        // Start the comparison above Linial's fixed-point palette (tiny
        // id spaces skip Linial entirely and reduce straight from n,
        // which makes very small n artificially cheap).
        let r_small = distributed_fixer2(&ring_instance(512, 3), 1, CriterionCheck::Enforce)
            .unwrap()
            .rounds;
        let r_large = distributed_fixer2(&ring_instance(65536, 3), 1, CriterionCheck::Enforce)
            .unwrap()
            .rounds;
        let slack = 2 * (log_star(65536) - log_star(512)) as usize + 4;
        assert!(
            r_large <= r_small + slack,
            "rounds grew from {r_small} to {r_large}, more than log* allows"
        );
    }

    #[test]
    fn criterion_enforcement() {
        let at_threshold = ring_instance(8, 2); // p·2^d = 1
        assert!(matches!(
            distributed_fixer2(&at_threshold, 0, CriterionCheck::Enforce),
            Err(DistError::Fixer(FixerError::CriterionViolated { .. }))
        ));
        let rep = distributed_fixer2(&at_threshold, 0, CriterionCheck::Skip).unwrap();
        assert_eq!(rep.fix.assignment().len(), 8);
    }

    #[test]
    fn rank3_driver_accepts_rank2_instances() {
        let inst = ring_instance(16, 3);
        let rep = distributed_fixer3(&inst, 3, CriterionCheck::Enforce).unwrap();
        assert!(rep.fix.is_success());
    }

    #[test]
    fn seeds_change_schedule_not_correctness() {
        let inst = hyper_ring_instance(20, 3);
        for seed in 0..5 {
            let rep = distributed_fixer3(&inst, seed, CriterionCheck::Enforce).unwrap();
            assert!(rep.fix.is_success(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_drivers_match_sequential_bit_for_bit() {
        let inst2 = ring_instance(64, 3);
        let base2 = distributed_fixer2(&inst2, 5, CriterionCheck::Enforce).unwrap();
        let inst3 = hyper_ring_instance(32, 3);
        let base3 = distributed_fixer3(&inst3, 7, CriterionCheck::Enforce).unwrap();
        let baseg = distributed_fg(&inst2, 5, CriterionCheck::Skip).unwrap();
        for t in [2usize, 8] {
            let p2 = distributed_fixer2_parallel(&inst2, 5, CriterionCheck::Enforce, t).unwrap();
            assert_eq!(p2.rounds, base2.rounds, "fixer2 threads {t}");
            assert_eq!(p2.coloring_rounds, base2.coloring_rounds);
            assert_eq!(p2.num_classes, base2.num_classes);
            assert_eq!(p2.fix.assignment(), base2.fix.assignment());
            let p3 = distributed_fixer3_parallel(&inst3, 7, CriterionCheck::Enforce, t).unwrap();
            assert_eq!(p3.rounds, base3.rounds, "fixer3 threads {t}");
            assert_eq!(p3.coloring_rounds, base3.coloring_rounds);
            assert_eq!(p3.fix.assignment(), base3.fix.assignment());
            let pg = distributed_fg_parallel(&inst2, 5, CriterionCheck::Skip, t).unwrap();
            assert_eq!(pg.rounds, baseg.rounds, "fg threads {t}");
            assert_eq!(pg.fix.assignment(), baseg.fix.assignment());
        }
    }

    fn recorded_fixer2_bytes(inst: &Instance<f64>, threads: usize) -> (Vec<u8>, DistReport) {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = distributed_fixer2_recorded(inst, 5, CriterionCheck::Enforce, threads, &mut rec)
            .unwrap();
        (rec.finish().unwrap(), rep)
    }

    fn recorded_fixer3_bytes(inst: &Instance<f64>, threads: usize) -> (Vec<u8>, DistReport) {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = distributed_fixer3_recorded(inst, 7, CriterionCheck::Enforce, threads, &mut rec)
            .unwrap();
        (rec.finish().unwrap(), rep)
    }

    #[test]
    fn sweep_streams_are_byte_identical_at_every_thread_count() {
        let inst2 = ring_instance(96, 3);
        let (bytes2, base2) = recorded_fixer2_bytes(&inst2, 1);
        assert!(!bytes2.is_empty());
        let inst3 = hyper_ring_instance(48, 3);
        let (bytes3, base3) = recorded_fixer3_bytes(&inst3, 1);
        for t in [2usize, 3, 8] {
            let (b2, p2) = recorded_fixer2_bytes(&inst2, t);
            assert_eq!(b2, bytes2, "fixer2 stream diverged at threads {t}");
            assert_eq!(p2.fix.steps(), base2.fix.steps(), "fixer2 threads {t}");
            assert_eq!(p2.fix.assignment(), base2.fix.assignment());
            let (b3, p3) = recorded_fixer3_bytes(&inst3, t);
            assert_eq!(b3, bytes3, "fixer3 stream diverged at threads {t}");
            assert_eq!(p3.fix.steps(), base3.fix.steps(), "fixer3 threads {t}");
            assert_eq!(p3.fix.assignment(), base3.fix.assignment());
        }
    }

    #[test]
    fn audited_sweep_matches_sequential_verdicts() {
        // Below the threshold the audited drivers must succeed — with
        // identical outputs — at every thread count.
        let inst2 = ring_instance(64, 3);
        let p2 = inst2.max_event_probability();
        let inst3 = hyper_ring_instance(32, 3);
        let p3 = inst3.max_event_probability();
        let base2 =
            distributed_fixer2_audited(&inst2, 5, CriterionCheck::Enforce, 1, &p2, &1e-9).unwrap();
        let base3 =
            distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, 1, &p3, &1e-9).unwrap();
        for t in [2usize, 8] {
            let a2 = distributed_fixer2_audited(&inst2, 5, CriterionCheck::Enforce, t, &p2, &1e-9)
                .unwrap();
            assert_eq!(a2.fix.assignment(), base2.fix.assignment(), "threads {t}");
            let a3 = distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, t, &p3, &1e-9)
                .unwrap();
            assert_eq!(a3.fix.assignment(), base3.fix.assignment(), "threads {t}");
        }

        // With an artificially halved probability bound the audit must
        // fail, at the same class (step, variable) for every thread
        // count.
        let tight = p3 / 2.0;
        let base_err =
            distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, 1, &tight, &0.0)
                .expect_err("halved bound violates P*");
        for t in [2usize, 8] {
            let err =
                distributed_fixer3_audited(&inst3, 7, CriterionCheck::Enforce, t, &tight, &0.0)
                    .expect_err("halved bound violates P*");
            assert_eq!(err, base_err, "audit verdict diverged at threads {t}");
        }
    }

    #[test]
    fn audited_recorded_sweep_emits_one_audit_event_per_class() {
        let inst = ring_instance(32, 3);
        let p = inst.max_event_probability();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = distributed_fixer2_audited_recorded(
            &inst,
            5,
            CriterionCheck::Enforce,
            4,
            &p,
            &1e-9,
            &mut rec,
        )
        .unwrap();
        let bytes = rec.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let audits = text
            .lines()
            .filter(|l| l.contains("\"audit_pass\""))
            .count();
        // One audit per *non-empty* scheduled class, ≤ the class bill.
        assert!(audits >= 1 && audits <= rep.num_classes, "{audits} audits");
        assert_eq!(
            text.lines().filter(|l| l.contains("\"fix_step\"")).count(),
            rep.fix.num_steps()
        );
    }

    #[test]
    fn scheduled_drivers_replay_cold_runs_byte_for_byte() {
        let inst2 = ring_instance(64, 3);
        let g2 = inst2.dependency_graph();
        let sched2 = Schedule::edge(g2, 5, 1).unwrap();
        let (cold_bytes2, cold2) = recorded_fixer2_bytes(&inst2, 1);
        let inst3 = hyper_ring_instance(32, 3);
        let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        let (cold_bytes3, cold3) = recorded_fixer3_bytes(&inst3, 1);
        for t in [1usize, 2, 8] {
            let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
            let warm2 = distributed_fixer2_scheduled_recorded(
                &inst2,
                &sched2,
                CriterionCheck::Enforce,
                t,
                &mut rec,
            )
            .unwrap();
            assert_eq!(rec.finish().unwrap(), cold_bytes2, "fixer2 threads {t}");
            assert_eq!(warm2.fix.assignment(), cold2.fix.assignment());
            assert_eq!(warm2.rounds, cold2.rounds);
            assert_eq!(warm2.coloring_rounds, cold2.coloring_rounds);
            assert_eq!(warm2.num_classes, cold2.num_classes);

            let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
            let warm3 = distributed_fixer3_scheduled_recorded(
                &inst3,
                &sched3,
                CriterionCheck::Enforce,
                t,
                &mut rec,
            )
            .unwrap();
            assert_eq!(rec.finish().unwrap(), cold_bytes3, "fixer3 threads {t}");
            assert_eq!(warm3.fix.assignment(), cold3.fix.assignment());
            assert_eq!(warm3.rounds, cold3.rounds);
            assert_eq!(warm3.coloring_rounds, cold3.coloring_rounds);
        }
    }

    fn checkpoints_in(text: &str) -> Vec<lll_obs::Checkpoint> {
        text.lines()
            .filter(|l| l.starts_with(lll_obs::CHECKPOINT_PREFIX))
            .map(|l| lll_obs::Checkpoint::parse(l).unwrap())
            .collect()
    }

    fn cursor_for(prefix: &[u8]) -> (lll_obs::replay::RunState, ()) {
        let (state, torn) =
            lll_obs::replay::RunState::from_stream(std::str::from_utf8(prefix).unwrap()).unwrap();
        assert_eq!(torn, None, "a checkpoint prefix has no torn tail");
        (state, ())
    }

    #[test]
    fn resumed_runs_continue_checkpointed_streams_byte_for_byte() {
        let interval = 3;
        let inst2 = ring_instance(64, 3);
        let sched2 = Schedule::edge(inst2.dependency_graph(), 5, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
        let full2 = distributed_fixer2_scheduled_recorded(
            &inst2,
            &sched2,
            CriterionCheck::Enforce,
            1,
            &mut rec,
        )
        .unwrap();
        let bytes2 = rec.finish().unwrap();

        let inst3 = hyper_ring_instance(32, 3);
        let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
        let full3 = distributed_fixer3_scheduled_recorded(
            &inst3,
            &sched3,
            CriterionCheck::Enforce,
            1,
            &mut rec,
        )
        .unwrap();
        let bytes3 = rec.finish().unwrap();

        for (bytes, rank2) in [(&bytes2, true), (&bytes3, false)] {
            let cks = checkpoints_in(std::str::from_utf8(bytes).unwrap());
            assert!(
                cks.len() >= 3,
                "want several checkpoints, got {}",
                cks.len()
            );
            for ck in &cks {
                let prefix = &bytes[..ck.resume_offset() as usize];
                let (state, ()) = cursor_for(prefix);
                let cursor = ResumeCursor::from_run_state(&state).unwrap();
                assert_eq!(cursor.steps().len() as u64, ck.step);
                for t in [1usize, 2, 8] {
                    let mut tail = lll_obs::JsonlRecorder::resumed(Vec::new(), interval, ck);
                    let (rep, full) = if rank2 {
                        (
                            distributed_fixer2_scheduled_resumed(
                                &inst2,
                                &sched2,
                                CriterionCheck::Enforce,
                                t,
                                &cursor,
                                &mut tail,
                            )
                            .unwrap(),
                            &full2,
                        )
                    } else {
                        (
                            distributed_fixer3_scheduled_resumed(
                                &inst3,
                                &sched3,
                                CriterionCheck::Enforce,
                                t,
                                &cursor,
                                &mut tail,
                            )
                            .unwrap(),
                            &full3,
                        )
                    };
                    let mut joined = prefix.to_vec();
                    joined.extend_from_slice(&tail.finish().unwrap());
                    assert_eq!(
                        &joined, bytes,
                        "stream diverged: threads {t}, checkpoint at step {}",
                        ck.step
                    );
                    assert_eq!(rep.fix.assignment(), full.fix.assignment());
                    assert_eq!(rep.rounds, full.rounds);
                    assert_eq!(rep.num_classes, full.num_classes);
                }
            }
        }
    }

    #[test]
    fn resumed_audited_runs_rebuild_audit_state_exactly() {
        // Interval 1 puts a checkpoint after *every* fixing step, which
        // covers the boundary case where the prefix ends exactly at a
        // class boundary with that class's audit event still owed.
        let inst2 = ring_instance(48, 3);
        let p2 = inst2.max_event_probability();
        let sched2 = Schedule::edge(inst2.dependency_graph(), 5, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(1);
        let full2 = distributed_fixer2_audited_recorded(
            &inst2,
            5,
            CriterionCheck::Enforce,
            1,
            &p2,
            &1e-9,
            &mut rec,
        )
        .unwrap();
        let bytes2 = rec.finish().unwrap();

        let inst3 = hyper_ring_instance(24, 3);
        let p3 = inst3.max_event_probability();
        let sched3 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(1);
        let full3 = distributed_fixer3_audited_recorded(
            &inst3,
            7,
            CriterionCheck::Enforce,
            1,
            &p3,
            &1e-9,
            &mut rec,
        )
        .unwrap();
        let bytes3 = rec.finish().unwrap();

        for (bytes, rank2) in [(&bytes2, true), (&bytes3, false)] {
            let cks = checkpoints_in(std::str::from_utf8(bytes).unwrap());
            assert!(!cks.is_empty());
            for ck in &cks {
                let prefix = &bytes[..ck.resume_offset() as usize];
                let (state, ()) = cursor_for(prefix);
                let cursor = ResumeCursor::from_run_state(&state).unwrap();
                for t in [1usize, 2] {
                    let mut tail = lll_obs::JsonlRecorder::resumed(Vec::new(), 1, ck);
                    let (rep, full) = if rank2 {
                        (
                            distributed_fixer2_scheduled_resumed_audited(
                                &inst2,
                                &sched2,
                                CriterionCheck::Enforce,
                                t,
                                &p2,
                                &1e-9,
                                &cursor,
                                &mut tail,
                            )
                            .unwrap(),
                            &full2,
                        )
                    } else {
                        (
                            distributed_fixer3_scheduled_resumed_audited(
                                &inst3,
                                &sched3,
                                CriterionCheck::Enforce,
                                t,
                                &p3,
                                &1e-9,
                                &cursor,
                                &mut tail,
                            )
                            .unwrap(),
                            &full3,
                        )
                    };
                    let mut joined = prefix.to_vec();
                    joined.extend_from_slice(&tail.finish().unwrap());
                    assert_eq!(
                        &joined, bytes,
                        "audited stream diverged: threads {t}, step {}",
                        ck.step
                    );
                    assert_eq!(rep.fix.assignment(), full.fix.assignment());
                }
            }
        }
    }

    #[test]
    fn resume_mismatches_fail_loudly() {
        let inst = ring_instance(16, 3);
        let sched = Schedule::edge(inst.dependency_graph(), 5, 1).unwrap();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(4);
        distributed_fixer2_scheduled_recorded(&inst, &sched, CriterionCheck::Enforce, 1, &mut rec)
            .unwrap();
        let bytes = rec.finish().unwrap();
        let (state, ()) = cursor_for(&bytes);
        let honest = state.steps().to_vec();
        assert_eq!(honest.len(), 16);

        // A prefix whose first step names a variable the schedule does
        // not put there.
        let mut steps = honest.clone();
        steps[0].0 += 1;
        let cur = ResumeCursor::new(&steps[..4], 0, true);
        let err = distributed_fixer2_scheduled_resumed(
            &inst,
            &sched,
            CriterionCheck::Enforce,
            1,
            &cur,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(
            matches!(err, DistError::ResumeMismatch { at: 0, .. }),
            "{err}"
        );

        // A recorded value outside the variable's domain.
        let mut steps = honest.clone();
        steps[0].1 = 999;
        let cur = ResumeCursor::new(&steps[..4], 0, true);
        let err = distributed_fixer2_scheduled_resumed(
            &inst,
            &sched,
            CriterionCheck::Enforce,
            1,
            &cur,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(
            matches!(err, DistError::ResumeMismatch { at: 0, .. }),
            "{err}"
        );

        // More recorded steps than the schedule has variables.
        let mut steps = honest.clone();
        steps.push((0, 0));
        let cur = ResumeCursor::new(&steps, 0, true);
        let err = distributed_fixer2_scheduled_resumed(
            &inst,
            &sched,
            CriterionCheck::Enforce,
            1,
            &cur,
            &mut NullRecorder,
        )
        .unwrap_err();
        match err {
            DistError::ResumeMismatch { at, .. } => assert_eq!(at, honest.len()),
            other => panic!("expected overrun mismatch, got {other}"),
        }

        // An audited prefix fed to the unaudited driver.
        let cur = ResumeCursor::new(&honest[..4], 2, true);
        let err = distributed_fixer2_scheduled_resumed(
            &inst,
            &sched,
            CriterionCheck::Enforce,
            1,
            &cur,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, DistError::ResumeMismatch { .. }), "{err}");
    }

    #[test]
    fn mismatched_schedules_are_rejected_not_misapplied() {
        let inst2 = ring_instance(16, 3);
        let inst3 = hyper_ring_instance(32, 3);
        let edge16 = Schedule::edge(inst2.dependency_graph(), 5, 1).unwrap();
        let d2_32 = Schedule::distance2(inst3.dependency_graph(), 7, 1).unwrap();
        // Wrong kind for the driver.
        assert!(matches!(
            distributed_fixer2_scheduled(&inst2, &d2_32, CriterionCheck::Enforce, 1),
            Err(DistError::ScheduleMismatch { .. })
        ));
        assert!(matches!(
            distributed_fixer3_scheduled(&inst3, &edge16, CriterionCheck::Enforce, 1),
            Err(DistError::ScheduleMismatch { .. })
        ));
        // Right kind, wrong graph size.
        let edge64 = Schedule::edge(ring_instance(64, 3).dependency_graph(), 5, 1).unwrap();
        assert!(matches!(
            distributed_fixer2_scheduled(&inst2, &edge64, CriterionCheck::Enforce, 1),
            Err(DistError::ScheduleMismatch {
                expected: 16,
                found: 64
            })
        ));
    }
}
