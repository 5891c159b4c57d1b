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
//!   `O(d log d) + log* n` (see `DESIGN.md`).
//! * **Rank ≤ 3 (Corollary 1.4)**: a *distance-2 coloring* of the
//!   dependency graph guarantees that same-colored event nodes are ≥ 3
//!   apart, so each can fix **all** of its incident variables without
//!   touching another fixer's events. `O(d² + log* n)` in the paper with
//!   FHK'16; `O(d² log d) + log* n` with our substitute.
//!
//! Round accounting: the coloring rounds are measured exactly on the
//! simulator; each color class then costs 2 rounds (one to exchange the
//! freshly fixed values and `φ` entries with the 1-hop neighborhood, one
//! to hand over to the next class), matching how the paper iterates
//! through color classes. The scheduling loop below executes the *same*
//! fixing steps a message-passing implementation would — the
//! order-obliviousness of Theorems 1.1/1.3 is exactly what makes the
//! schedule correct — and checks the no-conflict property of every
//! class as an executable witness, in one pass before the sweep.
//!
//! Both corollaries run through one entry point, [`run`]: the
//! [`Schedule`]'s kind selects the sweep, and a [`Sweep`] carries the
//! remaining options (criterion check, worker count, optional `P*`
//! audit, resume cursor).
//!
//! ```
//! use lll_core::dist::{self, Schedule, Sweep};
//! use lll_core::InstanceBuilder;
//! use lll_obs::{NullRecorder, NullTiming};
//!
//! // Four events on a ring, one 3-valued variable per ring edge; event
//! // `i` occurs when both of its variables are 0 (p = 1/9 < 2^-2).
//! let mut b = InstanceBuilder::<f64>::new(4);
//! let vars: Vec<usize> = (0..4)
//!     .map(|i| b.add_uniform_variable(&[i, (i + 1) % 4], 3))
//!     .collect();
//! for i in 0..4 {
//!     let (l, r) = (vars[(i + 3) % 4], vars[i]);
//!     b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
//! }
//! let inst = b.build()?;
//! let schedule = Schedule::edge(inst.dependency_graph(), 7, 1)?;
//! let report = dist::run(
//!     &inst,
//!     &schedule,
//!     &Sweep::default(),
//!     &mut NullRecorder,
//!     &mut NullTiming,
//! )?;
//! assert!(report.fix.is_success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use lll_coloring::{distance2_coloring, edge_coloring};
use lll_local::{PoolStats, SimError, Simulator};
use lll_numeric::Num;
use lll_obs::timing::{span_nanos, span_start};
use lll_obs::{
    BufRecorder, Event, NullRecorder, NullTiming, Recorder, SkipPrefixRecorder, TimingScope,
    TimingSink,
};

use crate::audit::{AuditDelta, IncrementalAuditor};
use crate::error::FixerError;
use crate::fg::FgFixer;
use crate::fixer::{audit_verdict, fix_run_start_event};
use crate::instance::{max_probability, Instance, PartialAssignment};
use crate::sweep::{with_class_pool, ClassFixer};
use crate::triples::Phi;
use crate::{FixReport, FixStepRecord, Fixer2, Fixer3};

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
    /// A [`Schedule`] was supplied for a different graph (or, through
    /// a rank-specific entry point, is of the wrong kind).
    ScheduleMismatch {
        /// Schedule slots the sweep requires (edges for an edge
        /// schedule, nodes for a distance-2 schedule).
        expected: usize,
        /// Slots the supplied schedule actually carries.
        found: usize,
    },
    /// A [`Schedule`] whose slot count fits does not color this
    /// dependency graph properly: two cells of one color class touch
    /// the same event (a schedule computed for another graph of the
    /// same size). Found before anything is fixed or recorded.
    ScheduleConflict {
        /// The class, in sweep order: the rank-2 sweep's warm-up class
        /// is 0 and color `c` is class `c + 1`; in the rank-3 sweep
        /// color `c` is class `c`.
        class: usize,
        /// The event two cells of the class touch.
        event: usize,
    },
    /// A resumed run's recorded step prefix contradicts the steps the
    /// re-executed sweep takes — wrong schedule or instance, a prefix
    /// from a different driver, a tampered step, or corrupt audit
    /// accounting. The resumed drivers fail loudly rather than continue
    /// a stream they could not reproduce byte for byte.
    ResumeMismatch {
        /// Index into the recorded step prefix at which the check failed
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
            DistError::ScheduleConflict { class, event } => write!(
                f,
                "schedule conflict: two cells of class {class} touch event {event}"
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
    /// What the fixing sweep's phase pool did: OS workers spawned (at
    /// most one per band for the whole sweep) and class phases handed
    /// off. Observation only: it differs across thread counts and hosts
    /// while everything above is identical.
    pub sweep_pool: PoolStats,
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
/// them through [`run`], so only the fixing sweep runs per request.
/// Determinism contract: [`run`] executes the same fixing steps for a
/// cached schedule as for one computed just before, so a cached replay
/// is byte-identical to a cold run — assignment, bills, and recorded
/// stream — at every worker count. The schedule's [`kind`](Schedule::kind)
/// selects the sweep: [`Schedule::edge`] drives the rank-2 sweep of
/// Corollary 1.2 and [`Schedule::distance2`] the rank-3 sweep of
/// Corollary 1.4.
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
/// The sweep is a pure function of the instance and the schedule, so a
/// resumed [`run`] re-executes it from the start, checks every step it
/// takes inside the prefix against the recorded one, and drops the
/// events the prefix already holds; the counters determine which
/// bracketing/audit events those are (and therefore must *not* be
/// re-emitted). Build one from a folded
/// [`RunState`](lll_obs::replay::RunState) via
/// [`ResumeCursor::from_run_state`], or assemble the parts manually.
/// The [`Default`] cursor is empty: a fresh start.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumeCursor<'a> {
    steps: &'a [(u64, u64)],
    audits: u64,
    fix_run_started: bool,
}

impl<'a> ResumeCursor<'a> {
    /// A cursor from raw parts: the recorded step prefix, the number of
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

    /// The recorded step prefix a resumed run re-executes.
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

/// Checks a resume cursor's accounting against the sweep's mode and
/// decides whether the `fix_run_start` bracket must still be emitted
/// (`true` unless the prefix holds it); the empty cursor is a fresh
/// start.
fn begin_resume(cursor: &ResumeCursor<'_>, audited: bool) -> Result<bool, DistError> {
    if !audited && cursor.audits != 0 {
        return Err(resume_mismatch(
            cursor.steps.len(),
            "no audit events (unaudited sweep)",
            format!("{} audit events", cursor.audits),
        ));
    }
    // A stream carries its steps and audits after `fix_run_start`, so a
    // prefix without the bracket cannot contain either.
    if !cursor.fix_run_started && (!cursor.steps.is_empty() || cursor.audits != 0) {
        return Err(resume_mismatch(
            0,
            "an empty prefix (no fix_run_start recorded)",
            format!(
                "{} steps and {} audit events",
                cursor.steps.len(),
                cursor.audits
            ),
        ));
    }
    Ok(!cursor.fix_run_started)
}

/// Checks the steps a resumed run took from position `start` on against
/// the recorded prefix, as far as both reach: each recorded step must
/// name the variable the run fixed there, with a value in its domain
/// and equal to the value the run chose.
fn check_prefix<T: Num>(
    inst: &Instance<T>,
    recorded: &[(u64, u64)],
    taken: &[FixStepRecord],
    start: usize,
) -> Result<(), DistError> {
    for (at, (&(rx, ry), step)) in recorded.iter().zip(taken).enumerate().skip(start) {
        let x = step.variable;
        if rx != x as u64 {
            return Err(resume_mismatch(
                at,
                format!("variable {x} (schedule order)"),
                format!("variable {rx}"),
            ));
        }
        let k = inst.variable(x).num_values();
        if ry >= k as u64 {
            return Err(resume_mismatch(
                at,
                format!("a value below {k} for variable {x}"),
                format!("value {ry}"),
            ));
        }
        if ry != step.value as u64 {
            return Err(resume_mismatch(
                at,
                format!("value {} for variable {x}", step.value),
                format!("value {ry}"),
            ));
        }
    }
    Ok(())
}

/// Whether the class that holds the end of a resumed run's prefix (the
/// `finished`-th non-empty class) still owes its audit event. Every
/// earlier class's audit event is in the prefix. Checkpoints land only
/// after event lines, and a class's audit event follows its last
/// `fix_step`, so a prefix ending exactly at the class's end (`exact`)
/// may or may not hold that class's event, while one ending inside the
/// class cannot.
fn boundary_verdict_owed(
    cursor: &ResumeCursor<'_>,
    finished: u64,
    exact: bool,
) -> Result<bool, DistError> {
    let pending = cursor.audits + 1 == finished;
    let emitted = exact && cursor.audits == finished;
    if pending || emitted {
        return Ok(pending);
    }
    let owed = finished - 1;
    let expected = if exact {
        format!("{owed} or {finished} audit events")
    } else {
        format!("{owed} audit events")
    };
    let found = format!("{} audit events", cursor.audits);
    Err(resume_mismatch(cursor.steps.len(), expected, found))
}

/// The options of a [`run`] besides the instance, the schedule and the
/// two observers.
///
/// [`Sweep::default`] is an enforced, single-worker, unaudited fresh
/// start; set the fields that differ:
///
/// ```
/// # use lll_core::dist::{CriterionCheck, Sweep};
/// let (p, tol) = (0.25, 1e-9);
/// let sweep = Sweep {
///     threads: 4,
///     audit: Some((&p, &tol)),
///     ..Sweep::default()
/// };
/// assert_eq!(sweep.check, CriterionCheck::Enforce);
/// ```
#[derive(Debug)]
pub struct Sweep<'a, T> {
    /// Whether to enforce `p < 2^-d` before fixing.
    pub check: CriterionCheck,
    /// Workers per color class. A class's cells touch disjoint events,
    /// so they are sharded across workers; the outcome is identical for
    /// every count (see `crate::sweep`).
    pub threads: usize,
    /// `Some((p_bound, tol))` re-verifies `P*` after every color class
    /// ([`IncrementalAuditor::reverify_class`]'s verdicts, computed
    /// inside the sweep workers and merged) and fails with
    /// [`FixerError::PStarViolated`] at the first class after which the
    /// invariant no longer holds. The recorded stream then carries one
    /// [`Event::AuditPass`]/[`Event::AuditViolation`] per class, tagged
    /// with the class's last step and variable.
    pub audit: Option<(&'a T, &'a T)>,
    /// Where to pick a recorded run back up; the empty default cursor
    /// is a fresh start. A non-empty cursor re-executes the sweep from
    /// the start, checks every step the run takes inside the prefix
    /// against the recorded step (variable and value), and drops the
    /// events the prefix already holds: classes inside the prefix run
    /// unrecorded, and the class the prefix ends in is buffered and
    /// forwarded through a [`SkipPrefixRecorder`]. The events written to
    /// the recorder are the uninterrupted run's stream minus the prefix,
    /// at every `threads` count (DESIGN.md §3.12), and the report bills
    /// the whole logical run. Audit events the prefix already contains
    /// are not re-emitted; the auditor runs from the fresh-start seed,
    /// as in the uninterrupted run.
    pub resume: ResumeCursor<'a>,
}

impl<T> Default for Sweep<'_, T> {
    fn default() -> Self {
        Sweep {
            check: CriterionCheck::Enforce,
            threads: 1,
            audit: None,
            resume: ResumeCursor::default(),
        }
    }
}

/// Distributed LLL below the sharp threshold: fixes `inst` color class
/// by color class along `schedule`.
///
/// * An [`Edge`](ScheduleKind::Edge) schedule runs the rank-2 sweep of
///   Corollary 1.2: first a warm-up class of the rank-1 variables (one
///   cell per event), then one class per edge color whose cells are
///   the dependency edges' variables.
/// * A [`Distance2`](ScheduleKind::Distance2) schedule runs the rank-3
///   sweep of Corollary 1.4: in each class, every node of that color
///   fixes all of its still-unfixed incident variables.
///
/// `rec` receives the flight record: the
/// [`Event::FixRunStart`]/[`Event::FixRunEnd`] bracket and one
/// `fix_step` per variable (plus the audit events of an audited sweep).
/// Per-shard events are buffered and merged in static shard order, so
/// the stream is byte-identical at every worker count. `sink` receives
/// side-band wall-clock only: the whole sweep is one
/// [`TimingScope::FixRun`] span and each color class one
/// [`TimingScope::FixClass`] span. The serve daemon passes a
/// per-request recorder and sink, so every event and span attributes to
/// the request that caused it.
///
/// # Errors
///
/// * [`DistError::Fixer`] if the instance's rank exceeds the sweep's (2
///   for an edge schedule, 3 for a distance-2 schedule), if it violates
///   `p < 2^-d` under [`CriterionCheck::Enforce`] (the rank is checked
///   first), or if an audited sweep finds `P*` violated;
/// * [`DistError::ScheduleMismatch`] if `schedule` is sized for a
///   different dependency graph, and [`DistError::ScheduleConflict`] if
///   its size fits but it does not color this graph properly;
/// * [`DistError::ResumeMismatch`] if the resume cursor contradicts the
///   schedule or its own accounting (wrong schedule or instance, a
///   prefix from an audited run fed to an unaudited sweep, or steps
///   recorded without a `fix_run_start`).
pub fn run<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    sweep: &Sweep<'_, T>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    match schedule.kind() {
        ScheduleKind::Edge => {
            let fixer = Fixer2::new_unchecked(inst)?;
            drive(inst, fixer, schedule, Classes::edge, sweep, rec, sink)
        }
        ScheduleKind::Distance2 => {
            let fixer = Fixer3::new_unchecked(inst)?;
            drive(inst, fixer, schedule, Classes::distance2, sweep, rec, sink)
        }
    }
}

/// A schedule's color classes in sweep order, laid out flat. Class `k`
/// holds the variables `vars[bounds[k].0..bounds[k + 1].0]`, cut into
/// cells by `ends[bounds[k].1..bounds[k + 1].1]`: the prefix sums
/// `0, e_1, …, e_c` of its cells' sizes, counted from the class's first
/// variable, which are the weights [`lll_local::shard_bounds`] cuts. A
/// cell is one worker's sequentially fixed variables. Cells appear in
/// slot order (event, edge or node id), each lists its variables in id
/// order, and empty cells are left out.
#[derive(Debug)]
struct Classes {
    vars: Vec<usize>,
    ends: Vec<usize>,
    /// Where each class starts in `vars` and in `ends`, plus one entry
    /// past the last class.
    bounds: Vec<(usize, usize)>,
}

impl Classes {
    /// Lays out `num_classes` classes by one counting sort over slots
    /// (one potential cell each): `slot_class(s)` is the class of slot
    /// `s` in `0..num_slots`, and `slots_of(x)` lists the slots whose
    /// cell holds variable `x`. A class's cells keep the ascending order
    /// of their slots.
    fn layout<I: IntoIterator<Item = usize>>(
        num_classes: usize,
        num_slots: usize,
        slot_class: impl Fn(usize) -> usize,
        num_vars: usize,
        slots_of: impl Fn(usize) -> I,
    ) -> Classes {
        let mut size = vec![0usize; num_slots];
        for x in 0..num_vars {
            for s in slots_of(x) {
                size[s] += 1;
            }
        }
        // Variables and non-empty cells per class, then their prefix
        // sums (every class owns one more end than it has cells).
        let mut bounds = vec![(0usize, 0usize); num_classes + 1];
        for (s, &len) in size.iter().enumerate() {
            if len > 0 {
                let k = slot_class(s) + 1;
                bounds[k].0 += len;
                bounds[k].1 += 1;
            }
        }
        for k in 0..num_classes {
            bounds[k + 1].0 += bounds[k].0;
            bounds[k + 1].1 += bounds[k].1 + 1;
        }
        // Each non-empty slot's cell end, in slot order within its
        // class; `size` becomes each slot's first position in `vars`.
        let mut ends = vec![0usize; bounds[num_classes].1];
        let mut next = bounds[..num_classes].to_vec();
        for (s, len) in size.iter_mut().enumerate() {
            if *len > 0 {
                let k = slot_class(s);
                let (v, e) = next[k];
                ends[e + 1] = v + *len - bounds[k].0;
                next[k] = (v + *len, e + 1);
                *len = v;
            }
        }
        // Placing the variables in id order orders every cell.
        let mut vars = vec![0usize; bounds[num_classes].0];
        for x in 0..num_vars {
            for s in slots_of(x) {
                vars[size[s]] = x;
                size[s] += 1;
            }
        }
        Classes { vars, ends, bounds }
    }

    /// The rank-2 classes: the rank-1 warm-up class first (cells = one
    /// event's variables — no two rank-1 variables on different events
    /// interact, and several on one event are fixed by that event's node
    /// locally), then one class per edge color (cells = one dependency
    /// edge's variables, which one endpoint fixes locally and
    /// sequentially). Slots are the events, then the edges.
    fn edge<T: Num>(inst: &Instance<T>, schedule: &Schedule) -> Result<Classes, DistError> {
        let g = inst.dependency_graph();
        let n = g.num_nodes();
        expect_slots(schedule, g.num_edges())?;
        let colors = schedule.colors();
        let slot = |x: usize| match *inst.variable(x).affects() {
            [u] => u,
            [u, v] => n + g.edge_id(u, v).expect("co-affected events are adjacent"),
            _ => unreachable!("rank validated at construction"),
        };
        Ok(Classes::layout(
            schedule.palette() + 1,
            n + colors.len(),
            |s| if s < n { 0 } else { colors[s - n] + 1 },
            inst.num_variables(),
            |x| [slot(x)],
        ))
    }

    /// The rank-3 classes: one per node color, with one cell per class
    /// node holding all of its incident variables. The sweep drops the
    /// ones an earlier class already fixed. Slots are the nodes.
    fn distance2<T: Num>(inst: &Instance<T>, schedule: &Schedule) -> Result<Classes, DistError> {
        let n = inst.dependency_graph().num_nodes();
        expect_slots(schedule, n)?;
        let colors = schedule.colors();
        Ok(Classes::layout(
            schedule.palette(),
            n,
            |s| colors[s],
            inst.num_variables(),
            |x| inst.variable(x).affects().iter().copied(),
        ))
    }

    /// Every class as a list of cells, each a list of variables.
    #[cfg(test)]
    fn nested(&self) -> Vec<Vec<Vec<usize>>> {
        self.bounds
            .windows(2)
            .map(|w| {
                let vars = &self.vars[w[0].0..w[1].0];
                let ends = &self.ends[w[0].1..w[1].1];
                ends.windows(2).map(|e| vars[e[0]..e[1]].to_vec()).collect()
            })
            .collect()
    }

    /// Witness that every class is conflict-free: the events touched by
    /// different cells of one class are disjoint. For the rank-2 sweep
    /// this says same-colored edges share no endpoint; for the rank-3
    /// sweep, that same-colored nodes are ≥ 3 apart. One pass over every
    /// cell with one stamp per event (the last cell, numbered across all
    /// classes, that touched it), so it costs the cells' size.
    ///
    /// # Errors
    ///
    /// [`DistError::ScheduleConflict`] at the first class with two cells
    /// touching one event: the schedule does not color this dependency
    /// graph properly, although its slot count fits.
    fn check_disjoint<T: Num>(&self, inst: &Instance<T>) -> Result<(), DistError> {
        let mut stamp = vec![0usize; inst.num_events()];
        let mut cell = 0;
        for (class, w) in self.bounds.windows(2).enumerate() {
            let vars = &self.vars[w[0].0..w[1].0];
            let first = cell + 1;
            for end in self.ends[w[0].1..w[1].1].windows(2) {
                cell += 1;
                for &x in &vars[end[0]..end[1]] {
                    for &event in inst.variable(x).affects() {
                        if stamp[event] >= first && stamp[event] != cell {
                            return Err(DistError::ScheduleConflict { class, event });
                        }
                        stamp[event] = cell;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Keeps a class's still-unfixed variables, and its then non-empty
/// cells, in place (a rank-3 variable sits in the cell of every event it
/// affects; the first class to reach it fixes it). Returns the kept
/// variables and their cell ends.
fn retain_unfixed<'c>(
    vars: &'c mut [usize],
    ends: &'c mut [usize],
    partial: &PartialAssignment,
) -> (&'c [usize], &'c [usize]) {
    let (mut kept, mut cells, mut start) = (0, 0, 0);
    for c in 1..ends.len() {
        let end = ends[c];
        for i in start..end {
            let x = vars[i];
            if partial.get(x).is_none() {
                vars[kept] = x;
                kept += 1;
            }
        }
        start = end;
        // `cells < c`: the ends still to be read are untouched.
        if kept > ends[cells] {
            cells += 1;
            ends[cells] = kept;
        }
    }
    let (vars, ends): (&'c [usize], &'c [usize]) = (vars, ends);
    (&vars[..kept], &ends[..=cells])
}

fn expect_slots(schedule: &Schedule, expected: usize) -> Result<(), DistError> {
    if schedule.colors().len() == expected {
        Ok(())
    } else {
        Err(DistError::ScheduleMismatch {
            expected,
            found: schedule.colors().len(),
        })
    }
}

/// The sweep behind [`run`], for either fixer: checks the criterion,
/// builds the classes and witnesses that each is conflict-free, then
/// fixes them in order. A resumed sweep runs the same classes from the
/// start: a class that re-executes steps of the cursor's prefix is
/// checked against it before any of its events go on, and only the
/// events past the prefix do.
fn drive<T: Num, F: ClassFixer<T>, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    mut fixer: F,
    schedule: &Schedule,
    classes: fn(&Instance<T>, &Schedule) -> Result<Classes, DistError>,
    sweep: &Sweep<'_, T>,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let initial_probs = check_criterion(inst, sweep.check)?;
    let classes = classes(inst, schedule)?;
    classes.check_disjoint(inst)?;
    let Classes {
        mut vars,
        mut ends,
        bounds,
    } = classes;
    let warmup_classes = bounds.len() - 1 - schedule.palette();
    let audit = sweep.audit;
    let cursor = &sweep.resume;
    let prefix = cursor.steps;

    let emit_start = begin_resume(cursor, audit.is_some())?;
    if R::ENABLED && emit_start {
        rec.record(&fix_run_start_event(inst));
    }
    let mut auditor = fresh_start_auditor(inst, fixer.phi(), initial_probs, audit);
    let mut classes_run = 0u64;

    let run_started = span_start::<S>();
    // The pool's mailboxes borrow each class's segment, so the layout
    // outlives the pool; each class takes its segments off the front.
    let (mut vars, mut ends) = (&mut vars[..], &mut ends[..]);
    let (swept, sweep_pool) = with_class_pool(sweep.threads, audit, |pool| {
        for w in bounds.windows(2) {
            let class_started = span_start::<S>();
            let (class_vars, rest) = std::mem::take(&mut vars).split_at_mut(w[1].0 - w[0].0);
            vars = rest;
            let (class_ends, rest) = std::mem::take(&mut ends).split_at_mut(w[1].1 - w[0].1);
            ends = rest;
            // Membership is stable while the class runs: the witness
            // guarantees no other cell of the class touches these events.
            let (class_vars, class_ends) = retain_unfixed(class_vars, class_ends, fixer.partial());
            if class_vars.is_empty() {
                continue;
            }
            classes_run += 1;
            let start = fixer.steps_done();
            if start >= prefix.len() {
                let deltas = pool.fix_class(&mut fixer, class_vars, class_ends, rec)?;
                audit_class(&mut auditor, &deltas, &fixer, class_vars, rec)?;
            } else {
                // The class re-executes recorded steps. A class inside
                // the prefix runs unrecorded: the prefix holds its
                // events. The class the prefix ends in runs into a
                // buffer that goes on only once its steps matched the
                // prefix, minus the part the prefix holds.
                let end = start + class_vars.len();
                let boundary = prefix.len() <= end;
                let mut buf = BufRecorder::new();
                let fixed = if R::ENABLED && boundary {
                    pool.fix_class(&mut fixer, class_vars, class_ends, &mut buf)
                } else {
                    pool.fix_class(&mut fixer, class_vars, class_ends, &mut NullRecorder)
                };
                check_prefix(inst, prefix, fixer.steps(), start)?;
                let owed = boundary
                    && audit.is_some()
                    && boundary_verdict_owed(cursor, classes_run, prefix.len() == end)?;
                let verdict = fixed.and_then(|deltas| {
                    if owed {
                        audit_class(&mut auditor, &deltas, &fixer, class_vars, &mut buf)
                    } else {
                        let mut in_prefix = NullRecorder;
                        audit_class(&mut auditor, &deltas, &fixer, class_vars, &mut in_prefix)
                    }
                });
                let held = (prefix.len() - start) as u64;
                buf.replay_into(&mut SkipPrefixRecorder::new(rec, held));
                verdict?;
            }
            if S::ENABLED {
                sink.record_span(TimingScope::FixClass, span_nanos(class_started));
            }
        }
        Ok::<(), DistError>(())
    });
    swept?;
    if S::ENABLED {
        sink.record_span(TimingScope::FixRun, span_nanos(run_started));
    }
    let ran = fixer.steps_done();
    if ran < prefix.len() {
        return Err(resume_mismatch(
            ran,
            "end of the schedule",
            format!("{} recorded steps beyond the schedule", prefix.len() - ran),
        ));
    }

    let fix = fixer.into_report();
    if R::ENABLED {
        rec.record(&Event::FixRunEnd {
            steps: fix.num_steps(),
            violated: fix.violated_events().len(),
        });
    }
    // Coloring rounds + 2 per color class (+1 for the rank-1 warm-up).
    let (palette, coloring_rounds) = (schedule.palette(), schedule.coloring_rounds());
    Ok(DistReport {
        rounds: coloring_rounds + 2 * palette + warmup_classes,
        coloring_rounds,
        num_classes: palette + warmup_classes,
        fix,
        sweep_pool,
    })
}

/// The criterion check of [`run`] under [`CriterionCheck::Enforce`]
/// (after the fixer constructor's rank check, so a rank violation is
/// still reported first). Returns the per-event unconditional
/// probabilities it enumerated, so a fresh-start audited run can seed
/// its auditor from the same pass ([`fresh_start_auditor`]); `None`
/// under [`CriterionCheck::Skip`].
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

/// The auditor of an audited run, fresh or resumed (both start from
/// the empty assignment), seeded from the criterion check's
/// probabilities when it ran. Nothing is fixed yet, so `Pr[v | partial]` is the unconditional probability
/// computed by the identical enumeration — the seeded auditor equals
/// [`IncrementalAuditor::new`]'s full scan bit for bit.
fn fresh_start_auditor<T: Num>(
    inst: &Instance<T>,
    phi: &Phi<T>,
    probs: Option<Vec<T>>,
    audit: Option<(&T, &T)>,
) -> Option<IncrementalAuditor<T>> {
    let (p_bound, tol) = audit?;
    let probs = probs.unwrap_or_else(|| inst.unconditional_probabilities());
    Some(IncrementalAuditor::seeded(inst, phi, &probs, p_bound, tol))
}

/// Applies a class's worker-computed audit deltas and takes the class
/// verdict ([`class_verdict`]). No-op when the run is not audited.
fn audit_class<T: Num, F: ClassFixer<T>, R: Recorder>(
    auditor: &mut Option<IncrementalAuditor<T>>,
    deltas: &[AuditDelta<T>],
    fixer: &F,
    class_vars: &[usize],
    rec: &mut R,
) -> Result<(), FixerError> {
    let Some(auditor) = auditor.as_mut() else {
        return Ok(());
    };
    for delta in deltas {
        auditor.apply_delta(delta);
    }
    class_verdict(auditor, fixer, class_vars, rec)
}

/// Emits a class's audit event, tagged with the class's last step and
/// variable, and converts a failed verdict into
/// [`FixerError::PStarViolated`].
fn class_verdict<T: Num, F: ClassFixer<T>, R: Recorder>(
    auditor: &IncrementalAuditor<T>,
    fixer: &F,
    class_vars: &[usize],
    rec: &mut R,
) -> Result<(), FixerError> {
    let variable = *class_vars.last().expect("class is non-empty");
    audit_verdict(auditor.report(), fixer.steps_done() - 1, variable, rec)
}

/// Distributed conditional-expectation fixer (the Remark after
/// Conjecture 1.5): distance-2 color the dependency graph (on `threads`
/// simulator workers; the outcome is identical for every count) and
/// run the Fischer–Ghaffari-style sweep over the classes. Requires the
/// *strong* criterion `p·(d+1)^C < 1` with `C` the palette actually
/// computed — exponentially more demanding than the sharp `p < 2^-d`,
/// which is the gap experiment E13 documents. Works for any variable
/// rank.
///
/// # Errors
///
/// [`DistError::Fixer`] under [`CriterionCheck::Enforce`] when the
/// strong criterion fails; [`DistError::Sim`] on simulation failure.
pub fn distributed_fg<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, threads)?;
    let palette = schedule.palette();
    let fixer = match check {
        CriterionCheck::Enforce => FgFixer::new(inst, palette)?,
        CriterionCheck::Skip => FgFixer::new_unchecked(inst),
    };
    let fix = fixer.run(schedule.colors());
    Ok(DistReport {
        rounds: schedule.coloring_rounds() + 2 * palette,
        coloring_rounds: schedule.coloring_rounds(),
        num_classes: palette,
        fix,
        sweep_pool: PoolStats::default(),
    })
}

/// The entry points of the benchmark binary, which keeps their
/// signatures until its next revision. Each is one call of [`run`];
/// use that instead.
#[doc(hidden)]
pub fn distributed_fixer2_parallel<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::edge(inst.dependency_graph(), seed, threads)?;
    let sweep = shim_sweep(check, threads, None, ResumeCursor::default());
    run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
}

#[doc(hidden)]
pub fn distributed_fixer3_parallel<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, threads)?;
    let sweep = shim_sweep(check, threads, None, ResumeCursor::default());
    run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
}

#[doc(hidden)]
pub fn distributed_fixer2_audited<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::edge(inst.dependency_graph(), seed, threads)?;
    let sweep = shim_sweep(
        check,
        threads,
        Some((p_bound, tol)),
        ResumeCursor::default(),
    );
    run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
}

#[doc(hidden)]
pub fn distributed_fixer3_audited<T: Num>(
    inst: &Instance<T>,
    seed: u64,
    check: CriterionCheck,
    threads: usize,
    p_bound: &T,
    tol: &T,
) -> Result<DistReport, DistError> {
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, threads)?;
    let sweep = shim_sweep(
        check,
        threads,
        Some((p_bound, tol)),
        ResumeCursor::default(),
    );
    run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming)
}

#[doc(hidden)]
pub fn distributed_fixer2_scheduled_traced<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let sweep = shim_sweep(check, threads, None, ResumeCursor::default());
    let schedule = of_kind(schedule, ScheduleKind::Edge, inst)?;
    run(inst, schedule, &sweep, rec, sink)
}

#[doc(hidden)]
pub fn distributed_fixer3_scheduled_traced<T: Num, R: Recorder, S: TimingSink>(
    inst: &Instance<T>,
    schedule: &Schedule,
    check: CriterionCheck,
    threads: usize,
    rec: &mut R,
    sink: &mut S,
) -> Result<DistReport, DistError> {
    let sweep = shim_sweep(check, threads, None, ResumeCursor::default());
    let schedule = of_kind(schedule, ScheduleKind::Distance2, inst)?;
    run(inst, schedule, &sweep, rec, sink)
}

// Eight parameters: the benchmark binary's call fixes the signature.
#[doc(hidden)]
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
    let sweep = shim_sweep(check, threads, Some((p_bound, tol)), *cursor);
    let schedule = of_kind(schedule, ScheduleKind::Edge, inst)?;
    run(inst, schedule, &sweep, rec, &mut NullTiming)
}

// Eight parameters: the benchmark binary's call fixes the signature.
#[doc(hidden)]
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
    let sweep = shim_sweep(check, threads, Some((p_bound, tol)), *cursor);
    let schedule = of_kind(schedule, ScheduleKind::Distance2, inst)?;
    run(inst, schedule, &sweep, rec, &mut NullTiming)
}

fn shim_sweep<'a, T>(
    check: CriterionCheck,
    threads: usize,
    audit: Option<(&'a T, &'a T)>,
    resume: ResumeCursor<'a>,
) -> Sweep<'a, T> {
    Sweep {
        check,
        threads,
        audit,
        resume,
    }
}

/// `schedule` if it is of `kind`, else the [`DistError::ScheduleMismatch`]
/// the rank-specific shims report for a schedule of the other kind.
fn of_kind<'s, T: Num>(
    schedule: &'s Schedule,
    kind: ScheduleKind,
    inst: &Instance<T>,
) -> Result<&'s Schedule, DistError> {
    if schedule.kind() == kind {
        return Ok(schedule);
    }
    let g = inst.dependency_graph();
    let expected = match kind {
        ScheduleKind::Edge => g.num_edges(),
        ScheduleKind::Distance2 => g.num_nodes(),
    };
    Err(DistError::ScheduleMismatch {
        expected,
        found: schedule.colors().len(),
    })
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

    fn edge(inst: &Instance<f64>, seed: u64, threads: usize) -> Schedule {
        Schedule::edge(inst.dependency_graph(), seed, threads).unwrap()
    }

    fn distance2(inst: &Instance<f64>, seed: u64, threads: usize) -> Schedule {
        Schedule::distance2(inst.dependency_graph(), seed, threads).unwrap()
    }

    /// An unrecorded, untimed [`run`].
    fn solve(
        inst: &Instance<f64>,
        schedule: &Schedule,
        sweep: &Sweep<'_, f64>,
    ) -> Result<DistReport, DistError> {
        run(inst, schedule, sweep, &mut NullRecorder, &mut NullTiming)
    }

    fn threads(threads: usize) -> Sweep<'static, f64> {
        Sweep {
            threads,
            ..Sweep::default()
        }
    }

    #[test]
    fn a_sweep_spawns_once_not_once_per_class() {
        // K_7 with one 3-valued variable per edge: an edge schedule of
        // up to 11 colors plus the rank-1 warm-up, with up to 3 cells
        // (edges) per class.
        let n = 7;
        let mut b = InstanceBuilder::<f64>::new(n);
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        for u in 0..n {
            for v in u + 1..n {
                let x = b.add_uniform_variable(&[u, v], 3);
                incident[u].push(x);
                incident[v].push(x);
            }
        }
        for (v, vars) in incident.into_iter().enumerate() {
            b.set_event_predicate(v, move |vals| vars.iter().all(|&x| vals[x] == 0));
        }
        let inst = b.build().unwrap();
        let schedule = edge(&inst, 5, 1);
        let base = solve(&inst, &schedule, &threads(1)).unwrap();
        assert!(base.num_classes >= 10, "{} classes", base.num_classes);
        assert_eq!(base.sweep_pool.spawns, 0);
        let rep = solve(&inst, &schedule, &threads(2)).unwrap();
        assert_eq!(rep.fix.assignment(), base.fix.assignment());
        // One phase per class of two or more cells (edges; the warm-up
        // class is empty), all on one pool.
        let mut cells = vec![0usize; schedule.palette()];
        for &c in schedule.colors() {
            cells[c] += 1;
        }
        let sharded = cells.iter().filter(|&&k| k >= 2).count();
        assert!(sharded >= 2, "{cells:?}");
        assert_eq!(rep.sweep_pool.handoffs, sharded);
        assert!(rep.sweep_pool.spawns <= 1, "{:?}", rep.sweep_pool);
        if lll_local::pool::available_cores() >= 2 {
            assert_eq!(rep.sweep_pool.spawns, 1);
        }
    }

    /// The classes of `schedule` built the nested way, as the flat
    /// layout must list them: for an edge schedule the warm-up class of
    /// rank-1 cells by event id, then one class per color of cells by
    /// edge id; for a distance-2 schedule one class per color of cells
    /// by node id. Variables in id order, empty cells dropped.
    fn nested_classes(inst: &Instance<f64>, schedule: &Schedule) -> Vec<Vec<Vec<usize>>> {
        let g = inst.dependency_graph();
        let n = g.num_nodes();
        let slot_class: Vec<usize> = match schedule.kind() {
            ScheduleKind::Edge => std::iter::repeat_n(0, n)
                .chain(schedule.colors().iter().map(|&c| c + 1))
                .collect(),
            ScheduleKind::Distance2 => schedule.colors().to_vec(),
        };
        let mut cells = vec![Vec::new(); slot_class.len()];
        for x in 0..inst.num_variables() {
            match (schedule.kind(), inst.variable(x).affects()) {
                (ScheduleKind::Edge, &[u]) => cells[u].push(x),
                (ScheduleKind::Edge, &[u, v]) => {
                    let pair = (u.min(v), u.max(v));
                    let eid = g.edges().iter().position(|&e| e == pair).unwrap();
                    cells[n + eid].push(x);
                }
                (ScheduleKind::Distance2, affects) => {
                    for &v in affects {
                        cells[v].push(x);
                    }
                }
                _ => unreachable!("edge schedules run rank ≤ 2"),
            }
        }
        let warmup = usize::from(schedule.kind() == ScheduleKind::Edge);
        let mut classes = vec![Vec::new(); warmup + schedule.palette()];
        for (cell, k) in cells.into_iter().zip(slot_class) {
            if !cell.is_empty() {
                classes[k].push(cell);
            }
        }
        classes
    }

    #[test]
    fn flat_classes_list_cells_in_slot_order_and_variables_in_id_order() {
        // A ring with one or two variables per edge (listed either way
        // round) and zero to two rank-1 variables per event, their ids
        // interleaved.
        let n = 12;
        let mut b = InstanceBuilder::<f64>::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            if i % 3 != 0 {
                b.add_uniform_variable(&[i], 2);
            }
            b.add_uniform_variable(&[i, j], 3);
            if i % 4 == 1 {
                b.add_uniform_variable(&[j, i], 2);
                b.add_uniform_variable(&[i], 2);
            }
        }
        let mixed = b.build().unwrap();
        let hyper = hyper_ring_instance(24, 3);
        for (inst, schedule) in [
            (&mixed, edge(&mixed, 5, 1)),
            (&mixed, distance2(&mixed, 3, 1)),
            (&hyper, distance2(&hyper, 7, 1)),
        ] {
            let classes = match schedule.kind() {
                ScheduleKind::Edge => Classes::edge(inst, &schedule),
                ScheduleKind::Distance2 => Classes::distance2(inst, &schedule),
            }
            .unwrap();
            let nested = classes.nested();
            assert_eq!(nested, nested_classes(inst, &schedule));
            assert!(nested.iter().flatten().all(|cell| !cell.is_empty()));
            classes.check_disjoint(inst).unwrap();
        }
        // The warm-up class comes first and holds exactly the rank-1
        // variables, one cell per event that has any.
        let warmup: Vec<Vec<usize>> = (0..n)
            .map(|ev| {
                (0..mixed.num_variables())
                    .filter(|&x| mixed.variable(x).affects() == [ev])
                    .collect::<Vec<_>>()
            })
            .filter(|cell| !cell.is_empty())
            .collect();
        assert_eq!(warmup.len(), 9, "events 0, 3 and 6 have none");
        let classes = Classes::edge(&mixed, &edge(&mixed, 5, 1)).unwrap().nested();
        assert_eq!(classes[0], warmup);
    }

    #[test]
    fn distributed_rank2_solves_rings() {
        for n in [8, 32, 128] {
            let inst = ring_instance(n, 3);
            let rep = solve(&inst, &edge(&inst, 5, 1), &Sweep::default()).unwrap();
            assert!(rep.fix.is_success(), "n = {n}");
            assert!(inst.no_event_occurs(rep.fix.assignment()).unwrap());
            assert!(rep.rounds > rep.coloring_rounds);
        }
    }

    #[test]
    fn distributed_rank3_solves_hyper_rings_and_rank2_instances() {
        for n in [8, 32, 128] {
            let inst = hyper_ring_instance(n, 3);
            let rep = solve(&inst, &distance2(&inst, 11, 1), &Sweep::default()).unwrap();
            assert!(rep.fix.is_success(), "n = {n}");
        }
        let inst = ring_instance(16, 3);
        let rep = solve(&inst, &distance2(&inst, 3, 1), &Sweep::default()).unwrap();
        assert!(
            rep.fix.is_success(),
            "the rank-3 sweep accepts rank-2 instances"
        );
    }

    #[test]
    fn rounds_scale_like_log_star_not_n() {
        // d is constant on rings, so rounds must be ~constant + log*.
        // Start the comparison above Linial's fixed-point palette (tiny
        // id spaces skip Linial entirely and reduce straight from n,
        // which makes very small n artificially cheap).
        let rounds = |n| {
            let inst = ring_instance(n, 3);
            solve(&inst, &edge(&inst, 1, 1), &Sweep::default())
                .unwrap()
                .rounds
        };
        let (r_small, r_large) = (rounds(512), rounds(65536));
        let slack = 2 * (log_star(65536) - log_star(512)) as usize + 4;
        assert!(
            r_large <= r_small + slack,
            "rounds grew from {r_small} to {r_large}, more than log* allows"
        );
    }

    #[test]
    fn criterion_enforcement() {
        let at_threshold = ring_instance(8, 2); // p·2^d = 1
        let schedule = edge(&at_threshold, 0, 1);
        assert!(matches!(
            solve(&at_threshold, &schedule, &Sweep::default()),
            Err(DistError::Fixer(FixerError::CriterionViolated { .. }))
        ));
        let skip = Sweep {
            check: CriterionCheck::Skip,
            ..Sweep::default()
        };
        let rep = solve(&at_threshold, &schedule, &skip).unwrap();
        assert_eq!(rep.fix.assignment().len(), 8);
    }

    #[test]
    fn seeds_change_schedule_not_correctness() {
        let inst = hyper_ring_instance(20, 3);
        for seed in 0..5 {
            let rep = solve(&inst, &distance2(&inst, seed, 1), &Sweep::default()).unwrap();
            assert!(rep.fix.is_success(), "seed {seed}");
        }
    }

    /// The recorded stream and report of a [`run`] under `sweep`.
    fn recorded(
        inst: &Instance<f64>,
        schedule: &Schedule,
        sweep: &Sweep<'_, f64>,
    ) -> (Vec<u8>, DistReport) {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep = run(inst, schedule, sweep, &mut rec, &mut NullTiming).unwrap();
        (rec.finish().unwrap(), rep)
    }

    #[test]
    fn parallel_and_cached_sweeps_match_sequential_bit_for_bit() {
        let (inst2, inst3) = (ring_instance(96, 3), hyper_ring_instance(48, 3));
        let schedule = |inst: &Instance<f64>, t| match inst.max_rank() {
            2 => edge(inst, 5, t),
            _ => distance2(inst, 7, t),
        };
        for inst in [&inst2, &inst3] {
            // Colored once, like a schedule in the serve daemon's cache:
            // the coloring at every worker count must equal it, and
            // sweeping it at every worker count must replay the
            // one-worker run byte for byte.
            let cached = schedule(inst, 1);
            let (bytes, base) = recorded(inst, &cached, &threads(1));
            assert!(!bytes.is_empty());
            for t in [2usize, 3, 8] {
                let tag = format!("rank {} at threads {t}", inst.max_rank());
                assert_eq!(schedule(inst, t), cached, "coloring diverged: {tag}");
                let (b, p) = recorded(inst, &cached, &threads(t));
                assert_eq!(b, bytes, "stream diverged: {tag}");
                assert_eq!(p.fix.steps(), base.fix.steps(), "{tag}");
                assert_eq!(p.fix.assignment(), base.fix.assignment(), "{tag}");
                assert_eq!(p.rounds, base.rounds, "{tag}");
                assert_eq!(p.num_classes, base.num_classes, "{tag}");
            }
        }
        let baseg = distributed_fg(&inst2, 5, CriterionCheck::Skip, 1).unwrap();
        for t in [2usize, 8] {
            let pg = distributed_fg(&inst2, 5, CriterionCheck::Skip, t).unwrap();
            assert_eq!(pg.rounds, baseg.rounds, "fg threads {t}");
            assert_eq!(pg.fix.assignment(), baseg.fix.assignment());
        }
    }

    fn audited<'a>(t: usize, p: &'a f64, tol: &'a f64) -> Sweep<'a, f64> {
        Sweep {
            threads: t,
            audit: Some((p, tol)),
            ..Sweep::default()
        }
    }

    #[test]
    fn audited_sweep_matches_sequential_verdicts() {
        // Below the threshold the audited sweeps must succeed — with
        // identical outputs — at every thread count.
        let inst2 = ring_instance(64, 3);
        let p2 = inst2.max_event_probability();
        let inst3 = hyper_ring_instance(32, 3);
        let p3 = inst3.max_event_probability();
        let (s2, s3) = (edge(&inst2, 5, 1), distance2(&inst3, 7, 1));
        let base2 = solve(&inst2, &s2, &audited(1, &p2, &1e-9)).unwrap();
        let base3 = solve(&inst3, &s3, &audited(1, &p3, &1e-9)).unwrap();
        for t in [2usize, 8] {
            let a2 = solve(&inst2, &s2, &audited(t, &p2, &1e-9)).unwrap();
            assert_eq!(a2.fix.assignment(), base2.fix.assignment(), "threads {t}");
            let a3 = solve(&inst3, &s3, &audited(t, &p3, &1e-9)).unwrap();
            assert_eq!(a3.fix.assignment(), base3.fix.assignment(), "threads {t}");
        }

        // With an artificially halved probability bound the audit must
        // fail, at the same class (step, variable) for every thread
        // count.
        let tight = p3 / 2.0;
        let base_err =
            solve(&inst3, &s3, &audited(1, &tight, &0.0)).expect_err("halved bound violates P*");
        for t in [2usize, 8] {
            let err = solve(&inst3, &s3, &audited(t, &tight, &0.0))
                .expect_err("halved bound violates P*");
            assert_eq!(err, base_err, "audit verdict diverged at threads {t}");
        }
    }

    #[test]
    fn audited_recorded_sweep_emits_one_audit_event_per_class() {
        let inst = ring_instance(32, 3);
        let p = inst.max_event_probability();
        let (bytes, rep) = recorded(&inst, &edge(&inst, 5, 4), &audited(4, &p, &1e-9));
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

    fn checkpoints_in(text: &str) -> Vec<lll_obs::Checkpoint> {
        text.lines()
            .filter(|l| l.starts_with(lll_obs::CHECKPOINT_PREFIX))
            .map(|l| lll_obs::Checkpoint::parse(l).unwrap())
            .collect()
    }

    fn fold(prefix: &[u8]) -> lll_obs::replay::RunState {
        let (state, torn) =
            lll_obs::replay::RunState::from_stream(std::str::from_utf8(prefix).unwrap()).unwrap();
        assert_eq!(torn, None, "a checkpoint prefix has no torn tail");
        state
    }

    /// Runs `schedule` recorded with a checkpoint every `interval`
    /// steps, then resumes from every checkpoint at every thread count
    /// in `ts` and checks that prefix + resumed tail is the full stream.
    fn assert_resumes_continue_the_stream(
        inst: &Instance<f64>,
        schedule: &Schedule,
        audit: Option<(&f64, &f64)>,
        interval: u64,
        ts: &[usize],
    ) {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(interval);
        let fresh = Sweep {
            audit,
            ..Sweep::default()
        };
        let full = run(inst, schedule, &fresh, &mut rec, &mut NullTiming).unwrap();
        let bytes = rec.finish().unwrap();
        let cks = checkpoints_in(std::str::from_utf8(&bytes).unwrap());
        assert!(
            cks.len() >= 3,
            "want several checkpoints, got {}",
            cks.len()
        );
        for ck in &cks {
            let prefix = &bytes[..ck.resume_offset() as usize];
            let state = fold(prefix);
            let resume = ResumeCursor::from_run_state(&state).unwrap();
            assert_eq!(resume.steps().len() as u64, ck.step);
            for &t in ts {
                let mut tail = lll_obs::JsonlRecorder::resumed(Vec::new(), interval, ck);
                let sweep = Sweep {
                    threads: t,
                    audit,
                    resume,
                    ..Sweep::default()
                };
                let rep = run(inst, schedule, &sweep, &mut tail, &mut NullTiming).unwrap();
                let mut joined = prefix.to_vec();
                joined.extend_from_slice(&tail.finish().unwrap());
                assert_eq!(
                    joined, bytes,
                    "stream diverged: threads {t}, checkpoint at step {}",
                    ck.step
                );
                assert_eq!(rep.fix.assignment(), full.fix.assignment());
                assert_eq!(rep.rounds, full.rounds);
                assert_eq!(rep.num_classes, full.num_classes);
            }
        }
    }

    #[test]
    fn resumed_runs_continue_checkpointed_streams_byte_for_byte() {
        let inst2 = ring_instance(64, 3);
        assert_resumes_continue_the_stream(&inst2, &edge(&inst2, 5, 1), None, 3, &[1, 2, 8]);
        let inst3 = hyper_ring_instance(32, 3);
        assert_resumes_continue_the_stream(&inst3, &distance2(&inst3, 7, 1), None, 3, &[1, 2, 8]);
    }

    #[test]
    fn resumed_audited_runs_rebuild_audit_state_exactly() {
        // Interval 1 puts a checkpoint after *every* fixing step, which
        // covers the boundary case where the prefix ends exactly at a
        // class boundary with that class's audit event still owed.
        let inst2 = ring_instance(48, 3);
        let p2 = inst2.max_event_probability();
        let audit2 = Some((&p2, &1e-9));
        assert_resumes_continue_the_stream(&inst2, &edge(&inst2, 5, 1), audit2, 1, &[1, 2]);
        let inst3 = hyper_ring_instance(24, 3);
        let p3 = inst3.max_event_probability();
        let audit3 = Some((&p3, &1e-9));
        assert_resumes_continue_the_stream(&inst3, &distance2(&inst3, 7, 1), audit3, 1, &[1, 2]);
    }

    #[test]
    fn resume_mismatches_fail_loudly() {
        let inst = ring_instance(16, 3);
        let sched = edge(&inst, 5, 1);
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(4);
        run(&inst, &sched, &Sweep::default(), &mut rec, &mut NullTiming).unwrap();
        let bytes = rec.finish().unwrap();
        let honest = fold(&bytes).steps().to_vec();
        assert_eq!(honest.len(), 16);
        let resumed = |resume| {
            let sweep = Sweep {
                resume,
                ..Sweep::default()
            };
            solve(&inst, &sched, &sweep).unwrap_err()
        };

        // A prefix whose first step names a variable the schedule does
        // not put there.
        let mut steps = honest.clone();
        steps[0].0 += 1;
        let err = resumed(ResumeCursor::new(&steps[..4], 0, true));
        assert!(
            matches!(err, DistError::ResumeMismatch { at: 0, .. }),
            "{err}"
        );

        // A recorded value outside the variable's domain.
        let mut steps = honest.clone();
        steps[0].1 = 999;
        let err = resumed(ResumeCursor::new(&steps[..4], 0, true));
        assert!(
            matches!(err, DistError::ResumeMismatch { at: 0, .. }),
            "{err}"
        );

        // More recorded steps than the schedule has variables.
        let mut steps = honest.clone();
        steps.push((0, 0));
        match resumed(ResumeCursor::new(&steps, 0, true)) {
            DistError::ResumeMismatch { at, .. } => assert_eq!(at, honest.len()),
            other => panic!("expected overrun mismatch, got {other}"),
        }

        // An audited prefix fed to the unaudited sweep.
        let err = resumed(ResumeCursor::new(&honest[..4], 2, true));
        assert!(matches!(err, DistError::ResumeMismatch { .. }), "{err}");

        // Audit accounting the prefix contradicts: four steps cannot
        // have closed three classes.
        let p = inst.max_event_probability();
        let audited = |resume| {
            let sweep = Sweep {
                audit: Some((&p, &1e-9)),
                resume,
                ..Sweep::default()
            };
            solve(&inst, &sched, &sweep)
        };
        assert!(audited(ResumeCursor::new(&honest[..4], 0, true)).is_ok());
        let err = audited(ResumeCursor::new(&honest[..4], 3, true)).unwrap_err();
        assert!(matches!(err, DistError::ResumeMismatch { .. }), "{err}");
    }

    #[test]
    fn a_tampered_step_inside_a_sharded_class_records_nothing() {
        // The prefix ends inside a class of many cells, after a step
        // whose recorded value was changed: the class's later steps are
        // past the prefix, so their events would reach the recorder if
        // the class were forwarded before its steps were checked.
        let inst = ring_instance(64, 3);
        let sched = edge(&inst, 5, 1);
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        run(&inst, &sched, &Sweep::default(), &mut rec, &mut NullTiming).unwrap();
        let honest = fold(&rec.finish().unwrap()).steps().to_vec();
        // One variable per ring edge, so a class is a run of steps of
        // one edge color.
        let g = inst.dependency_graph();
        let color = |&(x, _): &(u64, u64)| match *inst.variable(x as usize).affects() {
            [u, v] => sched.colors()[g.edge_id(u, v).unwrap()],
            _ => unreachable!("ring variables have rank 2"),
        };
        let (mut start, mut len) = (0, 0);
        let mut i = 0;
        while i < honest.len() {
            let j = i + honest[i..]
                .iter()
                .take_while(|s| color(s) == color(&honest[i]))
                .count();
            if j - i > len {
                (start, len) = (i, j - i);
            }
            i = j;
        }
        assert!(len >= 8, "the widest class has {len} cells");
        let tampered = start + len / 2;
        let mut steps = honest.clone();
        steps[tampered].1 = (steps[tampered].1 + 1) % 3;
        let end = start + len - 1;
        for t in [2usize, 8] {
            for (prefix, ok) in [(&honest[..end], true), (&steps[..end], false)] {
                let sweep = Sweep {
                    threads: t,
                    resume: ResumeCursor::new(prefix, 0, true),
                    ..Sweep::default()
                };
                let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
                let result = run(&inst, &sched, &sweep, &mut rec, &mut NullTiming);
                let bytes = rec.finish().unwrap();
                if ok {
                    assert!(result.is_ok() && !bytes.is_empty(), "threads {t}");
                    continue;
                }
                match result {
                    Err(DistError::ResumeMismatch { at, .. }) => assert_eq!(at, tampered),
                    other => panic!("threads {t}: expected a mismatch, got {other:?}"),
                }
                assert!(
                    bytes.is_empty(),
                    "threads {t}: the tampered class was recorded"
                );
            }
        }
    }

    #[test]
    fn a_prefix_ending_at_a_class_boundary_records_the_verdict_once() {
        // A prefix that ends with a class's last step may stop before
        // or after that class's audit event: the resumed run records
        // the verdict only in the first case.
        let inst = ring_instance(32, 3);
        let sched = edge(&inst, 5, 1);
        let p = inst.max_event_probability();
        let (bytes, _) = recorded(&inst, &sched, &audited(1, &p, &1e-9));
        let text = std::str::from_utf8(&bytes).unwrap();
        let steps = fold(&bytes).steps().to_vec();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let verdict = lines
            .iter()
            .position(|l| l.contains("\"audit_pass\""))
            .unwrap();
        let k = lines[..verdict]
            .iter()
            .filter(|l| l.contains("\"fix_step\""))
            .count();
        for (audits, from) in [(0, verdict), (1, verdict + 1)] {
            let sweep = Sweep {
                resume: ResumeCursor::new(&steps[..k], audits, true),
                ..audited(2, &p, &1e-9)
            };
            let (tail, _) = recorded(&inst, &sched, &sweep);
            assert_eq!(tail, lines[from..].concat().as_bytes(), "{audits} audits");
        }
    }

    #[test]
    fn contradictory_resume_cursors_are_rejected() {
        // Steps and audit events follow `fix_run_start` in every
        // stream, so a cursor claiming either without the bracket
        // cannot be continued: the sweep would emit the bracket after
        // the recorded prefix.
        let inst = ring_instance(16, 3);
        let sched = edge(&inst, 5, 1);
        let p = inst.max_event_probability();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        run(&inst, &sched, &Sweep::default(), &mut rec, &mut NullTiming).unwrap();
        let steps = fold(&rec.finish().unwrap()).steps().to_vec();
        for (cursor, audit) in [
            (ResumeCursor::new(&steps[..4], 0, false), None),
            (ResumeCursor::new(&steps[..4], 1, false), Some((&p, &1e-9))),
            (ResumeCursor::new(&[], 1, false), Some((&p, &1e-9))),
        ] {
            let sweep = Sweep {
                audit,
                resume: cursor,
                ..Sweep::default()
            };
            let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
            let err = run(&inst, &sched, &sweep, &mut rec, &mut NullTiming).unwrap_err();
            assert!(
                matches!(err, DistError::ResumeMismatch { at: 0, .. }),
                "{err}"
            );
            assert!(rec.finish().unwrap().is_empty(), "nothing recorded");
        }

        // The empty cursor is a fresh start, audited or not.
        let fresh = ResumeCursor::new(&[], 0, false);
        for audit in [None, Some((&p, &1e-9))] {
            let sweep = Sweep {
                audit,
                resume: fresh,
                ..Sweep::default()
            };
            let default = Sweep {
                audit,
                ..Sweep::default()
            };
            assert_eq!(
                recorded(&inst, &sched, &sweep).0,
                recorded(&inst, &sched, &default).0
            );
        }
    }

    #[test]
    fn mismatched_schedules_are_rejected_not_misapplied() {
        let inst2 = ring_instance(16, 3);
        let inst3 = hyper_ring_instance(32, 3);
        // A schedule sized for another graph.
        let edge64 = edge(&ring_instance(64, 3), 5, 1);
        assert!(matches!(
            solve(&inst2, &edge64, &Sweep::default()),
            Err(DistError::ScheduleMismatch {
                expected: 16,
                found: 64
            })
        ));
        assert!(matches!(
            solve(&inst2, &distance2(&inst3, 7, 1), &Sweep::default()),
            Err(DistError::ScheduleMismatch {
                expected: 16,
                found: 32
            })
        ));
        // A schedule of the right size colored for another graph: the
        // ring's edge coloring on a 16-leaf star puts same-colored
        // edges on the center, which the witness reports before
        // anything is fixed or recorded.
        let star = {
            let mut b = InstanceBuilder::<f64>::new(17);
            for leaf in 1..17 {
                b.add_uniform_variable(&[0, leaf], 2);
            }
            b.build().unwrap()
        };
        let ring16 = edge(&inst2, 5, 1);
        assert_eq!(ring16.colors().len(), star.dependency_graph().num_edges());
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let err = run(&star, &ring16, &Sweep::default(), &mut rec, &mut NullTiming).unwrap_err();
        assert!(
            matches!(err, DistError::ScheduleConflict { event: 0, .. }),
            "{err}"
        );
        assert!(rec.finish().unwrap().is_empty(), "nothing recorded");
        // An edge schedule selects the rank-2 sweep, which refuses a
        // rank-3 instance with a typed error.
        assert!(matches!(
            solve(&inst3, &edge(&inst3, 7, 1), &Sweep::default()),
            Err(DistError::Fixer(FixerError::RankTooLarge {
                found: 3,
                supported: 2
            }))
        ));
        // The rank-specific shims reject the other kind, even when its
        // slot count fits (a ring has as many edges as nodes).
        let (edge16, d2_16) = (edge(&inst2, 5, 1), distance2(&inst2, 5, 1));
        assert_eq!(edge16.colors().len(), d2_16.colors().len());
        let (enforce, null, p) = (CriterionCheck::Enforce, &mut NullRecorder, 0.5);
        let cursor = ResumeCursor::default();
        let mismatch = |r: Result<DistReport, DistError>| {
            assert!(
                matches!(r, Err(DistError::ScheduleMismatch { .. })),
                "{r:?}"
            );
        };
        mismatch(distributed_fixer2_scheduled_traced(
            &inst2,
            &d2_16,
            enforce,
            1,
            null,
            &mut NullTiming,
        ));
        mismatch(distributed_fixer3_scheduled_traced(
            &inst2,
            &edge16,
            enforce,
            1,
            null,
            &mut NullTiming,
        ));
        mismatch(distributed_fixer2_scheduled_resumed_audited(
            &inst2, &d2_16, enforce, 1, &p, &0.0, &cursor, null,
        ));
        mismatch(distributed_fixer3_scheduled_resumed_audited(
            &inst2, &edge16, enforce, 1, &p, &0.0, &cursor, null,
        ));
    }
}
