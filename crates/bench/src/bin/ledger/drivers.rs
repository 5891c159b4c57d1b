//! The four driver workloads (`audited-r2`, `audited-r3`, `dense-d8`,
//! `scale-r2`) and the layer decomposition of one driver solve, which
//! `serve-mix` reuses for its standing request shapes.

use std::sync::OnceLock;
use std::time::Instant;

use lll_bench::workloads::{
    random_rank2_instance, random_rank2_instance_in, random_rank3_instance,
    random_rank3_instance_in,
};
use lll_core::dist::{self, CriterionCheck, DistError, DistReport, ResumeCursor, Schedule};
use lll_core::{
    audit_p_star, FixReport, Fixer2, Fixer3, FixerError, Instance, PartialAssignment, Phi,
};
use lll_graphs::gen::{hyper_ring, random_3_uniform, ring};
use lll_local::gauges::{record_slab, slab_snapshot, SlabStats};
use lll_numeric::{BigRational, Num};
use lll_obs::{JsonlRecorder, NullRecorder, Recorder};

use crate::calib::Calibration;
use crate::stats::{mean, median, quantile, Samples};
use crate::trace::{ClassSink, Tracer};
use crate::{alloc, derive_seed, ms_since, Checks, Opts, RunResult};

/// Simulator and sweep workers of every driver solve. `threads ≤ 1`
/// would silently select the sequential reference engine instead of the
/// production slab engine, and the host has two cores.
pub const THREADS: usize = 2;

/// The schedule-coloring seed of every driver solve (the E2/E6 drivers'
/// seed). It is fixed, so `local_rounds` depends only on the topologies.
pub const SCHEDULE_SEED: u64 = 5;

/// How a workload's solves run.
pub struct Plan<T> {
    /// Audit `P*` after every color class (exact arithmetic).
    pub audited: bool,
    /// Tolerance of every `P*` check (zero for exact arithmetic).
    pub tol: T,
    /// Simulator and sweep workers.
    pub threads: usize,
}

/// One input instance.
pub struct Case<T> {
    pub inst: Instance<T>,
    p: OnceLock<T>,
}

impl<T: Num> Case<T> {
    /// Builds the instance, timing the build — the per-instance set-up
    /// cost.
    pub fn build(make: impl FnOnce() -> Instance<T>) -> (Case<T>, f64) {
        let t = Instant::now();
        let inst = make();
        let ms = ms_since(t);
        let p = OnceLock::new();
        (Case { inst, p }, ms)
    }

    /// The symmetric bound `p` the audits check against, computed on
    /// first use (unaudited untraced runs never need it).
    fn p(&self) -> &T {
        self.p.get_or_init(|| self.inst.max_event_probability())
    }

    fn rank2(&self) -> bool {
        self.inst.max_rank() <= 2
    }
}

/// What a successful solve produced: compared across thread counts,
/// repeated solves, and the traced composition.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub assignment: Vec<usize>,
    pub rounds: usize,
}

/// The untraced solve: one call of the self-scheduling driver.
pub fn solve<T: Num>(plan: &Plan<T>, c: &Case<T>, threads: usize) -> Result<DistReport, DistError> {
    let (inst, check, seed) = (&c.inst, CriterionCheck::Enforce, SCHEDULE_SEED);
    match (c.rank2(), plan.audited) {
        (true, true) => {
            dist::distributed_fixer2_audited(inst, seed, check, threads, c.p(), &plan.tol)
        }
        (true, false) => dist::distributed_fixer2_parallel(inst, seed, check, threads),
        (false, true) => {
            dist::distributed_fixer3_audited(inst, seed, check, threads, c.p(), &plan.tol)
        }
        (false, false) => dist::distributed_fixer3_parallel(inst, seed, check, threads),
    }
}

/// The outcome of a solve that succeeded; `None` for a driver error (a
/// failed audit verdict included) or a violated event.
pub fn outcome(r: &Result<DistReport, DistError>) -> Option<Outcome> {
    match r {
        Ok(rep) if rep.fix.is_success() => Some(Outcome {
            assignment: rep.fix.assignment().to_vec(),
            rounds: rep.rounds,
        }),
        _ => None,
    }
}

fn agrees(rep: &DistReport, reference: Option<&Outcome>) -> bool {
    reference.is_some_and(|o| {
        rep.fix.is_success() && rep.rounds == o.rounds && rep.fix.assignment() == o.assignment
    })
}

fn same(r: &Result<DistReport, DistError>, reference: Option<&Outcome>) -> bool {
    r.as_ref().is_ok_and(|rep| agrees(rep, reference))
}

/// The first solve of every case, asserted identical (assignment and
/// rounds) at `plan.threads` and at one thread before any timing.
pub fn references<T: Num>(
    plan: &Plan<T>,
    cases: &[Case<T>],
    checks: &mut Checks,
) -> Vec<Option<Outcome>> {
    cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let a = outcome(&solve(plan, c, plan.threads));
            let b = outcome(&solve(plan, c, 1));
            checks.attempt(a.is_some() && a == b, || {
                format!(
                    "instance {i}: failed, or threads={} and threads=1 disagree",
                    plan.threads
                )
            });
            a
        })
        .collect()
}

/// The untraced timed loop: interleaved passes over every case until
/// `seconds` have elapsed (at least one pass). Every solve is checked
/// against its reference outcome and bracketed by calibration samples.
/// Returns the solve times in quiet-reference-host ms, pass by pass.
fn timed_loop<T: Num>(
    plan: &Plan<T>,
    cases: &[Case<T>],
    refs: &[Option<Outcome>],
    seconds: f64,
    cal: &mut Calibration,
    checks: &mut Checks,
) -> Vec<f64> {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        for (i, (c, r)) in cases.iter().zip(refs).enumerate() {
            let t = Instant::now();
            let res = solve(plan, c, plan.threads);
            times.push(cal.normalize(ms_since(t)));
            checks.attempt(same(&res, r.as_ref()), || {
                format!("instance {i}: wrong outcome")
            });
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    times
}

/// Runs a driver workload: builds `count` instances (seeds derived from
/// the run seed), checks the reference solves, then either times
/// untraced solves or decomposes traced ones. `kernel_threads` is how
/// many threads a solve keeps busy, for the calibration kernel.
fn run_driver<T: Num>(
    plan: &Plan<T>,
    count: usize,
    kernel_threads: usize,
    tag: u64,
    make: impl Fn(u64) -> Instance<T>,
    opts: &Opts,
) -> RunResult {
    let mut out = RunResult::default();
    // Building is sequential: its calibration kernel runs on one thread.
    let mut build_cal = Calibration::new(1);
    let (mut cases, mut build_ms, mut build_norm) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..count as u64 {
        let (case, ms) = Case::build(|| make(derive_seed(opts.seed, tag, i)));
        cases.push(case);
        build_ms.push(ms);
        build_norm.push(build_cal.normalize(ms));
    }
    let refs = references(plan, &cases, &mut out.checks);
    if opts.traced {
        let mut tr = Tracer::new();
        let mut s = Samples::default();
        for &b in &build_ms {
            s.push("build_ms", b);
        }
        let start = Instant::now();
        let mut first = true;
        while first || start.elapsed().as_secs_f64() < opts.seconds {
            for (c, r) in cases.iter().zip(&refs) {
                trace_case(plan, c, r.as_ref(), first, &mut tr, &mut s, &mut out.checks);
            }
            first = false;
        }
        layer_metrics(&s, &mut out);
        out.tracer = Some(tr);
    } else {
        let mut cal = Calibration::new(kernel_threads);
        let times = timed_loop(plan, &cases, &refs, opts.seconds, &mut cal, &mut out.checks);
        let rounds: Vec<f64> = refs.iter().flatten().map(|o| o.rounds as f64).collect();
        out.metric("setup_s", count as f64 * median(&build_norm) / 1e3);
        out.metric("solve_ms_p50", median(&times));
        // Throughput per pass (every pass solves each case once), and its
        // median over passes: one pass through a host hiccup does not
        // move it.
        let per_pass: Vec<f64> = times
            .chunks(cases.len())
            .map(|pass| pass.len() as f64 / pass.iter().sum::<f64>() * 1e3)
            .collect();
        out.metric("solves_per_s", median(&per_pass));
        out.metric(
            "local_rounds",
            if rounds.is_empty() {
                0.0
            } else {
                mean(&rounds)
            },
        );
        out.metric("diag.solve_ms_p90", quantile(&times, 0.9));
        out.metric("diag.samples", times.len() as f64);
        out.metric("diag.host_factor", cal.factor());
    }
    out
}

/// Runs the named driver workload; `None` for another name.
pub fn run(name: &str, tag: u64, opts: &Opts) -> Option<RunResult> {
    let size = |full: usize, smoke: usize| if opts.smoke { smoke } else { full };
    let exact = Plan {
        audited: true,
        tol: BigRational::zero(),
        threads: THREADS,
    };
    let fast = Plan {
        audited: false,
        tol: 1e-9,
        threads: THREADS,
    };
    Some(match name {
        "audited-r2" => {
            let g = ring(size(2048, 32));
            let make = |s| random_rank2_instance_in(&g, 16, 0.9, s);
            run_driver(&exact, size(25, 2), 2, tag, make, opts)
        }
        "audited-r3" => {
            let h = hyper_ring(size(384, 24));
            let make = |s| random_rank3_instance_in(&h, 16, 0.9, s);
            run_driver(&exact, size(25, 2), 2, tag, make, opts)
        }
        "dense-d8" => {
            let n = size(600, 30);
            let make = |s: u64| {
                let h = random_3_uniform(n, 4, s).expect("4-regular 3-uniform hypergraph");
                random_rank3_instance(&h, 8, 0.9, s.rotate_left(32))
            };
            run_driver(&fast, size(6, 2), 2, tag, make, opts)
        }
        "scale-r2" => {
            // The sequential criterion check is most of a solve here, so
            // the calibration kernel runs on one thread.
            let g = ring(size(16384, 256));
            let make = |s| random_rank2_instance(&g, 8, 0.9, s);
            run_driver(&fast, size(4, 2), 1, tag, make, opts)
        }
        _ => return None,
    })
}

/// The step-by-step fixer interface the replay drives.
trait StepFixer<T> {
    fn fix(&mut self, x: usize) -> Result<usize, FixerError>;
    fn state(&self) -> (&PartialAssignment, &Phi<T>);
}

impl<T: Num> StepFixer<T> for Fixer2<'_, T> {
    fn fix(&mut self, x: usize) -> Result<usize, FixerError> {
        self.fix_variable(x)
    }
    fn state(&self) -> (&PartialAssignment, &Phi<T>) {
        (self.partial(), self.phi())
    }
}

impl<T: Num> StepFixer<T> for Fixer3<'_, T> {
    fn fix(&mut self, x: usize) -> Result<usize, FixerError> {
        self.fix_variable(x)
    }
    fn state(&self) -> (&PartialAssignment, &Phi<T>) {
        (self.partial(), self.phi())
    }
}

/// Replays a solve's steps one `fix_variable` call at a time, timing
/// each and checking it picks the recorded value; then audits `P*` on
/// the final state. Returns whether every step agreed and the audit held.
fn replay_and_audit<T: Num, F: StepFixer<T>>(
    mut fixer: F,
    plan: &Plan<T>,
    c: &Case<T>,
    fix: &FixReport,
    tr: &mut Tracer,
    s: &mut Samples,
) -> Result<bool, FixerError> {
    let (agree, _) = tr.span("fixer.replay", None, |_, _| {
        let mut agree = true;
        for step in fix.steps() {
            let t = Instant::now();
            let value = fixer.fix(step.variable)?;
            s.push("step_us", ms_since(t) * 1e3);
            agree &= value == step.value;
        }
        Ok::<bool, FixerError>(agree)
    });
    let (partial, phi) = fixer.state();
    let (holds, id) = tr.span("audit.full_scan", None, |_, _| {
        audit_p_star(&c.inst, partial, phi, c.p(), &plan.tol).holds()
    });
    s.push("full_scan_ms", tr.get(id).ms());
    Ok(agree? && holds)
}

/// The unaudited scheduled sweep with the bench's class-span sink.
fn traced_sweep<T: Num, R: Recorder>(
    plan: &Plan<T>,
    c: &Case<T>,
    schedule: &Schedule,
    rec: &mut R,
    tr: &mut Tracer,
    parent: usize,
) -> Result<DistReport, DistError> {
    let mut sink = ClassSink { tracer: tr, parent };
    let (inst, skip) = (&c.inst, CriterionCheck::Skip);
    if c.rank2() {
        dist::distributed_fixer2_scheduled_traced(
            inst,
            schedule,
            skip,
            plan.threads,
            rec,
            &mut sink,
        )
    } else {
        dist::distributed_fixer3_scheduled_traced(
            inst,
            schedule,
            skip,
            plan.threads,
            rec,
            &mut sink,
        )
    }
}

/// The audited scheduled sweep, entered through the resumed driver with
/// an empty cursor (the one audited entry point that takes a schedule).
fn audited_sweep<T: Num>(
    plan: &Plan<T>,
    c: &Case<T>,
    schedule: &Schedule,
) -> Result<DistReport, DistError> {
    let cursor = ResumeCursor::new(&[], 0, false);
    let (inst, skip, rec) = (&c.inst, CriterionCheck::Skip, &mut NullRecorder);
    if c.rank2() {
        dist::distributed_fixer2_scheduled_resumed_audited(
            inst,
            schedule,
            skip,
            plan.threads,
            c.p(),
            &plan.tol,
            &cursor,
            rec,
        )
    } else {
        dist::distributed_fixer3_scheduled_resumed_audited(
            inst,
            schedule,
            skip,
            plan.threads,
            c.p(),
            &plan.tol,
            &cursor,
            rec,
        )
    }
}

/// Class spans directly under `parent`: `(count, max ms, mean ms)`.
fn class_stats(tr: &Tracer, parent: usize) -> (usize, f64, f64) {
    let classes: Vec<f64> = tr.spans()[parent..]
        .iter()
        .filter(|sp| sp.parent == Some(parent) && sp.name == "sweep.class")
        .map(|sp| sp.ms())
        .collect();
    if classes.is_empty() {
        return (0, 0.0, 0.0);
    }
    let max = classes.iter().copied().fold(0.0, f64::max);
    (classes.len(), max, mean(&classes))
}

/// One traced iteration over one case: an untraced solve, the same solve
/// composed from public layer calls inside spans (asserted equal to
/// `reference`), an untraced solve again (the overhead baseline: like the
/// composition, it directly follows a solve of the same case, so both
/// find the caches equally warm), and the diagnostic calls that
/// split the sweep, the recorder, single fixing steps and the audits.
/// Work counters are taken from an instance's `first` traced solve.
pub fn trace_case<T: Num>(
    plan: &Plan<T>,
    c: &Case<T>,
    reference: Option<&Outcome>,
    first: bool,
    tr: &mut Tracer,
    s: &mut Samples,
    checks: &mut Checks,
) {
    let mut untraced = || {
        let t = Instant::now();
        let r = solve(plan, c, plan.threads);
        checks.attempt(same(&r, reference), || {
            "untraced solve: wrong outcome".into()
        });
        ms_since(t)
    };
    untraced();

    let g = c.inst.dependency_graph();
    tr.begin_solve();
    // No tracer allocation may land inside the counted window: room for
    // every class span a solve can push is reserved up front.
    tr.reserve(4096);
    record_slab(SlabStats::default());
    let (a0, n0) = (alloc::snapshot(), lll_numeric::tier_counters());
    let mut parts = (0.0, 0.0, 0.0);
    let (composed, root) = tr.span("solve", None, |tr, root| {
        let (criterion, id) = tr.span("instance.criterion", Some(root), |_, _| {
            c.inst.satisfies_exponential_criterion()
        });
        parts.0 = tr.get(id).ms();
        let (schedule, id) = tr.span("coloring", Some(root), |_, _| {
            if c.rank2() {
                Schedule::edge(g, SCHEDULE_SEED, plan.threads)
            } else {
                Schedule::distance2(g, SCHEDULE_SEED, plan.threads)
            }
        });
        parts.1 = tr.get(id).ms();
        let schedule = schedule.map_err(DistError::Sim)?;
        let name = if plan.audited { "sweep+audit" } else { "sweep" };
        let (report, id) = tr.span(name, Some(root), |tr, id| {
            if plan.audited {
                audited_sweep(plan, c, &schedule)
            } else {
                traced_sweep(plan, c, &schedule, &mut NullRecorder, tr, id)
            }
        });
        parts.2 = tr.get(id).ms();
        report.map(|r| (criterion, schedule, r, id))
    });
    let (allocs, tiers) = (alloc::snapshot().since(a0), lll_numeric::tier_counters());
    let slab = slab_snapshot().slab_bytes;
    s.push("untraced_ms", untraced());
    let Ok((criterion, schedule, report, sweep_child)) = composed else {
        checks.attempt(false, || "traced composition failed".into());
        return;
    };
    checks.attempt(criterion && agrees(&report, reference), || {
        "traced composition differs from the untraced solve".into()
    });
    let solve_ms = tr.get(root).ms();
    s.push("solve_ms", solve_ms);
    s.push("criterion_ms", parts.0);
    s.push("coloring_ms", parts.1);
    s.push("root_children_ms", parts.0 + parts.1 + parts.2);

    // The unaudited sweep (for audited workloads a separate call; the
    // difference to the audited one is the audit's share of the solve).
    let sweep_id = if plan.audited {
        let (r, id) = tr.span("sweep", None, |tr, id| {
            traced_sweep(plan, c, &schedule, &mut NullRecorder, tr, id)
        });
        checks.attempt(same(&r, reference), || "unaudited sweep differs".into());
        s.push("audit_ms", parts.2 - tr.get(id).ms());
        id
    } else {
        sweep_child
    };
    let sweep_ms = tr.get(sweep_id).ms();
    s.push("sweep_ms", sweep_ms);
    let (classes, class_max, class_mean) = class_stats(tr, sweep_id);
    s.push("class_max_ms", class_max);
    s.push(
        "imbalance",
        if class_mean > 0.0 {
            class_max / class_mean
        } else {
            0.0
        },
    );

    // The same sweep teed into an in-memory JSONL flight recorder.
    let mut rec = JsonlRecorder::new(Vec::new());
    let (r, id) = tr.span("obs.jsonl", None, |tr, id| {
        traced_sweep(plan, c, &schedule, &mut rec, tr, id)
    });
    checks.attempt(same(&r, reference), || "recorded sweep differs".into());
    s.push("record_ms", tr.get(id).ms() - sweep_ms);
    let events = rec.lines();
    let bytes = rec.finish().map_or(0, |w| w.len());

    let replayed = if c.rank2() {
        Fixer2::new_unchecked(&c.inst)
            .and_then(|f| replay_and_audit(f, plan, c, &report.fix, tr, s))
    } else {
        Fixer3::new_unchecked(&c.inst)
            .and_then(|f| replay_and_audit(f, plan, c, &report.fix, tr, s))
    };
    match replayed {
        Ok(ok) => checks.attempt(ok, || "step replay or final P* audit failed".into()),
        Err(e) => checks.attempt(false, || format!("step replay failed: {e}")),
    }

    let empty = PartialAssignment::new(c.inst.num_variables());
    let (_, id) = tr.span("instance.prob_scan", None, |_, _| {
        (0..c.inst.num_events())
            .map(|v| c.inst.probability(v, &empty))
            .fold(T::zero(), |a, b| a + b)
    });
    s.push(
        "prob_us",
        tr.get(id).ms() * 1e3 / c.inst.num_events().max(1) as f64,
    );

    if first {
        s.push("coloring_rounds", schedule.coloring_rounds() as f64);
        s.push("palette", schedule.palette() as f64);
        s.push("classes", classes as f64);
        s.push("steps", report.fix.num_steps() as f64);
        s.push("promotes", (tiers.promote - n0.promote) as f64);
        s.push("demotes", (tiers.demote - n0.demote) as f64);
        s.push("alloc_count", allocs.count as f64);
        s.push("alloc_bytes", allocs.bytes as f64);
        s.push("slab_bytes", slab as f64);
        s.push("obs_events", events as f64);
        s.push("obs_bytes", bytes as f64);
    }
}

/// The per-layer metrics from the samples `trace_case` collected.
pub fn layer_metrics(s: &Samples, out: &mut RunResult) {
    let solve = s.sum("solve_ms");
    let share = |name: &str| {
        if solve > 0.0 {
            s.sum(name) / solve
        } else {
            0.0
        }
    };
    out.metric("instance.criterion_ms", s.median("criterion_ms"));
    out.metric("instance.criterion_share", share("criterion_ms"));
    out.metric("instance.prob_us", s.median("prob_us"));
    out.metric("instance.build_ms", s.median("build_ms"));
    out.metric("coloring.ms", s.median("coloring_ms"));
    out.metric("coloring.share", share("coloring_ms"));
    out.metric("coloring.rounds", s.mean("coloring_rounds"));
    out.metric("coloring.palette", s.mean("palette"));
    out.metric("sweep.ms", s.median("sweep_ms"));
    out.metric("sweep.share", share("sweep_ms"));
    out.metric("sweep.class_ms_max", s.median("class_max_ms"));
    out.metric("sweep.imbalance", s.median("imbalance"));
    out.metric("sweep.classes", s.mean("classes"));
    out.metric("sweep.steps", s.mean("steps"));
    out.metric("fixer.step_us_p50", s.quantile("step_us", 0.5));
    out.metric("fixer.step_us_p90", s.quantile("step_us", 0.9));
    if !s.get("audit_ms").is_empty() {
        out.metric("audit.ms", s.median("audit_ms"));
        out.metric("audit.share", share("audit_ms"));
    }
    out.metric("audit.full_scan_ms", s.median("full_scan_ms"));
    out.metric("numeric.promotes", s.mean("promotes"));
    out.metric("numeric.demotes", s.mean("demotes"));
    out.metric("alloc.count", s.mean("alloc_count"));
    out.metric("alloc.bytes", s.mean("alloc_bytes"));
    out.metric("local.slab_bytes", s.mean("slab_bytes"));
    out.metric("obs.events", s.mean("obs_events"));
    out.metric("obs.bytes", s.mean("obs_bytes"));
    out.metric("obs.record_ms", s.median("record_ms"));
    out.metric("trace.solve_ms_p50", s.median("solve_ms"));
    out.metric(
        "trace.overhead_ms",
        s.median("solve_ms") - s.median("untraced_ms"),
    );
    out.metric("trace.unattributed_share", 1.0 - share("root_children_ms"));
}
