//! The experiment suite (ids E1–E10, A1–A2; see `DESIGN.md` §4).
//!
//! Each function runs one experiment and returns typed rows; the
//! `tables` binary renders them into the tables recorded in
//! `EXPERIMENTS.md`.

use std::time::Instant;

use lll_apps::hyper_orientation::{
    heads_from_assignment, hyper_orientation_instance, is_valid_orientation,
};
use lll_apps::sat::{ring_formula, solve};
use lll_apps::sinkless::{
    expected_sinks, is_sinkless, orientation_from_assignment, sinkless_orientation_instance,
};
use lll_apps::weak_splitting::{is_weak_splitting, weak_splitting_instance};
use lll_core::dist::{
    self, distributed_fg, CriterionCheck, DistReport, ResumeCursor, Schedule, ScheduleKind, Sweep,
};
use lll_core::fg_criterion;
use lll_core::orders::{run_fixer2_adaptive_worst, run_fixer3_adaptive_worst, StaticOrder};
use lll_core::triples::{decompose, f_surface, is_representable, max_c_brute};
use lll_core::{audit_p_star, Fixer2, Fixer3, Instance, ValueRule};
use lll_graphs::gen::{
    hyper_ring, random_3_uniform, random_bipartite_biregular, random_regular, ring, torus,
};
use lll_local::log_star;
use lll_mt::dist::distributed_mt;
use lll_mt::{parallel_mt, sequential_mt, Selection};
use lll_numeric::{BigRational, Num};
use lll_obs::{NullRecorder, NullTiming, Recorder};

use crate::workloads::{random_rank2_instance, random_rank3_instance, shuffled_order};

/// E1 — Theorem 1.1: the rank-2 fixer succeeds on every instance below
/// the threshold, under adversarial (shuffled) orders.
#[derive(Debug, Clone)]
pub struct SuccessRow {
    /// Topology label.
    pub topology: String,
    /// Number of events.
    pub n: usize,
    /// Criterion tightness target `p·2^d`.
    pub tightness: f64,
    /// Measured criterion value of the generated instance.
    pub criterion: f64,
    /// Trials run (distinct instance seeds × distinct orders).
    pub trials: usize,
    /// Trials in which no bad event occurred.
    pub successes: usize,
}

/// Runs experiment E1. `trials` instances/orders per row.
pub fn e1_fixer2_success(trials: usize) -> Vec<SuccessRow> {
    let mut rows = Vec::new();
    // k chosen so the bad-set granularity 2^d/k^deg is fine enough to
    // hit the tightness targets (see `workloads`).
    let topologies: Vec<(String, lll_graphs::Graph, usize)> = vec![
        ("ring".into(), ring(64), 8),
        ("torus-8x8".into(), torus(8, 8), 4),
        (
            "4-regular".into(),
            random_regular(64, 4, 42).expect("feasible parameters"),
            4,
        ),
    ];
    for (name, g, k) in &topologies {
        for &t in &[0.5, 0.9, 0.99] {
            let mut successes = 0;
            let mut criterion = 0.0f64;
            for trial in 0..trials {
                let inst = random_rank2_instance(g, *k, t, 1000 + trial as u64);
                criterion = inst.criterion_value();
                let order = shuffled_order(inst.num_variables(), 2000 + trial as u64);
                let report = Fixer2::new(&inst)
                    .expect("below threshold")
                    .run(order)
                    .expect("finite costs below the threshold");
                if report.is_success() {
                    successes += 1;
                }
            }
            rows.push(SuccessRow {
                topology: name.clone(),
                n: g.num_nodes(),
                tightness: t,
                criterion,
                trials,
                successes,
            });
        }
    }
    rows
}

/// E5 — Theorem 1.3: same for the rank-3 fixer on hypergraph workloads.
pub fn e5_fixer3_success(trials: usize) -> Vec<SuccessRow> {
    let mut rows = Vec::new();
    let hypergraphs: Vec<(String, lll_graphs::Hypergraph)> = vec![
        ("hyper-ring".into(), hyper_ring(48)),
        (
            "random-3-uniform".into(),
            random_3_uniform(48, 3, 42).expect("feasible parameters"),
        ),
    ];
    for (name, h) in &hypergraphs {
        for &t in &[0.5, 0.9, 0.99] {
            let mut successes = 0;
            let mut criterion = 0.0f64;
            for trial in 0..trials {
                let inst = random_rank3_instance(h, 8, t, 3000 + trial as u64);
                criterion = inst.criterion_value();
                let order = shuffled_order(inst.num_variables(), 4000 + trial as u64);
                let report = Fixer3::new(&inst)
                    .expect("below threshold")
                    .run(order)
                    .expect("finite costs below the threshold");
                if report.is_success() {
                    successes += 1;
                }
            }
            rows.push(SuccessRow {
                topology: name.clone(),
                n: h.num_nodes(),
                tightness: t,
                criterion,
                trials,
                successes,
            });
        }
    }
    rows
}

/// E2/E6 — Corollaries 1.2/1.4: LOCAL rounds of the deterministic
/// distributed fixers vs the parallel Moser–Tardos baseline, as `n`
/// grows with `d` fixed. The deterministic series must stay flat
/// (`const + log* n`); MT grows with `log n`.
#[derive(Debug, Clone)]
pub struct RoundsRow {
    /// Number of events.
    pub n: usize,
    /// `log* n` for reference.
    pub log_star_n: u32,
    /// Deterministic distributed fixer: total LOCAL rounds.
    pub det_rounds: usize,
    /// ... of which coloring rounds.
    pub det_coloring_rounds: usize,
    /// Parallel Moser–Tardos: LOCAL rounds (MT rounds × 3).
    pub mt_local_rounds: usize,
}

/// Runs experiment E2 (rank 2, rings, `d = 2`) with the coloring
/// simulation on `threads` worker threads (the measured rounds are
/// thread-count independent).
pub fn e2_rounds_rank2(sizes: &[usize], threads: usize) -> Vec<RoundsRow> {
    sizes
        .iter()
        .map(|&n| {
            let g = ring(n);
            let inst = random_rank2_instance(&g, 8, 0.9, 7);
            let det = solve_seeded(&inst, ScheduleKind::Edge, 5, &workers(threads));
            assert!(det.fix.is_success());
            let mt = parallel_mt(&inst, 5, 1_000_000, Selection::IdMinima)
                .expect("classic criterion regime");
            RoundsRow {
                n,
                log_star_n: log_star(n as u64),
                det_rounds: det.rounds,
                det_coloring_rounds: det.coloring_rounds,
                mt_local_rounds: mt.local_rounds(),
            }
        })
        .collect()
}

/// Runs experiment E6 (rank 3, hyper-rings, dependency degree 4) with
/// the coloring simulation on `threads` worker threads.
pub fn e6_rounds_rank3(sizes: &[usize], threads: usize) -> Vec<RoundsRow> {
    sizes
        .iter()
        .map(|&n| {
            let h = hyper_ring(n);
            let inst = random_rank3_instance(&h, 8, 0.9, 7);
            let det = solve_seeded(&inst, ScheduleKind::Distance2, 5, &workers(threads));
            assert!(det.fix.is_success());
            let mt = parallel_mt(&inst, 5, 1_000_000, Selection::IdMinima)
                .expect("classic criterion regime");
            RoundsRow {
                n,
                log_star_n: log_star(n as u64),
                det_rounds: det.rounds,
                det_coloring_rounds: det.coloring_rounds,
                mt_local_rounds: mt.local_rounds(),
            }
        })
        .collect()
}

/// E3 — Figure 1: the surface `f(a, b)` bounding `S_rep`, validated
/// against brute-force maximisation.
#[derive(Debug, Clone)]
pub struct SurfaceRow {
    /// Coordinate `a`.
    pub a: f64,
    /// Coordinate `b`.
    pub b: f64,
    /// Closed-form `f(a, b)`.
    pub f: f64,
    /// Brute-force inner maximisation of `c`.
    pub brute: f64,
}

/// Runs experiment E3 on a `step`-spaced grid; returns rows plus the
/// maximum absolute deviation.
pub fn e3_surface(step: f64) -> (Vec<SurfaceRow>, f64) {
    let mut rows = Vec::new();
    let mut max_dev = 0.0f64;
    let mut a = 0.0f64;
    while a <= 4.0 + 1e-9 {
        let mut b = 0.0f64;
        while a + b <= 4.0 + 1e-9 {
            let f = f_surface(a.min(4.0), b.min(4.0 - a).max(0.0));
            let brute = max_c_brute(a, b, 4000);
            max_dev = max_dev.max((f - brute).abs());
            rows.push(SurfaceRow { a, b, f, brute });
            b += step;
        }
        a += step;
    }
    (rows, max_dev)
}

/// E4 — Figure 2: exact decomposition of the paper's example triple
/// `(1/4, 3/2, 1/10)`; returns the six values as exact rationals
/// (rendered) and whether all constraints verify exactly.
pub fn e4_figure2() -> (Vec<(String, String)>, bool) {
    let (a, b, c) = (
        BigRational::from_ratio(1, 4),
        BigRational::from_ratio(3, 2),
        BigRational::from_ratio(1, 10),
    );
    let d = decompose(&a, &b, &c).expect("the paper's example triple is representable");
    let ok = d.covers(&a, &b, &c, &BigRational::zero())
        && d.a1.clone() * d.a2.clone() == a
        && d.b1.clone() * d.b3.clone() == b
        && d.c2.clone() * d.c3.clone() == c;
    let vals = vec![
        ("a1".to_owned(), d.a1.to_string()),
        ("a2".to_owned(), d.a2.to_string()),
        ("b1".to_owned(), d.b1.to_string()),
        ("b3".to_owned(), d.b3.to_string()),
        ("c2".to_owned(), d.c2.to_string()),
        ("c3".to_owned(), d.c3.to_string()),
    ];
    (vals, ok)
}

/// E7 — the sharp threshold: greedy-fixer success probability as the
/// criterion tightness sweeps across 1.0.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Criterion tightness target `p·2^d`.
    pub tightness: f64,
    /// Trials run.
    pub trials: usize,
    /// Rank-2 greedy successes.
    pub successes_r2: usize,
    /// Rank-3 greedy successes.
    pub successes_r3: usize,
    /// Rank-3 trials in which the `P*` invariant survived.
    pub invariant_intact_r3: usize,
}

/// Runs experiment E7. Both instance families have `d = 4`, so the
/// sweep endpoint `t = 2^d = 16` makes some events *certain* — success
/// is then impossible for any algorithm, bracketing the transition.
pub fn e7_threshold_sweep(trials: usize) -> Vec<ThresholdRow> {
    let g = torus(6, 6);
    let h = hyper_ring(36);
    [
        0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 6.0, 10.0, 16.0,
    ]
    .iter()
    .map(|&t| {
        let mut s2 = 0;
        let mut s3 = 0;
        let mut intact = 0;
        for trial in 0..trials {
            let seed = 9000 + trial as u64;
            let i2 = random_rank2_instance(&g, 4, t, seed);
            let order2 = shuffled_order(i2.num_variables(), seed ^ 0xabc);
            // Above the threshold a non-finite f64 cost counts as a
            // failed run (the exact backend never produces one).
            if Fixer2::new_unchecked(&i2)
                .expect("rank 2")
                .run(order2)
                .is_ok_and(|r| r.is_success())
            {
                s2 += 1;
            }
            let i3 = random_rank3_instance(&h, 8, t, seed);
            let order3 = shuffled_order(i3.num_variables(), seed ^ 0xdef);
            let mut f3 = Fixer3::new_unchecked(&i3).expect("rank 3");
            let mut finite = true;
            for x in order3 {
                if f3.fix_variable(x).is_err() {
                    finite = false;
                    break;
                }
            }
            if finite && f3.invariant_intact() {
                intact += 1;
            }
            if finite && f3.into_report().is_success() {
                s3 += 1;
            }
        }
        ThresholdRow {
            tightness: t,
            trials,
            successes_r2: s2,
            successes_r3: s3,
            invariant_intact_r3: intact,
        }
    })
    .collect()
}

/// E8 — applications end-to-end.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// Application label.
    pub app: String,
    /// Problem size (events).
    pub n: usize,
    /// Measured criterion value `p·2^d`.
    pub criterion: f64,
    /// Whether the deterministic pipeline produced a verified solution.
    pub solved: bool,
    /// LOCAL rounds of the distributed run (0 = sequential only).
    pub rounds: usize,
}

/// Runs experiment E8.
pub fn e8_applications() -> Vec<AppRow> {
    let mut rows = Vec::new();

    // Hypergraph sinkless orientation on a hyper-ring and a random
    // 3-uniform hypergraph.
    for (label, h) in [
        ("hyper-orientation/ring".to_owned(), hyper_ring(48)),
        (
            "hyper-orientation/random".to_owned(),
            random_3_uniform(48, 3, 11).expect("feasible parameters"),
        ),
    ] {
        let inst = hyper_orientation_instance::<f64>(&h).expect("valid hypergraph");
        let criterion = inst.criterion_value();
        let rep = solve_seeded(&inst, ScheduleKind::Distance2, 3, &Sweep::default());
        let heads = heads_from_assignment(&h, rep.fix.assignment());
        rows.push(AppRow {
            app: label,
            n: h.num_nodes(),
            criterion,
            solved: rep.fix.is_success() && is_valid_orientation(&h, &heads),
            rounds: rep.rounds,
        });
    }

    // Weak splitting (r = 3, 16 colors, see >= 2).
    let bip = random_bipartite_biregular(48, 3, 48, 3, 5).expect("feasible parameters");
    let inst = weak_splitting_instance::<f64>(&bip, 48, 16).expect("valid bipartite input");
    let criterion = inst.criterion_value();
    let rep = solve_seeded(&inst, ScheduleKind::Distance2, 3, &Sweep::default());
    rows.push(AppRow {
        app: "weak-splitting/16-colors".to_owned(),
        n: 48,
        criterion,
        solved: rep.fix.is_success() && is_weak_splitting(&bip, 48, rep.fix.assignment(), 2),
        rounds: rep.rounds,
    });

    // Bounded-intersection SAT.
    let cnf = ring_formula(48, 5, 13);
    let inst = cnf.to_instance::<f64>().expect("well-formed formula");
    let criterion = inst.criterion_value();
    let assignment = solve(&cnf).expect("inside the regime");
    rows.push(AppRow {
        app: "sat/ring-w5".to_owned(),
        n: cnf.clauses().len(),
        criterion,
        solved: cnf.is_satisfied(&assignment),
        rounds: 0,
    });

    rows
}

/// E9 — the boundary witness: sinkless orientation sits exactly at
/// `p·2^d = 1`; deterministic fixers refuse, randomness must pay.
#[derive(Debug, Clone)]
pub struct BoundaryRow {
    /// Number of nodes of the 4-regular graph.
    pub n: usize,
    /// Criterion value (exactly 1 on regular graphs).
    pub criterion: f64,
    /// Whether `Fixer2::new` refused the instance.
    pub fixer_refused: bool,
    /// Expected sinks of a uniformly random orientation (`n/16`).
    pub expected_random_sinks: f64,
    /// Parallel MT rounds needed (randomized upper side).
    pub mt_rounds: usize,
    /// Whether MT's final orientation verified sinkless.
    pub mt_solved: bool,
}

/// Runs experiment E9 across sizes.
pub fn e9_boundary(sizes: &[usize]) -> Vec<BoundaryRow> {
    sizes
        .iter()
        .map(|&n| {
            let g = random_regular(n, 4, 21).expect("feasible parameters");
            let inst = sinkless_orientation_instance::<f64>(&g).expect("no isolated nodes");
            let refused = Fixer2::new(&inst).is_err();
            let mt = parallel_mt(&inst, 17, 1_000_000, Selection::IdMinima)
                .expect("classic criterion holds for d=4");
            let orientation = orientation_from_assignment(&g, &mt.assignment);
            BoundaryRow {
                n,
                criterion: inst.criterion_value(),
                fixer_refused: refused,
                expected_random_sinks: expected_sinks(&g),
                mt_rounds: mt.rounds,
                mt_solved: is_sinkless(&g, &orientation),
            }
        })
        .collect()
}

/// E10 — Moser–Tardos baseline scaling: resamplings vs instance size
/// under the classic criterion (expected linear).
#[derive(Debug, Clone)]
pub struct MtRow {
    /// Number of events.
    pub n: usize,
    /// Sequential MT resamplings (mean over trials).
    pub seq_resamplings: f64,
    /// Parallel MT rounds (mean over trials).
    pub par_rounds: f64,
}

/// Runs experiment E10.
pub fn e10_mt_scaling(sizes: &[usize], trials: usize) -> Vec<MtRow> {
    sizes
        .iter()
        .map(|&n| {
            let g = ring(n);
            let inst = random_rank2_instance(&g, 8, 0.9, 31);
            let mut seq_total = 0usize;
            let mut par_total = 0usize;
            for trial in 0..trials {
                seq_total += sequential_mt(&inst, trial as u64, 10_000_000)
                    .expect("converges")
                    .resamplings;
                par_total += parallel_mt(&inst, trial as u64, 10_000_000, Selection::IdMinima)
                    .expect("converges")
                    .rounds;
            }
            MtRow {
                n,
                seq_resamplings: seq_total as f64 / trials as f64,
                par_rounds: par_total as f64 / trials as f64,
            }
        })
        .collect()
}

/// A1 — ablation: value-selection rule of the rank-3 fixer.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Rule label.
    pub rule: String,
    /// Criterion tightness.
    pub tightness: f64,
    /// Successes over trials.
    pub successes: usize,
    /// Trials.
    pub trials: usize,
    /// Mean wall-clock per instance (µs).
    pub micros_per_instance: f64,
}

/// Runs ablation A1.
pub fn a1_value_rule(trials: usize) -> Vec<AblationRow> {
    let h = hyper_ring(36);
    let mut rows = Vec::new();
    for (label, rule) in [
        ("best-score", ValueRule::BestScore),
        ("first-feasible", ValueRule::FirstFeasible),
    ] {
        for &t in &[0.9, 1.1] {
            let mut successes = 0;
            let start = Instant::now();
            for trial in 0..trials {
                let inst = random_rank3_instance(&h, 8, t, 500 + trial as u64);
                let order = shuffled_order(inst.num_variables(), 600 + trial as u64);
                let report = Fixer3::new_unchecked(&inst)
                    .expect("rank 3")
                    .with_rule(rule)
                    .run(order);
                if report.is_ok_and(|r| r.is_success()) {
                    successes += 1;
                }
            }
            rows.push(AblationRow {
                rule: label.to_owned(),
                tightness: t,
                successes,
                trials,
                micros_per_instance: start.elapsed().as_micros() as f64 / trials as f64,
            });
        }
    }
    rows
}

/// A2 — ablation: arithmetic backend (`f64` vs the exact rational
/// backend).
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend label.
    pub backend: String,
    /// Whether the run succeeded and (for exact) audited `P*` clean.
    pub success_and_audit: bool,
    /// Median wall-clock (µs) of one full fixing pass over [`A2_RUNS`]
    /// runs.
    pub micros: f64,
    /// The fastest of those runs (µs).
    pub micros_min: f64,
    /// The slowest of those runs (µs).
    pub micros_max: f64,
    /// `BigInt` tier promotions during the run (0 for `f64`).
    pub tier_promotes: u64,
    /// `BigInt` tier demotions during the run (0 for `f64`).
    pub tier_demotes: u64,
}

/// Timed runs of each A2 backend, interleaved.
pub const A2_RUNS: usize = 7;

/// The `f64` A2 run: build and fix.
fn a2_f64_run(h: &lll_graphs::Hypergraph) -> BackendRow {
    let start = Instant::now();
    let inst_f = hyper_orientation_instance::<f64>(h).expect("valid hypergraph");
    let rep_f = Fixer3::new(&inst_f)
        .expect("below threshold")
        .run_default()
        .expect("finite costs below the threshold");
    let micros = start.elapsed().as_micros() as f64;
    BackendRow {
        backend: "f64".to_owned(),
        success_and_audit: rep_f.is_success(),
        micros,
        micros_min: micros,
        micros_max: micros,
        tier_promotes: 0,
        tier_demotes: 0,
    }
}

/// The exact-backend A2 run: build, fix, audit once, with the
/// tier-transition counters bracketing the run.
fn a2_exact_run(h: &lll_graphs::Hypergraph) -> BackendRow {
    lll_numeric::reset_tier_counters();
    let start = Instant::now();
    let inst_q = hyper_orientation_instance::<BigRational>(h).expect("valid hypergraph");
    let p = inst_q.max_event_probability();
    let mut fixer = Fixer3::new(&inst_q).expect("below threshold");
    for x in 0..inst_q.num_variables() {
        fixer.fix_variable(x).expect("exact costs are finite");
    }
    // One exact audit at the end of the run (per-step audits are what
    // the unit tests do; here we bill a realistic usage).
    let audit = audit_p_star(
        &inst_q,
        fixer.partial(),
        fixer.phi(),
        &p,
        &BigRational::zero(),
    );
    let rep_q = fixer.into_report();
    let micros = start.elapsed().as_micros() as f64;
    let tiers = lll_numeric::tier_counters();
    BackendRow {
        backend: "exact".to_owned(),
        success_and_audit: rep_q.is_success() && audit.holds(),
        micros,
        micros_min: micros,
        micros_max: micros,
        tier_promotes: tiers.promote,
        tier_demotes: tiers.demote,
    }
}

/// Runs ablation A2 on a hyper-ring orientation instance: `f64` vs
/// exact `BigRational`, [`A2_RUNS`] timed runs each. The runs
/// interleave the backends, alternating which goes first, so host drift
/// falls on both; each row reports the median and the range. The
/// success flag and the tier counters, deterministic, are the first
/// run's.
pub fn a2_backend() -> Vec<BackendRow> {
    let h = hyper_ring(12);
    let runs: [fn(&lll_graphs::Hypergraph) -> BackendRow; 2] = [a2_f64_run, a2_exact_run];
    let mut samples: [Vec<BackendRow>; 2] = Default::default();
    for run in 0..A2_RUNS {
        for b in [run % 2, (run + 1) % 2] {
            samples[b].push(runs[b](&h));
        }
    }
    samples
        .map(|rows| {
            let mut micros: Vec<f64> = rows.iter().map(|r| r.micros).collect();
            let first = rows.into_iter().next().expect("A2_RUNS >= 1");
            BackendRow {
                micros: median(&mut micros),
                micros_min: micros[0],
                micros_max: micros[micros.len() - 1],
                ..first
            }
        })
        .into()
}

/// E11 — order adversaries: the fixers' success under static hostile
/// orders and the *adaptive* worst-margin adversary (the paper allows
/// the order to be chosen adaptively).
#[derive(Debug, Clone)]
pub struct AdversaryRow {
    /// Adversary label.
    pub adversary: String,
    /// Rank-2 successes over trials.
    pub successes_r2: usize,
    /// Rank-3 successes over trials.
    pub successes_r3: usize,
    /// Trials.
    pub trials: usize,
}

/// Runs experiment E11 (tightness 0.9, below the threshold: every row
/// must be perfect by Theorems 1.1/1.3).
pub fn e11_adversaries(trials: usize) -> Vec<AdversaryRow> {
    let g = torus(6, 6);
    let h = hyper_ring(24);
    let mut rows: Vec<AdversaryRow> = Vec::new();
    let adversaries = [
        "identity",
        "reversed",
        "stride-7",
        "shuffled",
        "adaptive-worst",
    ];
    for name in adversaries {
        let mut s2 = 0;
        let mut s3 = 0;
        for trial in 0..trials {
            let seed = 7000 + trial as u64;
            let i2 = random_rank2_instance(&g, 4, 0.9, seed);
            let i3 = random_rank3_instance(&h, 8, 0.9, seed);
            let m2 = i2.num_variables();
            let m3 = i3.num_variables();
            let f2 = Fixer2::new(&i2).expect("below threshold");
            let f3 = Fixer3::new(&i3).expect("below threshold");
            let (r2, r3) = match name {
                "identity" => (
                    f2.run(StaticOrder::Identity.materialize(m2)),
                    f3.run(StaticOrder::Identity.materialize(m3)),
                ),
                "reversed" => (
                    f2.run(StaticOrder::Reversed.materialize(m2)),
                    f3.run(StaticOrder::Reversed.materialize(m3)),
                ),
                "stride-7" => (
                    f2.run(StaticOrder::Stride(7).materialize(m2)),
                    f3.run(StaticOrder::Stride(7).materialize(m3)),
                ),
                "shuffled" => (
                    f2.run(shuffled_order(m2, seed ^ 0x5a5a)),
                    f3.run(shuffled_order(m3, seed ^ 0xa5a5)),
                ),
                "adaptive-worst" => (run_fixer2_adaptive_worst(f2), run_fixer3_adaptive_worst(f3)),
                _ => unreachable!(),
            };
            if r2.expect("finite costs below the threshold").is_success() {
                s2 += 1;
            }
            if r3.expect("finite costs below the threshold").is_success() {
                s3 += 1;
            }
        }
        rows.push(AdversaryRow {
            adversary: name.to_owned(),
            successes_r2: s2,
            successes_r3: s3,
            trials,
        });
    }
    rows
}

/// E12 — the honest message-passing Moser–Tardos (`lll_mt::dist`): its
/// *measured* LOCAL rounds vs the loop-based estimate, as `n` grows.
#[derive(Debug, Clone)]
pub struct HonestMtRow {
    /// Number of events.
    pub n: usize,
    /// Honest simulator rounds of the message-passing MT (including the
    /// doubling-trick retries).
    pub honest_rounds: usize,
    /// Loop-based parallel MT estimate (`iterations × 3`).
    pub loop_local_rounds: usize,
}

/// Runs experiment E12 on rings, simulating on `threads` worker threads.
pub fn e12_honest_mt(sizes: &[usize], threads: usize) -> Vec<HonestMtRow> {
    sizes
        .iter()
        .map(|&n| {
            let g = ring(n);
            let inst = random_rank2_instance(&g, 8, 0.9, 13);
            let honest = distributed_mt(&inst, 13, 1 << 20, threads).expect("converges");
            let looped = parallel_mt(&inst, 13, 1 << 20, Selection::IdMinima).expect("converges");
            HonestMtRow {
                n,
                honest_rounds: honest.rounds,
                loop_local_rounds: looped.local_rounds(),
            }
        })
        .collect()
}

/// E13 — the criterion gap: the sharp-threshold fixer (Theorem 1.3)
/// vs the generic conditional-expectation derandomization (the Remark
/// after Conjecture 1.5), on hyper-ring orientation-style instances of
/// decreasing event probability.
#[derive(Debug, Clone)]
pub struct CriterionGapRow {
    /// Values per variable (`p = k^-2` on the ring family).
    pub k: usize,
    /// Sharp criterion value `p·2^d`.
    pub sharp: f64,
    /// Whether the sharp fixer's guarantee applies.
    pub sharp_applies: bool,
    /// Generic criterion value `p·(d+1)^C` for the real distance-2
    /// palette `C`.
    pub generic: f64,
    /// Whether the generic guarantee applies.
    pub generic_applies: bool,
    /// Whether the conditional-expectation sweep succeeded anyway
    /// (run unchecked when its criterion fails).
    pub fg_succeeded: bool,
}

/// Runs experiment E13 on ring instances (`d = 2`, distance-2 palette
/// 5 ⇒ generic criterion `k² > 3^5`): variables on ring edges, the
/// event at node `i` occurs iff both incident k-ary variables are 0
/// (`p = k^-2`).
pub fn e13_criterion_gap() -> Vec<CriterionGapRow> {
    let n = 24usize;
    [2usize, 3, 4, 8, 16, 32]
        .iter()
        .map(|&k| {
            let mut b = lll_core::InstanceBuilder::<f64>::new(n);
            let vars: Vec<usize> = (0..n)
                .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
                .collect();
            for i in 0..n {
                let (l, r) = (vars[(i + n - 1) % n], vars[i]);
                b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
            }
            let inst = b.build().expect("valid instance");
            let sharp = inst.criterion_value();
            let rep =
                distributed_fg(&inst, 5, CriterionCheck::Skip, 1).expect("skip never refuses");
            let generic = fg_criterion(&inst, rep.num_classes);
            CriterionGapRow {
                k,
                sharp,
                sharp_applies: sharp < 1.0,
                generic: generic.bound,
                generic_applies: generic.holds,
                fg_succeeded: rep.fix.is_success(),
            }
        })
        .collect()
}

/// E14 — the parallel LOCAL engine: wall-clock of the E-series
/// dist-fixer workload (rank 2, rings, `d = 2`) under the sequential
/// reference engine vs the slab-based parallel backend, with an output
/// equality assertion built in.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Number of events.
    pub n: usize,
    /// Worker threads of the parallel backend.
    pub threads: usize,
    /// `Simulator::run` wall-clock of the workload's LOCAL portion — the
    /// two schedule-coloring programs (Linial + block reduction) on the
    /// prebuilt line graph — in milliseconds, best of three passes.
    pub sim_seq_millis: f64,
    /// `Simulator::run_auto` (slab engine) wall-clock of the same two
    /// programs.
    pub sim_par_millis: f64,
    /// `sim_seq_millis / sim_par_millis`.
    pub sim_speedup: f64,
    /// Full rank-2 driver wall-clock (edge-schedule coloring plus
    /// `dist::run`) at one thread (the slab engine at one shard).
    pub driver_seq_millis: f64,
    /// The same at `threads` workers.
    pub driver_par_millis: f64,
    /// `driver_seq_millis / driver_par_millis`.
    pub driver_speedup: f64,
}

/// Runs experiment E14: times the E2 dist-fixer workload at each size
/// under the reference engine once, then under the slab engine at each
/// worker count, asserting bit-for-bit equal outcomes throughout.
///
/// Both the LOCAL-simulation portion alone (`Simulator::run` vs
/// `Simulator::run_auto` on the schedule coloring) and the full
/// driver are reported; the driver includes the inherently sequential
/// fixing sweep, so its speedup is an Amdahl-diluted version of the
/// simulator's.
pub fn e14_parallel_speedup(sizes: &[usize], thread_counts: &[usize]) -> Vec<SpeedupRow> {
    use lll_coloring::vertex_coloring;
    use lll_local::Simulator;

    let mut rows = Vec::new();
    for &n in sizes {
        let g = ring(n);
        let inst = random_rank2_instance(&g, 8, 0.9, 7);
        let dep = inst.dependency_graph();
        let budget = 10_000 + 4 * dep.num_nodes();

        // The LOCAL portion of the rank-2 driver is the schedule edge
        // coloring = vertex coloring of the line graph: Linial's color
        // reduction followed by the block color reduction. Time the two
        // engine entry points (`run` vs `run_auto`) directly on those
        // two programs, so the sim columns compare the engines alone —
        // derived-graph construction and driver bookkeeping are engine
        // independent and excluded (the driver columns charge them).
        // Engine timings take the best of three passes after a warm-up
        // pass, so neither side pays the cold caches of whichever
        // happens to run first.
        let lg = dep.line_graph();
        let lsim = Simulator::new(&lg);
        let delta = lg.max_degree() as u64;
        let schedule = lll_coloring::linial_schedule(lg.num_nodes() as u64, delta);
        let fixed = schedule
            .last()
            .map_or(lg.num_nodes() as u64, |&(_, q)| q * q);
        let template = lll_coloring::LinialProgram::new(schedule);
        // Warm-up pass; its output seeds the reduction stage (node ids
        // on `lsim` are graph indices).
        let rough = lsim.run(|_| template.clone(), budget).expect("converges");
        let mk_reduce = |ctx: &lll_local::NodeContext| {
            lll_coloring::ReduceProgram::new(rough.outputs[ctx.id as usize], fixed, delta + 1)
        };
        let _warm = lsim.run(mk_reduce, budget).expect("converges");
        let (seq_out, sim_seq_millis) = best_of(3, || {
            let lin = lsim.run(|_| template.clone(), budget).expect("converges");
            let red = lsim.run(mk_reduce, budget).expect("converges");
            (lin, red)
        });
        assert_eq!(
            seq_out.0.outputs, rough.outputs,
            "linial must be deterministic"
        );

        // Cross-check: the staged timing loop reproduces the driver's
        // own schedule coloring.
        let col = vertex_coloring(&lsim, budget).expect("converges");
        assert_eq!(
            col.colors,
            seq_out
                .1
                .outputs
                .iter()
                .map(|&c| c as usize)
                .collect::<Vec<_>>(),
            "staged stages must equal the vertex_coloring driver"
        );

        let t1 = Instant::now();
        let base = solve_seeded(&inst, ScheduleKind::Edge, 5, &Sweep::default());
        let driver_seq_millis = t1.elapsed().as_secs_f64() * 1e3;

        for &threads in thread_counts {
            let psim = lsim.clone().threads(threads);
            let (par_out, sim_par_millis) = best_of(3, || {
                let lin = psim
                    .run_auto(|_| template.clone(), budget)
                    .expect("converges");
                let red = psim.run_auto(mk_reduce, budget).expect("converges");
                (lin, red)
            });
            assert_eq!(par_out.0.outputs, seq_out.0.outputs, "engines must agree");
            assert_eq!(par_out.1.outputs, seq_out.1.outputs, "engines must agree");
            assert_eq!(par_out.0.rounds, seq_out.0.rounds, "engines must agree");
            assert_eq!(par_out.1.rounds, seq_out.1.rounds, "engines must agree");

            let t3 = Instant::now();
            let par = solve_seeded(&inst, ScheduleKind::Edge, 5, &workers(threads));
            let driver_par_millis = t3.elapsed().as_secs_f64() * 1e3;
            assert_eq!(par.rounds, base.rounds, "engines must agree");
            assert_eq!(
                par.fix.assignment(),
                base.fix.assignment(),
                "engines must agree"
            );

            rows.push(SpeedupRow {
                n,
                threads,
                sim_seq_millis,
                sim_par_millis,
                sim_speedup: sim_seq_millis / sim_par_millis,
                driver_seq_millis,
                driver_par_millis,
                driver_speedup: driver_seq_millis / driver_par_millis,
            });
        }
    }
    rows
}

/// E17 — the color-class-parallel fixing *sweep*: end-to-end wall-clock
/// of the fully audited distributed drivers (the E2/E6 workloads with a
/// per-class `P*` audit) at 1 worker vs `t` workers. Unlike E14 — where
/// only the schedule coloring parallelized and the fixing sweep diluted
/// the speedup à la Amdahl — both the fixing steps and the audit checks
/// now run inside the sweep workers, so the whole driver scales.
#[derive(Debug, Clone)]
pub struct FixSpeedupRow {
    /// Driver label: `"fixer2-audited"` or `"fixer3-audited"`.
    pub driver: String,
    /// Number of events.
    pub n: usize,
    /// Sweep worker threads.
    pub threads: usize,
    /// Audited driver wall-clock at 1 worker (ms).
    pub seq_millis: f64,
    /// Audited driver wall-clock at `threads` workers (ms).
    pub par_millis: f64,
    /// `seq_millis / par_millis`.
    pub speedup: f64,
}

/// Runs experiment E17: times the audited rank-2 and rank-3 drivers at
/// each size sequentially, then at each worker count — asserting
/// bit-for-bit equal assignments and round bills before any timing is
/// reported. Best-of-two wall-clock per point (E14's guard against
/// one-off scheduling noise).
pub fn e17_fixing_speedup(sizes: &[usize], thread_counts: &[usize]) -> Vec<FixSpeedupRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        // Rank 2: the E2 ring workload under a per-class audit.
        let g = ring(n);
        let i2 = random_rank2_instance(&g, 8, 0.9, 7);
        let p2 = i2.max_event_probability();
        let (base2, seq2) = best_of(2, || {
            solve_seeded(&i2, ScheduleKind::Edge, 5, &audited(1, &p2, &1e-9))
        });

        // Rank 3: the E6 hyper-ring workload under a per-class audit.
        let h = hyper_ring(n);
        let i3 = random_rank3_instance(&h, 8, 0.9, 7);
        let p3 = i3.max_event_probability();
        let (base3, seq3) = best_of(2, || {
            solve_seeded(&i3, ScheduleKind::Distance2, 5, &audited(1, &p3, &1e-9))
        });

        for &threads in thread_counts {
            let (par2, par2_millis) = best_of(2, || {
                solve_seeded(&i2, ScheduleKind::Edge, 5, &audited(threads, &p2, &1e-9))
            });
            assert_eq!(par2.rounds, base2.rounds, "sweeps must agree");
            assert_eq!(
                par2.fix.assignment(),
                base2.fix.assignment(),
                "sweeps must agree"
            );
            rows.push(FixSpeedupRow {
                driver: "fixer2-audited".to_owned(),
                n,
                threads,
                seq_millis: seq2,
                par_millis: par2_millis,
                speedup: seq2 / par2_millis,
            });

            let (par3, par3_millis) = best_of(2, || {
                solve_seeded(
                    &i3,
                    ScheduleKind::Distance2,
                    5,
                    &audited(threads, &p3, &1e-9),
                )
            });
            assert_eq!(par3.rounds, base3.rounds, "sweeps must agree");
            assert_eq!(
                par3.fix.assignment(),
                base3.fix.assignment(),
                "sweeps must agree"
            );
            rows.push(FixSpeedupRow {
                driver: "fixer3-audited".to_owned(),
                n,
                threads,
                seq_millis: seq3,
                par_millis: par3_millis,
                speedup: seq3 / par3_millis,
            });
        }
    }
    rows
}

/// Records the `SWEEP` pseudo-experiment: the audited-workload rank-2
/// driver of E17 (ring, `d = 2`), with the fixing sweep *and* the
/// schedule coloring on `threads` workers, streaming its full
/// `fix_run_start`/`fix_step`.../`fix_run_end` bracket into `rec`. The
/// stream is byte-identical for every `threads` — that contract is what
/// `obs-report diff` holds CI to.
pub fn record_sweep_workload<R: lll_obs::Recorder>(
    n: usize,
    threads: usize,
    rec: &mut R,
) -> DistReport {
    let g = ring(n);
    let inst = random_rank2_instance(&g, 8, 0.9, 7);
    solve_seeded_recorded(&inst, ScheduleKind::Edge, 5, &workers(threads), rec)
}

/// E18 — service-mode throughput: the same-shape workload amortized
/// through the fingerprint-keyed topology cache.
#[derive(Debug, Clone)]
pub struct ServeThroughputRow {
    /// `"cold"` (cache disabled) or `"warm"` (cache primed).
    pub mode: String,
    /// Requests timed.
    pub requests: usize,
    /// Clauses per formula (ring-formula `m`).
    pub clauses: usize,
    /// Clause width (ring-formula `w`).
    pub width: usize,
    /// Median request latency in microseconds (`obs::hist`).
    pub p50_micros: u64,
    /// 99th-percentile request latency in microseconds (`obs::hist`).
    pub p99_micros: u64,
    /// Instances solved per second of wall-clock.
    pub inst_per_sec: f64,
    /// Schedule-cache hits during the timed pass ([`lll_serve::EngineStats`]
    /// delta).
    pub cache_hits: u64,
    /// Schedule-cache misses during the timed pass.
    pub cache_misses: u64,
}

/// Runs experiment E18: feeds `requests` same-shape rank-3 DIMACS
/// requests (ring formulas with `m` clauses of width `w`, distinct
/// polarity seeds — same dependency graph, so one fingerprint) through
/// a cold engine (schedule recomputed per request) and a warm engine
/// (fingerprint cache primed by the first request), asserting the
/// response bytes identical pair-by-pair *before* any timing is
/// reported. Latencies land in an [`lll_obs::hist::Histogram`]; the
/// cache may only change when the coloring runs, never what the sweep
/// answers. Each row also carries the engine's cache-counter deltas
/// over its timed pass, the deterministic evidence that every warm
/// request skipped the coloring.
pub fn e18_serve_throughput(requests: usize, m: usize, w: usize) -> Vec<ServeThroughputRow> {
    use lll_serve::{Engine, EngineConfig, Payload, Request, SolveRequest};

    let wire: Vec<String> = (0..requests)
        .map(|i| {
            Request::Solve(SolveRequest {
                id: format!("\"e18-{i}\""),
                payload: Payload::Dimacs(ring_formula(m, w, i as u64).to_string()),
                schedule_seed: None,
                obs: None,
                timeout_ms: None,
            })
            .to_json()
        })
        .collect();

    let cold = Engine::new(EngineConfig {
        cache: false,
        ..EngineConfig::default()
    });
    let warm = Engine::new(EngineConfig::default());
    // Prime the warm cache (one miss, off the clock), then assert the
    // determinism contract: cold bytes == warm bytes, request by
    // request, before a single latency is reported.
    warm.solve_line(&wire[0]);
    for line in &wire {
        let a = cold.solve_line(line).to_json();
        let b = warm.solve_line(line).to_json();
        assert_eq!(a, b, "cache state leaked into a response");
        assert!(a.contains("\"status\":\"ok\""), "E18 workload must solve");
    }
    assert_eq!(
        warm.cached_schedules(),
        1,
        "same-shape requests must share one schedule"
    );

    let mut rows = Vec::new();
    for (mode, engine) in [("cold", &cold), ("warm", &warm)] {
        let mut hist = lll_obs::hist::Histogram::new();
        let before = engine.stats();
        let t = Instant::now();
        for line in &wire {
            let req = Instant::now();
            let response = engine.solve_line(line);
            hist.record(req.elapsed().as_micros() as u64);
            debug_assert!(!response.is_shutdown());
        }
        let secs = t.elapsed().as_secs_f64();
        let after = engine.stats();
        rows.push(ServeThroughputRow {
            mode: mode.to_owned(),
            requests,
            clauses: m,
            width: w,
            p50_micros: hist.p50(),
            p99_micros: hist.p99(),
            inst_per_sec: requests as f64 / secs,
            cache_hits: after.cache_hits - before.cache_hits,
            cache_misses: after.cache_misses - before.cache_misses,
        });
    }
    rows
}

/// E19 — live-telemetry overhead: the E18 warm workload, quiet vs
/// scraped through a real `--metrics` Unix socket.
#[derive(Debug, Clone)]
pub struct MetricsOverheadRow {
    /// `"quiet"` (telemetry idle) or `"scraped"` (exporter bound and a
    /// scraper hammering the socket for the whole run).
    pub mode: String,
    /// Requests timed.
    pub requests: usize,
    /// Clauses per formula (ring-formula `m`).
    pub clauses: usize,
    /// Clause width (ring-formula `w`).
    pub width: usize,
    /// Median request latency in microseconds, over every pass of the
    /// mode.
    pub p50_micros: u64,
    /// 99th-percentile request latency in microseconds, over every pass
    /// of the mode.
    pub p99_micros: u64,
    /// Instances solved per second of wall-clock, at the mode's median
    /// pass time.
    pub inst_per_sec: f64,
    /// Median over [`E19_PAIRS`] alternated pairs of the pair's scraped
    /// pass time divided by its quiet pass time (1 for `"quiet"`).
    pub overhead: f64,
}

/// Alternated (quiet, scraped) pass pairs that E19 times.
pub const E19_PAIRS: usize = 11;

/// Runs experiment E19: the warm E18 workload solved in two modes —
/// telemetry idle vs the Prometheus exporter bound to a Unix socket
/// with a scraper thread fetching the exposition throughout. The two
/// modes run as [`E19_PAIRS`] pass pairs in one process, alternating
/// which mode goes first, so host drift between measurement windows
/// cancels within a pair; the scraped row's overhead is the median of
/// the per-pair time ratios. Response bytes are asserted identical
/// across every pass of both modes before any timing is reported (the
/// side-band contract), and CI gates the overhead at ≤ 1.05.
pub fn e19_metrics_overhead(requests: usize, m: usize, w: usize) -> Vec<MetricsOverheadRow> {
    use lll_serve::{
        spawn_telemetry, Engine, EngineConfig, Payload, Request, SolveRequest, TelemetryConfig,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let wire: Vec<String> = (0..requests)
        .map(|i| {
            Request::Solve(SolveRequest {
                id: format!("\"e19-{i}\""),
                payload: Payload::Dimacs(ring_formula(m, w, i as u64).to_string()),
                schedule_seed: None,
                obs: None,
                timeout_ms: None,
            })
            .to_json()
        })
        .collect();

    let engines = [
        Arc::new(Engine::new(EngineConfig::default())),
        Arc::new(Engine::new(EngineConfig::default())),
    ];
    // Warm both working sets off the clock.
    let mut baseline: Vec<String> = Vec::new();
    for (i, engine) in engines.iter().enumerate() {
        let warm: Vec<String> = wire
            .iter()
            .map(|line| engine.solve_line(line).to_json())
            .collect();
        if i == 0 {
            baseline = warm;
        } else {
            assert_eq!(warm, baseline, "telemetry changed response bytes");
        }
    }

    // The exporter is bound to engine 1 for the whole experiment; the
    // scraper hits it only while `active` is up (the scraped passes),
    // so quiet passes see the same idle sibling thread in both modes.
    let socket = std::env::temp_dir()
        .join(format!("lll-e19-{}.sock", std::process::id()))
        .to_str()
        .expect("utf-8 path")
        .to_owned();
    let telemetry = spawn_telemetry(
        Arc::clone(&engines[1]),
        TelemetryConfig {
            socket: Some(socket.clone()),
            stats_interval: None,
        },
        Arc::new(AtomicBool::new(false)),
    )
    .expect("bind E19 metrics socket");
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        let path = socket.clone();
        std::thread::spawn(move || {
            use std::io::{Read, Write};
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if active.load(Ordering::Relaxed) {
                    if let Ok(mut s) = std::os::unix::net::UnixStream::connect(&path) {
                        let _ = s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                        let mut body = String::new();
                        let _ = s.read_to_string(&mut body);
                        if body.contains("lll_serve_requests_total") {
                            scrapes += 1;
                        }
                    }
                }
                // 10 scrapes/sec — an order of magnitude beyond any
                // production Prometheus cadence, but not a busy-spin
                // on the listener backlog (which would just measure
                // CPU theft on a small host, not telemetry overhead).
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            scrapes
        })
    };

    // Alternated pass pairs: each mode's latencies go into one
    // histogram, its pass times into `secs`, and each pair's scraped/
    // quiet time ratio into `ratios`.
    let mut hists = [
        lll_obs::hist::Histogram::new(),
        lll_obs::hist::Histogram::new(),
    ];
    let mut secs: [Vec<f64>; 2] = Default::default();
    let mut ratios = Vec::with_capacity(E19_PAIRS);
    for pair in 0..E19_PAIRS {
        for mi in [pair % 2, (pair + 1) % 2] {
            let (engine, hist) = (&engines[mi], &mut hists[mi]);
            active.store(mi == 1, Ordering::Relaxed);
            let mut responses = Vec::with_capacity(wire.len());
            let t = Instant::now();
            for line in &wire {
                let req = Instant::now();
                responses.push(engine.solve_line(line).to_json());
                hist.record(req.elapsed().as_micros() as u64);
            }
            secs[mi].push(t.elapsed().as_secs_f64());
            // The side-band contract, asserted before timing is
            // reported: scraping cannot change a response byte.
            assert_eq!(responses, baseline, "telemetry changed response bytes");
        }
        ratios.push(secs[1][pair] / secs[0][pair]);
    }
    active.store(false, Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "E19 scraped mode never scraped the socket");
    telemetry.shutdown();

    let overhead = [1.0, median(&mut ratios)];
    ["quiet", "scraped"]
        .into_iter()
        .zip(hists.iter().zip(&mut secs))
        .zip(overhead)
        .map(|((mode, (hist, secs)), overhead)| MetricsOverheadRow {
            mode: mode.to_owned(),
            requests,
            clauses: m,
            width: w,
            p50_micros: hist.p50(),
            p99_micros: hist.p99(),
            inst_per_sec: requests as f64 / median(secs),
            overhead,
        })
        .collect()
}

/// The experiments' end-to-end distributed solve of an instance below
/// the threshold: the `kind` schedule colored from `seed` on
/// `sweep.threads` simulator workers, then the sweep.
fn solve_seeded<T: Num>(
    inst: &Instance<T>,
    kind: ScheduleKind,
    seed: u64,
    sweep: &Sweep<'_, T>,
) -> DistReport {
    solve_seeded_recorded(inst, kind, seed, sweep, &mut NullRecorder)
}

/// [`solve_seeded`] with the sweep's events recorded into `rec`.
fn solve_seeded_recorded<T: Num, R: Recorder>(
    inst: &Instance<T>,
    kind: ScheduleKind,
    seed: u64,
    sweep: &Sweep<'_, T>,
    rec: &mut R,
) -> DistReport {
    let g = inst.dependency_graph();
    let schedule = match kind {
        ScheduleKind::Edge => Schedule::edge(g, seed, sweep.threads),
        ScheduleKind::Distance2 => Schedule::distance2(g, seed, sweep.threads),
    }
    .expect("schedule coloring converges");
    dist::run(inst, &schedule, sweep, rec, &mut NullTiming).expect("below threshold")
}

/// An enforced, unaudited sweep on `threads` workers.
fn workers<'a, T>(threads: usize) -> Sweep<'a, T> {
    Sweep {
        threads,
        ..Sweep::default()
    }
}

/// An enforced sweep on `threads` workers, audited against `p_bound`.
fn audited<'a, T>(threads: usize, p_bound: &'a T, tol: &'a T) -> Sweep<'a, T> {
    Sweep {
        threads,
        audit: Some((p_bound, tol)),
        ..Sweep::default()
    }
}

/// Runs `f` `k` times; returns its (deterministic) result and the
/// minimum wall-clock milliseconds observed — the usual guard against
/// one-off scheduling noise.
fn best_of<R>(k: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..k {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (out.expect("k >= 1"), best)
}

/// Runs the traced schedule-coloring workload — the LOCAL portion of the
/// E14 rank-2 driver (Linial color reduction, then the block color
/// reduction, on the line graph of a ring-based rank-2 instance) —
/// through the given flight recorder, and returns the two outcomes
/// (Linial, Reduce).
///
/// `threads == 1` uses `Simulator::run_recorded`; larger counts use the
/// slab engine, whose merged event stream is byte-identical to the
/// sequential one (the obs differential test pins this).
pub fn record_trace_workload<R: lll_obs::Recorder>(
    n: usize,
    threads: usize,
    rec: &mut R,
) -> (lll_local::RunOutcome<u64>, lll_local::RunOutcome<u64>) {
    record_trace_workload_timed(n, threads, rec, &mut lll_obs::NullTiming)
}

/// [`record_trace_workload`] with a side-band timing sink attached: the
/// simulator runs feed `sim_run`/`sim_round` (and, on the parallel
/// engine, `shard_work`) spans into `timing`. The event stream in `rec`
/// is byte-identical to the untimed call — timing is wall-clock-only
/// and never enters the deterministic channel (the obs differential
/// battery pins this with timing enabled at several thread counts).
pub fn record_trace_workload_timed<R: lll_obs::Recorder, T: lll_obs::TimingSink>(
    n: usize,
    threads: usize,
    rec: &mut R,
    timing: &mut T,
) -> (lll_local::RunOutcome<u64>, lll_local::RunOutcome<u64>) {
    use lll_local::Simulator;

    let g = ring(n);
    let inst = random_rank2_instance(&g, 8, 0.9, 7);
    let dep = inst.dependency_graph();
    let budget = 10_000 + 4 * dep.num_nodes();
    let lg = dep.line_graph();
    let lsim = Simulator::new(&lg).threads(threads);
    let delta = lg.max_degree() as u64;
    let schedule = lll_coloring::linial_schedule(lg.num_nodes() as u64, delta);
    let fixed = schedule
        .last()
        .map_or(lg.num_nodes() as u64, |&(_, q)| q * q);
    let template = lll_coloring::LinialProgram::new(schedule);
    let lin = if threads <= 1 {
        lsim.run_timed_recorded(|_| template.clone(), budget, rec, timing)
    } else {
        lsim.run_auto_timed_recorded(|_| template.clone(), budget, rec, timing)
    }
    .expect("converges");
    let mk_reduce = |ctx: &lll_local::NodeContext| {
        lll_coloring::ReduceProgram::new(lin.outputs[ctx.id as usize], fixed, delta + 1)
    };
    let red = if threads <= 1 {
        lsim.run_timed_recorded(mk_reduce, budget, rec, timing)
    } else {
        lsim.run_auto_timed_recorded(mk_reduce, budget, rec, timing)
    }
    .expect("converges");
    (lin, red)
}

/// Feeds `fix_run`/`fix_step` spans into `timing` by running the rank-2
/// φ-fixer on the same ring-based instance the traced workload is built
/// from. The event stream goes to a [`NullRecorder`]
/// on purpose: profiling the fixer must not append events to (or
/// otherwise perturb) a trace being recorded alongside.
pub fn time_fixer_workload<T: lll_obs::TimingSink>(n: usize, timing: &mut T) {
    let g = ring(n);
    let inst = random_rank2_instance(&g, 8, 0.9, 7);
    let report = Fixer2::new(&inst)
        .expect("trace instance is below the rank-2 threshold")
        .run_with(
            0..inst.num_variables(),
            None,
            &mut lll_obs::NullRecorder,
            timing,
        )
        .expect("finite costs below the threshold");
    assert!(
        report.violated_events().is_empty(),
        "rank-2 fixing must succeed on the trace instance"
    );
}

/// E15 — flight-recorder overhead: one workload, three recorder flavors.
#[derive(Debug, Clone)]
pub struct RecorderOverheadRow {
    /// Ring size (events of the generated instance).
    pub n: usize,
    /// Recorder flavor: `"null"`, `"counter"` or `"jsonl"`.
    pub recorder: String,
    /// Best-of-three wall-clock milliseconds of the traced portion.
    pub millis: f64,
    /// `millis` relative to the `"null"` row of the same `n`.
    pub overhead: f64,
    /// Events recorded in one pass (0 for `"null"`).
    pub events: usize,
    /// JSONL bytes written per pass (0 except for `"jsonl"`).
    pub bytes: usize,
}

/// Runs experiment E15: times [`record_trace_workload`] under
/// [`NullRecorder`] (which is exactly the code
/// path the unrecorded entry points delegate to — its "overhead" row is
/// the measurement-noise floor), [`CounterRecorder`](lll_obs::CounterRecorder)
/// and an in-memory [`JsonlRecorder`](lll_obs::JsonlRecorder).
pub fn e15_recorder_overhead(sizes: &[usize]) -> Vec<RecorderOverheadRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        // Warm-up pass so the first timed flavor doesn't pay cold caches.
        record_trace_workload(n, 1, &mut lll_obs::NullRecorder);
        let (_, null_millis) = best_of(3, || {
            record_trace_workload(n, 1, &mut lll_obs::NullRecorder);
        });
        let (counter_events, counter_millis) = best_of(3, || {
            let mut rec = lll_obs::CounterRecorder::new();
            record_trace_workload(n, 1, &mut rec);
            rec.events
        });
        let ((jsonl_events, jsonl_bytes), jsonl_millis) = best_of(3, || {
            let mut rec = lll_obs::JsonlRecorder::new(Vec::with_capacity(1 << 20));
            record_trace_workload(n, 1, &mut rec);
            let lines = rec.lines();
            let buf = rec.finish().expect("in-memory writer never fails");
            (lines, buf.len())
        });
        for (recorder, millis, events, bytes) in [
            ("null", null_millis, 0, 0),
            ("counter", counter_millis, counter_events, 0),
            ("jsonl", jsonl_millis, jsonl_events, jsonl_bytes),
        ] {
            rows.push(RecorderOverheadRow {
                n,
                recorder: recorder.to_owned(),
                millis,
                overhead: millis / null_millis,
                events,
                bytes,
            });
        }
    }
    rows
}

/// E16 — timing-profiler overhead: one workload, timing off vs on.
#[derive(Debug, Clone)]
pub struct TimingOverheadRow {
    /// Ring size (events of the generated instance).
    pub n: usize,
    /// Timing flavor: `"off"` ([`lll_obs::NullTiming`], exactly the
    /// untimed code path) or `"on"` ([`lll_obs::TimingRecorder`]).
    pub timing: String,
    /// Best-of-three wall-clock milliseconds of the traced portion.
    pub millis: f64,
    /// `millis` relative to the `"off"` row of the same `n`.
    pub overhead: f64,
    /// Timing spans recorded in one pass (0 for `"off"`).
    pub spans: u64,
}

/// Runs experiment E16: times [`record_trace_workload_timed`] under
/// [`NullTiming`] — which is exactly the code path
/// the untimed entry points delegate to, so its "overhead" row is the
/// noise floor — and under a live
/// [`TimingRecorder`](lll_obs::TimingRecorder). The acceptance target
/// (EXPERIMENTS.md) is an `"on"` overhead within 1.05× of `"off"` on the
/// E14 schedule-coloring workload: one histogram store per span, no
/// allocation on the hot path.
pub fn e16_timing_overhead(sizes: &[usize]) -> Vec<TimingOverheadRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        // Warm-up pass so the first timed flavor doesn't pay cold caches.
        record_trace_workload(n, 1, &mut lll_obs::NullRecorder);
        let (_, off_millis) = best_of(3, || {
            record_trace_workload_timed(n, 1, &mut lll_obs::NullRecorder, &mut lll_obs::NullTiming);
        });
        let (spans, on_millis) = best_of(3, || {
            let mut timing = lll_obs::TimingRecorder::new();
            record_trace_workload_timed(n, 1, &mut lll_obs::NullRecorder, &mut timing);
            timing.spans()
        });
        for (flavor, millis, spans) in [("off", off_millis, 0), ("on", on_millis, spans)] {
            rows.push(TimingOverheadRow {
                n,
                timing: flavor.to_owned(),
                millis,
                overhead: millis / off_millis,
                spans,
            });
        }
    }
    rows
}

/// Convenience used by tests and the E5 audit path: run the rank-3 fixer
/// on a small exact instance with a per-step `P*` audit; returns whether
/// every step audited clean and the run succeeded.
pub fn audited_rank3_run(n: usize, seed: u64) -> bool {
    let h = hyper_ring(n);
    let inst = hyper_orientation_instance::<BigRational>(&h).expect("valid hypergraph");
    let p = inst.max_event_probability();
    let order = shuffled_order(inst.num_variables(), seed);
    let mut fixer = Fixer3::new(&inst).expect("below threshold");
    for x in order {
        fixer.fix_variable(x).expect("exact costs are finite");
        let audit = audit_p_star(
            &inst,
            fixer.partial(),
            fixer.phi(),
            &p,
            &BigRational::zero(),
        );
        if !audit.holds() {
            return false;
        }
    }
    fixer.into_report().is_success()
}

/// Sanity used by E3: spot-check that boundary points are representable
/// and above-boundary points are not (exact arithmetic on rational grid
/// points).
pub fn e3_membership_spot_checks() -> (usize, usize) {
    let mut inside = 0;
    let mut outside = 0;
    for i in 0..=8u32 {
        for j in 0..=8u32 {
            let a = BigRational::from_ratio(i as i64, 2);
            let b = BigRational::from_ratio(j as i64, 2);
            let four = BigRational::from_ratio(4, 1);
            if &a + &b > four {
                continue;
            }
            let f = f_surface(i as f64 / 2.0, j as f64 / 2.0);
            let below = BigRational::from_f64(f - 1e-6).expect("finite");
            let above = BigRational::from_f64(f + 1e-6).expect("finite");
            if !below.is_negative() && is_representable(&a, &b, &below) {
                inside += 1;
            }
            if !is_representable(&a, &b, &above) {
                outside += 1;
            }
        }
    }
    (inside, outside)
}

/// E20 — checkpoint overhead: the recorded fixing sweep with
/// `#checkpoint` sidecars every `interval` progress events, vs the
/// same sweep with checkpointing off.
#[derive(Debug, Clone)]
pub struct ResumeOverheadRow {
    /// Ring size (events of the generated instance).
    pub n: usize,
    /// Sidecar cadence: `"off"` (plain [`lll_obs::JsonlRecorder`],
    /// exactly the unreplicated code path) or the progress-event
    /// interval as a number.
    pub interval: String,
    /// Median over the pairs of the pair's fastest pass, in wall-clock
    /// milliseconds (for `"off"`, over the off side of every pair).
    pub millis: f64,
    /// Median over [`E20_PAIRS`] alternated pairs of this cadence's
    /// fastest pass divided by the fastest `"off"` pass of the same pair
    /// (1 for `"off"`).
    pub overhead: f64,
    /// `#checkpoint` sidecar lines written in one pass.
    pub checkpoints: usize,
    /// JSONL bytes written per pass, sidecars included.
    pub bytes: usize,
    /// Progress events (`round_end` + `fix_step`) in one pass's stream.
    pub progress: usize,
    /// Event bytes the recorder's rolling digest consumed in one pass
    /// ([`lll_obs::StreamDigest::bytes`]; 0 for `"off"`).
    pub digested: u64,
    /// The stream's non-sidecar bytes: what a digest that reads each
    /// event line once consumes.
    pub event_bytes: usize,
}

/// Alternated (off, checkpointed) pairs that E20 times per cadence.
pub const E20_PAIRS: usize = 25;

/// Passes of each flavor in one E20 pair, interleaved; the pair compares
/// the fastest of each.
const E20_PASSES: usize = 3;

/// Runs the checkpoint-interval half of experiment E20: times
/// [`record_sweep_workload`] streaming into an in-memory
/// [`lll_obs::JsonlRecorder`], for each requested interval in
/// [`E20_PAIRS`] pairs of passes with checkpointing off and with a
/// `#checkpoint` sidecar every `interval` progress events. A pair
/// interleaves the two flavors, alternating which goes first, so host
/// drift cancels within it, and compares the fastest pass of each, so a
/// preempted pass does not count; the row's overhead is the median of
/// the per-pair ratios. The timings are context; the gate is on counts
/// (EXPERIMENTS.md): each cadence writes `⌊progress / interval⌋`
/// sidecars, and its digest consumes exactly the stream's event bytes,
/// so a sidecar is one short line and each event line is digested
/// once, never a prefix re-read.
pub fn e20_resume_overhead(n: usize, intervals: &[u64]) -> Vec<ResumeOverheadRow> {
    // One timed pass: the stream, the bytes its digest consumed, and its
    // wall-clock milliseconds.
    let pass = |interval: Option<u64>| {
        let started = Instant::now();
        let mut rec = lll_obs::JsonlRecorder::new(Vec::with_capacity(1 << 20));
        if let Some(interval) = interval {
            rec = rec.checkpoint_every(interval);
        }
        record_sweep_workload(n, 1, &mut rec);
        let digested = rec.digest().map_or(0, |d| d.bytes());
        let buf = rec.finish().expect("in-memory writer never fails");
        (buf, digested, started.elapsed().as_secs_f64() * 1e3)
    };
    // The row of one cadence's stream, with its timing filled in later.
    let row = |interval: String, buf: &[u8], digested: u64| {
        let text = String::from_utf8_lossy(buf);
        let (mut checkpoints, mut progress, mut event_bytes) = (0, 0, 0);
        for line in text.lines() {
            if line.starts_with(lll_obs::CHECKPOINT_PREFIX) {
                checkpoints += 1;
                continue;
            }
            event_bytes += line.len() + 1;
            if line.starts_with("{\"type\":\"round_end\"")
                || line.starts_with("{\"type\":\"fix_step\"")
            {
                progress += 1;
            }
        }
        ResumeOverheadRow {
            n,
            interval,
            millis: 0.0,
            overhead: 1.0,
            checkpoints,
            bytes: buf.len(),
            progress,
            digested,
            event_bytes,
        }
    };
    // Warm-up pass so neither flavor pays cold caches.
    let (off_buf, ..) = pass(None);
    let mut off_millis = Vec::with_capacity(E20_PAIRS * intervals.len());
    let mut rows = Vec::with_capacity(intervals.len() + 1);
    for &interval in intervals {
        let mut millis = Vec::with_capacity(E20_PAIRS);
        let mut ratios = Vec::with_capacity(E20_PAIRS);
        let (mut buf, mut digested) = (Vec::new(), 0);
        for pair in 0..E20_PAIRS {
            let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
            for k in 0..E20_PASSES {
                for checkpointed in [(pair + k) % 2 == 0, (pair + k) % 2 == 1] {
                    if checkpointed {
                        let (b, d, ms) = pass(Some(interval));
                        on = on.min(ms);
                        (buf, digested) = (b, d);
                    } else {
                        off = off.min(pass(None).2);
                    }
                }
            }
            off_millis.push(off);
            millis.push(on);
            ratios.push(on / off);
        }
        rows.push(ResumeOverheadRow {
            millis: median(&mut millis),
            overhead: median(&mut ratios),
            ..row(interval.to_string(), &buf, digested)
        });
    }
    rows.insert(
        0,
        ResumeOverheadRow {
            millis: median(&mut off_millis),
            ..row("off".to_owned(), &off_buf, 0)
        },
    );
    rows
}

/// The median of a non-empty sample (the mean of the middle two for an
/// even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// E20 — resumed-vs-uninterrupted wall clock: what a mid-run kill
/// actually costs at recovery time.
#[derive(Debug, Clone)]
pub struct ResumeWallClockRow {
    /// Ring size (events of the generated instance).
    pub n: usize,
    /// `"uninterrupted"` (the whole checkpointed sweep) or `"resumed"`
    /// (fold the surviving prefix, then continue from the midpoint
    /// checkpoint to the end).
    pub mode: String,
    /// Best-of-three wall-clock milliseconds.
    pub millis: f64,
    /// Recorded steps covered by the timed portion (replayed steps
    /// count for `"resumed"`: the fold is part of recovery).
    pub steps: u64,
}

/// Runs the recovery half of experiment E20: records the checkpointed
/// sweep once to fix the reference stream, kills it (logically) at the
/// midpoint checkpoint, and times uninterrupted vs fold-plus-resume.
/// Before any timing is reported the resumed continuation is asserted
/// byte-identical to the reference suffix — the wall-clock comparison
/// is only meaningful between runs that provably produce the same
/// stream (DESIGN.md §3.12).
///
/// # Panics
///
/// Panics if the workload produces no midpoint checkpoint at the given
/// `interval`, or if the resumed stream diverges from the reference.
pub fn e20_resume_wallclock(n: usize, interval: u64) -> Vec<ResumeWallClockRow> {
    use lll_obs::replay::RunState;

    let g = ring(n);
    let inst = random_rank2_instance(&g, 8, 0.9, 7);
    let schedule =
        Schedule::edge(inst.dependency_graph(), 5, 1).expect("schedule coloring converges");
    let run_full = || {
        let mut rec =
            lll_obs::JsonlRecorder::new(Vec::with_capacity(1 << 20)).checkpoint_every(interval);
        dist::run(
            &inst,
            &schedule,
            &Sweep::default(),
            &mut rec,
            &mut NullTiming,
        )
        .expect("below threshold");
        rec.finish().expect("in-memory writer never fails")
    };
    let full = run_full();
    let text = String::from_utf8(full.clone()).expect("stream is utf-8");
    let checkpoints: Vec<lll_obs::Checkpoint> = text
        .lines()
        .filter(|l| l.starts_with(lll_obs::CHECKPOINT_PREFIX))
        .map(|l| lll_obs::Checkpoint::parse(l).expect("recorder writes valid sidecars"))
        .collect();
    assert!(
        checkpoints.len() >= 2,
        "workload too small for a midpoint checkpoint at interval {interval}"
    );
    let kill = checkpoints[checkpoints.len() / 2];
    let cut = usize::try_from(kill.resume_offset()).expect("offset fits usize");
    let prefix = &text[..cut];
    let total_steps = checkpoints.last().expect("non-empty").step;
    let run_resumed = || {
        let (state, torn) = RunState::from_stream(prefix).expect("prefix folds cleanly");
        assert!(torn.is_none(), "prefix cut at a checkpoint is never torn");
        let cursor = ResumeCursor::from_run_state(&state).expect("prefix has a checkpoint");
        let ck = state.last_checkpoint().expect("prefix has a checkpoint");
        let mut tail =
            lll_obs::JsonlRecorder::resumed(Vec::with_capacity(1 << 20), interval, &ck.checkpoint);
        let resume = Sweep {
            resume: cursor,
            ..Sweep::default()
        };
        dist::run(&inst, &schedule, &resume, &mut tail, &mut NullTiming).expect("below threshold");
        tail.finish().expect("in-memory writer never fails")
    };
    // Byte-identity first, timing after: prefix + continuation must be
    // exactly the uninterrupted stream.
    let mut rejoined = prefix.as_bytes().to_vec();
    rejoined.extend_from_slice(&run_resumed());
    assert_eq!(
        rejoined, full,
        "resumed continuation diverged from the uninterrupted stream"
    );
    let (_, full_millis) = best_of(3, run_full);
    let (_, resumed_millis) = best_of(3, run_resumed);
    vec![
        ResumeWallClockRow {
            n,
            mode: "uninterrupted".to_owned(),
            millis: full_millis,
            steps: total_steps,
        },
        ResumeWallClockRow {
            n,
            mode: "resumed".to_owned(),
            millis: resumed_millis,
            steps: total_steps,
        },
    ]
}

/// E22 — the audited E2/E6 drivers on `BigRational` against the
/// recorded pre-gear baseline, with the `BigInt` tier traffic of each
/// timed pass (0 promotions and demotions on both rows since short φ
/// witnesses). Streams and assignments are asserted byte-identical
/// across worker counts before a single number is reported.
#[derive(Debug, Clone)]
pub struct WideTierRow {
    /// Driver label: `"fixer2-audited"` or `"fixer3-audited"`.
    pub driver: String,
    /// Number of events.
    pub n: usize,
    /// Audited driver wall-clock at one worker (ms).
    pub millis: f64,
    /// Pre-gear baseline wall-clock (ms); see the `E22_BASELINE_*`
    /// constants for provenance.
    pub baseline_millis: f64,
    /// `baseline_millis / millis` — the speedup over the pre-gear
    /// baseline.
    pub speedup: f64,
    /// `BigInt` tier promotions during the timed pass.
    pub tier_promotes: u64,
    /// `BigInt` tier demotions during the timed pass.
    pub tier_demotes: u64,
}

/// Pre-gear rank-2 baseline: the audited E22 rank-2 workload
/// (`ring(2048)`, `k = 16`, tightness 0.9, seed 7, exact zero
/// tolerance, one worker, best-of-2) measured at commit `5ab4b4d` —
/// the tip before the wide tier, the audit-probability cache, and the
/// sparse occurring-tuple lists landed — on the same machine that
/// produced `results/e22_wide_tier.csv`.
pub const E22_BASELINE_RANK2_MILLIS: f64 = 113.8;
/// Pre-gear rank-3 baseline (`hyper_ring(512)`, same protocol).
pub const E22_BASELINE_RANK3_MILLIS: f64 = 233.1;

/// Runs experiment E22 on the E2/E6 audited workloads (`ring(n2)`
/// rank 2, `hyper_ring(n3)` rank 3, `k = 16`, tightness 0.9, seed 7,
/// exact zero tolerance). Byte-identity is the gate, timing the
/// payload: recorded streams and assignments must match across
/// `t ∈ {1, 2, 8}` before the audited one-worker wall-clocks (with the
/// tier-counter deltas bracketing each) are reported against the
/// pre-gear baseline.
pub fn e22_wide_tier(n2: usize, n3: usize) -> Vec<WideTierRow> {
    let g = ring(n2);
    let i2 = crate::workloads::random_rank2_instance_in::<BigRational>(&g, 16, 0.9, 7);
    let p2 = i2.max_event_probability();
    let h = hyper_ring(n3);
    let i3 = crate::workloads::random_rank3_instance_in::<BigRational>(&h, 16, 0.9, 7);
    let p3 = i3.max_event_probability();
    let zero = BigRational::zero();

    let mut first = None;
    for t in [1usize, 2, 8] {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep2 = solve_seeded_recorded(
            &i2,
            ScheduleKind::Edge,
            5,
            &audited(t, &p2, &zero),
            &mut rec,
        );
        let s2 = rec.finish().expect("in-memory writer never fails");
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let rep3 = solve_seeded_recorded(
            &i3,
            ScheduleKind::Distance2,
            5,
            &audited(t, &p3, &zero),
            &mut rec,
        );
        let s3 = rec.finish().expect("in-memory writer never fails");
        let run = (
            s2,
            format!("{:?}/{}", rep2.fix.assignment(), rep2.rounds),
            s3,
            format!("{:?}/{}", rep3.fix.assignment(), rep3.rounds),
        );
        let Some(base) = &first else {
            first = Some(run);
            continue;
        };
        assert_eq!(
            run.0, base.0,
            "rank-2 stream diverged across workers at t={t}"
        );
        assert_eq!(
            run.1, base.1,
            "rank-2 assignment diverged across workers at t={t}"
        );
        assert_eq!(
            run.2, base.2,
            "rank-3 stream diverged across workers at t={t}"
        );
        assert_eq!(
            run.3, base.3,
            "rank-3 assignment diverged across workers at t={t}"
        );
    }

    lll_numeric::reset_tier_counters();
    let (_, millis2) = best_of(2, || {
        solve_seeded(&i2, ScheduleKind::Edge, 5, &audited(1, &p2, &zero))
    });
    let tiers2 = lll_numeric::tier_counters();
    lll_numeric::reset_tier_counters();
    let (_, millis3) = best_of(2, || {
        solve_seeded(&i3, ScheduleKind::Distance2, 5, &audited(1, &p3, &zero))
    });
    let tiers3 = lll_numeric::tier_counters();

    let row =
        |driver: &str, n, millis, baseline_millis, tiers: lll_numeric::TierCounters| WideTierRow {
            driver: driver.to_owned(),
            n,
            millis,
            baseline_millis,
            speedup: baseline_millis / millis,
            tier_promotes: tiers.promote,
            tier_demotes: tiers.demote,
        };
    vec![
        row(
            "fixer2-audited",
            n2,
            millis2,
            E22_BASELINE_RANK2_MILLIS,
            tiers2,
        ),
        row(
            "fixer3-audited",
            n3,
            millis3,
            E22_BASELINE_RANK3_MILLIS,
            tiers3,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_succeeds_everywhere_below_threshold() {
        for row in e1_fixer2_success(3) {
            assert_eq!(row.successes, row.trials, "{row:?}");
            assert!(row.criterion < 1.0);
        }
    }

    #[test]
    fn e5_succeeds_everywhere_below_threshold() {
        for row in e5_fixer3_success(3) {
            assert_eq!(row.successes, row.trials, "{row:?}");
            assert!(row.criterion < 1.0);
        }
    }

    #[test]
    fn e3_surface_matches_brute_force() {
        let (rows, max_dev) = e3_surface(0.5);
        assert!(rows.len() > 20);
        assert!(max_dev < 2e-3, "max deviation {max_dev}");
        let (inside, outside) = e3_membership_spot_checks();
        assert!(inside > 30 && outside > 30);
    }

    #[test]
    fn e4_decomposes_exactly() {
        let (vals, ok) = e4_figure2();
        assert!(ok);
        assert_eq!(vals.len(), 6);
    }

    #[test]
    fn e7_shows_a_phase_transition() {
        let rows = e7_threshold_sweep(4);
        // Below threshold: perfect success and intact invariants.
        for row in rows.iter().filter(|r| r.tightness < 1.0) {
            assert_eq!(row.successes_r2, row.trials, "{row:?}");
            assert_eq!(row.successes_r3, row.trials, "{row:?}");
            assert_eq!(row.invariant_intact_r3, row.trials, "{row:?}");
        }
        // At t = 2^d some events are certain: success is impossible.
        let far = rows.last().expect("sweep is nonempty");
        assert!((far.tightness - 16.0).abs() < 1e-9);
        assert_eq!(far.successes_r2, 0, "{far:?}");
        assert_eq!(far.successes_r3, 0, "{far:?}");
    }

    #[test]
    fn e9_documents_the_boundary() {
        let rows = e9_boundary(&[32, 64]);
        for row in rows {
            assert!((row.criterion - 1.0).abs() < 1e-9);
            assert!(row.fixer_refused);
            assert!(row.mt_solved);
            assert!((row.expected_random_sinks - row.n as f64 / 16.0).abs() < 1e-9);
        }
    }

    #[test]
    fn audited_runs_hold_p_star() {
        assert!(audited_rank3_run(8, 1));
    }

    #[test]
    fn e11_all_adversaries_fail_to_break_the_fixers() {
        for row in e11_adversaries(2) {
            assert_eq!(row.successes_r2, row.trials, "{row:?}");
            assert_eq!(row.successes_r3, row.trials, "{row:?}");
        }
    }

    #[test]
    fn e13_documents_the_criterion_gap() {
        let rows = e13_criterion_gap();
        // There must be a regime where the sharp guarantee applies but
        // the generic one does not — the paper's motivation.
        assert!(
            rows.iter().any(|r| r.sharp_applies && !r.generic_applies),
            "{rows:?}"
        );
        // Generic criterion is monotone in k and eventually holds.
        assert!(rows.last().expect("nonempty").generic_applies, "{rows:?}");
        // Whenever the generic criterion holds, FG must succeed.
        for r in &rows {
            if r.generic_applies {
                assert!(r.fg_succeeded, "{r:?}");
            }
        }
    }

    #[test]
    fn e12_honest_rounds_are_reported() {
        let rows = e12_honest_mt(&[32, 64], 2);
        for row in rows {
            assert!(row.honest_rounds > 2 * 8, "{row:?}");
        }
    }

    #[test]
    fn e15_recorders_agree_on_the_workload() {
        let rows = e15_recorder_overhead(&[128]);
        assert_eq!(rows.len(), 3);
        let null = rows.iter().find(|r| r.recorder == "null").unwrap();
        let counter = rows.iter().find(|r| r.recorder == "counter").unwrap();
        let jsonl = rows.iter().find(|r| r.recorder == "jsonl").unwrap();
        // Every recorder flavor sees the same deterministic event stream.
        assert_eq!(counter.events, jsonl.events);
        assert!(counter.events > 0);
        assert!(jsonl.bytes > 0);
        assert_eq!(null.events, 0);
        assert!((null.overhead - 1.0).abs() < 1e-12);
    }

    #[test]
    fn e20_checkpointing_adds_sidecars_not_events() {
        let rows = e20_resume_overhead(96, &[8]);
        assert_eq!(rows.len(), 2);
        let off = rows.iter().find(|r| r.interval == "off").unwrap();
        let on = rows.iter().find(|r| r.interval == "8").unwrap();
        assert_eq!(off.checkpoints, 0);
        assert!(on.checkpoints > 0, "{on:?}");
        // Sidecars are the only extra bytes: the event stream itself is
        // byte-identical with checkpointing on or off.
        assert!(on.bytes > off.bytes, "sidecars occupy bytes");
        assert_eq!(on.event_bytes, off.bytes);
        assert!((off.overhead - 1.0).abs() < 1e-12);
        // The count gate: one sidecar per full interval, each event line
        // digested once.
        assert_eq!(on.progress, off.progress);
        assert_eq!(on.checkpoints, on.progress / 8);
        assert_eq!(on.digested, on.event_bytes as u64);
        assert_eq!(off.digested, 0);
    }

    #[test]
    fn e20_resumed_run_rejoins_the_reference_stream() {
        // The byte-identity assertion lives inside the experiment; a
        // divergence panics before any row is returned.
        let rows = e20_resume_wallclock(96, 8);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.millis > 0.0 && r.steps > 0));
    }

    #[test]
    fn trace_workload_counts_match_outcomes() {
        let mut rec = lll_obs::CounterRecorder::new();
        let (lin, red) = record_trace_workload(96, 1, &mut rec);
        assert_eq!(rec.sim_runs, 2);
        assert_eq!(rec.rounds, lin.rounds + red.rounds);
        assert_eq!(rec.messages, lin.messages + red.messages);
        assert_eq!(lin.messages_per_round().iter().sum::<usize>(), lin.messages);
    }
}
