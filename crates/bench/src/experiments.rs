//! The experiment suite (ids E1–E10, A1–A2; see `DESIGN.md` §4).
//!
//! Each function runs one experiment and returns typed rows; the
//! `tables` binary renders them into the tables recorded in
//! `EXPERIMENTS.md`.

use std::sync::Arc;
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
use lll_mt::{parallel_mt, sequential_mt};
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
            let mt = parallel_mt(&inst, 5, 1_000_000).expect("classic criterion regime");
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
            let mt = parallel_mt(&inst, 5, 1_000_000).expect("classic criterion regime");
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

/// The criterion tightness values E7 sweeps (A1 reuses them).
const E7_TIGHTNESS: [f64; 14] = [
    0.25, 0.5, 0.75, 0.9, 0.99, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 6.0, 10.0, 16.0,
];

/// Runs experiment E7. Both instance families have `d = 4`, so the
/// sweep endpoint `t = 2^d = 16` makes some events *certain* — success
/// is then impossible for any algorithm, bracketing the transition.
pub fn e7_threshold_sweep(trials: usize) -> Vec<ThresholdRow> {
    let g = torus(6, 6);
    let h = hyper_ring(36);
    let rows = E7_TIGHTNESS.map(|t| {
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
    });
    rows.into()
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
            let mt = parallel_mt(&inst, 17, 1_000_000).expect("classic criterion holds for d=4");
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
                par_total += parallel_mt(&inst, trial as u64, 10_000_000)
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

/// Runs ablation A1 on E7's tightness grid, where the rank-3 fixer's
/// success starts to fall, so the rules can separate.
pub fn a1_value_rule(trials: usize) -> Vec<AblationRow> {
    let h = hyper_ring(36);
    let mut rows = Vec::new();
    for (label, rule) in [
        ("best-score", ValueRule::BestScore),
        ("first-feasible", ValueRule::FirstFeasible),
    ] {
        for &t in &E7_TIGHTNESS {
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
    /// Wall-clock of one full fixing pass (µs), median over the rounds.
    pub micros: f64,
    /// Per-round time relative to `f64` as `[q1, median, q3]` (exactly
    /// 1 for `f64`).
    pub vs_f64: [f64; 3],
    /// `BigInt` tier promotions during the run (0 for `f64`).
    pub tier_promotes: u64,
    /// `BigInt` tier demotions during the run (0 for `f64`).
    pub tier_demotes: u64,
}

/// Runs ablation A2 on a hyper-ring orientation instance: `f64` vs
/// exact `BigRational`, the two backends the sides of one [`sample`].
/// Both backends' instances are built once, off the clock. The success
/// flag and the tier counters, deterministic, are the last pass's.
pub fn a2_backend() -> Vec<BackendRow> {
    use lll_numeric::TierCounters;
    let h = hyper_ring(12);
    let inst_f = hyper_orientation_instance::<f64>(&h).expect("valid hypergraph");
    let inst_q = hyper_orientation_instance::<BigRational>(&h).expect("valid hypergraph");
    // `f64`: fix (no tiers to count).
    let mut f64_side = || {
        let rep = Fixer3::new(&inst_f).expect("below threshold").run_default();
        let rep = rep.expect("finite costs below the threshold");
        (rep.is_success(), TierCounters::default())
    };
    // Exact: fix, then one audit at the end of the run (per-step audits
    // are what the unit tests do; here we bill a realistic usage), with
    // the tier-transition counters bracketing the run.
    let mut exact_side = || {
        lll_numeric::reset_tier_counters();
        let p = inst_q.max_event_probability();
        let mut fixer = Fixer3::new(&inst_q).expect("below threshold");
        for x in 0..inst_q.num_variables() {
            fixer.fix_variable(x).expect("exact costs are finite");
        }
        let zero = BigRational::zero();
        let audit = audit_p_star(&inst_q, fixer.partial(), fixer.phi(), &p, &zero);
        let success = fixer.into_report().is_success() && audit.holds();
        (success, lll_numeric::tier_counters())
    };
    let sides: &mut [&mut dyn FnMut() -> (bool, TierCounters)] =
        &mut [&mut f64_side, &mut exact_side];
    ["f64", "exact"]
        .into_iter()
        .zip(sample(sides))
        .map(|(backend, ((success_and_audit, tiers), t))| BackendRow {
            backend: backend.to_owned(),
            success_and_audit,
            micros: t.millis[1] * 1e3,
            vs_f64: t.ratio,
            tier_promotes: tiers.promote,
            tier_demotes: tiers.demote,
        })
        .collect()
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
            let looped = parallel_mt(&inst, 13, 1 << 20).expect("converges");
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
            for i in 0..n {
                b.add_uniform_variable(&[i, (i + 1) % n], k);
                b.set_event_bad_tuples(i, [[0, 0]]);
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
    /// prebuilt line graph — in milliseconds, median over the rounds.
    pub sim_seq_millis: f64,
    /// `Simulator::run_auto` (slab engine) wall-clock of the same two
    /// programs.
    pub sim_par_millis: f64,
    /// Per-round `sim_seq / sim_par` as `[q1, median, q3]`.
    pub sim_speedup: [f64; 3],
    /// Full rank-2 driver wall-clock (edge-schedule coloring plus
    /// `dist::run`) at one thread (the slab engine at one shard).
    pub driver_seq_millis: f64,
    /// The same at `threads` workers.
    pub driver_par_millis: f64,
    /// Per-round `driver_seq / driver_par` as `[q1, median, q3]`.
    pub driver_speedup: [f64; 3],
}

/// Runs experiment E14: at each size, one [`sample`] times the
/// reference engine against the slab engine at each worker count, and a
/// second times the driver at one worker against each worker count,
/// asserting bit-for-bit equal outcomes before any row is returned.
///
/// Both the LOCAL-simulation portion alone (`Simulator::run` vs
/// `Simulator::run_auto` on the schedule coloring) and the full
/// driver are reported; the driver includes the fixing sweep, so its
/// speedup is an Amdahl-diluted version of the simulator's.
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
        let lg = dep.line_graph();
        let lsim = Simulator::new(&lg);
        let delta = lg.max_degree() as u64;
        let schedule = lll_coloring::linial_schedule(lg.num_nodes() as u64, delta);
        let fixed = schedule
            .last()
            .map_or(lg.num_nodes() as u64, |&(_, q)| q * q);
        let template = lll_coloring::LinialProgram::new(schedule);
        // One Linial run seeds the reduction stage of every side (node
        // ids on `lsim` are graph indices).
        let rough = lsim.run(|_| template.clone(), budget).expect("converges");
        let mk_reduce = |ctx: &lll_local::NodeContext| {
            lll_coloring::ReduceProgram::new(rough.outputs[ctx.id as usize], fixed, delta + 1)
        };
        let psims: Vec<Simulator> = thread_counts
            .iter()
            .map(|&t| lsim.clone().threads(t))
            .collect();
        let (lsim, template, mk_reduce) = (&lsim, &template, &mk_reduce);
        let mut sim_sides: Vec<_> = std::iter::once(None)
            .chain(psims.iter().map(Some))
            .map(|psim| {
                move || {
                    let stages = match psim {
                        None => (
                            lsim.run(|_| template.clone(), budget),
                            lsim.run(mk_reduce, budget),
                        ),
                        Some(p) => (
                            p.run_auto(|_| template.clone(), budget),
                            p.run_auto(mk_reduce, budget),
                        ),
                    };
                    (stages.0.expect("converges"), stages.1.expect("converges"))
                }
            })
            .collect();
        let sim = sample(&mut sim_sides);
        let (seq_out, sim_seq) = &sim[0];
        assert_eq!(
            seq_out.0.outputs, rough.outputs,
            "linial must be deterministic"
        );
        // Cross-check: the staged programs reproduce the driver's own
        // schedule coloring.
        let col = vertex_coloring(lsim, budget).expect("converges");
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
        for (par_out, _) in &sim[1..] {
            for (par, seq) in [(&par_out.0, &seq_out.0), (&par_out.1, &seq_out.1)] {
                assert_eq!(par.outputs, seq.outputs, "engines must agree");
                assert_eq!(par.rounds, seq.rounds, "engines must agree");
            }
        }

        let driver = sample_workers(thread_counts, |t| {
            solve_seeded(&inst, ScheduleKind::Edge, 5, &workers(t))
        });
        for ((&threads, (_, sim_par)), driver_par) in
            thread_counts.iter().zip(&sim[1..]).zip(&driver[1..])
        {
            rows.push(SpeedupRow {
                n,
                threads,
                sim_seq_millis: sim_seq.millis[1],
                sim_par_millis: sim_par.millis[1],
                sim_speedup: sim_par.speedup(),
                driver_seq_millis: driver[0].millis[1],
                driver_par_millis: driver_par.millis[1],
                driver_speedup: driver_par.speedup(),
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
/// run inside the sweep workers, so the whole driver scales.
#[derive(Debug, Clone)]
pub struct FixSpeedupRow {
    /// Driver label: `"fixer2-audited"` or `"fixer3-audited"`.
    pub driver: String,
    /// Number of events.
    pub n: usize,
    /// Sweep worker threads.
    pub threads: usize,
    /// Audited driver wall-clock at 1 worker (ms), median over the
    /// rounds.
    pub seq_millis: f64,
    /// Audited driver wall-clock at `threads` workers (ms).
    pub par_millis: f64,
    /// Per-round `seq / par` as `[q1, median, q3]`.
    pub speedup: [f64; 3],
}

/// Runs experiment E17: at each size, one [`sample`] per driver times
/// the audited driver at 1 worker against each worker count, asserting
/// bit-for-bit equal assignments and round bills before any row is
/// returned. The `threads = 1` row times the 1-worker driver against
/// itself: its speedup is the noise floor.
pub fn e17_fixing_speedup(sizes: &[usize], thread_counts: &[usize]) -> Vec<FixSpeedupRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        // Rank 2: the E2 ring workload under a per-class audit.
        let i2 = random_rank2_instance(&ring(n), 8, 0.9, 7);
        let p2 = i2.max_event_probability();
        let r2 = sample_workers(thread_counts, |t| {
            solve_seeded(&i2, ScheduleKind::Edge, 5, &audited(t, &p2, &1e-9))
        });
        // Rank 3: the E6 hyper-ring workload under a per-class audit.
        let i3 = random_rank3_instance(&hyper_ring(n), 8, 0.9, 7);
        let p3 = i3.max_event_probability();
        let r3 = sample_workers(thread_counts, |t| {
            solve_seeded(&i3, ScheduleKind::Distance2, 5, &audited(t, &p3, &1e-9))
        });
        for (i, &threads) in thread_counts.iter().enumerate() {
            for (driver, timed) in [("fixer2-audited", &r2), ("fixer3-audited", &r3)] {
                rows.push(FixSpeedupRow {
                    driver: driver.to_owned(),
                    n,
                    threads,
                    seq_millis: timed[0].millis[1],
                    par_millis: timed[i + 1].millis[1],
                    speedup: timed[i + 1].speedup(),
                });
            }
        }
    }
    rows
}

/// Times `solve` at one worker and at each of `thread_counts`, the
/// sides of one [`sample`], and asserts that every run's round bill and
/// assignment equal the one-worker run's. Returns the timings, the
/// one-worker side first.
fn sample_workers(thread_counts: &[usize], solve: impl Fn(usize) -> DistReport) -> Vec<Timing> {
    let solve = &solve;
    let mut sides: Vec<_> = std::iter::once(1)
        .chain(thread_counts.iter().copied())
        .map(|t| move || solve(t))
        .collect();
    let timed = sample(&mut sides);
    let base = &timed[0].0;
    for (report, _) in &timed[1..] {
        assert_eq!(report.rounds, base.rounds, "sweeps must agree");
        assert_eq!(
            report.fix.assignment(),
            base.fix.assignment(),
            "sweeps must agree"
        );
    }
    timed.into_iter().map(|(_, t)| t).collect()
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
    /// Requests per timed pass.
    pub requests: usize,
    /// Clauses per formula (ring-formula `m`).
    pub clauses: usize,
    /// Clause width (ring-formula `w`).
    pub width: usize,
    /// Median request latency in microseconds (`obs::hist`), over every
    /// pass of the mode.
    pub p50_micros: u64,
    /// 99th-percentile request latency in microseconds (`obs::hist`).
    pub p99_micros: u64,
    /// Instances solved per second, at the mode's median pass time.
    pub inst_per_sec: f64,
    /// Per-round cold pass time over this mode's as `[q1, median, q3]`
    /// (exactly 1 for `"cold"`).
    pub speedup: [f64; 3],
    /// Schedule-cache hits during the last timed pass
    /// ([`lll_serve::EngineStats`] delta).
    pub cache_hits: u64,
    /// Schedule-cache misses during the last timed pass.
    pub cache_misses: u64,
}

/// The E18/E19 serve workload: `requests` same-shape rank-3 DIMACS
/// solve requests (ring formulas with `m` clauses of width `w`, distinct
/// polarity seeds — one dependency graph, so one fingerprint), and two
/// engines with the schedule-cache capacities `capacities` (`Some(0)`
/// is the cache off). Every
/// request runs through both engines before this returns, asserting
/// identical response bytes and a solved status, so both engines are
/// warm and the determinism contract holds before any pass is timed.
/// Returns the wire lines, the engines and the responses.
fn serve_workload(
    requests: usize,
    m: usize,
    w: usize,
    capacities: [Option<usize>; 2],
) -> (Vec<String>, [Arc<lll_serve::Engine>; 2], Vec<String>) {
    use lll_serve::{Engine, EngineConfig, Payload, Request, SolveRequest};

    let wire: Vec<String> = (0..requests)
        .map(|i| {
            Request::Solve(SolveRequest {
                id: format!("\"serve-{i}\""),
                payload: Payload::Dimacs(ring_formula(m, w, i as u64).to_string()),
                schedule_seed: None,
                obs: None,
                timeout_ms: None,
            })
            .to_json()
        })
        .collect();
    let engines = capacities.map(|cache_capacity| {
        Arc::new(Engine::new(EngineConfig {
            cache_capacity,
            ..EngineConfig::default()
        }))
    });
    let responses: Vec<String> = wire
        .iter()
        .map(|line| {
            let a = engines[0].solve_line(line).to_json();
            let b = engines[1].solve_line(line).to_json();
            assert_eq!(a, b, "engine configuration leaked into a response");
            assert!(a.contains("\"status\":\"ok\""), "serve workload must solve");
            a
        })
        .collect();
    (wire, engines, responses)
}

/// Runs experiment E18: the `serve_workload` through a cold engine
/// (cache capacity 0, schedule recomputed per request) and a warm
/// engine (fingerprint cache primed), the two sides of one [`sample`].
/// Latencies of every pass land in one [`lll_obs::hist::Histogram`]
/// per mode; the workload builder has already run every request
/// through both engines, so the sampler's warm-up pass is as warm as
/// the timed ones. Each row also carries the engine's cache-counter
/// deltas over its last timed pass, the deterministic evidence that
/// every cold request colored its schedule and every warm one skipped
/// the coloring.
pub fn e18_serve_throughput(requests: usize, m: usize, w: usize) -> Vec<ServeThroughputRow> {
    let (wire, engines, _) = serve_workload(requests, m, w, [Some(0), None]);
    assert_eq!(
        engines[1].cached_schedules(),
        1,
        "same-shape requests must share one schedule"
    );
    let mut hists = [
        lll_obs::hist::Histogram::new(),
        lll_obs::hist::Histogram::new(),
    ];
    let wire = &wire;
    let mut sides: Vec<_> = engines
        .iter()
        .zip(&mut hists)
        .map(|(engine, hist)| {
            move || {
                let before = engine.stats();
                for line in wire {
                    let req = Instant::now();
                    let response = engine.solve_line(line);
                    hist.record(req.elapsed().as_micros() as u64);
                    debug_assert!(!response.is_shutdown());
                }
                let after = engine.stats();
                (
                    after.cache_hits - before.cache_hits,
                    after.cache_misses - before.cache_misses,
                )
            }
        })
        .collect();
    let timed = sample(&mut sides);
    ["cold", "warm"]
        .into_iter()
        .zip(hists.iter().zip(timed))
        .map(
            |(mode, (hist, ((cache_hits, cache_misses), t)))| ServeThroughputRow {
                mode: mode.to_owned(),
                requests,
                clauses: m,
                width: w,
                p50_micros: hist.p50(),
                p99_micros: hist.p99(),
                inst_per_sec: requests as f64 / (t.millis[1] / 1e3),
                speedup: t.speedup(),
                cache_hits,
                cache_misses,
            },
        )
        .collect()
}

/// E19 — live-telemetry overhead: the E18 warm workload, quiet vs
/// scraped through a real `--metrics` Unix socket.
#[derive(Debug, Clone)]
pub struct MetricsOverheadRow {
    /// `"quiet"` (telemetry idle) or `"scraped"` (exporter bound and a
    /// scraper hammering the socket for the whole run).
    pub mode: String,
    /// Requests per timed pass.
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
    /// Per-round scraped pass time over the quiet one as `[q1, median,
    /// q3]` (exactly 1 for `"quiet"`). A diagnostic: on a shared host
    /// its spread covers the effect it would measure.
    pub overhead: [f64; 3],
    /// Scrapes served during the mode's passes (0 for `"quiet"`, whose
    /// passes the scraper sits out).
    pub scrapes: u64,
    /// Whether the mode's exposition, read after the last pass, reports
    /// `lll_serve_requests_total` and `lll_serve_cache_hits_total`
    /// equal to its engine's [`lll_serve::EngineStats`]: through the
    /// metrics socket for `"scraped"`, rendered in process for
    /// `"quiet"`.
    pub counters_match: bool,
}

/// One Prometheus scrape of the Unix socket at `path`: the whole HTTP
/// response, or `None` when the exporter cannot be reached.
fn scrape(path: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut s = std::os::unix::net::UnixStream::connect(path).ok()?;
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut body = String::new();
    s.read_to_string(&mut body).ok()?;
    Some(body)
}

/// Whether `exposition` reports the request and cache-hit totals of
/// `stats`.
fn counters_match(exposition: &str, stats: &lll_serve::EngineStats) -> bool {
    let value = |name: &str| {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
    };
    value("lll_serve_requests_total") == Some(stats.requests)
        && value("lll_serve_cache_hits_total") == Some(stats.cache_hits)
}

/// Runs experiment E19: the warm E18 workload (`serve_workload` with
/// both caches on) solved in two modes — telemetry idle vs the
/// Prometheus exporter bound to a Unix socket with a scraper thread
/// fetching the exposition throughout — the two sides of one
/// [`sample`]. Every pass asserts its response bytes identical to the
/// workload's (the side-band contract). CI gates the counts, not the
/// time ratio: the scraped row must have served scrapes, and its
/// post-run scrape must agree with the engine's counters.
pub fn e19_metrics_overhead(requests: usize, m: usize, w: usize) -> Vec<MetricsOverheadRow> {
    use lll_serve::{spawn_telemetry, TelemetryConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let (wire, engines, baseline) = serve_workload(requests, m, w, [None, None]);

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
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if active.load(Ordering::Relaxed)
                    && scrape(&path).is_some_and(|body| body.contains("lll_serve_requests_total"))
                {
                    scrapes += 1;
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

    let mut hists = [
        lll_obs::hist::Histogram::new(),
        lll_obs::hist::Histogram::new(),
    ];
    let (wire, baseline, active) = (&wire, &baseline, &active);
    let mut sides: Vec<_> = engines
        .iter()
        .zip(&mut hists)
        .enumerate()
        .map(|(mi, (engine, hist))| {
            move || {
                active.store(mi == 1, Ordering::Relaxed);
                let responses: Vec<String> = wire
                    .iter()
                    .map(|line| {
                        let req = Instant::now();
                        let response = engine.solve_line(line).to_json();
                        hist.record(req.elapsed().as_micros() as u64);
                        response
                    })
                    .collect();
                // Scraping cannot change a response byte.
                assert_eq!(&responses, baseline, "telemetry changed response bytes");
            }
        })
        .collect();
    let timed = sample(&mut sides);
    active.store(false, Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "E19 scraped mode never scraped the socket");
    let matches = [
        counters_match(&engines[0].render_metrics(), &engines[0].stats()),
        scrape(&socket).is_some_and(|body| counters_match(&body, &engines[1].stats())),
    ];
    telemetry.shutdown();

    ["quiet", "scraped"]
        .into_iter()
        .zip(hists.iter().zip(timed))
        .zip([0, scrapes].into_iter().zip(matches))
        .map(
            |((mode, (hist, ((), t))), (scrapes, counters_match))| MetricsOverheadRow {
                mode: mode.to_owned(),
                requests,
                clauses: m,
                width: w,
                p50_micros: hist.p50(),
                p99_micros: hist.p99(),
                inst_per_sec: requests as f64 / (t.millis[1] / 1e3),
                overhead: t.ratio,
                scrapes,
                counters_match,
            },
        )
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

/// The traced schedule-coloring workload — the LOCAL portion of the E14
/// rank-2 driver (Linial color reduction, then the block color
/// reduction, on the line graph of a ring-based rank-2 instance) —
/// built once by [`TraceWorkload::new`], so that a timed pass covers
/// only [`TraceWorkload::record`]'s two programs.
pub struct TraceWorkload {
    inst: Instance<f64>,
    lg: lll_graphs::Graph,
    schedule: Vec<(u64, u64)>,
}

impl TraceWorkload {
    /// Builds the instance on `ring(n)`, its line graph and the Linial
    /// schedule.
    pub fn new(n: usize) -> TraceWorkload {
        let inst = random_rank2_instance(&ring(n), 8, 0.9, 7);
        let lg = inst.dependency_graph().line_graph();
        let schedule = lll_coloring::linial_schedule(lg.num_nodes() as u64, lg.max_degree() as u64);
        TraceWorkload { inst, lg, schedule }
    }

    /// Runs the workload on `threads` shards through the given flight
    /// recorder and side-band timing sink, and returns the two outcomes
    /// (Linial, Reduce).
    ///
    /// Both runs use the slab engine production runs, at every thread
    /// count (`Simulator::run_auto_timed_recorded`); its stream is
    /// byte-identical to the reference engine's
    /// (`tests/parallel_differential.rs` pins this). The simulator feeds
    /// `sim_run`/`sim_round`/`shard_work` spans into `timing`, which
    /// never touches the event stream in `rec` — pass [`NullTiming`] for
    /// an untimed run.
    pub fn record<R: lll_obs::Recorder, T: lll_obs::TimingSink>(
        &self,
        threads: usize,
        rec: &mut R,
        timing: &mut T,
    ) -> (lll_local::RunOutcome<u64>, lll_local::RunOutcome<u64>) {
        let budget = 10_000 + 4 * self.inst.num_events();
        let delta = self.lg.max_degree() as u64;
        let fixed = self
            .schedule
            .last()
            .map_or(self.lg.num_nodes() as u64, |&(_, q)| q * q);
        let lsim = lll_local::Simulator::new(&self.lg).threads(threads);
        let template = lll_coloring::LinialProgram::new(self.schedule.clone());
        let lin = lsim
            .run_auto_timed_recorded(|_| template.clone(), budget, rec, timing)
            .expect("converges");
        let mk_reduce = |ctx: &lll_local::NodeContext| {
            lll_coloring::ReduceProgram::new(lin.outputs[ctx.id as usize], fixed, delta + 1)
        };
        let red = lsim
            .run_auto_timed_recorded(mk_reduce, budget, rec, timing)
            .expect("converges");
        (lin, red)
    }

    /// Feeds `fix_run`/`fix_step` spans into `timing` by running the
    /// rank-2 φ-fixer on the workload's instance. The event stream goes
    /// to a [`NullRecorder`] on purpose: profiling the fixer must not
    /// append events to (or otherwise perturb) a trace being recorded
    /// alongside.
    pub fn time_fixer<T: lll_obs::TimingSink>(&self, timing: &mut T) {
        let report = Fixer2::new(&self.inst)
            .expect("trace instance is below the rank-2 threshold")
            .run_with(
                0..self.inst.num_variables(),
                None,
                &mut NullRecorder,
                timing,
            )
            .expect("finite costs below the threshold");
        assert!(
            report.violated_events().is_empty(),
            "rank-2 fixing must succeed on the trace instance"
        );
    }
}

/// E15 — flight-recorder overhead: one workload, three recorder flavors.
#[derive(Debug, Clone)]
pub struct RecorderOverheadRow {
    /// Ring size (events of the generated instance).
    pub n: usize,
    /// Recorder flavor: `"null"`, `"counter"` or `"jsonl"`.
    pub recorder: String,
    /// Wall-clock milliseconds of the traced portion, median over the
    /// rounds.
    pub millis: f64,
    /// Per-round time relative to the `"null"` side of the same `n`, as
    /// `[q1, median, q3]`.
    pub overhead: [f64; 3],
    /// Events recorded in one pass (0 for `"null"`).
    pub events: usize,
    /// JSONL bytes written per pass (0 except for `"jsonl"`).
    pub bytes: usize,
}

/// Runs experiment E15: times [`TraceWorkload::record`] under
/// [`NullRecorder`] (which is exactly the code
/// path the unrecorded entry points delegate to — its "overhead" row is
/// the measurement-noise floor), [`CounterRecorder`](lll_obs::CounterRecorder)
/// and an in-memory [`JsonlRecorder`](lll_obs::JsonlRecorder), the three
/// sides of one [`sample`] per size. The workload is built once per
/// size, off the clock.
pub fn e15_recorder_overhead(sizes: &[usize]) -> Vec<RecorderOverheadRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let work = TraceWorkload::new(n);
        // Each side returns the (events, bytes) of its pass.
        let mut null = || {
            work.record(1, &mut NullRecorder, &mut NullTiming);
            (0, 0)
        };
        let mut counter = || {
            let mut rec = lll_obs::CounterRecorder::new();
            work.record(1, &mut rec, &mut NullTiming);
            (rec.events, 0)
        };
        let mut jsonl = || {
            let mut rec = lll_obs::JsonlRecorder::new(Vec::with_capacity(1 << 20));
            work.record(1, &mut rec, &mut NullTiming);
            let lines = rec.lines();
            (
                lines,
                rec.finish().expect("in-memory writer never fails").len(),
            )
        };
        let sides: &mut [&mut dyn FnMut() -> (usize, usize)] =
            &mut [&mut null, &mut counter, &mut jsonl];
        for (recorder, ((events, bytes), t)) in
            ["null", "counter", "jsonl"].into_iter().zip(sample(sides))
        {
            rows.push(RecorderOverheadRow {
                n,
                recorder: recorder.to_owned(),
                millis: t.millis[1],
                overhead: t.ratio,
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
    /// Wall-clock milliseconds of the traced portion, median over the
    /// rounds.
    pub millis: f64,
    /// Per-round time relative to the `"off"` side of the same `n`, as
    /// `[q1, median, q3]`.
    pub overhead: [f64; 3],
    /// Timing spans recorded in one pass (0 for `"off"`).
    pub spans: u64,
}

/// Runs experiment E16: times [`TraceWorkload::record`] under
/// [`NullTiming`] — which is exactly the code path
/// the untimed entry points delegate to, so its "overhead" row is the
/// noise floor — and under a live
/// [`TimingRecorder`](lll_obs::TimingRecorder), the two sides of one
/// [`sample`] per size, with the workload built once per size, off the
/// clock. The acceptance target (EXPERIMENTS.md) is an
/// `"on"` overhead within 1.05× of `"off"` on the E14 schedule-coloring
/// workload: one histogram store per span, no allocation on the hot
/// path.
pub fn e16_timing_overhead(sizes: &[usize]) -> Vec<TimingOverheadRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let work = TraceWorkload::new(n);
        // Each side returns the spans of its pass.
        let mut off = || {
            work.record(1, &mut NullRecorder, &mut NullTiming);
            0
        };
        let mut on = || {
            let mut timing = lll_obs::TimingRecorder::new();
            work.record(1, &mut NullRecorder, &mut timing);
            timing.spans()
        };
        let sides: &mut [&mut dyn FnMut() -> u64] = &mut [&mut off, &mut on];
        for (flavor, (spans, t)) in ["off", "on"].into_iter().zip(sample(sides)) {
            rows.push(TimingOverheadRow {
                n,
                timing: flavor.to_owned(),
                millis: t.millis[1],
                overhead: t.ratio,
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
    /// Wall-clock milliseconds of one recorded sweep, median over the
    /// rounds.
    pub millis: f64,
    /// Per-round time relative to the `"off"` side as `[q1, median,
    /// q3]` (exactly 1 for `"off"`).
    pub overhead: [f64; 3],
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

/// The E20 workload, built off the clock: the instance and the colored
/// schedule of [`record_sweep_workload`] at one worker, whose sweep
/// (`dist::run` with the default [`Sweep`]) both halves of E20 time.
fn e20_workload(n: usize) -> (Instance<f64>, Schedule) {
    let inst = random_rank2_instance(&ring(n), 8, 0.9, 7);
    let schedule =
        Schedule::edge(inst.dependency_graph(), 5, 1).expect("schedule coloring converges");
    (inst, schedule)
}

/// Runs the checkpoint-interval half of experiment E20: the
/// `e20_workload` sweep streaming into an in-memory
/// [`lll_obs::JsonlRecorder`] with checkpointing off and with a
/// `#checkpoint` sidecar every `interval` progress events, each cadence
/// one side of a single [`sample`]. The timings are context; the gate
/// is on counts (EXPERIMENTS.md): each cadence writes
/// `⌊progress / interval⌋` sidecars, and its digest consumes exactly
/// the stream's event bytes, so a sidecar is one short line and each
/// event line is digested once, never a prefix re-read.
pub fn e20_resume_overhead(n: usize, intervals: &[u64]) -> Vec<ResumeOverheadRow> {
    let (inst, schedule) = &e20_workload(n);
    let cadences: Vec<Option<u64>> = std::iter::once(None)
        .chain(intervals.iter().copied().map(Some))
        .collect();
    // Each side returns its pass's stream and the bytes its digest
    // consumed.
    let mut sides: Vec<_> = cadences
        .iter()
        .map(|&interval| {
            move || {
                let mut rec = lll_obs::JsonlRecorder::new(Vec::with_capacity(1 << 20));
                if let Some(interval) = interval {
                    rec = rec.checkpoint_every(interval);
                }
                dist::run(inst, schedule, &Sweep::default(), &mut rec, &mut NullTiming)
                    .expect("below threshold");
                let digested = rec.digest().map_or(0, |d| d.bytes());
                (
                    rec.finish().expect("in-memory writer never fails"),
                    digested,
                )
            }
        })
        .collect();
    cadences
        .iter()
        .zip(sample(&mut sides))
        .map(|(interval, ((buf, digested), t))| {
            let (mut checkpoints, mut progress, mut event_bytes) = (0, 0, 0);
            for line in String::from_utf8_lossy(&buf).lines() {
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
                interval: interval.map_or_else(|| "off".to_owned(), |i| i.to_string()),
                millis: t.millis[1],
                overhead: t.ratio,
                checkpoints,
                bytes: buf.len(),
                progress,
                digested,
                event_bytes,
            }
        })
        .collect()
}

/// Rounds of every timed comparison ([`sample`]). Odd, so a median and
/// the quartiles are each one round's value.
pub const ROUNDS: usize = 11;

/// The least wall-clock span of one sample (ms): a side that runs
/// faster repeats back to back within the sample, so millisecond runs
/// are not read at the granularity of the clock and the scheduler.
pub const SAMPLE_MILLIS: f64 = 20.0;

/// One side of a comparison, as [`sample`] timed it. Each spread is
/// `[q1, median, q3]` over the [`ROUNDS`] rounds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall-clock milliseconds per pass.
    pub millis: [f64; 3],
    /// This side's time over side 0's in the same round (exactly 1 for
    /// side 0).
    pub ratio: [f64; 3],
}

impl Timing {
    /// Side 0's time over this side's in the same round, as
    /// `[q1, median, q3]`: the reciprocal of [`Timing::ratio`], whose
    /// quartiles swap (exact, because every spread entry is one
    /// round's value).
    pub fn speedup(&self) -> [f64; 3] {
        let [q1, mid, q3] = self.ratio;
        [1.0 / q3, 1.0 / mid, 1.0 / q1]
    }
}

/// Times the sides of one comparison. Each side runs once off the
/// clock as a warm-up; the fastest warm-up sets how many passes a
/// sample runs back to back, so that a sample spans at least
/// [`SAMPLE_MILLIS`]. Then [`ROUNDS`] rounds each time one sample of
/// every side, the side that goes first moving on by one each round, so
/// host drift falls on every side alike. Returns each side's output of
/// its last pass, with its [`Timing`].
///
/// # Panics
///
/// Panics if `sides` is empty.
pub fn sample<R, F: FnMut() -> R>(sides: &mut [F]) -> Vec<(R, Timing)> {
    assert!(!sides.is_empty(), "a comparison has at least one side");
    let k = sides.len();
    let timed = |run: &mut F, passes: usize| {
        let start = Instant::now();
        let mut out = run();
        for _ in 1..passes {
            out = run();
        }
        (out, start.elapsed().as_secs_f64() * 1e3 / passes as f64)
    };
    let warm_up = sides
        .iter_mut()
        .map(|run| timed(run, 1).1)
        .fold(f64::INFINITY, f64::min);
    let passes = (SAMPLE_MILLIS / warm_up.max(1e-6)).ceil().max(1.0) as usize;
    let mut outs: Vec<Option<R>> = (0..k).map(|_| None).collect();
    let mut millis = vec![Vec::with_capacity(ROUNDS); k];
    for round in 0..ROUNDS {
        for i in (round..round + k).map(|i| i % k) {
            let (out, ms) = timed(&mut sides[i], passes);
            outs[i] = Some(out);
            millis[i].push(ms);
        }
    }
    let base = millis[0].clone();
    outs.into_iter()
        .zip(millis)
        .map(|(out, mut ms)| {
            let mut ratio: Vec<f64> = ms.iter().zip(&base).map(|(a, b)| a / b).collect();
            let timing = Timing {
                millis: quartiles(&mut ms),
                ratio: quartiles(&mut ratio),
            };
            (out.expect("ROUNDS >= 1"), timing)
        })
        .collect()
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

/// The lower quartile, median and upper quartile of a non-empty sample
/// (the quartiles are the medians of the halves below and above the
/// median, Tukey's hinges).
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    let mid = median(xs);
    let half = xs.len() / 2;
    if half == 0 {
        return [mid; 3];
    }
    let upper = xs.len() - half;
    [median(&mut xs[..half]), mid, median(&mut xs[upper..])]
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
    /// Wall-clock milliseconds of the mode's pass, median over the
    /// rounds.
    pub millis: f64,
    /// Per-round time relative to the uninterrupted pass as `[q1,
    /// median, q3]` (exactly 1 for `"uninterrupted"`).
    pub vs_full: [f64; 3],
    /// Recorded steps covered by the timed portion (for `"resumed"`
    /// the prefix counts too: folding and re-executing it is part of
    /// recovery).
    pub steps: u64,
}

/// Runs the recovery half of experiment E20: records the checkpointed
/// `e20_workload` sweep once to fix the reference stream, kills it
/// (logically) at the midpoint checkpoint, and times uninterrupted vs
/// fold-plus-resume, the two sides of one [`sample`]. Before any timing
/// the resumed continuation is asserted byte-identical to the reference
/// suffix — the wall-clock comparison is only meaningful between runs
/// that provably produce the same stream (DESIGN.md §3.12).
///
/// # Panics
///
/// Panics if the workload produces no midpoint checkpoint at the given
/// `interval`, or if the resumed stream diverges from the reference.
pub fn e20_resume_wallclock(n: usize, interval: u64) -> Vec<ResumeWallClockRow> {
    use lll_obs::replay::RunState;

    let (inst, schedule) = &e20_workload(n);
    let run_full = || {
        let mut rec =
            lll_obs::JsonlRecorder::new(Vec::with_capacity(1 << 20)).checkpoint_every(interval);
        dist::run(inst, schedule, &Sweep::default(), &mut rec, &mut NullTiming)
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
        dist::run(inst, schedule, &resume, &mut tail, &mut NullTiming).expect("below threshold");
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
    let sides: &mut [&dyn Fn() -> Vec<u8>] = &mut [&run_full, &run_resumed];
    ["uninterrupted", "resumed"]
        .into_iter()
        .zip(sample(sides))
        .map(|(mode, (_, t))| ResumeWallClockRow {
            n,
            mode: mode.to_owned(),
            millis: t.millis[1],
            vs_full: t.ratio,
            steps: total_steps,
        })
        .collect()
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
        assert_eq!(null.overhead, [1.0; 3]);
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
        assert_eq!(off.overhead, [1.0; 3]);
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
    fn sample_rotates_the_first_side_and_skips_the_warm_up() {
        use std::cell::RefCell;
        for k in 2..=4 {
            let log = RefCell::new(Vec::new());
            let mut sides: Vec<_> = (0..k)
                .map(|i| {
                    let log = &log;
                    move || {
                        let mut log = log.borrow_mut();
                        log.push(i);
                        // Only the warm-up passes, the first k, are slow.
                        if log.len() <= k {
                            std::thread::sleep(std::time::Duration::from_millis(25));
                        }
                        log.len()
                    }
                })
                .collect();
            let timed = sample(&mut sides);
            let log = log.into_inner();
            let all_sides: Vec<usize> = (0..k).collect();
            // One warm-up pass per side (a 25 ms warm-up makes a sample
            // one pass), then one pass per side per round.
            assert_eq!(log.len(), k + ROUNDS * k, "{log:?}");
            let mut firsts = vec![0; k];
            for pass in log.chunks(k) {
                let mut order = pass.to_vec();
                order.sort_unstable();
                assert_eq!(order, all_sides, "every side once per round: {log:?}");
                firsts[pass[0]] += 1;
            }
            firsts[log[0]] -= 1; // the warm-up is not a round
            for &f in &firsts {
                assert!(f == ROUNDS / k || f == ROUNDS.div_ceil(k), "{firsts:?}");
            }
            for (i, (out, t)) in timed.iter().enumerate() {
                // The output is the side's last pass's.
                assert_eq!(*out, log.iter().rposition(|&s| s == i).unwrap() + 1);
                // The slow warm-up pass is not a sample.
                assert!(t.millis[2] < 25.0, "{t:?}");
            }
            assert_eq!(timed[0].1.ratio, [1.0; 3]);
        }
    }

    #[test]
    fn quartiles_are_the_medians_of_the_halves() {
        let mut odd = [7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0];
        assert_eq!(quartiles(&mut odd), [2.0, 4.0, 6.0]);
        let mut even = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(quartiles(&mut even), [2.5, 4.5, 6.5]);
    }

    #[test]
    fn trace_workload_counts_match_outcomes() {
        let mut rec = lll_obs::CounterRecorder::new();
        let (lin, red) = TraceWorkload::new(96).record(1, &mut rec, &mut NullTiming);
        assert_eq!(rec.sim_runs, 2);
        assert_eq!(rec.rounds, lin.rounds + red.rounds);
        assert_eq!(rec.messages, lin.messages + red.messages);
        assert_eq!(lin.messages_per_round().iter().sum::<usize>(), lin.messages);
    }
}
