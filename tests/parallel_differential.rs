//! Differential battery: the slab engine, which every driver runs on at
//! every thread count, must be bit-for-bit identical to the sequential
//! reference engine `Simulator::run` — outputs, round bill
//! and message bill — for every program in the workspace, on every
//! topology, at every worker count.
//!
//! Coverage: hand-written probe programs (an arithmetic aggregator, a
//! never-communicating program, ball gathering at radii 0..=3), the
//! coloring stack (Linial, Cole–Vishkin, vertex/edge/distance-2
//! reductions, Luby MIS with its per-node RNGs), and the paper's
//! distributed drivers (rank-2/rank-3 fixers, honest Moser–Tardos).
//! Program rows run both engines directly. The coloring, Cole–Vishkin,
//! MIS and MT driver rows, and the fixers' schedules, are held to
//! oracles that redo the driver's work on the reference engine. The
//! fixer rows compare the fixers across thread counts; their schedules
//! are the only part that runs on the LOCAL engine.
//!
//! Worker counts default to `{1, 2, 3, 8}`; CI overrides the list via
//! `LLL_DIFF_THREADS` (comma-separated) to pin a single count per job.
//! Every row anchored on the reference engine checks one worker as well.

use std::collections::HashMap;
use std::env;

use sharp_lll::coloring::{
    cole_vishkin_ring, cv_schedule, distance2_coloring, edge_coloring, linial_coloring,
    linial_schedule, luby_mis, vertex_coloring, ColeVishkinProgram, Coloring, LinialProgram,
    LubyProgram, MisResult, ReduceProgram,
};
use sharp_lll::core::dist::{self, DistReport, Schedule, ScheduleKind, Sweep};
use sharp_lll::core::{Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, path, random_regular, ring};
use sharp_lll::graphs::Graph;
use sharp_lll::local::gather::GatherProgram;
use sharp_lll::local::{broadcast, NodeContext, NodeProgram, RoundResult, Simulator};
use sharp_lll::mt::dist::{distributed_mt, MtProgram};
use sharp_lll::mt::MtReport;
use sharp_lll::numeric::Num;
use sharp_lll::obs::{NullRecorder, NullTiming};

/// Worker counts to exercise; `LLL_DIFF_THREADS=2` (or `1,2,3,8`, …)
/// overrides, so CI can run the battery once per pinned count.
fn thread_counts() -> Vec<usize> {
    match env::var("LLL_DIFF_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("LLL_DIFF_THREADS is a comma-separated list of positive integers")
            })
            .collect(),
        Err(_) => vec![1, 2, 3, 8],
    }
}

/// [`thread_counts`] with one worker always included: the rows anchored
/// on the reference engine check the production path at one thread too.
fn thread_counts_and_one() -> Vec<usize> {
    let mut counts = thread_counts();
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    counts
}

/// The oracle of the coloring rows: Linial's color reduction on the
/// reference engine (`Simulator::run`), derived from the public
/// schedule exactly as `linial_coloring` documents it.
fn oracle_linial(sim: &Simulator<'_>, budget: usize) -> Coloring {
    let g = sim.graph();
    let (n, delta) = (g.num_nodes(), g.max_degree());
    if n == 0 || delta == 0 {
        return Coloring {
            colors: vec![0; n],
            palette: 1,
            rounds: 0,
        };
    }
    let schedule = linial_schedule(n as u64, delta as u64);
    let palette = schedule.last().map_or(n as u64, |&(_, q)| q * q) as usize;
    let template = LinialProgram::new(schedule);
    let run = sim
        .run(|_| template.clone(), budget)
        .expect("oracle linial");
    Coloring {
        colors: run.outputs.iter().map(|&c| c as usize).collect(),
        palette,
        rounds: run.rounds,
    }
}

/// Linial, then the greedy class reduction to `Δ + 1` colors, both on
/// the reference engine.
fn oracle_vertex(sim: &Simulator<'_>, budget: usize) -> Coloring {
    let rough = oracle_linial(sim, budget);
    let target = sim.graph().max_degree() + 1;
    if rough.palette <= target {
        return rough;
    }
    let color_of: HashMap<u64, usize> = (0..sim.graph().num_nodes())
        .map(|v| (sim.id_of(v), rough.colors[v]))
        .collect();
    let run = sim
        .run(
            |ctx| {
                ReduceProgram::new(
                    color_of[&ctx.id] as u64,
                    rough.palette as u64,
                    target as u64,
                )
            },
            budget,
        )
        .expect("oracle reduction");
    Coloring {
        colors: run.outputs.iter().map(|&c| c as usize).collect(),
        palette: target,
        rounds: rough.rounds + run.rounds,
    }
}

/// The oracle distance-2 coloring: [`oracle_vertex`] on `G²` (same ids),
/// billed two host rounds per `G²` round.
fn oracle_distance2(sim: &Simulator<'_>, budget: usize) -> Coloring {
    let g2 = sim.graph().square();
    let ids = (0..g2.num_nodes()).map(|v| sim.id_of(v)).collect();
    let mut c = oracle_vertex(&Simulator::with_ids(&g2, ids).expect("valid ids"), budget);
    c.rounds *= 2;
    c
}

/// The oracle edge coloring: [`oracle_vertex`] on `L(G)` (ids = edge
/// ids), billed two host rounds per `L(G)` round.
fn oracle_edge(sim: &Simulator<'_>, budget: usize) -> Coloring {
    let lg = sim.graph().line_graph();
    let mut c = oracle_vertex(&Simulator::new(&lg), budget);
    c.rounds *= 2;
    c
}

/// Holds a [`Schedule`] computed at every thread count to the oracle
/// coloring of the same graph and seed.
fn assert_schedules_match_oracle(name: &str, g: &Graph, seed: u64) {
    let sim = Simulator::with_shuffled_ids(g, seed);
    let budget = 10_000 + 4 * g.num_nodes();
    let edge = oracle_edge(&sim, budget);
    let dist2 = oracle_distance2(&sim, budget);
    for threads in thread_counts_and_one() {
        for (kind, schedule, oracle) in [
            (ScheduleKind::Edge, Schedule::edge(g, seed, threads), &edge),
            (
                ScheduleKind::Distance2,
                Schedule::distance2(g, seed, threads),
                &dist2,
            ),
        ] {
            let schedule = schedule.expect("schedule");
            let at = format!("{kind:?} schedule of {name} at {threads} threads");
            assert_eq!(schedule.kind(), kind, "{at}");
            assert_eq!(schedule.colors(), &oracle.colors[..], "{at}");
            assert_eq!(schedule.palette(), oracle.palette, "{at}");
            assert_eq!(schedule.coloring_rounds(), oracle.rounds, "{at}");
        }
    }
}

/// Rings, a random regular graph, a star and paths: regular topologies,
/// a hub whose shard is heavier than everyone else's, and degree-1
/// endpoints that halt early.
fn test_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("ring(3)", ring(3)),
        ("ring(17)", ring(17)),
        ("ring(64)", ring(64)),
        (
            "4-regular(48)",
            random_regular(48, 4, 11).expect("generator succeeds"),
        ),
        (
            "star(9)",
            Graph::from_edges(9, (1..9).map(|i| (0, i))).expect("valid star"),
        ),
        ("path(2)", path(2)),
        ("path(13)", path(13)),
    ]
}

/// Runs `make` through both engines and asserts the full outcome
/// (outputs, rounds, messages) matches at every worker count. On a
/// mismatch, both engines are re-run with a flight recorder and the
/// failure message carries the `obs::diff` first-divergence triage
/// (event index, kind, field-level delta, context) instead of only the
/// aggregate that happened to differ.
fn assert_engines_agree<P, F>(name: &str, sim: &Simulator<'_>, make: F, max_rounds: usize)
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send + PartialEq + std::fmt::Debug,
    F: Fn(&NodeContext) -> P,
{
    let reference = sim.run(|ctx| make(ctx), max_rounds).expect("reference run");
    for threads in thread_counts_and_one() {
        let psim = sim.clone().threads(threads);
        let par = psim
            .run_auto(|ctx| make(ctx), max_rounds)
            .expect("parallel run");
        if reference.outputs != par.outputs
            || reference.rounds != par.rounds
            || reference.messages != par.messages
        {
            let record = |run: &dyn Fn(&mut sharp_lll::obs::JsonlRecorder<Vec<u8>>)| {
                let mut rec = sharp_lll::obs::JsonlRecorder::new(Vec::new());
                run(&mut rec);
                String::from_utf8(rec.finish().expect("in-memory stream never fails"))
                    .expect("stream is utf-8")
            };
            let seq_stream = record(&|rec| {
                let _ = sim.run_recorded(|ctx| make(ctx), max_rounds, rec);
            });
            let par_stream = record(&|rec| {
                let _ =
                    psim.run_auto_timed_recorded(|ctx| make(ctx), max_rounds, rec, &mut NullTiming);
            });
            let triage = match sharp_lll::obs::diff::diff_streams(&seq_stream, &par_stream, 3) {
                Some(d) => d.to_string(),
                None => "event streams agree; outcome aggregation diverged".to_string(),
            };
            panic!(
                "{name}: engines diverge at {threads} threads \
                 (rounds {} vs {}, messages {} vs {})\n{triage}",
                reference.rounds, par.rounds, reference.messages, par.messages
            );
        }
    }
}

/// Aggregator probe: floods ids for `ttl` rounds, halts with the
/// running sum of everything heard (exercises multi-round message flow
/// and an order-independent reduction at every node).
#[derive(Debug, Clone)]
struct Pulse {
    ttl: usize,
    acc: u64,
}

impl NodeProgram for Pulse {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<u64>> {
        self.acc = ctx.id;
        broadcast(ctx.id, ctx.degree)
    }

    fn round(&mut self, ctx: &mut NodeContext, inbox: &[Option<u64>]) -> RoundResult<u64, u64> {
        for msg in inbox.iter().flatten() {
            self.acc = self.acc.wrapping_add(*msg);
        }
        self.ttl -= 1;
        if self.ttl == 0 {
            RoundResult::Halt(self.acc)
        } else {
            RoundResult::Continue(broadcast(self.acc, ctx.degree))
        }
    }
}

/// Probe that never communicates: both engines must bill zero rounds.
#[derive(Debug, Clone)]
struct Mute;

impl NodeProgram for Mute {
    type Message = ();
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Vec<Option<()>> {
        vec![None; ctx.degree]
    }

    fn round(&mut self, ctx: &mut NodeContext, _inbox: &[Option<()>]) -> RoundResult<(), u64> {
        RoundResult::Halt(ctx.id * 2)
    }
}

#[test]
fn probe_programs_match_across_engines() {
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 42);
        for ttl in [1usize, 2, 5] {
            assert_engines_agree(
                &format!("pulse(ttl={ttl}) on {name}"),
                &sim,
                |_| Pulse { ttl, acc: 0 },
                ttl + 2,
            );
        }
        assert_engines_agree(&format!("mute on {name}"), &sim, |_| Mute, 4);
    }
}

#[test]
fn gather_matches_across_engines_at_all_radii() {
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 7);
        for radius in [0usize, 1, 2, 3] {
            assert_engines_agree(
                &format!("gather(r={radius}) on {name}"),
                &sim,
                |_| GatherProgram::new(radius),
                radius + 2,
            );
        }
    }
}

#[test]
fn luby_program_matches_across_engines() {
    // Program-level: per-node RNG streams must be identical under both
    // engines (seeded from the node id, not from execution order).
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 23).seed(5);
        assert_engines_agree(
            &format!("luby(12 iters) on {name}"),
            &sim,
            |_| LubyProgram::new(12),
            64,
        );
    }
}

#[test]
fn coloring_drivers_match_across_engines() {
    // Driver-level: at every `threads` value, every field of the
    // returned `Coloring` must equal the reference engine's.
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 3);
        let budget = 10_000 + 4 * g.num_nodes();
        let linial = oracle_linial(&sim, budget);
        let vertex = oracle_vertex(&sim, budget);
        let dist2 = oracle_distance2(&sim, budget);
        let edge = (g.num_edges() > 0).then(|| oracle_edge(&sim, budget));
        for threads in thread_counts_and_one() {
            let psim = sim.clone().threads(threads);
            assert_eq!(
                linial,
                linial_coloring(&psim, budget).expect("linial"),
                "linial on {name} at {threads} threads"
            );
            assert_eq!(
                vertex,
                vertex_coloring(&psim, budget).expect("vertex"),
                "vertex on {name} at {threads} threads"
            );
            assert_eq!(
                dist2,
                distance2_coloring(&psim, budget).expect("distance2"),
                "distance2 on {name} at {threads} threads"
            );
            if let Some(edge) = &edge {
                assert_eq!(
                    *edge,
                    edge_coloring(&psim, budget).expect("edge"),
                    "edge on {name} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn schedules_match_the_oracle() {
    for (name, g) in test_graphs() {
        if g.num_edges() > 0 {
            assert_schedules_match_oracle(name, &g, 17);
        }
    }
    // The dependency graphs the fixer rows below schedule.
    assert_schedules_match_oracle(
        "rank-2 ring(72) dependency graph",
        ring_instance::<f64>(72, 3).dependency_graph(),
        17,
    );
    assert_schedules_match_oracle(
        "rank-3 hyper_ring(48) dependency graph",
        hyper_instance::<f64>(48, 3).dependency_graph(),
        17,
    );
}

/// The Cole–Vishkin program of every node of a `ring(n)` simulator, set
/// up as `cole_vishkin_ring` does: shared schedule, predecessor port
/// from the ring orientation.
fn cole_vishkin_programs(sim: &Simulator<'_>) -> impl Fn(&NodeContext) -> ColeVishkinProgram {
    let g = sim.graph();
    let n = g.num_nodes();
    let schedule = cv_schedule(n as u64);
    let pred_of_id: HashMap<u64, usize> = (0..n)
        .map(|v| {
            let port = g.port_to(v, (v + n - 1) % n).expect("ring edge exists");
            (sim.id_of(v), port)
        })
        .collect();
    move |ctx| ColeVishkinProgram::new(schedule.clone(), pred_of_id[&ctx.id])
}

/// The oracle of the Cole–Vishkin driver row: the same programs on the
/// reference engine.
fn oracle_cole_vishkin(sim: &Simulator<'_>, max_rounds: usize) -> Coloring {
    let run = sim
        .run(cole_vishkin_programs(sim), max_rounds)
        .expect("oracle cole-vishkin");
    Coloring {
        colors: run.outputs.iter().map(|&c| c as usize).collect(),
        palette: 3,
        rounds: run.rounds,
    }
}

#[test]
fn cole_vishkin_program_matches_across_engines() {
    for n in [3usize, 8, 65, 257] {
        let g = ring(n);
        let sim = Simulator::with_shuffled_ids(&g, n as u64);
        assert_engines_agree(
            &format!("cole-vishkin program on ring({n})"),
            &sim,
            cole_vishkin_programs(&sim),
            10_000,
        );
    }
}

#[test]
fn cole_vishkin_matches_across_engines() {
    for n in [3usize, 8, 65, 257] {
        let g = ring(n);
        let sim = Simulator::with_shuffled_ids(&g, n as u64);
        let reference = oracle_cole_vishkin(&sim, 10_000);
        for threads in thread_counts_and_one() {
            let par = cole_vishkin_ring(&sim.clone().threads(threads), 10_000).expect("cv");
            assert_eq!(
                reference, par,
                "cole-vishkin ring({n}) at {threads} threads"
            );
        }
    }
}

/// The oracle of the MIS driver row: `luby_mis`'s doubling loop, with
/// every attempt on the reference engine.
fn oracle_mis(sim: &Simulator<'_>, seed: u64) -> MisResult {
    let n = sim.graph().num_nodes();
    let mut budget = 4usize.max(2 * (64 - (n as u64).leading_zeros()) as usize);
    let mut rounds = 0;
    for attempt in 0u64.. {
        let run = sim
            .clone()
            .seed(seed ^ (attempt.wrapping_mul(0x9E37_79B9)))
            .run(|_| LubyProgram::new(budget), 4 * budget + 8)
            .expect("oracle luby");
        rounds += run.rounds;
        if let Some(in_mis) = run.outputs.into_iter().collect::<Option<Vec<bool>>>() {
            return MisResult { in_mis, rounds };
        }
        budget *= 2;
        assert!(budget <= 16 * n + 64, "oracle MIS gave up");
    }
    unreachable!("the attempt counter never runs out")
}

#[test]
fn mis_driver_matches_across_engines() {
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 13);
        let reference = oracle_mis(&sim, 99);
        for threads in thread_counts_and_one() {
            let par = luby_mis(&sim.clone().threads(threads), 99).expect("mis");
            assert_eq!(reference, par, "luby_mis on {name} at {threads} threads");
        }
    }
}

fn ring_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
        .collect();
    for i in 0..n {
        let (l, r) = (vars[(i + n - 1) % n], vars[i]);
        b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
    }
    b.build().expect("valid instance")
}

fn hyper_instance<T: Num>(n: usize, k: usize) -> Instance<T> {
    let h = hyper_ring(n);
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), k))
        .collect();
    for j in 0..n {
        let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
        b.set_event_predicate(j, move |vals| {
            vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
        });
    }
    b.build().expect("valid instance")
}

#[test]
fn fixer_drivers_match_across_engines() {
    let inst2 = ring_instance::<f64>(72, 3);
    let inst3 = hyper_instance::<f64>(48, 3);
    // Coloring and sweep both on `threads` workers.
    let solve = |inst: &Instance<f64>, kind: ScheduleKind, threads: usize| -> DistReport {
        let g = inst.dependency_graph();
        let schedule = match kind {
            ScheduleKind::Edge => Schedule::edge(g, 17, threads),
            ScheduleKind::Distance2 => Schedule::distance2(g, 17, threads),
        }
        .expect("schedule");
        let sweep = Sweep {
            threads,
            ..Sweep::default()
        };
        dist::run(inst, &schedule, &sweep, &mut NullRecorder, &mut NullTiming).expect("fixer")
    };
    let r2 = solve(&inst2, ScheduleKind::Edge, 1);
    let r3 = solve(&inst3, ScheduleKind::Distance2, 1);
    for threads in thread_counts() {
        let p2 = solve(&inst2, ScheduleKind::Edge, threads);
        let p3 = solve(&inst3, ScheduleKind::Distance2, threads);
        for (tag, seq, par) in [("fixer2", &r2, &p2), ("fixer3", &r3, &p3)] {
            assert_eq!(seq.rounds, par.rounds, "{tag} rounds at {threads} threads");
            assert_eq!(
                seq.coloring_rounds, par.coloring_rounds,
                "{tag} coloring rounds at {threads} threads"
            );
            assert_eq!(
                seq.num_classes, par.num_classes,
                "{tag} classes at {threads} threads"
            );
            assert_eq!(
                seq.fix.assignment(),
                par.fix.assignment(),
                "{tag} assignment at {threads} threads"
            );
        }
    }
}

/// The oracle of the MT driver row: `distributed_mt`'s doubling loop,
/// with every attempt on the reference engine.
fn oracle_mt(inst: &Instance<f64>, seed: u64, max_iterations: usize) -> MtReport {
    let mut budget = 8usize;
    let mut rounds = 0;
    for attempt in 0u64.. {
        let run = Simulator::new(inst.dependency_graph())
            .seed(seed ^ attempt.wrapping_mul(0x517c_c1b7_2722_0a95))
            .run(
                |ctx| MtProgram::new(inst, ctx.id as usize, budget),
                4 * budget + 8,
            )
            .expect("oracle MT");
        rounds += run.rounds;
        let mut assignment = vec![usize::MAX; inst.num_variables()];
        let mut resamplings = 0;
        for out in &run.outputs {
            resamplings += out.resamplings;
            for &(x, val) in &out.owned_values {
                assignment[x] = val;
            }
        }
        if inst
            .violated_events(&assignment)
            .expect("well-formed assignment")
            .is_empty()
        {
            return MtReport {
                assignment,
                resamplings,
                rounds,
            };
        }
        budget *= 2;
        assert!(budget <= max_iterations, "oracle MT exhausted its budget");
    }
    unreachable!("the attempt counter never runs out")
}

#[test]
fn mt_program_matches_across_engines() {
    let inst = ring_instance::<f64>(56, 4);
    for (seed, iterations) in [(31u64, 1usize), (31, 8), (5, 32)] {
        let sim = Simulator::new(inst.dependency_graph()).seed(seed);
        assert_engines_agree(
            &format!("MT program ({iterations} iterations, seed {seed})"),
            &sim,
            |ctx| MtProgram::new(&inst, ctx.id as usize, iterations),
            4 * iterations + 8,
        );
    }
}

#[test]
fn mt_driver_matches_across_engines() {
    let inst = ring_instance::<f64>(56, 4);
    let reference = oracle_mt(&inst, 31, 1 << 20);
    for threads in thread_counts_and_one() {
        let par = distributed_mt(&inst, 31, 1 << 20, threads).expect("mt");
        assert_eq!(reference, par, "distributed MT at {threads} threads");
    }
}
