//! Differential battery: the slab engine, which every driver runs on at
//! every thread count, must be bit-for-bit identical to the sequential
//! reference engine `Simulator::run` — outputs, round bill
//! and message bill — for every program in the workspace, on every
//! topology, at every worker count.
//!
//! Coverage: hand-written probe programs (an arithmetic aggregator, a
//! never-communicating program, a randomized program drawing from the
//! per-node RNGs, `Vec`-message flooding with nodes halting in three
//! different rounds, lazy partial inbox readers next to neighbors that
//! halt mid-run, port-addressed reads along a ring orientation), the
//! probes' flight-recorder streams, the coloring stack (Linial,
//! vertex/edge/distance-2 reductions, on the test graphs and on rings
//! up to 257 nodes), and the paper's distributed drivers
//! (rank-2/rank-3 fixers, honest Moser–Tardos). Program rows run both
//! engines directly. The coloring and MT driver rows, and the fixers'
//! schedules, are held to oracles that redo the driver's work on the
//! reference engine. The fixer rows compare the fixers across thread
//! counts; their schedules are the only part that runs on the LOCAL
//! engine.
//!
//! Worker counts default to `{1, 2, 3, 8}`; CI overrides the list via
//! `LLL_DIFF_THREADS` (comma-separated) to pin a single count per job.
//! Every row anchored on the reference engine checks one worker as well.

use std::collections::HashMap;
use std::env;

use rand::RngExt;
use sharp_lll::coloring::{
    distance2_coloring, edge_coloring, linial_coloring, linial_schedule, vertex_coloring, Coloring,
    LinialProgram, ReduceProgram,
};
use sharp_lll::core::dist::{self, DistReport, Schedule, ScheduleKind, Sweep};
use sharp_lll::core::{Instance, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, path, random_regular, ring, torus};
use sharp_lll::graphs::Graph;
use sharp_lll::local::{Inbox, NodeContext, NodeProgram, RoundResult, RunOutcome, Simulator};
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
    let Some(&(_, q)) = schedule.last() else {
        return Coloring {
            colors: (0..n).map(|v| sim.id_of(v) as usize).collect(),
            palette: n,
            rounds: 0,
        };
    };
    let palette = (q * q) as usize;
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

/// Linial, then the block color reduction to `Δ + 1` colors, both on
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
            let (seq_stream, par_stream) = recorded_streams(sim, &psim, &make, max_rounds);
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

/// The flight-recorder streams of `make` on the reference engine
/// (`Simulator::run_recorded` on `sim`) and on the slab engine
/// (`Simulator::run_auto_timed_recorded` on `psim`). A run that fails
/// still yields the events recorded before the failure.
fn recorded_streams<P, F>(
    sim: &Simulator<'_>,
    psim: &Simulator<'_>,
    make: F,
    max_rounds: usize,
) -> (String, String)
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
    P::Output: Send,
    F: Fn(&NodeContext) -> P,
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
        let _ = psim.run_auto_timed_recorded(|ctx| make(ctx), max_rounds, rec, &mut NullTiming);
    });
    (seq_stream, par_stream)
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

    fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
        self.acc = ctx.id;
        Some(ctx.id)
    }

    fn round(&mut self, _ctx: &mut NodeContext, inbox: Inbox<'_, u64>) -> RoundResult<u64, u64> {
        for msg in inbox.iter().flatten() {
            self.acc = self.acc.wrapping_add(*msg);
        }
        self.ttl -= 1;
        if self.ttl == 0 {
            RoundResult::Halt(self.acc)
        } else {
            RoundResult::Continue(Some(self.acc))
        }
    }
}

/// Probe that never communicates: both engines must bill zero rounds.
#[derive(Debug, Clone)]
struct Mute;

impl NodeProgram for Mute {
    type Message = ();
    type Output = u64;

    fn init(&mut self, _ctx: &mut NodeContext) -> Option<()> {
        None
    }

    fn round(&mut self, ctx: &mut NodeContext, _inbox: Inbox<'_, ()>) -> RoundResult<(), u64> {
        RoundResult::Halt(ctx.id * 2)
    }
}

/// Randomized probe: every round a node draws from its private RNG,
/// broadcasts the draw and folds what it hears in port order; it halts
/// after `1 + id % 3` rounds. Per-node RNG streams must not depend on
/// the engine or the worker that runs the node.
#[derive(Debug, Clone, Default)]
struct Dice {
    left: usize,
    acc: u64,
}

impl NodeProgram for Dice {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
        self.left = 1 + (ctx.id % 3) as usize;
        self.acc = ctx.rng.random();
        Some(self.acc)
    }

    fn round(&mut self, ctx: &mut NodeContext, inbox: Inbox<'_, u64>) -> RoundResult<u64, u64> {
        for msg in inbox.iter().flatten() {
            self.acc = self.acc.rotate_left(7) ^ *msg;
        }
        self.left -= 1;
        if self.left == 0 {
            return RoundResult::Halt(self.acc);
        }
        let draw: u64 = ctx.rng.random();
        self.acc ^= draw;
        RoundResult::Continue(Some(draw))
    }
}

/// Lazy, partial reader: odd-id nodes read one port per round (port
/// `round % deg`, through `Inbox::get`), even-id nodes never read.
/// Nodes with an id divisible by 5 halt after round 2, the rest after
/// round 6, so later reads hit halted neighbors; every node stays silent
/// in the rounds where `round + id` is divisible by 3. The output folds
/// every read, so a stale or missing message changes it.
#[derive(Debug, Clone, Default)]
struct Sparse {
    round: usize,
    acc: u64,
    silent_reads: usize,
}

impl NodeProgram for Sparse {
    type Message = u64;
    type Output = (u64, usize);

    fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
        self.acc = ctx.id;
        Some(ctx.id)
    }

    fn round(
        &mut self,
        ctx: &mut NodeContext,
        inbox: Inbox<'_, u64>,
    ) -> RoundResult<u64, (u64, usize)> {
        self.round += 1;
        if ctx.id % 2 == 1 && ctx.degree > 0 {
            match inbox.get(self.round % ctx.degree) {
                Some(m) => self.acc = self.acc.wrapping_mul(31).wrapping_add(*m),
                None => self.silent_reads += 1,
            }
        }
        let last = if ctx.id.is_multiple_of(5) { 2 } else { 6 };
        if self.round == last {
            RoundResult::Halt((self.acc, self.silent_reads))
        } else if (self.round as u64 + ctx.id).is_multiple_of(3) {
            RoundResult::Continue(None)
        } else {
            RoundResult::Continue(Some(self.acc ^ ctx.id))
        }
    }
}

/// Learns the id behind every port in round 1; nodes with an id
/// divisible by 4 halt there. The others report, in round 3, which
/// ports still carry a message — through `get` and through `iter`, which
/// must agree — together with the ids behind the ports.
#[derive(Debug, Clone, Default)]
struct HaltWatch {
    round: usize,
    port_ids: Vec<u64>,
}

impl NodeProgram for HaltWatch {
    type Message = u64;
    type Output = Vec<(u64, bool)>;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
        Some(ctx.id)
    }

    fn round(
        &mut self,
        ctx: &mut NodeContext,
        inbox: Inbox<'_, u64>,
    ) -> RoundResult<u64, Vec<(u64, bool)>> {
        self.round += 1;
        if self.round == 1 {
            self.port_ids = inbox
                .iter()
                .map(|m| *m.expect("everyone broadcasts in init"))
                .collect();
            if ctx.id.is_multiple_of(4) {
                return RoundResult::Halt(Vec::new());
            }
        }
        if self.round < 3 {
            return RoundResult::Continue(Some(ctx.id));
        }
        let live: Vec<bool> = inbox.iter().map(|m| m.is_some()).collect();
        assert!(live
            .iter()
            .enumerate()
            .all(|(p, &l)| l == inbox.get(p).is_some()));
        RoundResult::Halt(self.port_ids.iter().copied().zip(live).collect())
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
fn vec_message_floods_match_across_engines() {
    // `Vec`-sized messages read in port order through `inbox.iter()`,
    // with nodes halting in three different rounds, under two id
    // shuffles.
    for (name, g) in test_graphs() {
        for ids in [7u64, 42] {
            let sim = Simulator::with_shuffled_ids(&g, ids);
            assert_engines_agree(
                &format!("flood(ids {ids}) on {name}"),
                &sim,
                |_| Flood::default(),
                6,
            );
        }
    }
}

#[test]
fn per_node_rng_streams_match_across_engines() {
    // Per-node RNG streams must be identical under both engines: they
    // are seeded from the simulator seed and the node id, not from the
    // execution order or the worker that runs the node.
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 23);
        for seed in [5u64, 6] {
            assert_engines_agree(
                &format!("dice(seed {seed}) on {name}"),
                &sim.clone().seed(seed),
                |_| Dice::default(),
                5,
            );
        }
        // A different seed draws a different stream.
        let a = sim
            .clone()
            .seed(5)
            .run(|_| Dice::default(), 5)
            .expect("dice");
        let b = sim
            .clone()
            .seed(6)
            .run(|_| Dice::default(), 5)
            .expect("dice");
        assert_ne!(a.outputs, b.outputs, "{name}: seeds 5 and 6 draw alike");
    }
}

/// Port-addressed ring probe: a node is handed the port of its ring
/// predecessor (orientation `v - 1 → v`), reads that port alone through
/// `Inbox::get` and forwards the largest id it has heard. It halts after
/// `hops` rounds with the largest id among itself and its `hops`
/// predecessors.
#[derive(Debug, Clone)]
struct Chase {
    pred: usize,
    hops: usize,
    max: u64,
}

impl NodeProgram for Chase {
    type Message = u64;
    type Output = u64;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
        self.max = ctx.id;
        Some(self.max)
    }

    fn round(&mut self, _ctx: &mut NodeContext, inbox: Inbox<'_, u64>) -> RoundResult<u64, u64> {
        if let Some(&m) = inbox.get(self.pred) {
            self.max = self.max.max(m);
        }
        self.hops -= 1;
        if self.hops == 0 {
            RoundResult::Halt(self.max)
        } else {
            RoundResult::Continue(Some(self.max))
        }
    }
}

#[test]
fn port_addressed_ring_reads_match_across_engines() {
    for n in [3usize, 8, 65, 257] {
        let g = ring(n);
        let sim = Simulator::with_shuffled_ids(&g, n as u64);
        let pred_of_id: HashMap<u64, usize> = (0..n)
            .map(|v| {
                let port = g.port_to(v, (v + n - 1) % n).expect("ring edge exists");
                (sim.id_of(v), port)
            })
            .collect();
        let bits = (usize::BITS - n.leading_zeros()) as usize;
        for hops in [1usize, 3, bits] {
            let make = |ctx: &NodeContext| Chase {
                pred: pred_of_id[&ctx.id],
                hops,
                max: 0,
            };
            assert_engines_agree(
                &format!("chase({hops} hops) on ring({n})"),
                &sim,
                make,
                hops + 2,
            );
            // Each node saw exactly its `hops` predecessors.
            let run = sim.run(make, hops + 2).expect("chase");
            for v in 0..n {
                let expected = (0..=hops).map(|k| sim.id_of((v + n * hops - k) % n)).max();
                assert_eq!(Some(run.outputs[v]), expected, "ring({n}) node {v}");
            }
        }
    }
}

#[test]
fn recorded_streams_match_across_engines() {
    // The flight-recorder stream of the reference engine is
    // byte-identical to the slab engine's at every worker count, for
    // probes with `Vec` messages, per-node RNGs, silent rounds and
    // mid-run halts.
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 19).seed(4);
        for threads in thread_counts_and_one() {
            let psim = sim.clone().threads(threads);
            let streams = [
                (
                    "flood",
                    recorded_streams(&sim, &psim, |_| Flood::default(), 6),
                ),
                (
                    "dice",
                    recorded_streams(&sim, &psim, |_| Dice::default(), 5),
                ),
                (
                    "sparse",
                    recorded_streams(&sim, &psim, |_| Sparse::default(), 8),
                ),
                (
                    "halt-watch",
                    recorded_streams(&sim, &psim, |_| HaltWatch::default(), 4),
                ),
            ];
            for (probe, (seq, par)) in streams {
                assert!(!seq.is_empty(), "{probe} on {name}: empty stream");
                assert_eq!(seq, par, "{probe} on {name} at {threads} threads");
            }
        }
    }
}

#[test]
fn lazy_partial_readers_match_across_engines() {
    let mut silent_reads = 0;
    for (name, g) in test_graphs() {
        let sim = Simulator::with_shuffled_ids(&g, 8);
        assert_engines_agree(&format!("sparse on {name}"), &sim, |_| Sparse::default(), 8);
        assert_engines_agree(
            &format!("halt-watch on {name}"),
            &sim,
            |_| HaltWatch::default(),
            4,
        );
        let sparse = sim.run(|_| Sparse::default(), 8).expect("sparse run");
        silent_reads += sparse.outputs.iter().map(|&(_, s)| s).sum::<usize>();
        // A neighbor halted in round 1 reads as `None` in round 3; every
        // other neighbor still broadcasts.
        let watch = sim
            .run(|_| HaltWatch::default(), 4)
            .expect("halt-watch run");
        for (v, ports) in watch.outputs.iter().enumerate() {
            if !sim.id_of(v).is_multiple_of(4) {
                assert_eq!(ports.len(), g.degree(v), "{name}");
                for &(id, live) in ports {
                    assert_eq!(
                        live,
                        !id.is_multiple_of(4),
                        "{name}: node {v}, neighbor {id}"
                    );
                }
            }
        }
    }
    // The probe really reads silent and halted neighbors.
    assert!(silent_reads > 0);
}

/// Every node floods the ids it has seen for `2 + id % 3` rounds, so
/// nodes halt at three different rounds; `Vec` messages.
#[derive(Debug, Clone, Default)]
struct Flood {
    ttl: usize,
    seen: Vec<u64>,
}

impl NodeProgram for Flood {
    type Message = Vec<u64>;
    type Output = Vec<u64>;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<Vec<u64>> {
        self.seen = vec![ctx.id];
        self.ttl = 2 + (ctx.id % 3) as usize;
        Some(self.seen.clone())
    }

    fn round(
        &mut self,
        _ctx: &mut NodeContext,
        inbox: Inbox<'_, Vec<u64>>,
    ) -> RoundResult<Vec<u64>, Vec<u64>> {
        for m in inbox.iter().flatten() {
            for &id in m {
                if !self.seen.contains(&id) {
                    self.seen.push(id);
                }
            }
        }
        self.ttl -= 1;
        if self.ttl == 0 {
            let mut out = self.seen.clone();
            out.sort_unstable();
            RoundResult::Halt(out)
        } else {
            RoundResult::Continue(Some(self.seen.clone()))
        }
    }
}

/// Asserts the message bill of `run` equals the pinned one (one entry
/// per billed round).
fn assert_bill<O>(name: &str, run: &RunOutcome<O>, round_messages: &[usize]) {
    assert_eq!(run.rounds, round_messages.len(), "{name} rounds");
    assert_eq!(run.round_messages, round_messages, "{name} round_messages");
    assert_eq!(
        run.messages,
        round_messages.iter().sum::<usize>(),
        "{name} messages"
    );
}

#[test]
fn message_bills_are_pinned() {
    // Both engines bill a broadcast by a degree-d node as d messages.
    // These bills were recorded with the per-port engines this one
    // replaced; the differential rows cannot catch a drift that moves
    // both engines at once.
    let g = random_regular(48, 4, 11).expect("generator succeeds");
    let sim = Simulator::with_shuffled_ids(&g, 42);
    let flood = [192, 192, 128, 64];
    assert_bill(
        "flood",
        &sim.run(|_| Flood::default(), 10).expect("flood"),
        &flood,
    );
    for threads in thread_counts_and_one() {
        let par = sim
            .clone()
            .threads(threads)
            .run_auto(|_| Flood::default(), 10);
        assert_bill(
            &format!("flood at {threads} threads"),
            &par.expect("flood"),
            &flood,
        );
    }

    let g = torus(6, 7);
    let greedy = sharp_lll::coloring::greedy_coloring_sequential(&g);
    let sim = Simulator::with_shuffled_ids(&g, 9);
    let input: HashMap<u64, u64> = (0..g.num_nodes())
        .map(|v| (sim.id_of(v), (greedy[v] * 5 + 2) as u64))
        .collect();
    let target = g.max_degree() as u64 + 1;
    let make = |ctx: &NodeContext| ReduceProgram::new(input[&ctx.id], 28, target);
    let reduce = [168; 12];
    assert_bill("reduce", &sim.run(make, 1000).expect("reduce"), &reduce);
    for threads in thread_counts_and_one() {
        let par = sim.clone().threads(threads).run_auto(make, 1000);
        assert_bill(
            &format!("reduce at {threads} threads"),
            &par.expect("reduce"),
            &reduce,
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
fn ring_coloring_drivers_match_the_oracle() {
    // Rings on both sides of a power of two, where Linial's schedule
    // changes length: Linial and the reduction to 3 colors at every
    // `threads` value equal the reference engine, and are proper.
    for n in [3usize, 8, 65, 257] {
        let g = ring(n);
        let sim = Simulator::with_shuffled_ids(&g, n as u64);
        let budget = 10_000 + 4 * n;
        let linial = oracle_linial(&sim, budget);
        let vertex = oracle_vertex(&sim, budget);
        assert_eq!(vertex.palette, 3, "ring({n}) palette");
        for &(u, v) in g.edges() {
            assert_ne!(vertex.colors[u], vertex.colors[v], "ring({n}) edge {u}-{v}");
        }
        for threads in thread_counts_and_one() {
            let psim = sim.clone().threads(threads);
            assert_eq!(
                linial,
                linial_coloring(&psim, budget).expect("linial"),
                "linial on ring({n}) at {threads} threads"
            );
            assert_eq!(
                vertex,
                vertex_coloring(&psim, budget).expect("vertex"),
                "vertex on ring({n}) at {threads} threads"
            );
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
