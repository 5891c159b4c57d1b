//! A synchronous LOCAL-model message-passing simulator.
//!
//! The distributed algorithms of Brandt–Maus–Uitto are stated in the
//! standard LOCAL model: the nodes of a graph communicate in synchronous
//! rounds; per round every node sends a message to its neighbors,
//! receives the messages of its neighbors, and performs unbounded local
//! computation. The complexity measure is the number of rounds until
//! every node has irrevocably produced its output.
//!
//! This crate simulates that model faithfully:
//!
//! * messages travel only along edges of the supplied
//!   [`lll_graphs::Graph`]. A node *broadcasts* one (unbounded-size)
//!   message per round, or stays silent, and reads what arrived through
//!   its [`Inbox`], indexed by *port* (the position of a neighbor in the
//!   node's adjacency list). With unique ids and unbounded messages this
//!   loses nothing: a per-port outbox can always be sent as one
//!   broadcast keyed by neighbor id;
//! * rounds are counted exactly — the reported [`RunOutcome::rounds`]
//!   bills every executed round *except* a terminal one in which no
//!   message was delivered and every remaining node halted: deciding on
//!   already-known information is free local computation in the LOCAL
//!   model, so an algorithm whose nodes halt without ever communicating
//!   runs in 0 rounds;
//! * messages are counted per edge direction: a broadcast by a node of
//!   degree `d` delivers `d` messages;
//! * nodes see only what the LOCAL model grants them: their unique id,
//!   their degree, global parameters (`n`, `Δ`) if the caller provides
//!   them, a private seeded RNG for randomized algorithms — and the
//!   messages arriving through their ports.
//!
//! Both execution engines keep one message slot per node per round
//! parity, and an [`Inbox`] looks a port's message up in the previous
//! round's slots only when the program asks for it, so a round costs what
//! its nodes read. The slab engine ([`Simulator::run_auto`], see the
//! [`parallel`] module docs for its worker pool and determinism argument)
//! is the production engine, at every thread count. The sequential
//! reference engine ([`Simulator::run`]) is the readable oracle the
//! differential tests hold the slab engine to, bit for bit.
//!
//! # Examples
//!
//! A 1-round program in which every node learns the multiset of its
//! neighbors' identifiers:
//!
//! ```
//! use lll_graphs::gen::ring;
//! use lll_local::{Inbox, NodeContext, NodeProgram, RoundResult, Simulator};
//!
//! struct Collect;
//!
//! impl NodeProgram for Collect {
//!     type Message = u64;
//!     type Output = Vec<u64>;
//!
//!     fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
//!         Some(ctx.id)
//!     }
//!
//!     fn round(
//!         &mut self,
//!         _ctx: &mut NodeContext,
//!         inbox: Inbox<'_, u64>,
//!     ) -> RoundResult<u64, Vec<u64>> {
//!         RoundResult::Halt(inbox.iter().map(|m| *m.unwrap()).collect())
//!     }
//! }
//!
//! let g = ring(5);
//! let run = Simulator::new(&g).run(|_| Collect, 10).unwrap();
//! assert_eq!(run.rounds, 1);
//! assert_eq!(run.messages, 10); // 5 broadcasts, 2 ports each
//! assert_eq!(run.outputs[0], vec![1, 4]); // neighbors of node 0 on C_5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gauges;
pub mod parallel;
pub mod pool;

pub use parallel::{effective_workers, shard_bounds, split_mut};
pub use pool::PoolStats;

use std::fmt;

use lll_graphs::Graph;
use lll_obs::{Event, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Global parameters a LOCAL algorithm is allowed to know in advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkInfo {
    /// Number of nodes `n` (LOCAL algorithms may use `n` — e.g. the
    /// initial palette of Linial's algorithm is the id space).
    pub n: usize,
    /// Maximum degree `Δ`.
    pub max_degree: usize,
}

/// Per-node view handed to a [`NodeProgram`].
///
/// Contains exactly the knowledge the LOCAL model grants a node, plus a
/// private RNG (derived from the simulator seed and the node id) for
/// randomized algorithms.
#[derive(Debug)]
pub struct NodeContext {
    /// The node's globally unique identifier.
    pub id: u64,
    /// Degree of the node; ports are `0..degree`.
    pub degree: usize,
    /// Global parameters.
    pub info: NetworkInfo,
    /// Private randomness (deterministic algorithms simply ignore it).
    pub rng: StdRng,
}

/// What a node does at the end of a round.
#[derive(Debug, Clone)]
pub enum RoundResult<M, O> {
    /// Keep running and broadcast this message to every neighbor
    /// (`None` stays silent).
    Continue(Option<M>),
    /// Irrevocably halt with the given output. A halted node sends
    /// nothing: neighbors still running read `None` from it.
    Halt(O),
}

/// Where an [`Inbox`] finds the messages of the previous round: one slot
/// per node, either in one flat vector (the reference engine) or in the
/// slab engine's per-shard regions.
enum Slots<'a, M> {
    Flat(&'a [Option<M>]),
    /// Node `u` sits at `u - starts[s]` in `regions[s]`, for the last
    /// shard `s` with `starts[s] <= u`.
    Regions {
        regions: &'a [parallel::ReadGuard<'a, M>],
        starts: &'a [usize],
    },
}

impl<M> Clone for Slots<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Slots<'_, M> {}

impl<'a, M> Slots<'a, M> {
    fn get(self, u: usize) -> Option<&'a M> {
        match self {
            Slots::Flat(slots) => slots[u].as_ref(),
            Slots::Regions { regions, starts } => {
                let s = starts.partition_point(|&b| b <= u) - 1;
                regions[s][u - starts[s]].as_ref()
            }
        }
    }
}

/// The messages a node received this round, indexed by port.
///
/// A borrowed view, not a copy: [`Inbox::get`] and [`Inbox::iter`] look
/// the neighbor behind a port up in the previous round's node slots only
/// when called, so a node that reads nothing costs nothing to deliver
/// to. A silent or halted neighbor reads as `None`.
pub struct Inbox<'a, M> {
    /// The neighbor behind each port.
    neighbors: &'a [usize],
    slots: Slots<'a, M>,
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// The message that arrived on `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not below the node's degree.
    pub fn get(&self, port: usize) -> Option<&'a M> {
        self.slots.get(self.neighbors[port])
    }

    /// The messages of every port, in port order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&'a M>> + 'a {
        let slots = self.slots;
        self.neighbors.iter().map(move |&u| slots.get(u))
    }
}

/// A node-local algorithm: one instance runs at every node.
///
/// All nodes execute the same program, as in the LOCAL model; asymmetric
/// behaviour must be derived from ids, degrees or randomness.
pub trait NodeProgram {
    /// Message type broadcast to neighbors (unbounded size is allowed —
    /// and honoured by the simulator, which never inspects sizes or
    /// copies messages).
    type Message;
    /// Final output of a node.
    type Output;

    /// Called once before the first communication round; returns the
    /// broadcast for round 1 (`None` stays silent).
    fn init(&mut self, ctx: &mut NodeContext) -> Option<Self::Message>;

    /// Called once per communication round with the messages received on
    /// each port.
    fn round(
        &mut self,
        ctx: &mut NodeContext,
        inbox: Inbox<'_, Self::Message>,
    ) -> RoundResult<Self::Message, Self::Output>;
}

/// Errors produced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Not every node halted within the round budget.
    RoundLimitExceeded {
        /// The budget that was exceeded.
        limit: usize,
    },
    /// The id vector length disagreed with the number of nodes.
    BadIdCount {
        /// Ids supplied.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// Node identifiers were not pairwise distinct.
    DuplicateIds,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "round limit {limit} exceeded before all nodes halted")
            }
            SimError::BadIdCount { got, expected } => {
                write!(f, "got {got} ids for {expected} nodes")
            }
            SimError::DuplicateIds => write!(f, "node identifiers are not distinct"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Output of each node, indexed by graph node.
    pub outputs: Vec<O>,
    /// Number of communication rounds executed before the last node
    /// halted. A program that broadcasts in `init` and halts on its
    /// first `round` call costs 1; a terminal round in which nothing
    /// was delivered and every remaining node halted is free (so a
    /// program that never sends costs 0 — see the crate docs).
    pub rounds: usize,
    /// Total messages delivered across the whole run (LOCAL allows one
    /// message per edge direction per round; this counts the ones
    /// actually sent, a finer cost signal than rounds alone).
    pub messages: usize,
    /// Messages delivered in each billed round, in round order
    /// (`round_messages.len() == rounds` and the entries sum to
    /// `messages`). Maintained by both engines with or without a
    /// recorder attached.
    pub round_messages: Vec<usize>,
    /// What the run's [phase pool](crate::pool) did: OS workers spawned
    /// and phases handed off (zero for the reference engine, which runs
    /// no pool). Observation only: it differs across thread counts and
    /// hosts while everything above is identical.
    pub pool: PoolStats,
}

impl<O> RunOutcome<O> {
    /// The per-round message-bill trajectory: entry `r` is the number of
    /// messages delivered in billed round `r + 1`. Matches the
    /// `delivered` fields of a recorded stream's `round_end` events
    /// (after dropping the free terminal decide-only round, exactly as
    /// [`RunOutcome::rounds`] does).
    pub fn messages_per_round(&self) -> &[usize] {
        &self.round_messages
    }
}

/// The synchronous-round simulator.
///
/// Construct with [`Simulator::new`] (ids = node indices) or customize the
/// id assignment with [`Simulator::with_ids`] /
/// [`Simulator::with_shuffled_ids`]; deterministic LOCAL algorithms are
/// sensitive to the id assignment, and several experiments run both
/// friendly and adversarial id orders.
#[derive(Debug, Clone)]
pub struct Simulator<'g> {
    graph: &'g Graph,
    ids: Vec<u64>,
    seed: u64,
    threads: usize,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator with ids equal to node indices.
    pub fn new(graph: &'g Graph) -> Simulator<'g> {
        let ids = (0..graph.num_nodes() as u64).collect();
        Simulator {
            graph,
            ids,
            seed: 0,
            threads: 1,
        }
    }

    /// Creates a simulator with explicit (distinct) node ids.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadIdCount`] or [`SimError::DuplicateIds`] on
    /// malformed id assignments.
    pub fn with_ids(graph: &'g Graph, ids: Vec<u64>) -> Result<Simulator<'g>, SimError> {
        if ids.len() != graph.num_nodes() {
            return Err(SimError::BadIdCount {
                got: ids.len(),
                expected: graph.num_nodes(),
            });
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(SimError::DuplicateIds);
        }
        Ok(Simulator {
            graph,
            ids,
            seed: 0,
            threads: 1,
        })
    }

    /// Creates a simulator whose ids are a seeded random permutation of
    /// `0..n` — the standard way to decouple ids from topology.
    pub fn with_shuffled_ids(graph: &'g Graph, seed: u64) -> Simulator<'g> {
        use rand::seq::SliceRandom;
        let mut ids: Vec<u64> = (0..graph.num_nodes() as u64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        Simulator {
            graph,
            ids,
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the seed from which per-node private RNGs are derived (for
    /// randomized algorithms). Returns `self` for chaining.
    pub fn seed(mut self, seed: u64) -> Simulator<'g> {
        self.seed = seed;
        self
    }

    /// Sets the shard count the slab engine runs [`Simulator::run_auto`]
    /// on (clamped to at least 1). Higher-level drivers propagate this
    /// knob to derived simulators (line graphs, squares). Returns `self`
    /// for chaining.
    pub fn threads(mut self, threads: usize) -> Simulator<'g> {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count (see [`Simulator::threads`]).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The id assigned to graph node `v`.
    pub fn id_of(&self, v: usize) -> u64 {
        self.ids[v]
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Runs one program instance per node until all halt, on the
    /// sequential reference engine.
    ///
    /// This engine is the readable specification of the LOCAL model and
    /// the oracle of the differential tests; production callers go
    /// through [`Simulator::run_auto`], which runs the same contract on
    /// the much faster slab engine.
    ///
    /// `make` constructs the program for each node from its context (it
    /// may capture instance data, e.g. the LLL events owned by a node).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if some node is still
    /// running after `max_rounds` communication rounds.
    pub fn run<P, F>(&self, make: F, max_rounds: usize) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: NodeProgram,
        F: FnMut(&NodeContext) -> P,
    {
        self.run_recorded(make, max_rounds, &mut NullRecorder)
    }

    /// [`Simulator::run`] with a flight recorder attached (see the
    /// `lll-obs` crate). Events carry only logical indices — round
    /// number, node id — so the recorded stream is a pure function of
    /// the run's inputs and is byte-identical to the stream
    /// [`Simulator::run_auto_timed_recorded`] produces at any thread
    /// count. With [`NullRecorder`] this *is* `run`: the instrumentation
    /// is guarded by the `Recorder::ENABLED` associated constant and
    /// compiles away. The reference engine records no timing spans;
    /// timed runs go through the slab engine.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn run_recorded<P, F, R>(
        &self,
        mut make: F,
        max_rounds: usize,
        rec: &mut R,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: NodeProgram,
        F: FnMut(&NodeContext) -> P,
        R: Recorder,
    {
        let g = self.graph;
        let n = g.num_nodes();
        let info = NetworkInfo {
            n,
            max_degree: g.max_degree(),
        };
        let mut ctxs: Vec<NodeContext> = (0..n)
            .map(|v| NodeContext {
                id: self.ids[v],
                degree: g.degree(v),
                info,
                rng: StdRng::seed_from_u64(
                    self.seed ^ (self.ids[v].wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
            })
            .collect();
        let mut programs: Vec<P> = (0..n).map(|v| make(&ctxs[v])).collect();
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();

        if R::ENABLED {
            rec.record(&Event::SimRunStart {
                nodes: n,
                edges: g.num_edges(),
                max_degree: g.max_degree(),
                seed: self.seed,
            });
        }

        // One message slot per node: `read` holds what every node
        // broadcast last round, `write` collects this round's broadcasts.
        // A halted node's slot stays `None`.
        let mut read: Vec<Option<P::Message>> =
            (0..n).map(|v| programs[v].init(&mut ctxs[v])).collect();
        let mut write: Vec<Option<P::Message>> = (0..n).map(|_| None).collect();

        let mut rounds = 0usize;
        let mut messages = 0usize;
        let mut round_messages = Vec::new();
        let mut running = n;
        while running > 0 {
            if rounds >= max_rounds {
                return Err(SimError::RoundLimitExceeded { limit: max_rounds });
            }
            rounds += 1;
            if R::ENABLED {
                rec.record(&Event::RoundStart {
                    round: rounds,
                    running,
                });
            }
            // A broadcast reaches every neighbor: one message per port.
            let delivered: usize = (0..n)
                .filter(|&v| read[v].is_some())
                .map(|v| g.degree(v))
                .sum();
            messages += delivered;
            round_messages.push(delivered);
            let mut halted = 0usize;
            for v in 0..n {
                if outputs[v].is_some() {
                    write[v] = None;
                    continue;
                }
                let inbox = Inbox {
                    neighbors: g.neighbors(v),
                    slots: Slots::Flat(&read),
                };
                match programs[v].round(&mut ctxs[v], inbox) {
                    RoundResult::Continue(msg) => write[v] = msg,
                    RoundResult::Halt(o) => {
                        outputs[v] = Some(o);
                        write[v] = None;
                        running -= 1;
                        halted += 1;
                        if R::ENABLED {
                            rec.record(&Event::NodeHalt {
                                round: rounds,
                                node: v,
                            });
                        }
                    }
                }
            }
            std::mem::swap(&mut read, &mut write);
            if R::ENABLED {
                rec.record(&Event::RoundEnd {
                    round: rounds,
                    delivered,
                    bytes: delivered * std::mem::size_of::<P::Message>(),
                    halted,
                    running,
                });
            }
            if running == 0 && delivered == 0 {
                // The terminal round carried no information — every
                // remaining node halted on what it already knew, which is
                // free local computation in the LOCAL model (crate docs).
                rounds -= 1;
                round_messages.pop();
            }
        }
        if R::ENABLED {
            rec.record(&Event::SimRunEnd { rounds, messages });
        }
        Ok(RunOutcome {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("all halted"))
                .collect(),
            rounds,
            messages,
            round_messages,
            pool: PoolStats::default(),
        })
    }
}

/// Iterated logarithm `log* n` (number of times `log2` must be applied to
/// reach a value ≤ 1) — the yardstick the paper's runtime bounds are
/// stated in.
///
/// # Examples
///
/// ```
/// assert_eq!(lll_local::log_star(1), 0);
/// assert_eq!(lll_local::log_star(2), 1);
/// assert_eq!(lll_local::log_star(16), 3);
/// assert_eq!(lll_local::log_star(65536), 4);
/// assert_eq!(lll_local::log_star(u64::MAX), 5);
/// ```
pub fn log_star(mut n: u64) -> u32 {
    let mut k = 0;
    while n > 1 {
        n = 64 - n.leading_zeros() as u64 - u64::from(n.is_power_of_two());
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::{path, ring};
    use lll_obs::{NullTiming, SkipPrefixRecorder, TimingScope};
    use rand::RngExt;

    /// Every node floods its id for `ttl` rounds, then outputs the set of
    /// ids seen — i.e. its `ttl`-hop ball.
    struct Flood {
        ttl: usize,
        seen: Vec<u64>,
    }

    impl NodeProgram for Flood {
        type Message = Vec<u64>;
        type Output = Vec<u64>;

        fn init(&mut self, ctx: &mut NodeContext) -> Option<Vec<u64>> {
            self.seen = vec![ctx.id];
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

    #[test]
    fn skip_prefix_resumes_continue_sim_streams_byte_for_byte() {
        let g = ring(12);
        let make = |_: &NodeContext| Flood {
            ttl: 5,
            seen: vec![],
        };
        let sim = Simulator::new(&g);
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new()).checkpoint_every(2);
        let full_run = sim
            .run_auto_timed_recorded(make, 20, &mut rec, &mut NullTiming)
            .unwrap();
        let bytes = rec.finish().unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        let cks: Vec<lll_obs::Checkpoint> = text
            .lines()
            .filter(|l| l.starts_with(lll_obs::CHECKPOINT_PREFIX))
            .map(|l| lll_obs::Checkpoint::parse(l).unwrap())
            .collect();
        assert!(
            cks.len() >= 2,
            "want several checkpoints, got {}",
            cks.len()
        );
        for ck in &cks {
            for threads in [1usize, 2, 8] {
                let prefix = &bytes[..ck.resume_offset() as usize];
                let mut tail = lll_obs::JsonlRecorder::resumed(Vec::new(), 2, ck);
                let run = sim
                    .clone()
                    .threads(threads)
                    .run_auto_timed_recorded(
                        make,
                        20,
                        &mut SkipPrefixRecorder::new(&mut tail, ck.round),
                        &mut NullTiming,
                    )
                    .unwrap();
                let mut joined = prefix.to_vec();
                joined.extend_from_slice(&tail.finish().unwrap());
                assert_eq!(
                    joined, bytes,
                    "stream diverged: threads {threads}, round {}",
                    ck.round
                );
                assert_eq!(run.outputs, full_run.outputs);
                assert_eq!(run.rounds, full_run.rounds);
            }
        }
    }

    #[test]
    fn flood_collects_exact_balls() {
        let g = path(6);
        let run = Simulator::new(&g)
            .run(
                |_| Flood {
                    ttl: 2,
                    seen: vec![],
                },
                10,
            )
            .unwrap();
        assert_eq!(run.rounds, 2);
        // node 0's 2-ball on a path: {0,1,2}
        assert_eq!(run.outputs[0], vec![0, 1, 2]);
        // node 3's 2-ball: {1,2,3,4,5}
        assert_eq!(run.outputs[3], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = ring(4);
        let err = Simulator::new(&g)
            .run(
                |_| Flood {
                    ttl: 100,
                    seen: vec![],
                },
                5,
            )
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 5 });
    }

    #[test]
    fn id_validation() {
        let g = ring(3);
        assert_eq!(
            Simulator::with_ids(&g, vec![1, 2]).unwrap_err(),
            SimError::BadIdCount {
                got: 2,
                expected: 3
            }
        );
        assert_eq!(
            Simulator::with_ids(&g, vec![7, 7, 8]).unwrap_err(),
            SimError::DuplicateIds
        );
        let sim = Simulator::with_ids(&g, vec![30, 10, 20]).unwrap();
        assert_eq!(sim.id_of(1), 10);
    }

    #[test]
    fn shuffled_ids_are_a_permutation() {
        let g = ring(50);
        let sim = Simulator::with_shuffled_ids(&g, 99);
        let mut ids: Vec<u64> = (0..50).map(|v| sim.id_of(v)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50u64).collect::<Vec<_>>());
        // reproducible
        let sim2 = Simulator::with_shuffled_ids(&g, 99);
        assert!((0..50).all(|v| sim.id_of(v) == sim2.id_of(v)));
    }

    /// Randomized program: every node halts immediately with a random u64
    /// from its private RNG.
    struct PrivateCoin;

    impl NodeProgram for PrivateCoin {
        type Message = ();
        type Output = u64;

        fn init(&mut self, _ctx: &mut NodeContext) -> Option<()> {
            None
        }

        fn round(&mut self, ctx: &mut NodeContext, _: Inbox<'_, ()>) -> RoundResult<(), u64> {
            RoundResult::Halt(ctx.rng.random())
        }
    }

    #[test]
    fn private_rngs_differ_across_nodes_and_repeat_across_runs() {
        let g = ring(8);
        let a = Simulator::new(&g).seed(5).run(|_| PrivateCoin, 3).unwrap();
        let b = Simulator::new(&g).seed(5).run(|_| PrivateCoin, 3).unwrap();
        let c = Simulator::new(&g).seed(6).run(|_| PrivateCoin, 3).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_ne!(a.outputs, c.outputs);
        let distinct: std::collections::BTreeSet<u64> = a.outputs.iter().copied().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn halted_nodes_go_silent() {
        /// Node with id 0 halts in round 1; others run for two more
        /// rounds and report which ports were live in the last round.
        struct Watcher {
            saw_round: usize,
        }

        impl NodeProgram for Watcher {
            type Message = u64;
            type Output = Vec<bool>;

            fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
                Some(ctx.id)
            }

            fn round(
                &mut self,
                ctx: &mut NodeContext,
                inbox: Inbox<'_, u64>,
            ) -> RoundResult<u64, Vec<bool>> {
                if ctx.id == 0 {
                    return RoundResult::Halt(vec![]);
                }
                self.saw_round += 1;
                if self.saw_round == 2 {
                    RoundResult::Halt(inbox.iter().map(|m| m.is_some()).collect())
                } else {
                    RoundResult::Continue(Some(ctx.id))
                }
            }
        }

        let g = ring(4); // 0-1-2-3-0
        let run = Simulator::new(&g)
            .run(|_| Watcher { saw_round: 0 }, 10)
            .unwrap();
        // In round 2, node 1 hears from node 2 but not from halted node 0.
        let out1 = &run.outputs[1];
        let port_to_0 = g.port_to(1, 0).unwrap();
        let port_to_2 = g.port_to(1, 2).unwrap();
        assert!(!out1[port_to_0]);
        assert!(out1[port_to_2]);
        assert_eq!(run.rounds, 2);
    }

    #[test]
    fn messages_are_counted() {
        let g = ring(4);
        // Flood with ttl 2: every node broadcasts in init and once more
        // in round 1; round 2 receives without sending (halt).
        let run = Simulator::new(&g)
            .run(
                |_| Flood {
                    ttl: 2,
                    seen: vec![],
                },
                10,
            )
            .unwrap();
        // init messages delivered in round 1 (4 nodes × 2 ports) + the
        // round-1 Continue messages delivered in round 2.
        assert_eq!(run.messages, 16);
        // Silent program: only delivery of nothing.
        let run = Simulator::new(&g).run(|_| PrivateCoin, 3).unwrap();
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn zero_round_programs_cost_zero_rounds() {
        // PrivateCoin never sends: halting on a silent network is free
        // local computation, so the run costs 0 rounds on both engines.
        let g = ring(6);
        let sim = Simulator::new(&g).seed(3);
        let seq = sim.run(|_| PrivateCoin, 3).unwrap();
        assert_eq!(seq.rounds, 0);
        assert_eq!(seq.messages, 0);
        let par = sim.clone().threads(4).run_auto(|_| PrivateCoin, 3).unwrap();
        assert_eq!(par.rounds, 0);
        assert_eq!(par.messages, 0);
        assert_eq!(par.outputs, seq.outputs);
    }

    /// Broadcasts once, listens once, halts silently: the halt round
    /// delivers nothing, so only the one communication round is billed.
    struct OneShot {
        heard: usize,
        listened: bool,
    }

    impl NodeProgram for OneShot {
        type Message = u64;
        type Output = usize;

        fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
            Some(ctx.id)
        }

        fn round(
            &mut self,
            _ctx: &mut NodeContext,
            inbox: Inbox<'_, u64>,
        ) -> RoundResult<u64, usize> {
            if self.listened {
                RoundResult::Halt(self.heard)
            } else {
                self.heard = inbox.iter().flatten().count();
                self.listened = true;
                RoundResult::Continue(None)
            }
        }
    }

    #[test]
    fn terminal_decide_only_round_is_not_billed() {
        let g = ring(5);
        let sim = Simulator::new(&g);
        let mk = |_: &NodeContext| OneShot {
            heard: 0,
            listened: false,
        };
        let seq = sim.run(mk, 10).unwrap();
        assert_eq!(seq.rounds, 1, "the silent halt round is free");
        assert_eq!(seq.messages, 10);
        assert!(seq.outputs.iter().all(|&h| h == 2));
        let par = sim.clone().threads(3).run_auto(mk, 10).unwrap();
        assert_eq!(par.outputs, seq.outputs);
        assert_eq!(par.rounds, seq.rounds);
        assert_eq!(par.messages, seq.messages);
    }

    #[test]
    fn parallel_engine_matches_sequential_run() {
        for (g, ttl) in [(ring(17), 3usize), (path(9), 2), (ring(4), 1)] {
            let sim = Simulator::with_shuffled_ids(&g, 11);
            let mk = |_: &NodeContext| Flood { ttl, seen: vec![] };
            let seq = sim.run(mk, 50).unwrap();
            for t in [1usize, 2, 3, 8] {
                let par = sim.clone().threads(t).run_auto(mk, 50).unwrap();
                assert_eq!(par.outputs, seq.outputs, "threads {t}");
                assert_eq!(par.rounds, seq.rounds, "threads {t}");
                assert_eq!(par.messages, seq.messages, "threads {t}");
            }
        }
    }

    #[test]
    fn parallel_engine_reports_the_round_limit() {
        let g = ring(4);
        let err = Simulator::new(&g)
            .threads(2)
            .run_auto(
                |_| Flood {
                    ttl: 100,
                    seen: vec![],
                },
                5,
            )
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 5 });
    }

    #[test]
    fn run_auto_is_the_slab_engine_at_every_thread_count() {
        let g = ring(8);
        let mk = |_: &NodeContext| Flood {
            ttl: 2,
            seen: vec![],
        };
        let base = Simulator::new(&g);
        assert_eq!(base.num_threads(), 1);
        // threads(0) clamps to one shard.
        assert_eq!(base.clone().threads(0).num_threads(), 1);
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let reference = base.run_recorded(mk, 10, &mut rec).unwrap();
        let reference_stream = rec.finish().unwrap();
        for t in [1usize, 2, 3, 8] {
            let sim = base.clone().threads(t);
            assert_eq!(sim.num_threads(), t);
            let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
            let auto = sim
                .run_auto_timed_recorded(mk, 10, &mut rec, &mut NullTiming)
                .unwrap();
            assert_eq!(auto.outputs, reference.outputs, "threads {t}");
            assert_eq!(auto.rounds, reference.rounds, "threads {t}");
            assert_eq!(auto.messages, reference.messages, "threads {t}");
            assert_eq!(rec.finish().unwrap(), reference_stream, "threads {t}");
            // The slab engine reports per-shard occupancy; the reference
            // engine has no shards. So shard spans prove which engine ran.
            let mut timing = lll_obs::TimingRecorder::new();
            sim.run_auto_timed_recorded(mk, 10, &mut NullRecorder, &mut timing)
                .unwrap();
            assert_eq!(
                timing.scope(TimingScope::ShardWork).count(),
                ((auto.rounds + 1) * t) as u64,
                "one span per shard per phase at threads {t}"
            );
        }
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0), 0);
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(3), 2);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(5), 3);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(17), 4);
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(65537), 5);
    }
}
