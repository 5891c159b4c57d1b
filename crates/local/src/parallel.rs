//! The execution engine of the simulator.
//!
//! [`Simulator::run_auto`] shards the nodes into contiguous,
//! port-balanced ranges and keeps every message in two *node-slot
//! buffers* — one `Option<M>` slot per node, the node's broadcast of
//! one round parity. Each shard owns its region of both buffers, a
//! `RwLock<Vec<Option<M>>>` of its own. The buffers alternate: a round
//! is "every shard runs `round()` on its nodes against the read parity,
//! storing each node's broadcast (or `None`) into its own region of the
//! write parity; barrier; swap parity". A node reads its [`Inbox`]
//! lazily: a port resolves to the neighbor behind it, and that
//! neighbor's slot in the read parity, only when the program asks, so
//! delivery costs what the program reads. A shard write-locks only its
//! own region and read-locks only the other parity, so the locks are
//! never contended — and no `unsafe` is needed.
//!
//! # The worker pool
//!
//! One run opens one [`std::thread::scope`]. Consecutive shards are
//! grouped into *bands*, at most one per available core; the calling
//! thread runs band 0 and every other band gets one OS worker for the
//! whole run (or, if the OS refuses to spawn it, runs on the calling
//! thread too). Phases (the init phase, then one per round) are separated
//! by two [`Barrier`]s: the calling thread releases the workers into a
//! phase, runs its own band, and waits for them at the end of it; in
//! between phases it alone reduces the tallies, emits events and decides
//! whether another phase follows. A run with a single band — one shard,
//! or a single-core host — spawns nothing and touches no barrier.
//!
//! The pool never hangs. A node program that panics is caught inside its
//! band, which still reaches the phase barrier; the calling thread then
//! releases the workers and re-raises the panic with its original
//! payload. The round limit releases the workers before the run returns,
//! and so does a panic in the calling thread's own bookkeeping (a drop
//! guard holds the release).
//!
//! # Determinism
//!
//! The engine is bit-for-bit output-identical to the reference engine
//! [`Simulator::run`] for every thread count, by construction:
//!
//! * **Sharding is static.** Shard boundaries depend only on the graph
//!   and the thread count, never on execution state, and each node is
//!   processed by exactly one worker with exclusive access to its
//!   program, context, RNG, output and slot. How shards are grouped into
//!   bands depends on the host, but bands only decide *which thread* runs
//!   a shard, never what it computes.
//! * **Node steps are isolated.** A node's `round` call reads only the
//!   read parity, which no one writes during the phase, and its own
//!   state; per-node RNGs are seeded from `(simulator seed, node id)`
//!   exactly as in the reference engine, so interleaving cannot perturb
//!   randomness.
//! * **Reductions are order-independent.** The per-round tallies
//!   (messages sent, nodes halted) are sums. A shard stops at its first
//!   panicking node, and shards cover ascending node ranges, so the first
//!   faulting shard in shard order holds the minimum panicking node — the
//!   panic the reference engine, scanning nodes in order, raises.
//! * **Program construction is sequential.** The `make` closure runs on
//!   the calling thread in node order, preserving `FnMut` side-effect
//!   order.
//!
//! Round and message accounting also agree: the engine bills a broadcast
//! of a degree-`d` node as `d` messages when it is produced rather than
//! when it is delivered, and every broadcast is delivered exactly one
//! round later, so the running totals coincide with the reference
//! engine's delivery count — including the terminal-round rule
//! documented at the crate root.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::thread;

use lll_graphs::Graph;
use lll_obs::timing::{span_nanos, span_start};
use lll_obs::{Event, NullRecorder, NullTiming, Recorder, TimingScope, TimingSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{
    Inbox, NetworkInfo, NodeContext, NodeProgram, RoundResult, RunOutcome, SimError, Simulator,
    Slots,
};

/// Per-band, per-phase tallies, reduced by summation on the calling
/// thread (order-independent, so shard layout cannot leak into the
/// outcome).
#[derive(Debug, Clone, Copy, Default)]
struct RoundStats {
    sent: usize,
    halted: usize,
}

/// Why a run stopped early.
enum Fault {
    /// The round limit (the run returns this error).
    Sim(SimError),
    /// A node program panicked (the run re-raises this payload).
    Panic(Box<dyn Any + Send>),
}

/// One shard's region of a node-slot buffer.
type Region<M> = RwLock<Vec<Option<M>>>;

/// A read lock on one shard's region of the read parity.
pub(crate) type ReadGuard<'s, M> = RwLockReadGuard<'s, Vec<Option<M>>>;

/// A shard's exclusive engine state for the whole run: disjoint `&mut`
/// windows carved out of the engine's flat vectors with [`split_mut`].
struct Shard<'a, P: NodeProgram> {
    /// Index of the shard (and of its buffer regions).
    index: usize,
    /// First node of the shard (nodes are `first_node..first_node + len`).
    first_node: usize,
    programs: &'a mut [P],
    ctxs: &'a mut [NodeContext],
    outputs: &'a mut [Option<P::Output>],
    /// Nodes that halted this phase, in ascending order. Only filled
    /// when a recorder is enabled; the calling thread drains the buffers
    /// in static shard order after the phase barrier, which reproduces
    /// the reference engine's ascending-node halt emission exactly.
    halts: Vec<usize>,
    /// Wall-clock nanoseconds spent on this shard in the current phase.
    /// Written only when a timing sink is enabled and folded into the
    /// sink by the calling thread after the phase barrier, so (like the
    /// recorder) the sink never crosses a thread boundary and the
    /// deterministic event stream never sees a clock.
    nanos: u64,
}

/// A run of consecutive shards executed by one thread for the whole run.
struct Band<'a, P: NodeProgram> {
    shards: Vec<Shard<'a, P>>,
    /// The next phase: 0 is the init phase, `r ≥ 1` is round `r`.
    phase: usize,
    /// Tallies of the last phase, or the panic that stopped it.
    outcome: thread::Result<RoundStats>,
}

/// The run's shared, read-mostly state: the graph, the shard bounds and
/// the two node-slot buffers (`regions[parity][shard]`).
struct Buffers<'g, M> {
    g: &'g Graph,
    /// Shard `s` covers nodes `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    regions: [Vec<Region<M>>; 2],
}

/// Locks a mutex that a panicking band may have poisoned; the engine
/// stops after any fault, so the data behind it is never trusted again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The effective worker count for `threads` requested workers over
/// `items` work items: at least 1 (a request of 0 means "sequential",
/// not "no work"), at most `items` (extra workers would idle), and 1
/// when there is no work at all. Every parallel entry point of the
/// workspace — [`Simulator::run_auto`] and the fixers' color-class
/// sweeps — resolves its thread knob through this single function, so
/// `threads = 0`, `items = 0` and `threads > items` degrade identically
/// everywhere.
pub fn effective_workers(threads: usize, items: usize) -> usize {
    threads.clamp(1, items.max(1))
}

/// Item boundaries `b_0 = 0 ≤ … ≤ b_t = n` cutting a weighted item
/// range as evenly as possible: `offsets` is the prefix-sum weight table
/// (`offsets[i]..offsets[i+1]` is item `i`'s weight; for the simulator,
/// CSR port offsets), and shard `i` covers items `b_i..b_{i+1}`, owning
/// the contiguous weight `offsets[b_i]..offsets[b_{i+1}]`. Purely a
/// function of the weights and `threads` — callers rely on this for
/// determinism across runs. On all-zero weights the item range itself is
/// cut evenly instead.
pub fn shard_bounds(offsets: &[usize], threads: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    let mut bounds = Vec::with_capacity(threads + 1);
    bounds.push(0);
    let mut v = 0usize;
    for i in 1..threads {
        // First node whose slot offset reaches the i-th evenly spaced cut;
        // on edgeless graphs fall back to cutting the node range instead.
        let target = if total == 0 {
            bounds.push(n * i / threads);
            continue;
        } else {
            (total * i).div_ceil(threads)
        };
        while v < n && offsets[v] < target {
            v += 1;
        }
        bounds.push(v);
    }
    bounds.push(n);
    bounds
}

/// Splits `slice` at the absolute `cuts` (which must start at 0, end at
/// `slice.len()` and be non-decreasing) into `cuts.len() - 1` disjoint
/// mutable windows.
pub fn split_mut<'a, T>(mut slice: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len() - 1);
    let mut prev = 0usize;
    for &c in &cuts[1..] {
        let (head, tail) = slice.split_at_mut(c - prev);
        out.push(head);
        slice = tail;
        prev = c;
    }
    out
}

/// One pass over a shard: the init phase (`read == None`) calls `init`
/// and stores each broadcast in the shard's `write` region; a round
/// phase calls `round` with an inbox over the read parity. A halted
/// node's slot is stored `None` in every phase, so it reads as silent
/// from either parity.
fn work_shard<P: NodeProgram, R: Recorder>(
    g: &Graph,
    read: Option<Slots<'_, P::Message>>,
    write: &mut [Option<P::Message>],
    shard: &mut Shard<'_, P>,
) -> RoundStats {
    let mut stats = RoundStats::default();
    let nodes = shard
        .programs
        .iter_mut()
        .zip(shard.ctxs.iter_mut())
        .zip(shard.outputs.iter_mut().zip(write.iter_mut()));
    for (i, ((program, ctx), (output, slot))) in nodes.enumerate() {
        let Some(slots) = read else {
            *slot = program.init(ctx);
            stats.sent += if slot.is_some() { ctx.degree } else { 0 };
            continue;
        };
        if output.is_some() {
            *slot = None;
            continue;
        }
        let v = shard.first_node + i;
        let inbox = Inbox {
            neighbors: g.neighbors(v),
            slots,
        };
        match program.round(ctx, inbox) {
            RoundResult::Continue(msg) => {
                stats.sent += if msg.is_some() { ctx.degree } else { 0 };
                *slot = msg;
            }
            RoundResult::Halt(o) => {
                *output = Some(o);
                *slot = None;
                stats.halted += 1;
                if R::ENABLED {
                    shard.halts.push(v);
                }
            }
        }
    }
    stats
}

impl<M> Buffers<'_, M> {
    /// Runs the band's next phase: each shard in order, against the read
    /// parity (read-locked region by region into `reads`, a buffer kept
    /// across phases) and into its own region of the write parity. The
    /// init phase writes parity 0; round `r` reads parity `(r - 1) % 2`
    /// and writes parity `r % 2`. Turns a panic into the band's outcome,
    /// so the caller always reaches the phase barrier.
    fn run_band<'s, P, R, T>(&'s self, band: &mut Band<'_, P>, reads: &mut Vec<ReadGuard<'s, M>>)
    where
        P: NodeProgram<Message = M>,
        R: Recorder,
        T: TimingSink,
    {
        let phase = band.phase;
        band.phase += 1;
        if phase > 0 {
            reads.extend(
                self.regions[(phase - 1) % 2]
                    .iter()
                    .map(|r| r.read().unwrap_or_else(PoisonError::into_inner)),
            );
        }
        let read = (phase > 0).then_some(Slots::Regions {
            regions: &reads[..],
            starts: &self.bounds,
        });
        let write = &self.regions[phase % 2];
        let shards = &mut band.shards;
        band.outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut stats = RoundStats::default();
            for shard in shards.iter_mut() {
                let mut region = write[shard.index]
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                let started = span_start::<T>();
                let s = work_shard::<P, R>(self.g, read, &mut region, shard);
                if T::ENABLED {
                    shard.nanos = span_nanos(started);
                }
                stats.sent += s.sent;
                stats.halted += s.halted;
            }
            stats
        }));
        reads.clear();
    }
}

/// Folds the phase just run: per-shard occupancy into `timing`, halt
/// events (phase `round`) into `rec` in static shard order, tallies by
/// summation. Returns the first band's panic, in band order — the panic
/// of the minimum panicking node — after emitting the halts of every
/// node below it, exactly as far as the reference engine gets before it
/// unwinds.
fn collect<P, R, T>(
    bands: &[Mutex<Band<'_, P>>],
    round: usize,
    rec: &mut R,
    timing: &mut T,
) -> Result<RoundStats, Fault>
where
    P: NodeProgram,
    R: Recorder,
    T: TimingSink,
{
    let mut stats = RoundStats::default();
    for band in bands {
        let mut band = lock(band);
        for shard in &mut band.shards {
            if T::ENABLED {
                timing.record_span(TimingScope::ShardWork, shard.nanos);
            }
            for &node in &shard.halts {
                rec.record(&Event::NodeHalt { round, node });
            }
            shard.halts.clear();
        }
        let s = std::mem::replace(&mut band.outcome, Ok(RoundStats::default()))
            .map_err(Fault::Panic)?;
        stats.sent += s.sent;
        stats.halted += s.halted;
    }
    Ok(stats)
}

/// A run's bill: what [`RunOutcome`] carries besides the outputs.
struct Bill {
    rounds: usize,
    messages: usize,
    round_messages: Vec<usize>,
}

/// The calling thread's side of a run: executes `phase` (one init or
/// round phase across every band) until every node halted, reducing
/// each phase with [`collect`] and recording the round structure.
fn drive<P, R, T>(
    bands: &[Mutex<Band<'_, P>>],
    n: usize,
    max_rounds: usize,
    rec: &mut R,
    timing: &mut T,
    mut phase: impl FnMut(),
) -> Result<Bill, Fault>
where
    P: NodeProgram,
    R: Recorder,
    T: TimingSink,
{
    // Init phase: broadcasts land in the parity read by round 1.
    phase();
    let init = collect(bands, 0, rec, timing)?;

    let mut rounds = 0usize;
    let mut messages = 0usize;
    let mut round_messages = Vec::new();
    let mut running = n;
    // Messages sitting in the read parity: sent last phase = delivered
    // this round, which keeps the tally equal to the reference engine's
    // delivery count.
    let mut inflight = init.sent;
    while running > 0 {
        if rounds >= max_rounds {
            return Err(Fault::Sim(SimError::RoundLimitExceeded {
                limit: max_rounds,
            }));
        }
        rounds += 1;
        let round_started = span_start::<T>();
        if R::ENABLED {
            rec.record(&Event::RoundStart {
                round: rounds,
                running,
            });
        }
        let delivered = inflight;
        messages += delivered;
        round_messages.push(delivered);
        phase();
        let stats = collect(bands, rounds, rec, timing)?;
        running -= stats.halted;
        if R::ENABLED {
            rec.record(&Event::RoundEnd {
                round: rounds,
                delivered,
                bytes: delivered * std::mem::size_of::<P::Message>(),
                halted: stats.halted,
                running,
            });
        }
        if T::ENABLED {
            timing.record_span(TimingScope::SimRound, span_nanos(round_started));
        }
        inflight = stats.sent;
        if running == 0 && delivered == 0 {
            // Terminal decide-only round: free, as in the reference
            // engine (crate docs on round accounting).
            rounds -= 1;
            round_messages.pop();
        }
    }
    if R::ENABLED {
        rec.record(&Event::SimRunEnd { rounds, messages });
    }
    Ok(Bill {
        rounds,
        messages,
        round_messages,
    })
}

/// Releases the pool's workers from the start barrier with the stop flag
/// set. Dropped by the calling thread on every way out of a pooled run
/// — a finished run, an error, the round limit, or an unwinding panic —
/// always between phases, when every worker waits at the start barrier.
struct Release<'a> {
    start: &'a Barrier,
    stop: &'a AtomicBool,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.start.wait();
    }
}

impl<'g> Simulator<'g> {
    /// Runs one program instance per node until all halt, on the slab
    /// engine with the shard count set by [`Simulator::threads`].
    ///
    /// The outcome — outputs, round count, message count, and any error
    /// or panic — is **bit-for-bit identical to [`Simulator::run`]** for
    /// every thread count (see the [module docs](self) for why), so
    /// callers may treat the knob as a pure performance setting.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Re-raises, on the calling thread, the panic of the lowest node
    /// whose program panicked, after releasing every worker.
    pub fn run_auto<P, F>(
        &self,
        make: F,
        max_rounds: usize,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
        F: FnMut(&NodeContext) -> P,
    {
        self.run_auto_timed_recorded(make, max_rounds, &mut NullRecorder, &mut NullTiming)
    }

    /// [`Simulator::run_auto`] with a flight recorder and a side-band
    /// timing sink attached.
    ///
    /// The recorded stream is **byte-identical to the one
    /// [`Simulator::run_recorded`] emits**, at every thread count:
    /// shards buffer their halt transitions and the calling thread
    /// merges the buffers in static shard order after each phase
    /// barrier, which is ascending node order — exactly the order the
    /// reference engine emits them in. The recorder itself never crosses
    /// a thread boundary. To resume a recorded run from a checkpoint,
    /// wrap `rec` in a [`SkipPrefixRecorder`](lll_obs::SkipPrefixRecorder):
    /// the run re-executes deterministically and the wrapper drops the
    /// events the durable prefix already holds.
    ///
    /// Per-phase shard occupancy is timed by the thread running the
    /// shard into a shard-private slot and folded into `timing` by the
    /// calling thread after the phase barrier
    /// ([`TimingScope::ShardWork`], one span per shard per phase),
    /// alongside whole-round ([`TimingScope::SimRound`]) and whole-run
    /// ([`TimingScope::SimRun`]) spans. The sink never crosses a thread
    /// boundary, and no wall-clock value reaches `rec`. With
    /// [`NullRecorder`]/[`NullTiming`] the instrumentation compiles
    /// away.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// As [`Simulator::run_auto`].
    pub fn run_auto_timed_recorded<P, F, R, T>(
        &self,
        mut make: F,
        max_rounds: usize,
        rec: &mut R,
        timing: &mut T,
    ) -> Result<RunOutcome<P::Output>, SimError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
        F: FnMut(&NodeContext) -> P,
        R: Recorder,
        T: TimingSink,
    {
        let run_started = span_start::<T>();
        let g = self.graph();
        let n = g.num_nodes();
        let threads = effective_workers(self.threads, n);
        let info = NetworkInfo {
            n,
            max_degree: g.max_degree(),
        };
        let mut ctxs: Vec<NodeContext> = (0..n)
            .map(|v| NodeContext {
                id: self.id_of(v),
                degree: g.degree(v),
                info,
                rng: StdRng::seed_from_u64(
                    self.seed ^ (self.id_of(v).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
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

        let bounds = shard_bounds(g.port_offsets(), threads);
        crate::gauges::record_slab(crate::gauges::SlabStats {
            slab_bytes: 2 * n as u64 * std::mem::size_of::<Option<P::Message>>() as u64,
            slots: n as u64,
            shards: threads as u64,
            max_shard_slots: bounds
                .windows(2)
                .map(|w| (w[1] - w[0]) as u64)
                .max()
                .unwrap_or(0),
        });
        let region = |w: &[usize]| RwLock::new((w[0]..w[1]).map(|_| None).collect());
        let regions = [
            bounds.windows(2).map(region).collect(),
            bounds.windows(2).map(region).collect(),
        ];
        let buffers = Buffers { g, bounds, regions };
        let bounds = &buffers.bounds;

        let mut shards = split_mut(&mut programs, bounds)
            .into_iter()
            .zip(split_mut(&mut ctxs, bounds))
            .zip(split_mut(&mut outputs, bounds))
            .enumerate()
            .map(|(index, ((programs, ctxs), outputs))| Shard {
                index,
                first_node: bounds[index],
                programs,
                ctxs,
                outputs,
                halts: Vec::new(),
                nanos: 0,
            });
        // Shard count (= determinism-relevant layout) and OS worker count
        // are decoupled: oversubscribing a host buys nothing, so bands of
        // consecutive shards share a thread when `threads` exceeds the
        // available parallelism — on a single-core host every shard runs
        // on the calling thread with zero spawns.
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let band_len = threads.div_ceil(effective_workers(cores, threads));
        let bands: Vec<Mutex<Band<'_, P>>> = (0..threads.div_ceil(band_len))
            .map(|_| {
                Mutex::new(Band {
                    shards: shards.by_ref().take(band_len).collect(),
                    phase: 0,
                    outcome: Ok(RoundStats::default()),
                })
            })
            .collect();

        let bill = if let [band] = &bands[..] {
            let mut reads = Vec::new();
            drive(&bands, n, max_rounds, rec, timing, || {
                buffers.run_band::<P, R, T>(&mut lock(band), &mut reads);
            })
        } else {
            let stop = AtomicBool::new(false);
            // The phase barriers, made once the party count is known: a
            // band whose worker the OS refuses to spawn runs on the
            // calling thread instead.
            let gates: OnceLock<[Barrier; 2]> = OnceLock::new();
            let (stop, gates, buffers) = (&stop, &gates, &buffers);
            thread::scope(|s| {
                let mut mine = vec![&bands[0]];
                for band in &bands[1..] {
                    let spawned = thread::Builder::new().spawn_scoped(s, move || {
                        let [start, end] = gates.wait();
                        let mut reads = Vec::new();
                        loop {
                            start.wait();
                            // Pairs with the `Release` store in
                            // `Release::drop`, made before its start wait.
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            buffers.run_band::<P, R, T>(&mut lock(band), &mut reads);
                            end.wait();
                        }
                    });
                    if spawned.is_err() {
                        mine.push(band);
                    }
                }
                // Nothing since the first spawn can panic, so every
                // spawned worker gets its barriers.
                let parties = bands.len() + 1 - mine.len();
                let [start, end] =
                    gates.get_or_init(|| [Barrier::new(parties), Barrier::new(parties)]);
                let _release = Release { start, stop };
                let mut reads = Vec::new();
                drive(&bands, n, max_rounds, rec, timing, || {
                    start.wait();
                    for band in &mine {
                        buffers.run_band::<P, R, T>(&mut lock(band), &mut reads);
                    }
                    end.wait();
                })
            })
        };
        drop(bands);
        let bill = match bill {
            Ok(bill) => bill,
            Err(Fault::Sim(e)) => return Err(e),
            Err(Fault::Panic(payload)) => panic::resume_unwind(payload),
        };
        if T::ENABLED {
            timing.record_span(TimingScope::SimRun, span_nanos(run_started));
        }
        Ok(RunOutcome {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("all halted"))
                .collect(),
            rounds: bill.rounds,
            messages: bill.messages,
            round_messages: bill.round_messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_graphs::gen::{path, ring};

    #[test]
    fn shard_bounds_tile_the_node_range() {
        let g = ring(10);
        for t in 1..=12 {
            let b = shard_bounds(g.port_offsets(), t);
            assert_eq!(b.len(), t + 1);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), 10);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        // Star: the hub owns half the slots, so it gets its own shard.
        let star = lll_graphs::Graph::from_edges(9, (1..9).map(|i| (0, i))).unwrap();
        let b = shard_bounds(star.port_offsets(), 2);
        assert_eq!(b, vec![0, 1, 9]);
        // Edgeless graphs split by node count.
        let empty = lll_graphs::Graph::empty(8);
        let b = shard_bounds(empty.port_offsets(), 4);
        assert_eq!(b, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn split_mut_windows_are_disjoint_and_complete() {
        let mut data: Vec<u32> = (0..10).collect();
        let parts = split_mut(&mut data, &[0, 3, 3, 7, 10]);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], &[0, 1, 2]);
        assert!(parts[1].is_empty());
        assert_eq!(parts[2], &[3, 4, 5, 6]);
        assert_eq!(parts[3], &[7, 8, 9]);
    }

    #[test]
    fn effective_workers_resolves_degenerate_requests() {
        // threads = 0 means "sequential", never "no workers".
        assert_eq!(effective_workers(0, 10), 1);
        // No work: exactly one (idle) worker, even for huge requests.
        assert_eq!(effective_workers(0, 0), 1);
        assert_eq!(effective_workers(16, 0), 1);
        // More workers than items: capped at the item count.
        assert_eq!(effective_workers(16, 3), 3);
        // In range: untouched.
        assert_eq!(effective_workers(4, 10), 4);
        assert_eq!(effective_workers(1, 1), 1);
    }

    #[test]
    fn run_auto_accepts_degenerate_thread_counts() {
        struct Once;
        impl NodeProgram for Once {
            type Message = u64;
            type Output = u64;
            fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
                Some(ctx.id)
            }
            fn round(
                &mut self,
                _ctx: &mut NodeContext,
                inbox: Inbox<'_, u64>,
            ) -> RoundResult<u64, u64> {
                RoundResult::Halt(inbox.iter().flatten().sum())
            }
        }
        let g = ring(6);
        let sim = Simulator::new(&g);
        let seq = sim.run(|_| Once, 10).unwrap();
        // threads = 0 and threads > n must both resolve like threads = 1
        // (identical outcome; 0 means sequential, 64 is capped at n).
        for t in [0usize, 1, 64] {
            let par = sim.clone().threads(t).run_auto(|_| Once, 10).unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads {t}");
            assert_eq!(par.rounds, seq.rounds, "threads {t}");
        }
        // n = 0: every thread count degenerates to the same empty run.
        let empty = lll_graphs::Graph::empty(0);
        let esim = Simulator::new(&empty);
        for t in [0usize, 1, 8] {
            let out = esim.clone().threads(t).run_auto(|_| Once, 10).unwrap();
            assert!(out.outputs.is_empty(), "threads {t}");
            assert_eq!(out.rounds, 0, "threads {t}");
        }
    }

    /// Floods partial sums; nodes whose id is a multiple of 3 halt in
    /// round `at`, the others run for `ttl` rounds. In round `at`, the
    /// nodes listed in `panics` panic.
    #[derive(Clone, Copy)]
    struct Faulty {
        ttl: usize,
        at: usize,
        panics: &'static [u64],
        round: usize,
    }

    impl NodeProgram for Faulty {
        type Message = u64;
        type Output = u64;
        fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
            Some(ctx.id)
        }
        fn round(&mut self, ctx: &mut NodeContext, inbox: Inbox<'_, u64>) -> RoundResult<u64, u64> {
            self.round += 1;
            if self.round == self.at && self.panics.contains(&ctx.id) {
                panic!("node {} panicked in round {}", ctx.id, self.round);
            }
            let sum = inbox
                .iter()
                .flatten()
                .fold(ctx.id, |a, m| a.wrapping_add(*m));
            let last = if ctx.id.is_multiple_of(3) {
                self.at
            } else {
                self.ttl
            };
            if self.round >= last {
                RoundResult::Halt(sum)
            } else {
                RoundResult::Continue(Some(sum))
            }
        }
    }

    /// What a run did, as far as a caller can tell: its outcome, error
    /// or panic message, and the event stream it recorded.
    type Observed = (Result<(Vec<u64>, usize, usize), String>, Vec<u8>);

    fn observe(
        run: impl FnOnce(&mut lll_obs::JsonlRecorder<Vec<u8>>) -> Result<RunOutcome<u64>, SimError>,
    ) -> Observed {
        let mut rec = lll_obs::JsonlRecorder::new(Vec::new());
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut rec)))
        {
            Ok(Ok(out)) => Ok((out.outputs, out.rounds, out.messages)),
            Ok(Err(e)) => Err(format!("error: {e}")),
            Err(payload) => Err(format!(
                "panic: {}",
                payload
                    .downcast_ref::<String>()
                    .expect("the probe panics with a formatted message")
            )),
        };
        (result, rec.finish().expect("in-memory stream never fails"))
    }

    #[test]
    fn pool_faults_match_the_reference_engine_and_never_hang() {
        // (program, round budget, the reference engine's verdict)
        let base = Faulty {
            ttl: 6,
            at: 3,
            panics: &[],
            round: 0,
        };
        let cases = [
            // A mid-run panic, two of them in different shards: the
            // lowest panicking node decides.
            (
                Faulty {
                    panics: &[17, 5],
                    ..base
                },
                20,
                "panic: node 5 panicked in round 3",
            ),
            // The round limit.
            (base, 4, "error: round limit 4 exceeded"),
        ];
        for g in [ring(24), path(13)] {
            let sim = Simulator::new(&g);
            for (program, budget, verdict) in cases {
                let reference = observe(|rec| sim.run_recorded(|_| program, budget, rec));
                let Err(msg) = &reference.0 else {
                    panic!("probe must fail, got {:?}", reference.0);
                };
                assert!(msg.starts_with(verdict), "{msg} vs {verdict}");
                for t in [1usize, 2, 3, 8] {
                    let par = observe(|rec| {
                        sim.clone().threads(t).run_auto_timed_recorded(
                            |_| program,
                            budget,
                            rec,
                            &mut NullTiming,
                        )
                    });
                    assert_eq!(par.0, reference.0, "{verdict} at threads {t}");
                    assert_eq!(par.1, reference.1, "{verdict} stream at threads {t}");
                }
            }
            // After every fault the engine is still usable: a clean run
            // matches the reference engine.
            let clean = observe(|rec| sim.run_recorded(|_| base, 20, rec));
            for t in [2usize, 3, 8] {
                assert_eq!(
                    observe(|rec| sim.clone().threads(t).run_auto_timed_recorded(
                        |_| base,
                        20,
                        rec,
                        &mut NullTiming
                    )),
                    clean
                );
            }
        }
    }

    #[test]
    fn path_endpoints_survive_uneven_shards() {
        // Degree-1 endpoints make slot balancing uneven; every thread
        // count must still agree with the sequential engine.
        struct Echo(u8);
        impl NodeProgram for Echo {
            type Message = u64;
            type Output = u64;
            fn init(&mut self, ctx: &mut NodeContext) -> Option<u64> {
                Some(ctx.id)
            }
            fn round(
                &mut self,
                ctx: &mut NodeContext,
                inbox: Inbox<'_, u64>,
            ) -> RoundResult<u64, u64> {
                let sum: u64 = inbox.iter().flatten().sum();
                if self.0 == 0 {
                    RoundResult::Halt(sum)
                } else {
                    self.0 -= 1;
                    RoundResult::Continue(Some(sum + ctx.id))
                }
            }
        }
        let g = path(11);
        let sim = Simulator::new(&g);
        let seq = sim.run(|_| Echo(3), 100).unwrap();
        for t in [1, 2, 3, 5, 8, 11, 64] {
            let par = sim.clone().threads(t).run_auto(|_| Echo(3), 100).unwrap();
            assert_eq!(par.outputs, seq.outputs, "threads {t}");
            assert_eq!(par.rounds, seq.rounds, "threads {t}");
            assert_eq!(par.messages, seq.messages, "threads {t}");
        }
    }
}
