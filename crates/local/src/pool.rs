//! The phase pool: the one worker pool of the workspace.
//!
//! Both parallel layers run on it: the LOCAL engine
//! ([`Simulator::run_auto`](crate::Simulator::run_auto)), one phase per
//! round, and the color-class sweep of `lll-core`, one phase per class. A
//! pool lives exactly as long as the closure handed to [`run`]: its
//! workers are spawned once when it opens and joined once when it closes,
//! however many phases run in between.
//!
//! # Bands and mailboxes
//!
//! The caller cuts its work into *bands* — for both users, runs of
//! consecutive shards, at most one band per available core
//! ([`band_len`]). Each band's state `B` sits behind a `Mutex` of its own,
//! the band's *mailbox*. The calling thread runs band 0, and every other
//! band gets one OS worker for the life of the pool (or, if the OS refuses
//! to spawn it, runs on the calling thread too). A phase ([`Phases::phase`])
//! applies the pool's fixed work function to every band once. Between
//! phases only the calling thread touches the mailboxes
//! ([`Phases::band`]): it posts the next phase's work and reads what the
//! last one left. A pool of a single band spawns nothing and opens no
//! thread scope.
//!
//! # The gate
//!
//! A phase is released by one store to an epoch counter plus an unpark of
//! each worker; its end is a count of busy workers whose last decrement
//! unparks the calling thread. No `Barrier`: a thread that finds the gate
//! closed spins for at most [`SPIN`] and then parks, so a handoff between
//! two running threads costs a few cache-line transfers and never a futex
//! sleep, while a waiter that would wait longer gives its core back. The
//! budget is a fixed constant, not a knob, and the spin never yields. A
//! waiter whose last wait outlasted the budget parks at once until a wait
//! is short again: on a loaded host the thread it waits for is often
//! descheduled, and spinning would take the core from it.
//!
//! # Faults
//!
//! The pool never hangs. Each band runs its phase inside `catch_unwind`,
//! so a panicking band still reports the end of the phase; the panic is
//! stored with its original payload, and [`Phases::phase`] returns the
//! first faulting band in band order, for the caller to re-raise after
//! doing whatever the earlier bands' work calls for. Closing the pool
//! — the closure returns, returns early, or unwinds — stops and joins
//! every worker first.

use std::any::Any;
use std::fmt;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::effective_workers;

/// How long a thread that finds the gate closed spins before it parks.
///
/// Measured on a 2-vCPU host (EXPERIMENTS L3, "Remaining sync cost"): a
/// zero-work phase at two threads costs 1.1–1.4 µs with this budget,
/// against 15 µs when every wait parks at once (as much as two `Barrier`
/// waits). When the calling thread waits 10 µs for its worker each phase,
/// a 5 µs budget parks it and the phase costs 19 µs; 20 µs covers the
/// wait and the phase costs 11.7 µs, and 50 µs gains nothing more. So the
/// budget covers about one band's share of a cheap round. Beside a busy
/// loop, spinning on every wait made a zero-work phase cost 12–43 µs; a
/// waiter that stops spinning once a wait outlasts the budget holds it at
/// 10–13 µs, against 17–20 µs for the barriers.
pub const SPIN: Duration = Duration::from_micros(20);

/// Epoch value that tells the workers to exit.
const STOP: usize = usize::MAX;

/// What one pool did: observation only, never an input to a result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// OS workers started (at most one per band beyond band 0).
    pub spawns: usize,
    /// Phases released: [`Phases::phase`] calls.
    pub handoffs: usize,
}

/// A band's panic, returned by [`Phases::phase`].
pub struct BandPanic {
    /// Index of the first band (in band order) whose phase panicked.
    pub band: usize,
    /// The panic's original payload, for [`std::panic::resume_unwind`].
    pub payload: Box<dyn Any + Send>,
}

impl fmt::Debug for BandPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BandPanic")
            .field("band", &self.band)
            .finish_non_exhaustive()
    }
}

/// The host's available parallelism, read once per process (the
/// lookup parses cgroup files on Linux). It decides only which thread
/// runs a band, never what a band computes.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// How many consecutive shards one band takes when `shards` shards share
/// this host: oversubscribing buys nothing, so beyond one band per core
/// bands grow instead. On a single-core host every shard lands in band 0.
pub fn band_len(shards: usize) -> usize {
    shards.div_ceil(effective_workers(available_cores(), shards))
}

/// Locks a mutex that a panicking band may have poisoned; after a fault
/// the callers stop, so the data behind it is never trusted again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One band: its mailbox, who runs it, and (for a worker's band) the
/// panic of its last phase.
struct Slot<B> {
    state: Mutex<B>,
    fault: Mutex<Option<Box<dyn Any + Send>>>,
    /// Whether an OS worker of its own runs the band (else the caller).
    spawned: AtomicBool,
}

impl<B> Slot<B> {
    /// One phase of the band, returning its panic instead of unwinding.
    fn run<L>(
        &self,
        work: &(dyn Fn(&mut B, &mut L) + Sync),
        local: &mut L,
    ) -> Option<Box<dyn Any + Send>> {
        let mut state = lock(&self.state);
        panic::catch_unwind(AssertUnwindSafe(|| work(&mut state, local))).err()
    }
}

/// The handoff state shared by the calling thread and its workers.
struct Gate {
    /// The phase to run; [`STOP`] to exit.
    epoch: AtomicUsize,
    /// Workers still inside the current phase.
    busy: AtomicUsize,
    /// The calling thread, unparked by the last worker to finish.
    caller: Thread,
}

/// Returns once `ready()` holds: spins for at most [`SPIN`], then parks
/// until unparked. The party that makes `ready()` true unparks the
/// waiter afterwards, so no wakeup is lost (an unpark before the park
/// makes the park return at once), and a spurious return re-checks.
///
/// `spin` is the waiter's own record of whether spinning pays: it stays
/// set while waits end within the budget and is cleared by a wait that
/// outlasts it, after which the waiter parks at once until a wait is
/// short again. On a loaded host the thread waited for is often
/// descheduled, so waits outlast the budget and the waiter stops taking
/// CPU from it.
fn wait_until(spin: &mut bool, ready: impl Fn() -> bool) {
    if ready() {
        return;
    }
    let started = Instant::now();
    if *spin {
        while started.elapsed() < SPIN {
            for _ in 0..64 {
                hint::spin_loop();
                if ready() {
                    return;
                }
            }
        }
    }
    while !ready() {
        thread::park();
    }
    *spin = started.elapsed() < SPIN;
}

/// The calling thread's handle on an open pool.
pub struct Phases<'p, B, L> {
    bands: &'p [Slot<B>],
    work: &'p (dyn Fn(&mut B, &mut L) + Sync),
    /// The calling thread's per-thread scratch.
    local: L,
    /// The gate and the workers to unpark; `None` for a single band.
    gate: Option<(&'p Gate, Vec<Thread>)>,
    epoch: usize,
    handoffs: usize,
    /// Whether the calling thread spins at its next wait.
    spin: bool,
}

impl<B, L> Phases<'_, B, L> {
    /// Number of bands.
    pub fn band_count(&self) -> usize {
        self.bands.len()
    }

    /// Band `i`'s mailbox, between phases.
    pub fn band(&self, i: usize) -> MutexGuard<'_, B> {
        lock(&self.bands[i].state)
    }

    /// Runs one phase: the work function over every band, the calling
    /// thread's bands here and the others on their workers, and returns
    /// when all are done. Reports the first band, in band order, whose
    /// phase panicked.
    ///
    /// # Errors
    ///
    /// The first faulting band's [`BandPanic`]; the pool stays usable.
    pub fn phase(&mut self) -> Result<(), BandPanic> {
        self.handoffs += 1;
        if let Some((gate, workers)) = &self.gate {
            // The busy count is published by the epoch's release store,
            // which the workers acquire before they start.
            gate.busy.store(workers.len(), Ordering::Relaxed);
            self.epoch += 1;
            gate.epoch.store(self.epoch, Ordering::Release);
            for worker in workers {
                worker.unpark();
            }
        }
        // Each phase reports its own first fault in band order; later
        // bands' panics are dropped.
        let mut faults = Vec::new();
        for (band, slot) in self.bands.iter().enumerate() {
            if !slot.spawned.load(Ordering::Relaxed) {
                if let Some(payload) = slot.run(self.work, &mut self.local) {
                    faults.push(BandPanic { band, payload });
                }
            }
        }
        if let Some((gate, _)) = &self.gate {
            wait_until(&mut self.spin, || gate.busy.load(Ordering::Acquire) == 0);
            for (band, slot) in self.bands.iter().enumerate() {
                if let Some(payload) = lock(&slot.fault).take() {
                    faults.push(BandPanic { band, payload });
                }
            }
        }
        match faults.into_iter().min_by_key(|f| f.band) {
            Some(first) => Err(first),
            None => Ok(()),
        }
    }
}

impl<B, L> Drop for Phases<'_, B, L> {
    /// Stops the workers. Runs on every way out of [`run`]'s closure,
    /// always between phases (a phase returns only once every band is
    /// done), when every worker waits at the gate.
    fn drop(&mut self) {
        if let Some((gate, workers)) = &self.gate {
            gate.epoch.store(STOP, Ordering::Release);
            for worker in workers {
                worker.unpark();
            }
        }
    }
}

/// Opens a pool over `bands`, hands it to `drive`, and closes it: every
/// phase `drive` releases applies `work` to each band's state, with `L`
/// as each thread's own scratch (made on the thread that uses it, so it
/// need not be `Send`). Returns `drive`'s result and the pool's counters.
///
/// # Panics
///
/// If `bands` is empty. A panic in `drive` propagates with its payload
/// after the workers are joined; panics inside `work` are returned by
/// [`Phases::phase`] instead.
pub fn run<B, L, O>(
    bands: impl IntoIterator<Item = B>,
    work: impl Fn(&mut B, &mut L) + Sync,
    drive: impl FnOnce(&mut Phases<'_, B, L>) -> O,
) -> (O, PoolStats)
where
    B: Send,
    L: Default,
{
    let slots: Vec<Slot<B>> = bands
        .into_iter()
        .map(|state| Slot {
            state: Mutex::new(state),
            fault: Mutex::new(None),
            spawned: AtomicBool::new(false),
        })
        .collect();
    assert!(!slots.is_empty(), "a pool needs at least one band");
    let work: &(dyn Fn(&mut B, &mut L) + Sync) = &work;
    let open = |gate: Option<(&Gate, Vec<Thread>)>| {
        let spawns = gate.as_ref().map_or(0, |(_, workers)| workers.len());
        let mut phases = Phases {
            bands: &slots,
            work,
            local: L::default(),
            gate,
            epoch: 0,
            handoffs: 0,
            spin: true,
        };
        let out = drive(&mut phases);
        let handoffs = phases.handoffs;
        (out, PoolStats { spawns, handoffs })
    };
    if slots.len() == 1 {
        return open(None);
    }
    let gate = Gate {
        epoch: AtomicUsize::new(0),
        busy: AtomicUsize::new(0),
        caller: thread::current(),
    };
    thread::scope(|s| {
        let gate = &gate;
        let mut workers = Vec::with_capacity(slots.len() - 1);
        for slot in &slots[1..] {
            let spawned = thread::Builder::new().spawn_scoped(s, move || {
                let mut local = L::default();
                let mut seen = 0;
                let mut spin = true;
                loop {
                    wait_until(&mut spin, || gate.epoch.load(Ordering::Acquire) != seen);
                    seen = gate.epoch.load(Ordering::Acquire);
                    if seen == STOP {
                        break;
                    }
                    if let Some(payload) = slot.run(work, &mut local) {
                        *lock(&slot.fault) = Some(payload);
                    }
                    // Release: the caller's acquire load of a zero busy
                    // count sees everything this band wrote.
                    if gate.busy.fetch_sub(1, Ordering::AcqRel) == 1 {
                        gate.caller.unpark();
                    }
                }
            });
            // A band whose worker the OS refuses stays with the calling
            // thread; only the calling thread reads the flag.
            if let Ok(handle) = spawned {
                workers.push(handle.thread().clone());
                slot.spawned.store(true, Ordering::Relaxed);
            }
        }
        open(Some((gate, workers)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_runs_every_band_once() {
        for bands in [1usize, 2, 3, 8] {
            let ((), stats) = run(
                vec![0usize; bands],
                |count: &mut usize, _: &mut ()| *count += 1,
                |pool| {
                    for phase in 1..=5 {
                        pool.phase().expect("no band panics");
                        for b in 0..pool.band_count() {
                            assert_eq!(*pool.band(b), phase, "{bands} bands");
                        }
                    }
                },
            );
            // Every band but band 0 gets a worker of its own.
            assert_eq!(stats.spawns, bands - 1, "{bands} bands");
            assert_eq!(stats.handoffs, 5, "{bands} bands");
        }
    }

    #[test]
    fn the_first_faulting_band_is_reported_with_its_payload() {
        // (band, phase) pairs that panic, with the band index as payload.
        let faults: &[(usize, usize)] = &[(1, 2), (3, 2), (2, 4)];
        let ((), stats) = run(
            (0..4).map(|b| (b, 0usize)),
            |(band, phase): &mut (usize, usize), _: &mut ()| {
                *phase += 1;
                if faults.contains(&(*band, *phase)) {
                    panic::panic_any(*band);
                }
            },
            |pool| {
                assert!(pool.phase().is_ok());
                let fault = pool.phase().expect_err("bands 1 and 3 panic");
                assert_eq!(fault.band, 1);
                assert_eq!(fault.payload.downcast_ref::<usize>(), Some(&1));
                // The pool stays usable, and band 3's panic of the same
                // phase is not reported again.
                assert!(pool.phase().is_ok());
                let fault = pool.phase().expect_err("band 2 panics");
                assert_eq!(fault.band, 2);
                assert!(pool.phase().is_ok());
            },
        );
        assert_eq!(stats.handoffs, 5);
    }

    #[test]
    fn a_panicking_caller_joins_the_workers_and_keeps_its_payload() {
        for bands in [1usize, 2, 4] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                run(
                    vec![(); bands],
                    |(), _: &mut ()| {},
                    |pool| {
                        pool.phase().expect("no band panics");
                        panic::panic_any("caller");
                    },
                )
            }));
            let payload = caught.expect_err("the caller panicked");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller"));
        }
    }

    #[test]
    fn a_long_phase_parks_its_waiters_and_still_hands_off() {
        // Work far longer than the spin budget on one band only: the
        // others park and must be woken, every phase.
        let ((), stats) = run(
            [0usize, 1],
            |band: &mut usize, _: &mut ()| {
                if *band == 1 {
                    thread::sleep(SPIN * 10);
                }
            },
            |pool| {
                for _ in 0..10 {
                    pool.phase().expect("no band panics");
                }
            },
        );
        assert_eq!(stats.handoffs, 10);
    }

    #[test]
    fn band_len_never_exceeds_the_shards() {
        for shards in 1..=16 {
            let len = band_len(shards);
            assert!((1..=shards).contains(&len), "{shards} shards");
            assert!(
                shards.div_ceil(len) <= available_cores().max(1),
                "{shards} shards"
            );
        }
    }
}
