//! Host-speed calibration of the end-to-end timings.
//!
//! The reference host is a 2-vCPU virtual machine on shared physical
//! cores: one `audited-r2` loop measured a 35 ms median solve and the
//! next, minutes later, 60 ms, and the hypervisor at times steals a
//! fifth of the guest's CPU time. No amount of work per run averages that
//! away, so every timed operation of an untraced run is bracketed by
//! samples of a fixed kernel that lives in this file (fills and sorts
//! over a few MiB: memory traffic and unpredictable branches, none of the
//! solvers' code), run on as many threads as the operation keeps busy.
//! The kernel allocates nothing but its threads, so the state of the
//! allocator cannot change its time. Its time over its time on the quiet
//! reference host is the host factor at that moment, and the operation's
//! time divided by the mean factor of the two samples around it reads as
//! a time on the quiet reference host. The median factor of a run is
//! reported as `diag.host_factor`.
//!
//! On two threads the kernel forks and joins once per sorted run, as the
//! LOCAL engine does once per round: a stolen vCPU then stalls the
//! kernel as it stalls a solve. Over ten seeds in a period of heavy
//! steal, this held `dense-d8`'s `solve_ms_p50` to a 4.0% interquartile
//! spread, against 8.0% for two free-running sorting threads and 25%
//! uncalibrated; on `audited-r2` 2.4%, against 2.8% and 8.5%. (A
//! streaming kernel over 16 MiB did no better on the memory-heavy
//! `scale-r2`: across batches of ten runs each came out ahead about as
//! often.)

use std::hint::black_box;
use std::time::Instant;

use crate::ms_since;
use crate::stats::median;

/// The kernel's time on the quiet reference host (2 vCPUs, Xeon), on one
/// thread and forking onto two.
const REFERENCE_MS: [f64; 2] = [4.4, 13.9];

/// Scratch `u64`s per kernel thread (4 MiB); one sample touches ~3 MiB.
const SCRATCH: usize = 1 << 19;

/// Sorted runs per kernel thread and sample.
const RUNS: usize = 400;

/// One kernel thread's runs over its scratch.
struct Runs<'a> {
    buf: &'a mut [u64],
    x: u64,
    at: usize,
}

impl Runs<'_> {
    fn new(buf: &mut [u64]) -> Runs<'_> {
        Runs {
            buf,
            x: 0x9e37_79b9_7f4a_7c15,
            at: 0,
        }
    }

    /// Fills the next run (1 to 2000 values) and sorts it.
    fn step(&mut self) {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        let n = (self.x % 2000) as usize + 1;
        if self.at + n > self.buf.len() {
            self.at = 0;
        }
        let run = &mut self.buf[self.at..self.at + n];
        for (i, slot) in (0u64..).zip(run.iter_mut()) {
            *slot = i.wrapping_mul(self.x) ^ (i >> 3);
        }
        run.sort_unstable();
        self.at += n;
    }
}

/// Host factors sampled through a run, with the kernel on `threads`
/// threads (1 or 2).
#[derive(Debug)]
pub struct Calibration {
    threads: usize,
    scratch: Vec<u64>,
    factors: Vec<f64>,
}

impl Calibration {
    pub fn new(threads: usize) -> Calibration {
        assert!(
            (1..=2).contains(&threads),
            "the kernel runs on 1 or 2 threads"
        );
        Calibration {
            threads,
            scratch: vec![0; threads * SCRATCH],
            factors: Vec::new(),
        }
    }

    /// Runs the kernel now and returns the host factor it measured.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let (mine, other) = self.scratch.split_at_mut(SCRATCH);
        let mut mine = Runs::new(mine);
        if other.is_empty() {
            (0..RUNS).for_each(|_| mine.step());
        } else {
            let mut other = Runs::new(other);
            for _ in 0..RUNS {
                std::thread::scope(|s| {
                    s.spawn(|| other.step());
                    mine.step();
                });
            }
        }
        black_box(&self.scratch);
        let factor = ms_since(t) / REFERENCE_MS[self.threads - 1];
        self.factors.push(factor);
        factor
    }

    /// Samples now and returns the host factor of the interval since the
    /// previous sample: the mean of the two samples that bracket it (the
    /// first interval has only its closing sample).
    pub fn close_interval(&mut self) -> f64 {
        let before = self.factors.last().copied();
        let after = self.sample();
        before.map_or(after, |b| (b + after) / 2.0)
    }

    /// `raw`, the time of an operation that just ended, as a time on the
    /// quiet reference host.
    pub fn normalize(&mut self, raw: f64) -> f64 {
        raw / self.close_interval()
    }

    /// The run's median host factor.
    pub fn factor(&self) -> f64 {
        median(&self.factors)
    }
}
