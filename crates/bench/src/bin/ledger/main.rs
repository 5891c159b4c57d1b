//! `ledger` — the layer-by-layer performance ledger.
//!
//! One binary runs five workloads over the three north-star paths (the
//! audited E2/E6 drivers, the LOCAL simulation behind every schedule, and
//! `lll-serve`). An untraced run of a workload reports its end-to-end
//! metrics; a separate `--trace 1` run decomposes the same solves into
//! calls of each layer's public functions, timed from this binary's own
//! files, and reports the per-layer metrics. The metric names, units and
//! regression bounds are the ones `BENCHMARK.json` declares (compiled in).
//!
//! ```text
//! cargo run --release -p lll-bench --bin ledger -- --list
//! cargo run --release -p lll-bench --bin ledger -- --all --seed 1
//! cargo run --release -p lll-bench --bin ledger -- --workload dense-d8 --seed 3 --trace 1
//! cargo run --release -p lll-bench --bin ledger -- --repeat 2 --seed 1
//! ```
//!
//! `main.rs` is also the binary of a package of its own (the `Cargo.toml`
//! beside it), which is how `BENCHMARK.json` builds and runs it:
//! `cargo run --release --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- --list`.
//!
//! `--workload W --seed S --seconds T --trace 0|1` runs one workload in
//! this process and prints, last, one JSON line
//! `{"correct","attempted","failed","metrics"}`. `--all` runs every
//! workload (both modes unless `--trace` is given), each in a child
//! process of its own so `peak_rss_mb` belongs to one workload, prints
//! every metric with its unit and writes `.ledger/ledger-seed<S>.json`.
//! `--repeat K` runs the whole set K times back to back, prints each
//! end-to-end metric's relative spread against its bound and checks that
//! work counts repeat exactly; it exits nonzero if either fails (lengthen
//! the workload's loop rather than widen the bound). `--smoke` shrinks
//! every input so a run takes seconds.
//!
//! # Workloads, and why each exists
//!
//! * `audited-r2` — the E2 ring (`ring(2048)`, `k = 16`, tightness 0.9)
//!   on `BigRational` with the exact per-class `P*` audit, 25 instances.
//!   Exact enumeration and the audit dominate; coloring is ~10% and there
//!   are no `BigInt` tier promotions, so it is the control for any
//!   arithmetic-tier change.
//! * `audited-r3` — the E6 hyper-ring (`hyper_ring(384)`), otherwise as
//!   `audited-r2`. Rank-3 winner search, `S_rep` decomposition and ~10⁴
//!   `Wide`-tier promotions per solve happen only here.
//! * `dense-d8` — `random_3_uniform(600, 4)` topologies (dependency degree
//!   8, palette ~57), `f64`, unaudited, 6 instances. The distance-2 LOCAL
//!   coloring is ~90% of a solve and arithmetic is negligible: engine and
//!   coloring changes show here, arithmetic changes should not.
//! * `scale-r2` — `ring(16384)`, `k = 8`, `f64`, unaudited, 4 instances.
//!   The working set is far beyond the L2 caches and superlinear terms
//!   show: the criterion check (`Instance::unconditional_probability`
//!   allocates a `PartialAssignment` per event, so it is O(n·m)) is most
//!   of a solve here and under 3% at `n = 2048`. At `ring(32768)` a run
//!   fit only ~18 solves, too few for a steady median on the noisy host.
//! * `serve-mix` — in-process `lll_serve::serve()` at its documented
//!   default `--threads 1 --batch 16`, plus `--cache-capacity 16`. The mix
//!   is 55% rank-3 ring formulas on 3 standing shapes and 30% rank-2 ring
//!   CNFs on 3 standing shapes (cache reads), 10% fresh shapes (cache
//!   writes and LRU evictions), 5% hostile lines (an unknown field,
//!   malformed JSON, rank 4, a formula at the threshold), and about 2%
//!   carry an `obs` tee. Phase A serves 3000 pre-buffered lines, 50 per
//!   `serve()` call on one engine (saturated, `solves_per_s`); phase B is
//!   a closed loop of one `serve()` call per request (`solve_ms_p50`);
//!   phase C is an open loop at 150 requests/s over a `UnixStream` pair
//!   fed by one generator thread, timed from each request's due time
//!   (`serve.open_ms_p50` and the tails, diagnostics only: see the host
//!   caveats). A miss colors the schedule at one thread and costs ~10× a
//!   hit, so cache and coloring changes show here.
//!
//! Each instance seed derives from `--seed` and the workload name; the
//! schedule seed of every solve is fixed (5), so `local_rounds` is a
//! function of the topologies alone.
//!
//! # Correctness inside the timed loop
//!
//! Before any timing, the first solve of every instance runs at two
//! threads and at one and must agree (assignment and rounds); `serve-mix`
//! serves a probe of every line kind at two workers and at one and
//! compares bytes. Every timed solve is checked against that reference: a
//! driver error (a failed audit verdict included), a violated event, a
//! differing outcome, or a serve response whose status, error kind, id,
//! `violated` count or assignment (checked against the formula) is not
//! what the generator expected counts as failed. Hostile lines expect
//! their typed error.
//!
//! # End-to-end metrics
//!
//! * `setup_s` — input construction: instances × the median
//!   per-instance build time (`lll_bench::workloads` generators, ending
//!   in `InstanceBuilder::build`); for `serve-mix`, the median of three
//!   set-ups of the request lists, the engine and its cache warm-up.
//! * `solve_ms_p50` — median wall-clock of one solve: one driver call, or
//!   one `serve()` call answering one request line.
//! * `solves_per_s` — solves per second of solving time: the median over
//!   passes (each solves every instance once) of a pass's rate; for
//!   `serve-mix`, requests per second over phase A.
//! * `peak_rss_mb` — `lll_local::gauges::peak_rss_bytes()` at exit.
//! * `local_rounds` — mean `DistReport::rounds` (serve: mean response
//!   `rounds`), the paper's complexity measure; deterministic.
//!
//! Every build, solve and serve chunk behind the three timings is
//! bracketed by host-speed calibration samples and divided by their mean
//! (see `calib`), so the timings read as times on the quiet reference
//! host: that host's own speed drifts by tens of percent within minutes.
//!
//! # Host caveats
//!
//! The reference host has 2 cores (`nproc` is recorded with every run).
//! Load comes from one process and never uses more than two busy threads:
//! the drivers run at `threads = 2` — `threads ≤ 1` silently selects the
//! sequential reference engine instead of the production slab engine,
//! 9–14× slower on `dense-d8` — and the daemon at one worker (two workers
//! gave no extra throughput and a 20% run-to-run spread, against 8% for
//! one). Timings are medians of many solves. Tail percentiles are
//! reported as diagnostics (`diag.solve_ms_p90`, `serve.lat_p99_ms`,
//! `serve.gen_lag_ms`) and never gated: identical runs moved a p90 by a
//! third. The open-loop median (`serve.open_ms_p50`) is a diagnostic too:
//! a daemon idle most of the time escapes the host's slowdowns that a
//! saturated one suffers, so no calibration sample tracks it, and over
//! ten seeds it spread 6–10% against 2–3% for the closed loop.
//!
//! # Metrics not declared in `BENCHMARK.json`
//!
//! `fail_frac` (failed ÷ attempted) is 0 on every correct run, so it is
//! carried by the result line's `failed`/`attempted` fields instead. The
//! `diag.*` diagnostics, and the metrics of layers only some workloads
//! run — `audit.ms`/`audit.share` on the audited workloads, the `serve.*`
//! layer metrics on `serve-mix` — are printed and written to the `--all`
//! result file but are not part of the result line, which carries the
//! metrics every workload has.

mod alloc;
mod calib;
mod drivers;
mod json;
mod serve_mix;
mod spec;
mod stats;
mod trace;

use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::{quote, Json};
use crate::spec::spec;
use crate::stats::relative_spread;
use crate::trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Metrics printed and written to the result file but not gated, with
/// their units.
const REPORTED: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("diag.solve_ms_p90", "ms"),
    ("diag.samples", "count"),
    ("diag.host_factor", "ratio"),
    ("serve.open_ms_p50", "ms"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("audit.ms", "ms"),
    ("audit.share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.build_us", "us"),
    ("serve.sweep_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_ms", "ms"),
];

/// Where traces, result files and scratch output go (under the current
/// directory).
const OUT_DIR: &str = ".ledger";

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Outcome checks of a run: every checked solve or response is an
/// attempt; a wrong one is a failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 10 {
                self.notes.push(what());
            }
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of input `i` of the workload tagged `tag` in a run seeded
/// `seed`.
pub fn derive_seed(seed: u64, tag: u64, i: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ tag) ^ i)
}

/// A stable tag per workload name (FNV-1a), so seeds do not depend on
/// the order `BENCHMARK.json` lists the workloads in.
fn workload_tag(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs one workload in this process; `None` for an unknown name.
fn run_workload(name: &str, opts: &Opts) -> Option<RunResult> {
    let tag = workload_tag(name);
    let mut result = if name == "serve-mix" {
        serve_mix::run(tag, opts)
    } else {
        drivers::run(name, tag, opts)?
    };
    let c = &result.checks;
    let fail_frac = c.failed as f64 / c.attempted.max(1) as f64;
    result.metric("fail_frac", fail_frac);
    if !opts.traced {
        let rss = lll_local::gauges::peak_rss_bytes().unwrap_or(0);
        result.metric("peak_rss_mb", rss as f64 / (1u64 << 20) as f64);
    }
    Some(result)
}

fn unit_of(name: &str) -> &'static str {
    let s = spec();
    s.end_to_end
        .iter()
        .chain(&s.per_layer)
        .find(|m| m.name == name)
        .map(|m| m.unit.as_str())
        .or_else(|| REPORTED.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
        .unwrap_or("")
}

/// The contract line: `correct`, `attempted`, `failed`, and exactly the
/// declared metrics of the run's mode. A missing or non-finite metric
/// makes the run incorrect.
fn result_line(result: &RunResult, traced: bool) -> String {
    let mut correct = result.checks.failed == 0 && result.checks.attempted > 0;
    let mut fields = Vec::new();
    for m in spec().metrics(traced) {
        let value = result
            .metrics
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ => {
                correct = false;
                0.0
            }
        };
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            quote(&m.name),
            quote(&m.unit)
        ));
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.checks.attempted.max(1),
        result.checks.failed,
        fields.join(",")
    )
}

/// The commit the checkout is at, read from `.git` without running git
/// (benchmark checkouts usually have no `.git` at all).
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one workload and prints its metrics, its self-time table when
/// traced, and the contract line last.
fn workload_mode(name: &str, opts: &Opts) -> ExitCode {
    let Some(result) = run_workload(name, opts) else {
        eprintln!("ledger: unknown workload {name:?} (see --list)");
        return ExitCode::from(2);
    };
    println!(
        "# ledger workload={name} seed={} seconds={} trace={} smoke={} nproc={} sha={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        opts.smoke,
        nproc(),
        git_sha()
    );
    for (metric, value) in &result.metrics {
        println!("metric {metric} {value} {}", unit_of(metric));
    }
    if let Some(tr) = &result.tracer {
        let times = tr.self_times();
        let roots: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ms())
            .sum();
        println!("# span self time (ms, share of all top-level spans):");
        for (span, (count, total, own)) in &times {
            println!(
                "#   {span:<20} n={count:<7} total={total:>10.1} self={own:>10.1} {:>6.1}%",
                100.0 * own / roots.max(f64::MIN_POSITIVE)
            );
        }
        let path = Path::new(OUT_DIR).join(format!("spans-{name}-seed{}.jsonl", opts.seed));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tr.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
        }
    }
    for note in &result.checks.notes {
        eprintln!("ledger: {name}: {note}");
    }
    println!("{}", result_line(&result, opts.traced));
    ExitCode::SUCCESS
}

/// One child-process run, as the parent saw it.
struct ChildRun {
    workload: String,
    traced: bool,
    /// The contract line.
    line: Json,
    /// Every `metric` line: declared and reported metrics.
    metrics: Vec<(String, f64, String)>,
}

fn run_child(exe: &Path, workload: &str, traced: bool, opts: &Opts) -> Result<ChildRun, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let line = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = stdout
        .lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix("metric ")?.split(' ');
            let name = parts.next()?.to_owned();
            let value = parts.next()?.parse().ok()?;
            Some((name, value, parts.next().unwrap_or("").to_owned()))
        })
        .collect();
    Ok(ChildRun {
        workload: workload.to_owned(),
        traced,
        line,
        metrics,
    })
}

fn is_correct(run: &ChildRun) -> bool {
    run.line.get("correct") == Some(&Json::Bool(true))
}

fn run_json(run: &ChildRun) -> String {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(n, v, u)| format!("{}:{{\"value\":{v},\"unit\":{}}}", quote(n), quote(u)))
        .collect();
    let count = |k: &str| run.line.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    format!(
        "{{\"workload\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        quote(&run.workload),
        u8::from(run.traced),
        is_correct(run),
        count("attempted"),
        count("failed"),
        metrics.join(",")
    )
}

/// `--all` and `--repeat`: every workload in a child process per mode,
/// `repeat` times back to back.
fn all_mode(modes: &[bool], repeat: usize, opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ledger: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<ChildRun> = Vec::new();
    let mut ok = true;
    for _ in 0..repeat {
        for (workload, _) in &spec().workloads {
            for &traced in modes {
                match run_child(&exe, workload, traced, opts) {
                    Ok(run) => {
                        ok &= is_correct(&run);
                        println!("== {workload} (trace={})", u8::from(traced));
                        for (n, v, u) in &run.metrics {
                            println!("   {n:<28} {v:>16.4} {u}");
                        }
                        runs.push(run);
                    }
                    Err(e) => {
                        eprintln!("ledger: {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    let sha = git_sha();
    let doc = format!(
        "{{\"sha\":{},\"nproc\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\"runs\":[{}]}}\n",
        quote(&sha),
        nproc(),
        opts.seed,
        opts.seconds,
        opts.smoke,
        runs.iter().map(run_json).collect::<Vec<_>>().join(",")
    );
    let path = Path::new(OUT_DIR).join(format!("ledger-seed{}.json", opts.seed));
    match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!(
            "# result written to {} (sha {sha}, nproc {})",
            path.display(),
            nproc()
        ),
        Err(e) => {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if repeat > 1 {
        ok &= repeatability(&runs);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--repeat` self-check: each end-to-end metric's relative spread
/// across the repeats against its bound, and exact repetition of every
/// work count (`local_rounds` and the count-valued per-layer metrics).
fn repeatability(runs: &[ChildRun]) -> bool {
    let s = spec();
    let mut ok = true;
    println!("# repeatability: metric spread (max−min)/median against its bound");
    for (workload, _) in &s.workloads {
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| &r.workload == workload)
                .flat_map(|r| {
                    r.metrics
                        .iter()
                        .filter(|(n, _, _)| *n == m.name)
                        .map(|(_, v, _)| *v)
                })
                .collect();
            if values.len() < 2 {
                continue;
            }
            let spread = relative_spread(&values);
            let verdict = if m.is_exact() {
                let same = values.iter().all(|v| *v == values[0]);
                ok &= same;
                if same {
                    "exact".to_owned()
                } else {
                    "NOT EXACT".to_owned()
                }
            } else if let Some(bound) = m.bound {
                let inside = spread <= bound;
                ok &= inside;
                format!("bound {bound:.2} {}", if inside { "ok" } else { "OUT" })
            } else {
                continue;
            };
            println!(
                "   {workload:<11} {:<26} spread {spread:>7.4}  {verdict}",
                m.name
            );
        }
    }
    ok
}

fn list() {
    let s = spec();
    println!("workloads:");
    for (name, why) in &s.workloads {
        println!("  {name:<11} {why}");
    }
    println!("end-to-end metrics (untraced runs; bound = allowed worsening):");
    for m in &s.end_to_end {
        let bound = m.bound.unwrap_or(0.0);
        println!(
            "  {:<26} {:<7} {} is better, bound {bound}",
            m.name, m.unit, m.better
        );
    }
    println!("per-layer metrics (--trace 1 runs):");
    for m in &s.per_layer {
        println!("  {:<26} {:<7} {} is better", m.name, m.unit, m.better);
    }
    println!("reported, not gated:");
    for (name, unit) in REPORTED {
        println!("  {name:<26} {unit}");
    }
}

const USAGE: &str = "usage: ledger (--workload NAME | --all | --repeat K | --list) \
[--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// The command line.
struct Cli {
    workload: Option<String>,
    all: bool,
    repeat: usize,
    listing: bool,
    trace: Option<bool>,
    opts: Opts,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    fn number<T: std::str::FromStr>(arg: &str, value: Option<String>) -> Result<T, String> {
        let value = value.ok_or(format!("{arg} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("bad {arg} value {value:?}"))
    }
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: 1,
        listing: false,
        trace: None,
        opts: Opts {
            seed: 1,
            seconds: spec().run_seconds as f64,
            traced: false,
            smoke: false,
        },
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(args.next().ok_or("--workload needs a name")?),
            "--seed" => cli.opts.seed = number(&arg, args.next())?,
            "--seconds" => cli.opts.seconds = number(&arg, args.next())?,
            "--trace" => match number::<u8>(&arg, args.next())? {
                0 => cli.trace = Some(false),
                1 => cli.trace = Some(true),
                v => return Err(format!("bad --trace value {v} (0 or 1)")),
            },
            "--repeat" => {
                cli.repeat = number::<usize>(&arg, args.next())?.max(1);
                cli.all = true;
            }
            "--all" => cli.all = true,
            "--list" => cli.listing = true,
            "--smoke" => cli.opts.smoke = true,
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let mut cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.listing {
        list();
        return ExitCode::SUCCESS;
    }
    if cli.all {
        let modes = cli.trace.map_or(vec![false, true], |t| vec![t]);
        return all_mode(&modes, cli.repeat, &cli.opts);
    }
    let Some(name) = cli.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    cli.opts.traced = cli.trace.unwrap_or(false);
    let code = workload_mode(&name, &cli.opts);
    let _ = std::io::stdout().flush();
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{references, trace_case, Case, Plan, THREADS};
    use crate::stats::Samples;
    use lll_bench::workloads::{random_rank2_instance, random_rank3_instance_in};
    use lll_graphs::gen::{hyper_ring, ring};
    use lll_numeric::{BigRational, Num};

    fn smoke(traced: bool) -> Opts {
        Opts {
            seed: 1,
            seconds: 0.0,
            traced,
            smoke: true,
        }
    }

    #[test]
    fn smoke_run_emits_every_declared_metric_for_every_workload() {
        for (name, _) in &spec().workloads {
            for traced in [false, true] {
                let result = run_workload(name, &smoke(traced)).expect("declared workload runs");
                assert_eq!(result.checks.failed, 0, "{name}: {:?}", result.checks.notes);
                let line = Json::parse(&result_line(&result, traced)).expect("result line is JSON");
                assert_eq!(
                    line.get("correct"),
                    Some(&Json::Bool(true)),
                    "{name} trace={traced}"
                );
                let metrics = line.get("metrics").expect("metrics object");
                for m in spec().metrics(traced) {
                    let value = metrics.get(&m.name).and_then(|v| v.get("value"));
                    assert!(value.is_some(), "{name} trace={traced} misses {}", m.name);
                }
                if traced && name == "serve-mix" {
                    for (serve_metric, _) in
                        REPORTED.iter().filter(|(n, _)| n.starts_with("serve."))
                    {
                        let untraced_only =
                            ["serve.open_ms_p50", "serve.lat_p99_ms", "serve.gen_lag_ms"];
                        let expected = !untraced_only.contains(serve_metric);
                        let found = result.metrics.iter().any(|(n, _)| n == serve_metric);
                        assert_eq!(found, expected, "serve-mix trace and {serve_metric}");
                    }
                }
            }
        }
    }

    #[test]
    fn traced_composition_equals_the_untraced_solve() {
        fn check<T: Num>(plan: &Plan<T>, case: &Case<T>) {
            let mut checks = Checks::default();
            let refs = references(plan, std::slice::from_ref(case), &mut checks);
            let (mut tr, mut s) = (Tracer::new(), Samples::default());
            trace_case(
                plan,
                case,
                refs[0].as_ref(),
                true,
                &mut tr,
                &mut s,
                &mut checks,
            );
            assert!(
                checks.attempted > 3 && checks.failed == 0,
                "{:?}",
                checks.notes
            );
            // A reference the composition cannot match is reported.
            let mut wrong = refs[0].clone().expect("reference solve succeeds");
            wrong.rounds += 1;
            let mut checks = Checks::default();
            trace_case(
                plan,
                case,
                Some(&wrong),
                false,
                &mut tr,
                &mut s,
                &mut checks,
            );
            assert!(checks.failed > 0);
        }
        let exact = Plan {
            audited: true,
            tol: BigRational::zero(),
            threads: THREADS,
        };
        let h = hyper_ring(24);
        check(
            &exact,
            &Case::build(|| random_rank3_instance_in(&h, 16, 0.9, 3)).0,
        );
        let fast = Plan {
            audited: false,
            tol: 1e-9,
            threads: THREADS,
        };
        let g = ring(64);
        check(
            &fast,
            &Case::build(|| random_rank2_instance(&g, 8, 0.9, 4)).0,
        );
    }

    /// Allocation counts of one solve repeat exactly. Other tests of this
    /// binary allocate concurrently, so the measurement re-runs this test
    /// alone in a child process.
    #[test]
    fn alloc_counts_repeat_across_traced_solves() {
        const PROBE: &str = "LEDGER_ALLOC_PROBE";
        if std::env::var_os(PROBE).is_none() {
            let out = Command::new(std::env::current_exe().expect("test binary path"))
                .args(["--exact", "tests::alloc_counts_repeat_across_traced_solves"])
                .args(["--test-threads=1", "--nocapture"])
                .env(PROBE, "1")
                .output()
                .expect("re-run the test alone");
            assert!(
                out.status.success(),
                "{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
            return;
        }
        let plan = Plan {
            audited: true,
            tol: BigRational::zero(),
            threads: THREADS,
        };
        let h = hyper_ring(24);
        let (case, _) = Case::build(|| random_rank3_instance_in(&h, 16, 0.9, 7));
        let mut checks = Checks::default();
        let refs = references(&plan, std::slice::from_ref(&case), &mut checks);
        let mut tr = Tracer::new();
        let counts: Vec<(f64, f64)> = (0..3)
            .map(|_| {
                let mut s = Samples::default();
                trace_case(
                    &plan,
                    &case,
                    refs[0].as_ref(),
                    true,
                    &mut tr,
                    &mut s,
                    &mut checks,
                );
                (s.get("alloc_count")[0], s.get("alloc_bytes")[0])
            })
            .collect();
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert!(counts[1].0 > 0.0 && counts[1].1 > 0.0);
        assert_eq!(
            counts[1], counts[2],
            "allocation counts differ between traced solves"
        );
    }
}
