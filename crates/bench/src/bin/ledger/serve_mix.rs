//! The `serve-mix` workload: `lll_serve::serve()` in-process over a
//! request mix, saturated (phase A), one request per call (phase B), and
//! open loop (phase C).

use std::collections::hash_map::{Entry, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use lll_apps::sat::{ring_formula, CnfFormula};
use lll_core::dist::{self, CriterionCheck, Schedule};
use lll_core::Instance;
use lll_obs::NullRecorder;
use lll_serve::{
    serve, Engine, EngineConfig, OkResponse, Payload, Request, Response, ServeConfig, SolveRequest,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::calib::Calibration;
use crate::drivers::{self, Case, Plan};
use crate::json::Json;
use crate::stats::{mean, median, quantile, Samples};
use crate::trace::Tracer;
use crate::{derive_seed, ms_since, Checks, Opts, RunResult};

/// Standing rank-3 shapes: `ring_formula` clause counts (width 5, so
/// `p·2^d = 2^-5·2^4 = 1/2`).
const STANDING_R3: [usize; 3] = [96, 160, 224];
/// Standing rank-2 shapes: `ring2_formula` clause counts (width 4, so
/// `p·2^d = 2^-4·2^2 = 1/4`).
const STANDING_R2: [usize; 3] = [96, 192, 288];
/// The engine's schedule cache bound: the six standing shapes, the
/// at-threshold shape and the most recent fresh shapes fit.
const CACHE_CAPACITY: usize = 16;
/// Phase A request count (pre-buffered, so the daemon is saturated).
const PHASE_A_LINES: usize = 3000;
/// Phase B request count; the closed loop makes whole passes over them.
const PHASE_B_LINES: usize = 1000;
/// Shares of `--seconds` phases B and C run for (phase A takes ~4 s).
const PHASE_B_SHARE: f64 = 0.4;
const PHASE_C_SHARE: f64 = 0.2;
/// Phase C arrival rate, requests per second (open loop).
const RATE: f64 = 150.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Lines per `serve()` call (phase A) or per calibration sample (phase B).
const CHUNK: usize = 25;
/// How long before a request's due time the generator stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_micros(500);
/// The engine's default schedule seed (`EngineConfig::default`).
const ENGINE_SEED: u64 = 5;

/// A rank-2 ring CNF: clause `i` holds the shared variables `s_i` and
/// `s_{i−1}` (each occurs in exactly two clauses, so every clause meets
/// two others: `d = 2`) plus `width − 2` private variables, with random
/// polarities.
pub fn ring2_formula(m: usize, width: usize, seed: u64) -> CnfFormula {
    let mut rng = StdRng::seed_from_u64(seed);
    let privates = width - 2;
    let mut next = m as i32;
    let clauses = (0..m)
        .map(|i| {
            let mut vars = vec![i as i32 + 1, ((i + m - 1) % m) as i32 + 1];
            vars.extend((0..privates).map(|_| {
                next += 1;
                next
            }));
            vars.into_iter()
                .map(|v| if rng.random::<bool>() { v } else { -v })
                .collect()
        })
        .collect();
    CnfFormula::new(m + m * privates, clauses).expect("ring2 formula is well-formed")
}

/// What a request line is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A cached rank-3 shape.
    StandingR3,
    /// A cached rank-2 shape.
    StandingR2,
    /// A shape not among the cache's entries: a miss, a cache write and
    /// an eviction.
    Fresh,
    /// A hostile line (index into [`HOSTILE`]).
    Hostile(usize),
}

struct Line {
    id: u64,
    text: String,
    kind: Kind,
    /// The formula, for lines that must be answered with a satisfying
    /// assignment.
    cnf: Option<CnfFormula>,
}

fn solve_line(id: u64, cnf: &CnfFormula, obs: Option<String>) -> String {
    Request::Solve(SolveRequest {
        id: id.to_string(),
        payload: Payload::Dimacs(cnf.to_string()),
        schedule_seed: None,
        obs,
        timeout_ms: None,
    })
    .to_json()
}

/// A four-times-used variable makes the instance rank 4.
fn rank4_formula() -> CnfFormula {
    let clauses = (0..4)
        .map(|i| {
            let mut c = vec![1];
            c.extend((0..5).map(|j| 2 + 5 * i + j));
            c
        })
        .collect();
    CnfFormula::new(21, clauses).expect("rank-4 formula is well-formed")
}

/// A width-2 rank-2 ring sits exactly at the threshold: `p·2^d = 1`.
fn at_threshold_line(id: u64) -> String {
    solve_line(id, &ring2_formula(50, 2, 1), None)
}

/// A hostile request line (from its id) and the error kind it must get.
type Hostile = (fn(u64) -> String, &'static str);

/// The hostile request lines and the typed error each must get.
const HOSTILE: [Hostile; 4] = [
    (
        |id| format!("{{\"id\":{id},\"dimacs\":\"p cnf 1 1\\n1 0\\n\",\"priority\":1}}"),
        "parse",
    ),
    (|id| format!("{{\"id\":{id},\"dimacs\":\"p cnf"), "parse"),
    (|id| solve_line(id, &rank4_formula(), None), "out_of_regime"),
    (at_threshold_line, "out_of_regime"),
];

/// Clause count of the `j`-th fresh rank-3 shape. The counts are odd, so
/// no standing shape has them, and one recurs only after 99 other fresh
/// shapes have passed through the 16-entry cache: every fresh line
/// misses, and its miss costs a coloring of at most 299 nodes.
fn fresh_size(j: usize) -> usize {
    101 + 2 * (j % 100)
}

/// `n` request lines in the mix (55% standing rank 3, 30% standing rank
/// 2, 10% fresh, 5% hostile — exact counts, shuffled by `seed`). Every
/// 50th standing line tees its recorder stream into `tee_dir`. The fresh
/// lines are fresh shapes `fresh_from..`.
fn mix(n: usize, first_id: u64, fresh_from: usize, seed: u64, tee_dir: &str) -> Vec<Line> {
    let fresh = n / 10;
    let hostile = n / 20;
    let r2 = n * 3 / 10;
    let r3 = n - fresh - hostile - r2;
    let mut kinds: Vec<(Kind, usize)> = Vec::with_capacity(n);
    kinds.extend((0..r3).map(|i| (Kind::StandingR3, i)));
    kinds.extend((0..r2).map(|i| (Kind::StandingR2, i)));
    kinds.extend((0..fresh).map(|i| (Kind::Fresh, i)));
    kinds.extend((0..hostile).map(|i| (Kind::Hostile(i % HOSTILE.len()), i)));
    let mut rng = StdRng::seed_from_u64(seed);
    kinds.shuffle(&mut rng);
    kinds
        .into_iter()
        .enumerate()
        .map(|(pos, (kind, i))| {
            let id = first_id + pos as u64;
            let polarity = rng.random::<u64>();
            let cnf = match kind {
                Kind::StandingR3 => ring_formula(STANDING_R3[i % 3], 5, polarity),
                Kind::StandingR2 => ring2_formula(STANDING_R2[i % 3], 4, polarity),
                Kind::Fresh => ring_formula(fresh_size(fresh_from + i), 5, polarity),
                Kind::Hostile(h) => {
                    let text = HOSTILE[h].0(id);
                    return Line {
                        id,
                        text,
                        kind,
                        cnf: None,
                    };
                }
            };
            let obs =
                (kind != Kind::Fresh && i % 50 == 0).then(|| format!("{tee_dir}/req-{id}.jsonl"));
            Line {
                id,
                text: solve_line(id, &cnf, obs),
                kind,
                cnf: Some(cnf),
            }
        })
        .collect()
}

fn payload(lines: &[Line]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        out.extend_from_slice(l.text.as_bytes());
        out.push(b'\n');
    }
    out
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        cache_capacity: Some(CACHE_CAPACITY),
        ..EngineConfig::default()
    })
}

/// `lll-serve`'s documented default loop (`--threads 1 --batch 16`).
fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        ..ServeConfig::default()
    }
}

/// Checks one response line against its request: the status (and error
/// kind) the generator expected, the echoed id, and for solves a zero
/// `violated` count, positive rounds and an assignment satisfying the
/// formula. Returns the round bill of a successful solve.
fn check_response(line: &Line, response: &str) -> Result<Option<usize>, String> {
    let v = Json::parse(response).map_err(|e| format!("response to {}: {e}", line.id))?;
    let status = v.get("status").and_then(Json::as_str);
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    let wrong = || format!("request {}: got {response:.160}", line.id);
    match (line.kind, status) {
        (Kind::Hostile(h), Some("error")) if kind == Some(HOSTILE[h].1) => Ok(None),
        (Kind::Hostile(_), _) => Err(wrong()),
        (_, Some("ok")) => {
            let cnf = line.cnf.as_ref().ok_or_else(wrong)?;
            let num = |k: &str| v.get(k).and_then(Json::as_f64);
            let values: Option<Vec<bool>> = v
                .get("assignment")
                .and_then(Json::as_arr)
                .map(|a| a.iter().map(|x| x.as_f64() == Some(1.0)).collect());
            let ok = num("id") == Some(line.id as f64)
                && num("violated") == Some(0.0)
                && num("rounds").is_some_and(|r| r > 0.0)
                && values.is_some_and(|a| a.len() == cnf.num_vars() && cnf.is_satisfied(&a));
            if ok {
                Ok(num("rounds").map(|r| r as usize))
            } else {
                Err(wrong())
            }
        }
        _ => Err(wrong()),
    }
}

/// Checks a whole response stream against its request list.
fn check_stream(lines: &[Line], output: &[u8], checks: &mut Checks, rounds: &mut Vec<f64>) {
    let text = String::from_utf8_lossy(output);
    let responses: Vec<&str> = text.lines().collect();
    if responses.len() != lines.len() {
        checks.attempt(false, || {
            format!("{} responses to {} requests", responses.len(), lines.len())
        });
    }
    for (line, response) in lines.iter().zip(&responses) {
        match check_response(line, response) {
            Ok(r) => {
                checks.attempt(true, String::new);
                rounds.extend(r.map(|r| r as f64));
            }
            Err(e) => checks.attempt(false, || e),
        }
    }
}

/// One open-loop request as the client saw it, in ms: latency from the
/// due time, generator lag, and queue wait (how long the request was due
/// while the daemon still owed the previous response).
struct Timing {
    latency: f64,
    lag: f64,
    queue: f64,
}

/// Runs `serve()` over a Unix socket pair with one generator thread
/// sending `lines` at `rate` per second regardless of progress (open
/// loop) and one reader thread timestamping responses. Returns the
/// response bytes and the per-request timings.
fn open_loop(
    engine: &Engine,
    lines: &[Line],
    rate: f64,
) -> std::io::Result<(Vec<u8>, Vec<Timing>)> {
    let (client, server) = UnixStream::pair()?;
    let mut server_out = server.try_clone()?;
    let client_in = client.try_clone()?;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (sent, read, served) = std::thread::scope(|s| {
        let generator = s.spawn(move || -> std::io::Result<Vec<Instant>> {
            let mut client = client;
            let mut sent = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                // Sleep to just short of the due time, then spin: a sleep
                // alone oversleeps by a scheduler-dependent amount.
                let at = due(i);
                if let Some(wait) = at.checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                sent.push(Instant::now());
                client.write_all(line.text.as_bytes())?;
                client.write_all(b"\n")?;
            }
            client.shutdown(Shutdown::Write)?;
            Ok(sent)
        });
        let reader = s.spawn(move || -> std::io::Result<(Vec<u8>, Vec<Instant>)> {
            let mut input = BufReader::new(client_in);
            let (mut output, mut received) = (Vec::new(), Vec::new());
            while input.read_until(b'\n', &mut output)? > 0 {
                received.push(Instant::now());
            }
            Ok((output, received))
        });
        let served = serve(engine, server, &mut server_out, &serve_config(1));
        drop(server_out);
        let sent = generator.join().expect("generator thread panicked");
        let read = reader.join().expect("reader thread panicked");
        (sent, read, served)
    });
    served?;
    let (sent, (output, received)) = (sent?, read?);
    let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
    let timings = received
        .iter()
        .enumerate()
        .map(|(i, &r)| Timing {
            latency: ms(r, due(i)),
            lag: ms(sent[i], due(i)),
            queue: if i == 0 {
                0.0
            } else {
                ms(received[i - 1], due(i))
            },
        })
        .collect();
    Ok((output, timings))
}

/// The run's inputs (the request lists of phases A, B and C) and its
/// warmed engine.
struct Setup {
    a: Vec<Line>,
    b: Vec<Line>,
    c: Vec<Line>,
    engine: Engine,
    /// The response to the first request of every standing shape.
    warm: Vec<(CnfFormula, String)>,
}

fn set_up(opts: &Opts, tag: u64, tee_dir: &str) -> Setup {
    let (a_lines, b_lines, c_lines) = if opts.smoke {
        (60, 20, 12)
    } else {
        let c_lines = (RATE * opts.seconds * PHASE_C_SHARE).ceil().max(1.0) as usize;
        (PHASE_A_LINES, PHASE_B_LINES, c_lines)
    };
    let a = mix(a_lines, 0, 0, derive_seed(opts.seed, tag, 0), tee_dir);
    let b_id = a_lines as u64;
    let b = mix(
        b_lines,
        b_id,
        a_lines / 10,
        derive_seed(opts.seed, tag, 1),
        tee_dir,
    );
    let c_id = b_id + b_lines as u64;
    let c_fresh = (a_lines + b_lines) / 10;
    let c = mix(
        c_lines,
        c_id,
        c_fresh,
        derive_seed(opts.seed, tag, 2),
        tee_dir,
    );
    let engine = engine();
    let mut warm = Vec::new();
    let shapes = STANDING_R3
        .iter()
        .map(|&m| ring_formula(m, 5, 0))
        .chain(STANDING_R2.iter().map(|&m| ring2_formula(m, 4, 0)));
    for (i, cnf) in shapes.enumerate() {
        let response = engine
            .solve_line(&solve_line(i as u64, &cnf, None))
            .to_json();
        warm.push((cnf, response));
    }
    engine.solve_line(&at_threshold_line(0));
    Setup {
        a,
        b,
        c,
        engine,
        warm,
    }
}

/// The thread check: the first line of every shape and hostile kind the
/// run sends (and the first teed line), served by fresh engines at two
/// workers and at one, must produce identical bytes.
fn thread_check(s: &Setup, checks: &mut Checks) {
    let mut seen = Vec::new();
    let mut probe = Vec::new();
    for line in s.a.iter().chain(&s.b).chain(&s.c) {
        let shape = line.cnf.as_ref().map(|c| c.clauses().len());
        let key = (line.kind, shape, line.text.contains("\"obs\""));
        if !seen.contains(&key) {
            seen.push(key);
            probe.extend_from_slice(line.text.as_bytes());
            probe.push(b'\n');
        }
    }
    let run = |threads: usize| {
        let mut out = Vec::new();
        serve(
            &engine(),
            probe.as_slice(),
            &mut out,
            &serve_config(threads),
        )
        .map(|_| out)
    };
    let (two, one) = (run(2), run(1));
    checks.attempt(matches!((&two, &one), (Ok(a), Ok(b)) if a == b), || {
        "serve output differs between 2 workers and 1".into()
    });
}

pub fn run(tag: u64, opts: &Opts) -> RunResult {
    let mut out = RunResult::default();
    let tee = Path::new(crate::OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tee) {
        out.checks
            .attempt(false, || format!("cannot create {}: {e}", tee.display()));
        return out;
    }
    let tee_dir = tee.to_string_lossy().into_owned();
    // Set-up is sequential: its calibration kernel runs on one thread.
    let mut setup_cal = Calibration::new(1);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        setup = Some(set_up(opts, tag, &tee_dir));
        setup_s.push(setup_cal.normalize(ms_since(t) / 1e3));
    }
    let s = setup.expect("at least one set-up");
    thread_check(&s, &mut out.checks);
    if opts.traced {
        trace(&s, opts, &mut out);
    } else {
        measure(&s, opts.seconds, &mut out);
        out.metric("setup_s", median(&setup_s));
    }
    // The tee files are scratch output of this run only (and the output
    // directory goes too if nothing else is in it).
    let _ = std::fs::remove_dir_all(&tee);
    let _ = std::fs::remove_dir(crate::OUT_DIR);
    out
}

/// Phase A (one saturated pass over the pre-buffered lines, in
/// `serve()` calls of `CHUNK` lines) gives `solves_per_s`; phase B (a
/// closed loop of one `serve()` call per request) gives `solve_ms_p50`.
/// Every chunk is bracketed by calibration samples on one thread, as the
/// daemon solves on one. Phase C (open loop at `RATE`) gives the tail
/// diagnostics, uncalibrated: a mostly idle host does not slow down the
/// way a saturated one does, so no kernel sample tracks it.
fn measure(s: &Setup, seconds: f64, out: &mut RunResult) {
    let mut cal = Calibration::new(1);
    let mut rounds = Vec::new();
    let mut normalized = 0.0;
    for chunk in s.a.chunks(CHUNK) {
        let input = payload(chunk);
        let mut output = Vec::with_capacity(input.len());
        let t = Instant::now();
        // A transport error shows as missing responses.
        let _ = serve(&s.engine, input.as_slice(), &mut output, &serve_config(1));
        normalized += cal.normalize(t.elapsed().as_secs_f64());
        check_stream(chunk, &output, &mut out.checks, &mut rounds);
    }
    out.metric("solves_per_s", s.a.len() as f64 / normalized);
    out.metric(
        "local_rounds",
        if rounds.is_empty() {
            0.0
        } else {
            mean(&rounds)
        },
    );

    // Whole passes, so every pass has the mix's exact composition.
    let mut latency = Vec::new();
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed().as_secs_f64() < seconds * PHASE_B_SHARE {
        for chunk in s.b.chunks(CHUNK) {
            let mut times = Vec::with_capacity(chunk.len());
            for line in chunk {
                let input = payload(std::slice::from_ref(line));
                let mut output = Vec::with_capacity(input.len());
                let t = Instant::now();
                let _ = serve(&s.engine, input.as_slice(), &mut output, &serve_config(1));
                times.push(ms_since(t));
                check_stream(
                    std::slice::from_ref(line),
                    &output,
                    &mut out.checks,
                    &mut Vec::new(),
                );
            }
            let factor = cal.close_interval();
            latency.extend(times.iter().map(|t| t / factor));
        }
        first = false;
    }
    out.metric("solve_ms_p50", median(&latency));
    out.metric("diag.solve_ms_p90", quantile(&latency, 0.9));
    out.metric("diag.samples", latency.len() as f64);
    out.metric("diag.host_factor", cal.factor());

    match open_loop(&s.engine, &s.c, RATE) {
        Ok((output, timings)) => {
            check_stream(&s.c, &output, &mut out.checks, &mut Vec::new());
            let latency: Vec<f64> = timings.iter().map(|t| t.latency).collect();
            let lag: Vec<f64> = timings.iter().map(|t| t.lag).collect();
            if !latency.is_empty() {
                out.metric("serve.open_ms_p50", median(&latency));
                out.metric("serve.lat_p99_ms", quantile(&latency, 0.99));
                out.metric("serve.gen_lag_ms", quantile(&lag, 0.99));
            }
        }
        Err(e) => out
            .checks
            .attempt(false, || format!("phase C transport error: {e}")),
    }
}

/// The standing shapes as driver cases: the layer decomposition of
/// their solves is the core-layer part of this workload's trace.
fn standing_cases(s: &Setup, samples: &mut Samples) -> Vec<Case<f64>> {
    s.warm
        .iter()
        .map(|(cnf, _)| {
            let (case, ms) = Case::build(|| cnf.to_instance().expect("standing shape builds"));
            samples.push("build_ms", ms);
            case
        })
        .collect()
}

fn trace(s: &Setup, opts: &Opts, out: &mut RunResult) {
    let mut tr = Tracer::new();
    let mut samples = Samples::default();
    let plan = Plan {
        audited: false,
        tol: 1e-9,
        threads: 1,
    };

    // Core layers, on the standing shapes at the engine's settings; the
    // reference solves must match what the engine answered.
    let cases = standing_cases(s, &mut samples);
    let refs = drivers::references(&plan, &cases, &mut out.checks);
    for (r, (_, response)) in refs.iter().zip(&s.warm) {
        let engine_rounds = Json::parse(response)
            .ok()
            .and_then(|v| v.get("rounds").and_then(Json::as_f64));
        out.checks
            .attempt(r.as_ref().map(|o| o.rounds as f64) == engine_rounds, || {
                "standing shape: engine and driver disagree".into()
            });
    }
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed().as_secs_f64() < opts.seconds / 3.0 {
        for (c, r) in cases.iter().zip(&refs) {
            drivers::trace_case(
                &plan,
                c,
                r.as_ref(),
                first,
                &mut tr,
                &mut samples,
                &mut out.checks,
            );
        }
        first = false;
    }
    drivers::layer_metrics(&samples, out);

    // Serve layers: one pass of phase A through the engine; the solve
    // requests are also composed from the public calls the engine makes
    // (the first one always, later ones for a third of the run).
    let before = s.engine.stats();
    let mut schedules: HashMap<u64, Schedule> = HashMap::new();
    let start = Instant::now();
    let mut composed_any = false;
    for line in &s.a {
        let t = Instant::now();
        let response = s.engine.solve_line(&line.text);
        let latency = ms_since(t);
        match line.kind {
            Kind::Fresh => samples.push("miss_ms", latency),
            Kind::StandingR2 | Kind::StandingR3 => samples.push("hit_ms", latency),
            Kind::Hostile(_) => {}
        }
        let in_time = !composed_any || start.elapsed().as_secs_f64() < opts.seconds / 3.0;
        if line.cnf.is_some() && in_time {
            composed_any = true;
            let composed = compose(&line.text, &mut schedules, &mut tr, &mut samples);
            let same = match (&composed, &response) {
                (Some(c), Response::Ok(answer)) => {
                    c.assignment == answer.assignment && c.rounds == answer.rounds
                }
                _ => false,
            };
            out.checks
                .attempt(same, || format!("request {}: composition differs", line.id));
        }
        match check_response(line, &response.to_json()) {
            Ok(_) => out.checks.attempt(true, String::new),
            Err(e) => out.checks.attempt(false, || e),
        }
    }
    let after = s.engine.stats();
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    out.metric("serve.parse_us", samples.median("parse_us"));
    out.metric("serve.build_us", samples.median("serve_build_us"));
    out.metric("serve.sweep_us", samples.median("serve_sweep_us"));
    out.metric("serve.respond_us", samples.median("serve_respond_us"));
    out.metric("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.metric(
        "serve.evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    out.metric("serve.miss_ms", samples.median("miss_ms"));
    out.metric("serve.hit_ms", samples.median("hit_ms"));

    match open_loop(&s.engine, &s.c, RATE) {
        Ok((output, timings)) => {
            check_stream(&s.c, &output, &mut out.checks, &mut Vec::new());
            let queue: Vec<f64> = timings.iter().map(|t| t.queue).collect();
            out.metric("serve.queue_ms_p50", median(&queue));
        }
        Err(e) => out
            .checks
            .attempt(false, || format!("phase C transport error: {e}")),
    }
    out.tracer = Some(tr);
}

/// One request composed from the calls the engine makes — parse, build,
/// schedule (a bench-side cache stands in for the engine's), sweep,
/// post-check and response encoding — each in its own span.
fn compose(
    line: &str,
    schedules: &mut HashMap<u64, Schedule>,
    tr: &mut Tracer,
    samples: &mut Samples,
) -> Option<OkResponse> {
    tr.begin_solve();
    let (answer, _) = tr.span("request", None, |tr, root| {
        let (req, id) = tr.span("serve.parse", Some(root), |_, _| Request::parse(line));
        samples.push("parse_us", tr.get(id).ms() * 1e3);
        let Ok(Request::Solve(req)) = req else {
            return None;
        };
        let Payload::Dimacs(text) = &req.payload else {
            return None;
        };
        let (inst, id) = tr.span("serve.build", Some(root), |_, _| {
            text.parse::<CnfFormula>().ok()?.to_instance::<f64>().ok()
        });
        samples.push("serve_build_us", tr.get(id).ms() * 1e3);
        let inst: Instance<f64> = inst?;
        let g = inst.dependency_graph();
        let rank2 = inst.max_rank() <= 2;
        let key = g.fingerprint() ^ u64::from(rank2);
        let schedule = match schedules.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let (schedule, _) = tr.span("coloring", Some(root), |_, _| {
                    if rank2 {
                        Schedule::edge(g, ENGINE_SEED, 1)
                    } else {
                        Schedule::distance2(g, ENGINE_SEED, 1)
                    }
                });
                e.insert(schedule.ok()?)
            }
        };
        let (report, id) = tr.span("serve.sweep", Some(root), |_, _| {
            let (enforce, null) = (CriterionCheck::Enforce, &mut NullRecorder);
            if rank2 {
                dist::distributed_fixer2_scheduled_traced(
                    &inst,
                    schedule,
                    enforce,
                    1,
                    null,
                    &mut lll_obs::NullTiming,
                )
            } else {
                dist::distributed_fixer3_scheduled_traced(
                    &inst,
                    schedule,
                    enforce,
                    1,
                    null,
                    &mut lll_obs::NullTiming,
                )
            }
        });
        samples.push("serve_sweep_us", tr.get(id).ms() * 1e3);
        let report = report.ok()?;
        let (answer, id) = tr.span("serve.respond", Some(root), |_, _| {
            let violated = inst.violated_events(report.fix.assignment()).ok()?.len();
            let answer = OkResponse {
                id: req.id.clone(),
                assignment: report.fix.assignment().to_vec(),
                steps: report.fix.num_steps(),
                rounds: report.rounds,
                coloring_rounds: report.coloring_rounds,
                classes: report.num_classes,
                violated,
                fingerprint: format!("{:016x}", g.fingerprint()),
                provenance: String::new(),
            };
            std::hint::black_box(Response::Ok(answer.clone()).to_json());
            Some(answer)
        });
        samples.push("serve_respond_us", tr.get(id).ms() * 1e3);
        answer
    });
    answer
}
