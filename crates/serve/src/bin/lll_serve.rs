//! The `lll-serve` binary: stdin/stdout (default) or a Unix socket.
//!
//! Exit codes: 0 — clean shutdown (EOF or a `{"shutdown":true}`
//! request, in-flight work drained); 2 — usage error; 3 — transport
//! I/O error. Engine statistics (request counts, cache hit/miss,
//! latency percentiles) go to stderr on exit; stdout carries only
//! response lines.
//!
//! Live telemetry is opt-in: `--metrics PATH` serves the Prometheus
//! text exposition over a Unix socket, `--stats-interval SECS` prints
//! periodic stderr snapshots, and `SIGUSR1` dumps one snapshot on
//! demand. All of it is side-band — enabling telemetry cannot change a
//! response byte or a teed recorder stream.

use std::io::{BufWriter, Write};
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use lll_serve::{serve, spawn_telemetry, Engine, EngineConfig, ServeConfig, TelemetryConfig};

const USAGE: &str = "\
lll-serve: batched, cache-warmed LLL-solving daemon

USAGE:
    lll-serve [OPTIONS]

Reads newline-delimited JSON requests from stdin (or a Unix socket)
and writes one JSON response line per request, in input order.

REQUESTS:
    {\"id\":ID,\"dimacs\":\"p cnf ...\"}     solve a DIMACS CNF formula
    {\"id\":ID,\"instance\":{...}}          solve a JSON LLL instance
    {\"id\":ID,\"shutdown\":true}           drain, acknowledge, exit
Optional request fields: \"schedule_seed\", \"obs\" (tee a JSONL
recorder stream to a path; every line carries the request id as its
\"req\" correlation field), \"timeout_ms\" (opt-in deadline).

OPTIONS:
    --threads N          worker pool width per batch [default: 1]
    --seed N             default schedule seed [default: 5]
    --batch N            max requests per batch [default: 16]
    --max-events N       largest accepted instance [default: 1048576]
    --max-line-bytes N   longest accepted request line [default: 8388608]
    --cache-capacity N   bound the schedule cache to N entries (LRU; 0 = off)
    --socket PATH        listen on a Unix socket instead of stdin
    --metrics PATH       serve Prometheus metrics on a Unix socket
    --stats-interval S   print a stats snapshot to stderr every S seconds
    --help               print this help

SIGNALS:
    SIGUSR1              print one stats snapshot to stderr

EXIT CODES:
    0   clean shutdown (EOF or shutdown request)
    2   usage error
    3   transport I/O error
";

/// Minimal `SIGUSR1` plumbing: the handler only sets an [`AtomicBool`]
/// that the telemetry thread polls. Hand-rolled `signal(2)` FFI —
/// the workspace vendors no signal crate, and this is the one unsafe
/// block the daemon needs.
mod sigusr1 {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// `SIGUSR1` on Linux.
    const SIGUSR1: i32 = 10;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    static FLAG: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigusr1(_signum: i32) {
        // Async-signal-safe: one relaxed atomic store, nothing else.
        FLAG.store(true, Ordering::Relaxed);
    }

    /// Installs the handler and returns a flag the telemetry thread
    /// drains. The process-global `FLAG` is bridged to a fresh `Arc`
    /// by the caller polling [`take`].
    pub fn install() -> Arc<AtomicBool> {
        unsafe {
            signal(SIGUSR1, on_sigusr1 as extern "C" fn(i32) as usize);
        }
        Arc::new(AtomicBool::new(false))
    }

    /// Whether the signal fired since the last call.
    pub fn take() -> bool {
        FLAG.swap(false, Ordering::Relaxed)
    }
}

struct Args {
    engine: EngineConfig,
    serve: ServeConfig,
    socket: Option<String>,
    telemetry: TelemetryConfig,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut engine = EngineConfig::default();
    let mut serve = ServeConfig::default();
    let mut socket = None;
    let mut telemetry = TelemetryConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> Result<usize, String> {
            args.next()
                .ok_or_else(|| format!("{what} needs a value"))?
                .parse::<usize>()
                .map_err(|_| format!("{what} needs a non-negative integer"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--threads" => serve.threads = num("--threads")?.max(1),
            "--seed" => engine.default_seed = num("--seed")? as u64,
            "--batch" => serve.batch = num("--batch")?.max(1),
            "--max-events" => engine.max_events = num("--max-events")?,
            "--max-line-bytes" => serve.max_line_bytes = num("--max-line-bytes")?,
            "--cache-capacity" => engine.cache_capacity = Some(num("--cache-capacity")?),
            "--socket" => {
                socket = Some(
                    args.next()
                        .ok_or_else(|| "--socket needs a path".to_owned())?,
                );
            }
            "--metrics" => {
                telemetry.socket = Some(
                    args.next()
                        .ok_or_else(|| "--metrics needs a path".to_owned())?,
                );
            }
            "--stats-interval" => {
                telemetry.stats_interval =
                    Some(Duration::from_secs(num("--stats-interval")?.max(1) as u64));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Some(Args {
        engine,
        serve,
        socket,
        telemetry,
    }))
}

fn run() -> u8 {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("lll-serve: {e}");
            eprintln!("lll-serve: try --help");
            return 2;
        }
    };
    let engine = Arc::new(Engine::new(args.engine));
    let telemetry = if args.telemetry.is_active() {
        let dump = sigusr1::install();
        // Bridge the process-global signal flag into the telemetry
        // thread's dump flag with a tiny poller (the handler itself
        // may only touch the global).
        let bridge_dump = Arc::clone(&dump);
        let bridge_stop = Arc::new(AtomicBool::new(false));
        let bridge_stop2 = Arc::clone(&bridge_stop);
        let bridge = std::thread::spawn(move || {
            while !bridge_stop2.load(std::sync::atomic::Ordering::Relaxed) {
                if sigusr1::take() {
                    bridge_dump.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        match spawn_telemetry(Arc::clone(&engine), args.telemetry.clone(), dump) {
            Ok(handle) => Some((handle, bridge_stop, bridge)),
            Err(e) => {
                eprintln!("lll-serve: cannot bind metrics socket: {e}");
                return 2;
            }
        }
    } else {
        None
    };
    let result = match &args.socket {
        None => {
            let stdin = std::io::stdin().lock();
            let stdout = std::io::stdout().lock();
            let mut out = BufWriter::new(stdout);
            serve(&engine, stdin, &mut out, &args.serve).and_then(|s| {
                out.flush()?;
                Ok(s)
            })
        }
        Some(path) => serve_socket(&engine, path, &args.serve),
    };
    if let Some((handle, bridge_stop, bridge)) = telemetry {
        handle.shutdown();
        bridge_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = bridge.join();
    }
    eprintln!("lll-serve: {}", engine.stats_line());
    match result {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("lll-serve: transport error: {e}");
            3
        }
    }
}

/// Accepts connections one at a time; each connection is its own
/// newline-delimited request/response stream over the shared engine
/// (so the schedule cache stays warm across connections). A shutdown
/// request ends the accept loop after its connection drains.
fn serve_socket(
    engine: &Engine,
    path: &str,
    config: &ServeConfig,
) -> std::io::Result<lll_serve::ServeSummary> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let mut last = lll_serve::ServeSummary {
        responses: 0,
        shutdown: false,
    };
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = stream.try_clone()?;
        let mut writer = BufWriter::new(stream);
        let summary = serve(engine, reader, &mut writer, config)?;
        writer.flush()?;
        last.responses += summary.responses;
        if summary.shutdown {
            last.shutdown = true;
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(last)
}

fn main() -> ExitCode {
    ExitCode::from(run())
}
