//! Regenerates every experiment table of the reproduction.
//!
//! ```text
//! cargo run --release -p lll-bench --bin tables               # all experiments
//! cargo run --release -p lll-bench --bin tables -- E7 E9      # a subset
//! cargo run --release -p lll-bench --bin tables -- --csv out/ # + CSV data files
//! cargo run --release -p lll-bench --bin tables -- --threads 8 E2 E6 E12
//! cargo run --release -p lll-bench --bin tables -- --obs out/trace.jsonl E4 TRACE
//! cargo run --release -p lll-bench --bin tables -- --timing out/timing.jsonl TRACE
//! ```
//!
//! The output of this binary is what `EXPERIMENTS.md` records; with
//! `--csv <dir>` the figure-shaped experiments additionally write CSV
//! series (Figure 1 surface, round-complexity curves, threshold sweep)
//! suitable for plotting. Every CSV file starts with a `# provenance:`
//! comment (seed-free run context: threads, git revision, rustc, crate
//! version) which readers must skip.
//!
//! With `--obs <file.jsonl>` the run additionally tees a flight-recorder
//! stream: one schema-versioned `meta` line followed by
//! `experiment_start`/`experiment_row`/`experiment_end` events per
//! experiment, and — for the pseudo-experiment id `TRACE` — the full
//! simulator event stream of a small traced schedule-coloring workload.
//! The pseudo-experiment id `SWEEP` likewise records the full fixing
//! stream of the color-class-parallel rank-2 driver at `--threads`
//! workers; that stream is byte-identical for every worker count, which
//! CI checks with `obs-report diff`. Validate and summarize the file
//! with the `obs-report` binary.
//!
//! With `--timing <file.jsonl>` the `TRACE` pseudo-experiment runs with
//! a side-band timing profiler attached and writes per-scope latency
//! histograms (`"type":"timing"` lines — p50/p90/p99/max in
//! nanoseconds) to the given file. The timing channel is a separate
//! stream on purpose: wall-clock data is nondeterministic and must
//! never interleave with the byte-identity-contracted `--obs` event
//! stream, so `--timing` changes no byte of `--obs` output.

use std::collections::BTreeSet;
use std::env;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;

use lll_bench::experiments as ex;
use lll_bench::render_table;
use lll_obs::{Event, JsonlRecorder, Provenance, Recorder};

fn wanted(selected: &BTreeSet<String>, id: &str) -> bool {
    selected.is_empty() || selected.contains(id)
}

/// Size of the `TRACE` pseudo-experiment's ring workload — small enough
/// for CI, large enough for a multi-round Linial + reduction schedule.
const TRACE_N: usize = 256;

fn main() {
    let mut csv_dir: Option<PathBuf> = None;
    let mut obs_path: Option<PathBuf> = None;
    let mut timing_path: Option<PathBuf> = None;
    let mut threads = 1usize;
    let mut selected: BTreeSet<String> = BTreeSet::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            let dir = args.next().expect("--csv needs a directory argument");
            fs::create_dir_all(&dir).expect("create csv output directory");
            csv_dir = Some(PathBuf::from(dir));
        } else if arg == "--obs" {
            obs_path = Some(PathBuf::from(
                args.next().expect("--obs needs a file argument"),
            ));
        } else if arg == "--timing" {
            timing_path = Some(PathBuf::from(
                args.next().expect("--timing needs a file argument"),
            ));
        } else if arg == "--threads" {
            threads = args
                .next()
                .expect("--threads needs a worker-count argument")
                .parse()
                .expect("--threads takes a positive integer");
            assert!(threads >= 1, "--threads takes a positive integer");
        } else {
            selected.insert(arg.to_uppercase());
        }
    }
    let prov = Provenance::capture().with_threads(threads);
    let mut obs: Option<JsonlRecorder<BufWriter<fs::File>>> = obs_path.as_ref().map(|path| {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).expect("create obs output directory");
        }
        let file = fs::File::create(path).expect("create obs output file");
        JsonlRecorder::with_provenance(BufWriter::new(file), &prov).expect("write obs meta line")
    });
    let write_csv = |name: &str, header: &str, lines: &[String]| {
        if let Some(dir) = &csv_dir {
            let mut body = prov.csv_comment();
            body.push('\n');
            body.push_str(header);
            body.push('\n');
            for l in lines {
                body.push_str(l);
                body.push('\n');
            }
            let path = dir.join(name);
            fs::write(&path, body).expect("write csv file");
            println!("(wrote {})", path.display());
        }
    };

    if wanted(&selected, "E1") {
        println!("== E1: Theorem 1.1 — rank-2 fixer success below the threshold ==");
        let rows: Vec<Vec<String>> = ex::e1_fixer2_success(20)
            .into_iter()
            .map(|r| {
                vec![
                    r.topology,
                    r.n.to_string(),
                    format!("{:.2}", r.tightness),
                    format!("{:.3}", r.criterion),
                    format!("{}/{}", r.successes, r.trials),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["topology", "n", "target p*2^d", "measured", "success"],
                &rows
            )
        );
        trace_experiment(&mut obs, "E1", rows.len());
    }

    if wanted(&selected, "E2") {
        println!("== E2: Corollary 1.2 — LOCAL rounds vs n (rank 2, rings, d = 2) ==");
        let data = ex::e2_rounds_rank2(&[64, 256, 1024, 4096, 16384, 65536], threads);
        write_csv(
            "e2_rounds_rank2.csv",
            "n,log_star,det_rounds,det_coloring_rounds,mt_local_rounds",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{}",
                        r.n, r.log_star_n, r.det_rounds, r.det_coloring_rounds, r.mt_local_rounds
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data.into_iter().map(rounds_row).collect();
        println!("{}", rounds_header(&rows));
        trace_experiment(&mut obs, "E2", rows.len());
    }

    if wanted(&selected, "E3") {
        println!("== E3: Figure 1 — the surface f(a,b) bounding S_rep ==");
        let (rows, max_dev) = ex::e3_surface(0.5);
        if let Some(dir) = &csv_dir {
            let svg = lll_bench::figure::figure1_svg(96);
            let path = dir.join("figure1_surface.svg");
            fs::write(&path, svg).expect("write svg");
            println!("(wrote {})", path.display());
        }
        // Finer grid for the plottable CSV (Figure 1).
        let (fine, _) = ex::e3_surface(0.1);
        write_csv(
            "figure1_surface.csv",
            "a,b,f,brute",
            &fine
                .iter()
                .map(|r| format!("{},{},{},{}", r.a, r.b, r.f, r.brute))
                .collect::<Vec<_>>(),
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.a),
                    format!("{:.1}", r.b),
                    format!("{:.6}", r.f),
                    format!("{:.6}", r.brute),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["a", "b", "f(a,b)", "brute-force"], &table)
        );
        println!("max |f - brute| over the grid: {max_dev:.2e}");
        let (inside, outside) = ex::e3_membership_spot_checks();
        println!("exact membership spot checks: {inside} just-below points in S_rep, {outside} just-above points outside\n");
        trace_experiment(&mut obs, "E3", rows.len());
    }

    if wanted(&selected, "E4") {
        println!("== E4: Figure 2 — exact decomposition of (1/4, 3/2, 1/10) ==");
        let (vals, ok) = ex::e4_figure2();
        let rows: Vec<Vec<String>> = vals.into_iter().map(|(k, v)| vec![k, v]).collect();
        println!("{}", render_table(&["value", "exact"], &rows));
        println!("all Definition 3.3 constraints verified exactly: {ok}\n");
        trace_experiment(&mut obs, "E4", rows.len());
    }

    if wanted(&selected, "E5") {
        println!("== E5: Theorem 1.3 — rank-3 fixer success below the threshold ==");
        let rows: Vec<Vec<String>> = ex::e5_fixer3_success(20)
            .into_iter()
            .map(|r| {
                vec![
                    r.topology,
                    r.n.to_string(),
                    format!("{:.2}", r.tightness),
                    format!("{:.3}", r.criterion),
                    format!("{}/{}", r.successes, r.trials),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["topology", "n", "target p*2^d", "measured", "success"],
                &rows
            )
        );
        println!(
            "exact per-step P* audit on hyper-ring(10): {}\n",
            if ex::audited_rank3_run(10, 2) {
                "clean"
            } else {
                "VIOLATED"
            }
        );
        trace_experiment(&mut obs, "E5", rows.len());
    }

    if wanted(&selected, "E6") {
        println!("== E6: Corollary 1.4 — LOCAL rounds vs n (rank 3, hyper-rings, d = 4) ==");
        let data = ex::e6_rounds_rank3(&[64, 256, 1024, 4096, 16384], threads);
        write_csv(
            "e6_rounds_rank3.csv",
            "n,log_star,det_rounds,det_coloring_rounds,mt_local_rounds",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{}",
                        r.n, r.log_star_n, r.det_rounds, r.det_coloring_rounds, r.mt_local_rounds
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data.into_iter().map(rounds_row).collect();
        println!("{}", rounds_header(&rows));
        trace_experiment(&mut obs, "E6", rows.len());
    }

    if wanted(&selected, "E7") {
        println!("== E7: the sharp threshold — greedy success as p*2^d sweeps across 1 ==");
        let data = ex::e7_threshold_sweep(20);
        write_csv(
            "e7_threshold.csv",
            "tightness,trials,success_r2,success_r3,invariant_intact_r3",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{}",
                        r.tightness,
                        r.trials,
                        r.successes_r2,
                        r.successes_r3,
                        r.invariant_intact_r3
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.tightness),
                    format!("{}/{}", r.successes_r2, r.trials),
                    format!("{}/{}", r.successes_r3, r.trials),
                    format!("{}/{}", r.invariant_intact_r3, r.trials),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "p*2^d",
                    "rank-2 success",
                    "rank-3 success",
                    "P* certificate intact"
                ],
                &rows
            )
        );
        println!("(the deterministic guarantee — and the criterion check — dies exactly at 1.0;\n at 16.0 = 2^d some events are certain and no algorithm can succeed)\n");
        trace_experiment(&mut obs, "E7", rows.len());
    }

    if wanted(&selected, "E8") {
        println!("== E8: applications (deterministic distributed pipeline) ==");
        let rows: Vec<Vec<String>> = ex::e8_applications()
            .into_iter()
            .map(|r| {
                vec![
                    r.app,
                    r.n.to_string(),
                    format!("{:.4}", r.criterion),
                    r.solved.to_string(),
                    r.rounds.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "application",
                    "n",
                    "p*2^d",
                    "solved+verified",
                    "LOCAL rounds"
                ],
                &rows
            )
        );
        trace_experiment(&mut obs, "E8", rows.len());
    }

    if wanted(&selected, "E9") {
        println!("== E9: the boundary — sinkless orientation at p*2^d = 1 ==");
        let rows: Vec<Vec<String>> = ex::e9_boundary(&[32, 128, 512, 2048])
            .into_iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    format!("{:.3}", r.criterion),
                    r.fixer_refused.to_string(),
                    format!("{:.1}", r.expected_random_sinks),
                    r.mt_rounds.to_string(),
                    r.mt_solved.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "n",
                    "p*2^d",
                    "fixer refuses",
                    "E[random sinks]",
                    "MT rounds",
                    "MT solves"
                ],
                &rows
            )
        );
        trace_experiment(&mut obs, "E9", rows.len());
    }

    if wanted(&selected, "E10") {
        println!("== E10: Moser-Tardos baseline scaling (classic criterion) ==");
        let rows: Vec<Vec<String>> = ex::e10_mt_scaling(&[64, 256, 1024, 4096], 5)
            .into_iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    format!("{:.1}", r.seq_resamplings),
                    format!("{:.1}", r.par_rounds),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["n", "seq resamplings (mean)", "parallel MT rounds (mean)"],
                &rows
            )
        );
        trace_experiment(&mut obs, "E10", rows.len());
    }

    if wanted(&selected, "E11") {
        println!("== E11: order adversaries (static + adaptive; below threshold) ==");
        let rows: Vec<Vec<String>> = ex::e11_adversaries(10)
            .into_iter()
            .map(|r| {
                vec![
                    r.adversary,
                    format!("{}/{}", r.successes_r2, r.trials),
                    format!("{}/{}", r.successes_r3, r.trials),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["adversary", "rank-2 success", "rank-3 success"], &rows)
        );
        trace_experiment(&mut obs, "E11", rows.len());
    }

    if wanted(&selected, "E12") {
        println!("== E12: honest message-passing Moser-Tardos vs loop-based accounting ==");
        let rows: Vec<Vec<String>> = ex::e12_honest_mt(&[64, 256, 1024], threads)
            .into_iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.honest_rounds.to_string(),
                    r.loop_local_rounds.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["n", "honest LOCAL rounds", "loop-based estimate"], &rows)
        );
        println!("(honest = measured on the simulator, incl. doubling-trick retries)\n");
        trace_experiment(&mut obs, "E12", rows.len());
    }

    if wanted(&selected, "E13") {
        println!("== E13: criterion gap — sharp threshold vs generic derandomization ==");
        let rows: Vec<Vec<String>> = ex::e13_criterion_gap()
            .into_iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    format!("{:.4}", r.sharp),
                    r.sharp_applies.to_string(),
                    format!("{:.4}", r.generic),
                    r.generic_applies.to_string(),
                    r.fg_succeeded.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "k",
                    "p*2^d",
                    "sharp ok",
                    "p*(d+1)^C",
                    "generic ok",
                    "FG succeeded"
                ],
                &rows
            )
        );
        println!("(rings, d = 2, real distance-2 palette C = 5: the sharp guarantee\n covers k >= 3 while the generic conditional-expectation bound needs k >= 16)\n");
        trace_experiment(&mut obs, "E13", rows.len());
    }

    if wanted(&selected, "E14") {
        println!("== E14: parallel round engine — wall-clock vs the sequential engine ==");
        let data = ex::e14_parallel_speedup(&[1 << 14, 1 << 16, 1 << 18], &[1, 2, 8]);
        write_csv(
            "e14_parallel_speedup.csv",
            "n,threads,sim_seq_millis,sim_par_millis,sim_speedup,driver_seq_millis,driver_par_millis,driver_speedup",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{:.2},{:.2},{:.3},{:.2},{:.2},{:.3}",
                        r.n,
                        r.threads,
                        r.sim_seq_millis,
                        r.sim_par_millis,
                        r.sim_speedup,
                        r.driver_seq_millis,
                        r.driver_par_millis,
                        r.driver_speedup
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.threads.to_string(),
                    format!("{:.1}", r.sim_seq_millis),
                    format!("{:.1}", r.sim_par_millis),
                    format!("{:.2}x", r.sim_speedup),
                    format!("{:.1}", r.driver_seq_millis),
                    format!("{:.1}", r.driver_par_millis),
                    format!("{:.2}x", r.driver_speedup),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "n",
                    "threads",
                    "sim seq (ms)",
                    "sim par (ms)",
                    "sim speedup",
                    "driver seq (ms)",
                    "driver par (ms)",
                    "driver speedup"
                ],
                &rows
            )
        );
        println!("(outputs asserted bit-identical between engines before timing is reported)\n");
        trace_experiment(&mut obs, "E14", rows.len());
    }

    if wanted(&selected, "E15") {
        println!("== E15: flight-recorder overhead (null vs counter vs jsonl) ==");
        let data = ex::e15_recorder_overhead(&[1 << 14, 1 << 16]);
        write_csv(
            "e15_recorder_overhead.csv",
            "n,recorder,millis,overhead,events,bytes",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{:.2},{:.4},{},{}",
                        r.n, r.recorder, r.millis, r.overhead, r.events, r.bytes
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.recorder,
                    format!("{:.1}", r.millis),
                    format!("{:.2}x", r.overhead),
                    r.events.to_string(),
                    r.bytes.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "n",
                    "recorder",
                    "millis",
                    "overhead",
                    "events",
                    "jsonl bytes"
                ],
                &rows
            )
        );
        println!("(\"null\" is the exact code path the unrecorded entry points compile to —\n its overhead column doubles as the measurement-noise floor)\n");
        trace_experiment(&mut obs, "E15", rows.len());
    }

    if wanted(&selected, "E16") {
        println!("== E16: timing-profiler overhead (side-band NullTiming vs TimingRecorder) ==");
        let data = ex::e16_timing_overhead(&[1 << 14, 1 << 16]);
        write_csv(
            "e16_timing_overhead.csv",
            "n,timing,millis,overhead,spans",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{:.2},{:.4},{}",
                        r.n, r.timing, r.millis, r.overhead, r.spans
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.timing,
                    format!("{:.1}", r.millis),
                    format!("{:.2}x", r.overhead),
                    r.spans.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["n", "timing", "millis", "overhead", "spans"], &rows)
        );
        println!("(\"off\" is the exact code path the untimed entry points compile to;\n the acceptance target is \"on\" within 1.05x of it)\n");
        trace_experiment(&mut obs, "E16", rows.len());
    }

    if wanted(&selected, "E17") {
        println!("== E17: color-class-parallel fixing sweep — audited driver wall-clock ==");
        let data = ex::e17_fixing_speedup(&[1 << 14, 1 << 16], &[1, 2, 8]);
        write_csv(
            "e17_fixing_speedup.csv",
            "driver,n,threads,seq_millis,par_millis,speedup",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{:.2},{:.2},{:.3}",
                        r.driver, r.n, r.threads, r.seq_millis, r.par_millis, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.driver,
                    r.n.to_string(),
                    r.threads.to_string(),
                    format!("{:.1}", r.seq_millis),
                    format!("{:.1}", r.par_millis),
                    format!("{:.2}x", r.speedup),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["driver", "n", "threads", "seq (ms)", "par (ms)", "speedup"],
                &rows
            )
        );
        println!("(audited end-to-end drivers, best of two passes per point; assignments and\n round bills asserted identical before timing is reported — on a single-CPU\n host the speedup is engine efficiency, not parallelism; see EXPERIMENTS.md)\n");
        trace_experiment(&mut obs, "E17", rows.len());
    }

    if wanted(&selected, "E18") {
        println!("== E18: service-mode throughput — fingerprint-cached schedules, cold vs warm ==");
        let data = ex::e18_serve_throughput(100, 96, 5);
        write_csv(
            "e18_serve_throughput.csv",
            "mode,requests,clauses,width,p50_micros,p99_micros,inst_per_sec,cache_hits,cache_misses",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{:.1},{},{}",
                        r.mode,
                        r.requests,
                        r.clauses,
                        r.width,
                        r.p50_micros,
                        r.p99_micros,
                        r.inst_per_sec,
                        r.cache_hits,
                        r.cache_misses
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.mode,
                    r.requests.to_string(),
                    format!("{}x{}", r.clauses, r.width),
                    r.p50_micros.to_string(),
                    r.p99_micros.to_string(),
                    format!("{:.1}", r.inst_per_sec),
                    r.cache_hits.to_string(),
                    r.cache_misses.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "mode",
                    "requests",
                    "cnf (m x w)",
                    "p50 (us)",
                    "p99 (us)",
                    "inst/sec",
                    "hits",
                    "misses"
                ],
                &rows
            )
        );
        println!("(100 same-shape rank-3 DIMACS requests through lll-serve's engine; response\n bytes asserted identical cold vs warm before timing — the cache only moves\n the schedule coloring off the request path, never a byte of the answer;\n CI gates the warm pass at hits == requests and misses == 0)\n");
        trace_experiment(&mut obs, "E18", rows.len());
    }

    if wanted(&selected, "E19") {
        println!("== E19: live-telemetry overhead — warm serve workload, quiet vs scraped ==");
        let data = ex::e19_metrics_overhead(400, 96, 5);
        write_csv(
            "e19_metrics_overhead.csv",
            "mode,requests,clauses,width,p50_micros,p99_micros,inst_per_sec,overhead",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{},{},{},{:.1},{:.4}",
                        r.mode,
                        r.requests,
                        r.clauses,
                        r.width,
                        r.p50_micros,
                        r.p99_micros,
                        r.inst_per_sec,
                        r.overhead
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.mode,
                    r.requests.to_string(),
                    format!("{}x{}", r.clauses, r.width),
                    r.p50_micros.to_string(),
                    r.p99_micros.to_string(),
                    format!("{:.1}", r.inst_per_sec),
                    format!("{:.3}", r.overhead),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "mode",
                    "requests",
                    "cnf (m x w)",
                    "p50 (us)",
                    "p99 (us)",
                    "inst/sec",
                    "overhead"
                ],
                &rows
            )
        );
        println!("(the warm E18 workload with the Prometheus exporter bound to a Unix socket and\n a scraper fetching the exposition in a loop; response bytes asserted identical\n quiet vs scraped before timing; overhead = median scraped/quiet time over\n {} alternated pass pairs — CI gates it at 1.05)\n", ex::E19_PAIRS);
        trace_experiment(&mut obs, "E19", rows.len());
    }

    if wanted(&selected, "E20") {
        println!("== E20: checkpoint/resume — sidecar overhead and recovery wall-clock ==");
        let n = 512;
        let overhead = ex::e20_resume_overhead(n, &[8, 64, 512]);
        let wallclock = ex::e20_resume_wallclock(n, 8);
        let uninterrupted = wallclock
            .iter()
            .find(|r| r.mode == "uninterrupted")
            .expect("both modes reported")
            .millis;
        let mut csv: Vec<String> = overhead
            .iter()
            .map(|r| {
                format!(
                    "{},{},{:.3},{:.4},{},{},{},{},{}",
                    r.n,
                    r.interval,
                    r.millis,
                    r.overhead,
                    r.checkpoints,
                    r.bytes,
                    r.progress,
                    r.digested,
                    r.event_bytes
                )
            })
            .collect();
        csv.extend(wallclock.iter().map(|r| {
            format!(
                "{},{},{:.3},{:.4},0,0,0,0,0",
                r.n,
                r.mode,
                r.millis,
                r.millis / uninterrupted
            )
        }));
        write_csv(
            "e20_resume_overhead.csv",
            "n,row,millis,overhead,checkpoints,bytes,progress,digested,event_bytes",
            &csv,
        );
        let rows: Vec<Vec<String>> = overhead
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.interval.clone(),
                    format!("{:.3}", r.millis),
                    format!("{:.3}", r.overhead),
                    r.checkpoints.to_string(),
                    r.bytes.to_string(),
                    r.progress.to_string(),
                    r.digested.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "n",
                    "interval",
                    "millis",
                    "overhead",
                    "checkpoints",
                    "bytes",
                    "progress",
                    "digested"
                ],
                &rows
            )
        );
        let wrows: Vec<Vec<String>> = wallclock
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.mode.clone(),
                    format!("{:.3}", r.millis),
                    format!("{:.3}", r.millis / uninterrupted),
                    r.steps.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["n", "mode", "millis", "vs full", "steps"], &wrows)
        );
        println!("(recorded rank-2 sweep with #checkpoint sidecars every N progress events; the\n resumed row folds the surviving prefix and continues from the midpoint\n checkpoint, asserted byte-identical to the uninterrupted stream before any\n timing; overhead is the median ratio over alternated off/on pairs, reported\n as context; CI gates the counts: checkpoints == floor(progress / interval) and\n digested == the stream's event bytes, for every cadence)\n");
        trace_experiment(&mut obs, "E20", overhead.len() + wallclock.len());
    }

    if wanted(&selected, "E22") {
        println!("== E22: audited exact drivers — wall-clock and BigInt tier traffic ==");
        let data = ex::e22_wide_tier(2048, 512);
        write_csv(
            "e22_wide_tier.csv",
            "driver,n,millis,baseline_millis,speedup,tier_promotes,tier_demotes",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{:.3},{:.1},{:.3},{},{}",
                        r.driver,
                        r.n,
                        r.millis,
                        r.baseline_millis,
                        r.speedup,
                        r.tier_promotes,
                        r.tier_demotes
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .iter()
            .map(|r| {
                vec![
                    r.driver.clone(),
                    r.n.to_string(),
                    format!("{:.1}", r.millis),
                    format!("{:.1}", r.baseline_millis),
                    format!("{:.2}", r.speedup),
                    r.tier_promotes.to_string(),
                    r.tier_demotes.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "driver",
                    "n",
                    "ms",
                    "ms (pre-gear)",
                    "speedup",
                    "promotes",
                    "demotes",
                ],
                &rows
            )
        );
        println!("(audited E2/E6 drivers on BigRational, k=16, tightness 0.9, seed 7, exact zero\n tolerance, one worker, best-of-2; streams and assignments asserted byte-identical\n across t in {{1,2,8}} before timing; pre-gear baseline\n measured at commit 5ab4b4d on the same machine — CI gates speedup >= 1.5\n and promotes == demotes == 0)\n");
        trace_experiment(&mut obs, "E22", rows.len());
    }

    if selected.contains("TRACE") {
        println!("== TRACE: recorded schedule-coloring workload (ring n = {TRACE_N}) ==");
        let mut timing = lll_obs::TimingRecorder::new();
        let timed = timing_path.is_some();
        if let Some(rec) = obs.as_mut() {
            rec.record(&Event::ExperimentStart {
                id: "TRACE".to_owned(),
            });
            let (lin, red) = if timed {
                ex::record_trace_workload_timed(TRACE_N, threads, rec, &mut timing)
            } else {
                ex::record_trace_workload(TRACE_N, threads, rec)
            };
            rec.record(&Event::ExperimentEnd {
                id: "TRACE".to_owned(),
                rows: 0,
            });
            println!(
                "linial: {} rounds, {} messages; reduce: {} rounds, {} messages\n",
                lin.rounds, lin.messages, red.rounds, red.messages
            );
        } else {
            let mut counter = lll_obs::CounterRecorder::new();
            let (lin, red) = if timed {
                ex::record_trace_workload_timed(TRACE_N, threads, &mut counter, &mut timing)
            } else {
                ex::record_trace_workload(TRACE_N, threads, &mut counter)
            };
            println!(
                "linial: {} rounds, {} messages; reduce: {} rounds, {} messages",
                lin.rounds, lin.messages, red.rounds, red.messages
            );
            println!(
                "(recorded {} events; pass --obs <file.jsonl> to keep the stream)\n",
                counter.events
            );
        }
        if let Some(path) = &timing_path {
            // A φ-fixer pass on the same instance (recorded to a null
            // sink) fills the fix_run/fix_step scopes, so the side-band
            // file covers every TimingScope.
            ex::time_fixer_workload(TRACE_N, &mut timing);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir).expect("create timing output directory");
            }
            let file = fs::File::create(path).expect("create timing output file");
            timing
                .write_to(BufWriter::new(file))
                .expect("write timing histograms");
            println!(
                "(wrote {} timing spans across {} scopes to {})",
                timing.spans(),
                lll_obs::TimingScope::ALL
                    .iter()
                    .filter(|&&s| !timing.scope(s).is_empty())
                    .count(),
                path.display()
            );
        }
    }

    if selected.contains("SWEEP") {
        println!("== SWEEP: recorded color-class-parallel fixing sweep (ring n = {TRACE_N}, t = {threads}) ==");
        if let Some(rec) = obs.as_mut() {
            rec.record(&Event::ExperimentStart {
                id: "SWEEP".to_owned(),
            });
            let report = ex::record_sweep_workload(TRACE_N, threads, rec);
            rec.record(&Event::ExperimentEnd {
                id: "SWEEP".to_owned(),
                rows: 0,
            });
            println!(
                "driver: {} rounds ({} coloring), {} classes, {} fix steps\n",
                report.rounds,
                report.coloring_rounds,
                report.num_classes,
                report.fix.num_steps()
            );
        } else {
            let mut counter = lll_obs::CounterRecorder::new();
            let report = ex::record_sweep_workload(TRACE_N, threads, &mut counter);
            println!(
                "driver: {} rounds ({} coloring), {} classes, {} fix steps",
                report.rounds,
                report.coloring_rounds,
                report.num_classes,
                report.fix.num_steps()
            );
            println!(
                "(recorded {} events; pass --obs <file.jsonl> to keep the stream —\n the stream is byte-identical for every --threads value)\n",
                counter.events
            );
        }
    }

    if wanted(&selected, "A1") {
        println!("== A1: ablation — value-selection rule of the rank-3 fixer ==");
        let rows: Vec<Vec<String>> = ex::a1_value_rule(20)
            .into_iter()
            .map(|r| {
                vec![
                    r.rule,
                    format!("{:.2}", r.tightness),
                    format!("{}/{}", r.successes, r.trials),
                    format!("{:.0}", r.micros_per_instance),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["rule", "p*2^d", "success", "µs/instance"], &rows)
        );
        trace_experiment(&mut obs, "A1", rows.len());
    }

    if wanted(&selected, "A2") {
        println!("== A2: ablation — arithmetic backend ==");
        let data = ex::a2_backend();
        write_csv(
            "a2_backend.csv",
            "backend,success_and_audit,runs,micros_median,micros_min,micros_max,tier_promotes,tier_demotes",
            &data
                .iter()
                .map(|r| {
                    format!(
                        "{},{},{},{:.0},{:.0},{:.0},{},{}",
                        r.backend,
                        r.success_and_audit,
                        ex::A2_RUNS,
                        r.micros,
                        r.micros_min,
                        r.micros_max,
                        r.tier_promotes,
                        r.tier_demotes
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rows: Vec<Vec<String>> = data
            .into_iter()
            .map(|r| {
                vec![
                    r.backend,
                    r.success_and_audit.to_string(),
                    format!("{:.0}", r.micros),
                    format!("{:.0}–{:.0}", r.micros_min, r.micros_max),
                    r.tier_promotes.to_string(),
                    r.tier_demotes.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "backend",
                    "success (+P* audit)",
                    "µs/run (median)",
                    "µs min–max",
                    "tier promotes",
                    "tier demotes",
                ],
                &rows
            )
        );
        println!(
            "({} interleaved runs per backend, alternating which goes first)\n",
            ex::A2_RUNS
        );
        trace_experiment(&mut obs, "A2", rows.len());
    }

    if let Some(rec) = obs {
        let lines = rec.lines();
        let writer = rec.finish().expect("flush obs stream");
        writer
            .into_inner()
            .unwrap_or_else(|e| panic!("flush obs stream: {e}"));
        let path = obs_path.expect("obs implies a path");
        println!("(wrote {} obs lines to {})", lines, path.display());
    }
}

/// Records one experiment's bracket (`experiment_start`, one
/// `experiment_row` per table row, `experiment_end`) into the `--obs`
/// stream, if one is open.
fn trace_experiment<W: std::io::Write>(obs: &mut Option<JsonlRecorder<W>>, id: &str, rows: usize) {
    if let Some(rec) = obs.as_mut() {
        rec.record(&Event::ExperimentStart { id: id.to_owned() });
        for index in 0..rows {
            rec.record(&Event::ExperimentRow {
                id: id.to_owned(),
                index,
            });
        }
        rec.record(&Event::ExperimentEnd {
            id: id.to_owned(),
            rows,
        });
    }
}

fn rounds_row(r: ex::RoundsRow) -> Vec<String> {
    vec![
        r.n.to_string(),
        r.log_star_n.to_string(),
        r.det_rounds.to_string(),
        r.det_coloring_rounds.to_string(),
        r.mt_local_rounds.to_string(),
    ]
}

fn rounds_header(rows: &[Vec<String>]) -> String {
    render_table(
        &["n", "log* n", "det rounds", "(coloring)", "MT local rounds"],
        rows,
    )
}
