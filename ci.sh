#!/usr/bin/env bash
# Local CI gate. Mirrors .github/workflows/ci.yml exactly; run before
# pushing. The workspace builds fully offline (deps vendored under
# vendor/), so no registry access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1 gate)"
cargo test -q

echo "==> numeric crossover battery (i128 <-> Heap, 10k cases/op)"
cargo test -q -p lll-numeric --test differential
cargo test -q -p lll-numeric --features serde --test differential

echo "==> cargo test --workspace -q (full suite)"
cargo test --workspace -q

echo "==> tier-1 gate, serial test runner"
RUST_TEST_THREADS=1 cargo test -q

echo "==> LOCAL engine: pool liveness + differential battery at 2 and 8 workers"
# The engine runs on the phase pool (`lll_local::pool`), whose workers
# wait at a spin-then-park gate between phases; under `timeout` a
# deadlock fails this gate instead of hanging it. The test binaries were
# built by the full-suite step above.
timeout 600 cargo test -q -p lll-local -p lll-coloring
LLL_DIFF_THREADS=2 timeout 900 cargo test -q --test parallel_differential
LLL_DIFF_THREADS=8 timeout 900 cargo test -q --test parallel_differential

echo "==> E2/E6 round gate (deterministic round counts must match the committed CSVs)"
# The deterministic columns are exact work counters: a change to the
# schedule colorings or the fixers that moves them must regenerate
# results/e2_rounds_rank2.csv and results/e6_rounds_rank3.csv and say
# why. The Moser-Tardos column is context, not gated.
tmp_rounds="$(mktemp -d)"
cargo run --release -q -p lll-bench --bin tables -- --csv "$tmp_rounds" E2 E6 > /dev/null
det_cols='/^#/ { next }
  !hdr { for (i = 1; i <= NF; i++) col[$i] = i; hdr = 1; next }
  { print $col["n"], $col["det_rounds"], $col["det_coloring_rounds"]; rows++ }
  END { exit !(col["n"] && col["det_rounds"] && col["det_coloring_rounds"] && rows) }'
for f in e2_rounds_rank2 e6_rounds_rank3; do
  awk -F, "$det_cols" "results/$f.csv" > "$tmp_rounds/$f.want"
  awk -F, "$det_cols" "$tmp_rounds/$f.csv" > "$tmp_rounds/$f.got"
  diff "$tmp_rounds/$f.want" "$tmp_rounds/$f.got"
done
rm -rf "$tmp_rounds"

echo "==> differential battery, parallel fixing sweep at 2 and 8 workers"
# The sweep runs on the same phase pool as the engine, so it runs under
# `timeout` for the same reason.
LLL_DIFF_THREADS=2 timeout 900 cargo test -q --test fixer_parallel_differential
LLL_DIFF_THREADS=8 timeout 900 cargo test -q --test fixer_parallel_differential

echo "==> flight recorder: traced workload + summarize/series/diff + timing"
cargo test -q -p lll-bench --test obs_differential
cargo test -q -p lll-obs
tmp_obs="$(mktemp -d)"
# Trace the workload twice — once with a live timing profiler, once at a
# different thread count — and hold obs-report to its contract on both.
cargo run --release -q -p lll-bench --bin tables -- \
  --csv "$tmp_obs" --obs "$tmp_obs/trace.jsonl" \
  --timing "$tmp_obs/timing.jsonl" E4 E16 TRACE
cargo run --release -q -p lll-obs --bin obs-report -- \
  summarize --validate "$tmp_obs/trace.jsonl" > /dev/null
cargo run --release -q -p lll-obs --bin obs-report -- \
  series --out "$tmp_obs/series" "$tmp_obs/trace.jsonl" > /dev/null
# Determinism: the same workload traced at 1 and 4 workers must be an
# identical event stream (diff exits 0; a divergence exits 1 and prints
# the first bad event with field-level deltas).
cargo run --release -q -p lll-bench --bin tables -- \
  --obs "$tmp_obs/trace_t1.jsonl" TRACE > /dev/null
cargo run --release -q -p lll-bench --bin tables -- \
  --threads 4 --obs "$tmp_obs/trace_t4.jsonl" TRACE > /dev/null
cargo run --release -q -p lll-obs --bin obs-report -- \
  diff "$tmp_obs/trace_t1.jsonl" "$tmp_obs/trace_t4.jsonl"
# Same contract for the color-class-parallel fixing sweep: the recorded
# fixing stream at 1 and 4 sweep workers must be byte-identical.
cargo run --release -q -p lll-bench --bin tables -- \
  --obs "$tmp_obs/sweep_t1.jsonl" SWEEP > /dev/null
cargo run --release -q -p lll-bench --bin tables -- \
  --threads 4 --obs "$tmp_obs/sweep_t4.jsonl" SWEEP > /dev/null
cargo run --release -q -p lll-obs --bin obs-report -- \
  diff "$tmp_obs/sweep_t1.jsonl" "$tmp_obs/sweep_t4.jsonl"
rm -rf "$tmp_obs"

echo "==> checkpoint/resume: differential battery + kill/resume smoke + E20 gate"
cargo test -q -p lll-bench --test resume_differential
tmp_ckpt="$(mktemp -d)"
# Uninterrupted reference, then the same run aborted mid-stream (the
# kill switch calls abort() after the 100th event — no flush, no
# destructors, exactly a crash) and resumed in place at a different
# worker count. The resumed file must be byte-identical to the
# reference, and the offline verifier must agree the (prefix,
# checkpoint, continuation) triple is coherent. The first build above
# covers the root package only, so build the `ckpt` binary here.
cargo build --release -q -p lll-bench --bin ckpt
./target/release/ckpt run --out "$tmp_ckpt/ref.jsonl" --n 256 --interval 8
rc=0
./target/release/ckpt run --out "$tmp_ckpt/killed.jsonl" --n 256 --interval 8 \
  --kill-after-events 100 2>/dev/null || rc=$?
test "$rc" -eq 134 # SIGABRT: the run really died mid-stream
cp "$tmp_ckpt/killed.jsonl" "$tmp_ckpt/prefix.jsonl"
./target/release/ckpt resume --out "$tmp_ckpt/killed.jsonl" --n 256 --interval 8 --threads 4
cmp "$tmp_ckpt/ref.jsonl" "$tmp_ckpt/killed.jsonl"
cargo run --release -q -p lll-obs --bin obs-report -- \
  resume-check "$tmp_ckpt/prefix.jsonl" "$tmp_ckpt/killed.jsonl"
rm -rf "$tmp_ckpt"
# E20: checkpointing is gated on counts, not wall clock. For every
# numeric cadence N the checkpointed stream must carry exactly
# floor(progress events / N) sidecars (one per full interval), and the
# recorder's rolling digest must have consumed exactly the stream's
# non-sidecar bytes (each event line digested once, no prefix re-read).
# The millis/overhead columns (median ratio over alternated off/on
# pairs) are reported as context only.
cargo run --release -q -p lll-bench --bin tables -- --csv results E20
awk -F, '/^#/ { next } !hdr { for (i = 1; i <= NF; i++) col[$i] = i; hdr = 1; next }
  $col["row"] ~ /^[0-9]+$/ { rows++
    if ($col["checkpoints"] != int($col["progress"] / $col["row"])) bad = 1
    if ($col["digested"] == 0 || $col["digested"] != $col["event_bytes"]) bad = 1 }
  END { exit !(rows == 3 && !bad) }' results/e20_resume_overhead.csv

echo "==> E22: audited exact drivers (speedup >= 1.5x pre-gear baseline, no BigInt tier traffic)"
# Byte-identity of streams and assignments across t in {1,2,8} is
# asserted inside the experiment before any timing; the gate here is the
# wall-clock claim against the committed pre-gear baseline, read from
# the column named `speedup`, and no BigInt tier traffic (`tier_promotes`
# and `tier_demotes` are 0 on both rows).
cargo run --release -q -p lll-bench --bin tables -- --csv results E22
awk -F, '/^#/ { next } !hdr { for (i = 1; i <= NF; i++) col[$i] = i; hdr = 1; next }
  { rows++
    if ($col["speedup"] < 1.5 || $col["tier_promotes"] != 0 || $col["tier_demotes"] != 0) bad = 1 }
  END { exit !(col["speedup"] && col["tier_promotes"] && col["tier_demotes"] && rows == 2 && !bad) }' \
  results/e22_wide_tier.csv

echo "==> Criterion numeric kernel medians"
cargo bench -p lll-bench --bench numeric | tee results/criterion_numeric_medians.txt

echo "==> ledger benchmark smoke (every workload solves correctly; no timing gate)"
cargo test -q -p lll-bench --bin ledger
cargo run --release -q --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
  --all --smoke --seconds 0.5 --seed 1

echo "==> ledger counter gate (exact work counters must match results/ledger_counters.txt)"
# alloc.count, alloc.bytes, numeric.promotes/demotes, sweep.steps,
# coloring.rounds and obs.events of every workload's smoke run are
# deterministic: a change that moves one regenerates the file with
# scripts/ledger_counters.sh and says why in CHANGES.md.
tmp_ledger="$(mktemp -d)"
scripts/ledger_counters.sh > "$tmp_ledger/got"
diff results/ledger_counters.txt "$tmp_ledger/got"
rm -rf "$tmp_ledger"

echo "==> service mode: protocol + cache + parse + soak batteries"
# The stages below run the lll-serve and lll-metrics-scrape binaries
# directly; build them (and obs-report) as the workflow's service job does.
cargo build --release -q -p lll-serve -p lll-bench -p lll-obs
cargo test -q -p lll-serve
LLL_DIFF_THREADS=2 cargo test -q -p lll-serve --test soak
LLL_DIFF_THREADS=8 cargo test -q -p lll-serve --test soak

echo "==> service mode: 100-request daemon smoke (byte-identity across threads/cache)"
tmp_serve="$(mktemp -d)"
for i in $(seq 1 100); do
  printf '{"id":%d,"dimacs":"p cnf 2 2\\n1 2 0\\n-1 2 0\\n"}\n' "$i"
done > "$tmp_serve/requests.jsonl"
./target/release/lll-serve < "$tmp_serve/requests.jsonl" > "$tmp_serve/t1.out"
./target/release/lll-serve --threads 4 --batch 32 \
  < "$tmp_serve/requests.jsonl" > "$tmp_serve/t4.out"
./target/release/lll-serve --threads 4 --batch 32 --no-cache \
  < "$tmp_serve/requests.jsonl" > "$tmp_serve/nocache.out"
test "$(wc -l < "$tmp_serve/t1.out")" -eq 100
cmp "$tmp_serve/t1.out" "$tmp_serve/t4.out"
cmp "$tmp_serve/t1.out" "$tmp_serve/nocache.out"
# A request-level obs tee must be a valid flight-recorder stream, and
# its lines carry the request id (obs schema v2 `req` tag) so
# `--by-request` can attribute them.
printf '{"id":"trace","obs":"%s/serve_trace.jsonl","dimacs":"p cnf 2 2\\n1 2 0\\n-1 2 0\\n"}\n' \
  "$tmp_serve" | ./target/release/lll-serve > /dev/null
cargo run --release -q -p lll-obs --bin obs-report -- \
  summarize --validate --json --by-request "$tmp_serve/serve_trace.jsonl" \
  | grep -q '"by_request":{"\\"trace\\""'
rm -rf "$tmp_serve"

echo "==> service mode: telemetry smoke (scrape + exposition + SIGUSR1, byte-identity)"
tmp_tel="$(mktemp -d)"
for i in $(seq 1 10); do
  printf '{"id":%d,"dimacs":"p cnf 2 2\\n1 2 0\\n-1 2 0\\n"}\n' "$i"
done > "$tmp_tel/requests.jsonl"
# Quiet baseline, then the same requests with the exporter live: the
# telemetry plane is side-band, so stdout must be byte-identical.
./target/release/lll-serve < "$tmp_tel/requests.jsonl" > "$tmp_tel/quiet.out"
mkfifo "$tmp_tel/in"
./target/release/lll-serve --metrics "$tmp_tel/metrics.sock" --cache-capacity 8 \
  < "$tmp_tel/in" > "$tmp_tel/metered.out" 2> "$tmp_tel/metered.err" &
serve_pid=$!
exec 9> "$tmp_tel/in" # hold the daemon's stdin open while we scrape
cat "$tmp_tel/requests.jsonl" >&9
for _ in $(seq 1 100); do
  [ "$(wc -l < "$tmp_tel/metered.out")" -eq 10 ] && break
  sleep 0.1
done
./target/release/lll-metrics-scrape "$tmp_tel/metrics.sock" > "$tmp_tel/exposition.txt"
# Validate the exposition: text-format grammar (HELP/TYPE comments,
# `name[{labels}] value` samples, integer values) and the counters the
# 10 requests must have driven.
awk '
  /^# TYPE / { if ($NF !~ /^(counter|gauge|summary|histogram|untyped)$/) exit 1; next }
  /^#/      { if ($0 !~ /^# HELP /) exit 1; next }
  NF != 2   { print "bad sample: " $0; exit 1 }
  $1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})?$/ { print "bad name: " $0; exit 1 }
  $2 !~ /^-?[0-9]+$/ { print "bad value: " $0; exit 1 }
  $1 == "lll_serve_requests_total" { reqs = $2 }
  $1 == "lll_serve_ok_total" { ok = $2 }
  $1 == "lll_serve_cache_hits_total" { hits = $2 }
  END { exit !(reqs == 10 && ok == 10 && hits == 9) }
' "$tmp_tel/exposition.txt"
# SIGUSR1 dumps a stats line to stderr on demand.
kill -USR1 "$serve_pid"
for _ in $(seq 1 100); do
  grep -q '^lll-serve: 10 requests' "$tmp_tel/metered.err" && break
  sleep 0.1
done
grep -q '^lll-serve: 10 requests (10 ok, 0 errors)' "$tmp_tel/metered.err"
exec 9>&- # EOF: drain and exit 0
wait "$serve_pid"
cmp "$tmp_tel/quiet.out" "$tmp_tel/metered.out"
test ! -e "$tmp_tel/metrics.sock" # exporter socket removed on shutdown
rm -rf "$tmp_tel"

echo "==> service mode: E18 cache counters (every warm request must hit the schedule cache)"
# Gates the engine's deterministic cache counters over the timed warm
# pass (hits == requests, misses == 0); latency and throughput columns
# are reported context, not a gate.
cargo run --release -q -p lll-bench --bin tables -- --csv results E18
awk -F, '/^#/ { next } !hdr { for (i = 1; i <= NF; i++) col[$i] = i; hdr = 1; next }
  $1 == "warm" { n = $col["requests"]; hits = $col["cache_hits"]; misses = $col["cache_misses"]; warm++ }
  END { exit !(col["cache_hits"] && col["cache_misses"] && warm == 1 && n > 0 && hits == n && misses == 0) }' \
  results/e18_serve_throughput.csv

echo "==> service mode: E19 telemetry overhead (scraped must be <= 1.05x quiet)"
# Quiet and scraped passes run as alternated pairs in one process (which
# mode goes first switches every pair); the gate reads the column named
# `overhead`, the median per-pair scraped/quiet time ratio.
cargo run --release -q -p lll-bench --bin tables -- --csv results E19
awk -F, '/^#/ { next } !hdr { for (i = 1; i <= NF; i++) col[$i] = i; hdr = 1; next }
  $col["mode"] == "scraped" { overhead = $col["overhead"]; scraped++ }
  END { exit !(col["mode"] && col["overhead"] && scraped == 1 && overhead <= 1.05) }' \
  results/e19_metrics_overhead.csv

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> OK"
