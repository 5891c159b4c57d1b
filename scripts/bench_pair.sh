#!/usr/bin/env bash
# Paired ledger runs: this checkout (the change) against a parent commit.
#
#   scripts/bench_pair.sh PARENT [ROUNDS] > BENCH_<parent sha>.json
#
# Builds the parent's ledger in a local clone (offline: every dependency
# is vendored) and this checkout's ledger, then runs, for every workload
# and for --trace 0 and --trace 1, ROUNDS (default 10, at least 10)
# rounds of `ledger --workload W --seed 1 --trace T`, each at the
# benchmark's own run length (`run_seconds` in BENCHMARK.json, which the
# ledger reads when no `--seconds` is given). A round runs each side once; the side that
# goes first alternates from round to round, so host drift falls on both
# sides alike. Every run must report `"correct":true`.
#
# Prints one JSON object: both commits (the change side is the checkout's
# HEAD plus any uncommitted edits, flagged by `change_uncommitted`),
# `nproc`, the settings, and for every workload, mode and metric: each
# side's median, and the median, quartiles and count above 1 of the
# per-round change/parent ratio. A metric is compared against its
# BENCHMARK.json bound on the median ratio; a claimed gain needs the
# ratio's quartile range to exclude 1. Progress goes to stderr.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: scripts/bench_pair.sh PARENT [ROUNDS]" >&2
  exit 2
fi
rounds="${2:-10}"
if ! [ "$rounds" -ge 10 ] 2>/dev/null; then
  echo "bench_pair: ROUNDS must be an integer >= 10, got '$rounds'" >&2
  exit 2
fi
parent_sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
change_sha="$(git -C "$root" rev-parse HEAD)"
uncommitted=false
git -C "$root" diff --quiet HEAD -- || uncommitted=true
workloads="audited-r2 audited-r3 dense-d8 scale-r2 serve-mix"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
manifest=crates/bench/src/bin/ledger/Cargo.toml

echo "bench_pair: building the parent ledger at $parent_sha" >&2
git clone --quiet --no-checkout "$root" "$work/parent"
git -C "$work/parent" checkout --quiet --detach "$parent_sha"
cargo build --release -q --offline --manifest-path "$work/parent/$manifest" \
  --target-dir "$work/target"
parent_bin="$work/target/release/ledger"
echo "bench_pair: building the change ledger" >&2
change_target="$root/crates/bench/src/bin/ledger/target"
cargo build --release -q --offline --manifest-path "$root/$manifest" \
  --target-dir "$change_target"
change_bin="$change_target/release/ledger"

# One run: appends `workload trace round side metric value unit` rows.
run_one() {
  local side="$1" dir="$2" bin="$3" w="$4" t="$5" r="$6" out
  out="$(cd "$dir" && "$bin" --workload "$w" --seed 1 --trace "$t")"
  case "${out##*$'\n'}" in
    *'"correct":true'*) ;;
    *)
      echo "bench_pair: $side run of $w at --trace $t (round $r) is not correct" >&2
      exit 1
      ;;
  esac
  printf '%s\n' "$out" | awk -v w="$w" -v t="$t" -v r="$r" -v s="$side" \
    '$1 == "metric" { print w, t, r, s, $2, $3, $4 }' >> "$work/rows"
  # The run length each ledger took from its own BENCHMARK.json.
  printf '%s\n' "$out" | awk '$1 == "#" && $2 == "ledger" {
    for (i = 3; i <= NF; i++) if ($i ~ /^seconds=/) print substr($i, 9) }' >> "$work/seconds"
}

: > "$work/rows"
: > "$work/seconds"
for w in $workloads; do
  for t in 0 1; do
    echo "bench_pair: $w --trace $t, $rounds rounds" >&2
    for r in $(seq 1 "$rounds"); do
      if [ $((r % 2)) -eq 1 ]; then
        run_one change "$root" "$change_bin" "$w" "$t" "$r"
        run_one parent "$work/parent" "$parent_bin" "$w" "$t" "$r"
      else
        run_one parent "$work/parent" "$parent_bin" "$w" "$t" "$r"
        run_one change "$root" "$change_bin" "$w" "$t" "$r"
      fi
    done
  done
done

seconds="$(sort -u "$work/seconds")"
case "$seconds" in
  '' | *$'\n'*)
    echo "bench_pair: the ledgers reported no run length or differing ones: $(echo $seconds)" >&2
    exit 1
    ;;
esac

awk -v parent="$parent_sha" -v change="$change_sha" -v dirty="$uncommitted" \
  -v nproc="$(nproc)" -v rounds="$rounds" -v seconds="$seconds" '
  # Quantile q of a[1..n], sorted in place (linear interpolation).
  function quantile(a, n, q,    i, j, x, h, lo) {
    for (i = 2; i <= n; i++) {
      x = a[i]
      for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
      a[j + 1] = x
    }
    h = (n - 1) * q + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  function num(x) { return x == int(x) ? sprintf("%d", x) : sprintf("%.6g", x) }
  {
    key = $1 SUBSEP $2 SUBSEP $5
    if (!(key in unit)) { order[++keys] = key; unit[key] = $7 }
    value[key, $3, $4] = $6
  }
  END {
    printf "{\n  \"tool\": \"scripts/bench_pair.sh\",\n"
    printf "  \"parent_sha\": \"%s\",\n  \"change_sha\": \"%s\",\n", parent, change
    printf "  \"change_uncommitted\": %s,\n  \"nproc\": %d,\n", dirty, nproc
    printf "  \"seed\": 1,\n  \"rounds\": %d,\n  \"seconds\": %s,\n", rounds, seconds
    printf "  \"metrics\": ["
    for (k = 1; k <= keys; k++) {
      key = order[k]
      split(key, part, SUBSEP)
      n = 0; above = 0; undefined = 0
      delete pv; delete cv; delete ratio
      for (r = 1; r <= rounds; r++) {
        if (!((key, r, "parent") in value) || !((key, r, "change") in value)) continue
        p = value[key, r, "parent"]; c = value[key, r, "change"]
        n++; pv[n] = p; cv[n] = c
        if (p == 0 && c != 0) undefined = 1
        ratio[n] = p == 0 ? 1 : c / p
        if (ratio[n] > 1) above++
      }
      if (n == 0) continue
      printf "%s\n    {\"workload\": \"%s\", \"trace\": %d, \"metric\": \"%s\", \"unit\": \"%s\", ", \
        (printed++ ? "," : ""), part[1], part[2], part[3], unit[key]
      printf "\"pairs\": %d, \"parent_median\": %s, \"change_median\": %s, ", \
        n, num(quantile(pv, n, 0.5)), num(quantile(cv, n, 0.5))
      if (undefined) {
        # A parent reading of 0 against a nonzero change has no ratio.
        printf "\"ratio_median\": null, \"ratio_q1\": null, \"ratio_q3\": null, \"ratio_above_1\": null}"
      } else {
        printf "\"ratio_median\": %.4f, \"ratio_q1\": %.4f, \"ratio_q3\": %.4f, \"ratio_above_1\": %d}", \
          quantile(ratio, n, 0.5), quantile(ratio, n, 0.25), quantile(ratio, n, 0.75), above
      }
    }
    printf "\n  ]\n}\n"
  }' "$work/rows"
