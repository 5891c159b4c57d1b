#!/usr/bin/env bash
# Prints the ledger's exact work counters, one line per workload, from
# `ledger --workload W --seed 1 --smoke --trace 1`. The counters repeat
# exactly from run to run and do not depend on `--seconds`, so the runs
# are kept short. CI diffs this output against the committed
# results/ledger_counters.txt; a change that moves a counter regenerates
# the file and says why in CHANGES.md:
#
#   scripts/ledger_counters.sh > results/ledger_counters.txt
set -euo pipefail
cd "$(dirname "$0")/.."

counters="alloc.count alloc.bytes numeric.promotes numeric.demotes sweep.steps coloring.rounds obs.events"
echo "# ledger --workload W --seed 1 --smoke --trace 1: $counters"
for w in audited-r2 audited-r3 dense-d8 scale-r2 serve-mix; do
  line="$(cargo run --release -q --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
    --workload "$w" --seed 1 --smoke --trace 1 --seconds 0.5 | tail -n 1)"
  printf '%s' "$w"
  for c in $counters; do
    v="$(printf '%s' "$line" | grep -o "\"$c\":{\"value\":[^,}]*" | sed 's/.*"value"://')"
    if [ -z "$v" ]; then
      echo "ledger_counters: no $c in the $w result line" >&2
      exit 1
    fi
    printf ' %s=%s' "$c" "$v"
  done
  echo
done
