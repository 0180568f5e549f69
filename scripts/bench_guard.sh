#!/usr/bin/env bash
# Bench-regression guard: runs the anchor benchmarks and fails if the
# best-of-N ns/op exceeds the recorded anchor by more than 15%. Anchors
# are the ci_anchor sections next to the numbers they guard:
# BENCH_transport.json (wire hop), BENCH_pipeline.json (in-process
# engine path), BENCH_checkpoint.json (one checkpoint's capture, encode,
# store and decode).
# Best-of-N damps scheduler noise; a genuine regression shifts the whole
# distribution, not just the tail.
set -euo pipefail
cd "$(dirname "$0")/.."

anchor() { # file — the ci_anchor section's ns_per_op value
  grep -A8 '"ci_anchor"' "$1" | grep -m1 '_ns_per_op"' | sed 's/.*: *//; s/[^0-9.]//g'
}

transport_anchor=$(anchor BENCH_transport.json)
engine_anchor=$(anchor BENCH_pipeline.json)
ship_anchor=$(anchor BENCH_checkpoint.json)
if [ -z "$transport_anchor" ] || [ -z "$engine_anchor" ] || [ -z "$ship_anchor" ]; then
  echo "bench_guard: missing anchors (transport='$transport_anchor' engine='$engine_anchor' ship='$ship_anchor')" >&2
  exit 1
fi

out=$(go test . -run '^$' -benchtime=0.5s -count="${BENCH_COUNT:-3}" \
  -bench 'BenchmarkTransportPipeline$|BenchmarkEnginePipeline/batch=256|BenchmarkCheckpointShip$')
echo "$out"

check() { # benchmark-name-prefix, anchor
  local best
  best=$(echo "$out" | awk -v b="^$1" '$1 ~ b {print $3}' | sort -g | head -1)
  if [ -z "$best" ]; then
    echo "bench_guard: no result for $1" >&2
    return 1
  fi
  awk -v best="$best" -v anchor="$2" -v name="$1" 'BEGIN {
    limit = anchor * 1.15
    printf "bench_guard: %s best %.1f ns/op, anchor %.1f, limit %.1f\n", name, best, anchor, limit
    if (best > limit) { printf "bench_guard: %s regressed >15%% over anchor\n", name; exit 1 }
  }'
}

check BenchmarkTransportPipeline "$transport_anchor"
check BenchmarkEnginePipeline/batch=256 "$engine_anchor"
check BenchmarkCheckpointShip "$ship_anchor"
