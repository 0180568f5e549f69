#!/usr/bin/env bash
# fuzz.sh <pkg> <target> <secs> <floor> — run one fuzz target for secs
# seconds, print the exec count it reached, and fail when it crashed or
# ran fewer than floor execs: a step that spends its budget minimising
# or stalled must fail, not pass quietly. Minimisation is bounded
# (-fuzzminimizetime=50x) so that a new input cannot take a minute of
# the budget.
#
#   ./scripts/fuzz.sh ./internal/state FuzzDecodeCheckpoint 20 80000
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -ne 4 ]; then
  echo "usage: $0 <pkg> <target> <secs> <floor>" >&2
  exit 2
fi
pkg=$1 target=$2 secs=$3 floor=$4

log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "${secs}s" -fuzzminimizetime=50x 2>&1 | tee "$log" || status=$?

# The fuzzer's last progress line carries the final count.
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | cut -d' ' -f2)
execs=${execs:-0}
echo "fuzz.sh: $target ran $execs execs in ${secs}s (floor $floor)"
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if [ "$execs" -lt "$floor" ]; then
  echo "fuzz.sh: $target ran $execs execs, under its floor of $floor" >&2
  exit 1
fi
