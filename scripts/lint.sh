#!/usr/bin/env bash
# lint.sh — the repo's static gate, one command for CI and for hands:
# gofmt, go vet, the import-direction, no-Deprecated:,
# every-option-has-a-caller, one-copy-of-the-node-step and
# one-copy-of-the-transition-sequence greps, and seep-lint (the
# invariant suite in internal/analysis, run both standalone and as the
# vet tool so each loading path stays honest). govulncheck runs when the
# binary is available; the container image does not bake it in, so its
# absence is a skip, not a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" >&2
  echo "$out" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== import direction"
if go list -deps ./internal/wirecodec | grep -x 'seep/internal/state'; then
  echo "internal/wirecodec must not depend on internal/state: state encodes buffered tuples with it" >&2
  exit 1
fi

echo "== no deprecated surface"
# The compat half was deleted (ROADMAP aim 2) and must not regrow: what
# is superseded is removed, not marked.
if grep -rn --include='*.go' 'Deprecated:' . --exclude-dir=testdata --exclude-dir=.bench_build; then
  echo "Deprecated: markers found; delete the superseded API instead of deprecating it" >&2
  exit 1
fi

echo "== every option has a caller"
# An option nothing sets is a configuration nothing tests (ROADMAP aim 2;
# five were cut in PR 16 and must not regrow): each exported With*
# constructor needs a call outside options.go and the tests — a command,
# an example, the scenario runner or the benchmark. Deployment addresses
# stay configurable without one.
deployment='WithCoordinatorAddr WithStandbyAddr'
for opt in $(grep -oE '^func With[A-Za-z]+' options.go | cut -d' ' -f2); do
  case " $deployment " in *" $opt "*) continue ;; esac
  if ! grep -rqE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build "seep\.$opt\(" .; then
    echo "option $opt has no caller outside options.go and _test.go files; delete it or use it" >&2
    exit 1
  fi
done

echo "== one copy of the node step"
# The per-tuple rules exactly-once rests on (dedup against the sender's
# ack, the TS advance, stamping, retention, repartitioning) are
# state.Instance's node step in internal/state/step.go, which the live
# engine and the simulator both call. Outside internal/state no program
# code writes an ack, draws from an output clock, advances a TS vector,
# or appends to or repartitions a buffer itself, so no substrate regrows
# a second copy of the rules.
step='\.Acks\[[^]]*\][[:space:]]*([-+*/]?=[^=]|\+\+|--)|delete\([^)]*Acks|OutClock\.Next|TS\.Advance\(|\.Buffer\.(Append|Handle)\(|\.Repartition\('
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=testdata --exclude-dir=.bench_build "$step" . | grep -v '^\./internal/state/'; then
  echo "node-step rules written outside internal/state; call the state.Instance methods instead" >&2
  exit 1
fi

echo "== one copy of the transition sequence"
# A recovery, scale out or scale in is ordered once, by core.Sequencer,
# which keeps the manager's books itself. Outside internal/core no
# program code calls Manager.Plan, Complete or ValidateMerge, so no
# substrate regrows a sequence of its own. The one named exemption is
# the simulator's UB/SR baseline recovery (activateBaseline), which
# re-processes a retained window instead of restoring a checkpoint.
books='[.](Plan|Complete|ValidateMerge)[(]'
if find . -name '*.go' ! -name '*_test.go' ! -path './internal/core/*' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
  xargs -0 awk -v books="$books" '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    $0 ~ books && fn !~ /[)] activateBaseline[(]/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }'; then
  echo "transition books kept outside internal/core; execute core.Sequencer's actions instead" >&2
  exit 1
fi

echo "== seep-lint (standalone)"
go run ./cmd/seep-lint ./...

echo "== seep-lint (go vet -vettool)"
tool=$(mktemp -d)/seep-lint
trap 'rm -rf "$(dirname "$tool")"' EXIT
go build -o "$tool" ./cmd/seep-lint
go vet -vettool="$tool" ./...

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck"
  govulncheck ./...
else
  echo "== govulncheck: not installed, skipping"
fi

echo "lint OK"
