#!/usr/bin/env bash
# loc.sh [ref] — line count as a cost (ROADMAP aim 2): non-test Go lines
# that are neither blank nor comment, per internal/* package, at ref
# (default HEAD) versus the working tree. Informational: prints a table,
# never fails on a delta.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:-HEAD}

# code_lines: Go source on stdin, count of code lines on stdout.
code_lines() {
  awk '
    inblock { if (sub(/^.*\*\//, "")) inblock = 0; else next }
    { sub(/^[ \t]+/, "") }
    /^\/\*/ { if ($0 !~ /\*\//) inblock = 1; next }
    /^$/ || /^\/\// { next }
    { n++ }
    END { print n + 0 }'
}

sources() { grep -E '^internal/.*\.go$' | grep -v '_test\.go$' || true; }

declare -A at_ref at_tree
while read -r f; do
  pkg=${f#internal/}; pkg=${pkg%%/*}
  at_ref[$pkg]=$(( ${at_ref[$pkg]:-0} + $(git show "$ref:$f" | code_lines) ))
done < <(git ls-tree -r --name-only "$ref" -- internal | sources)
while read -r f; do
  [ -f "$f" ] || continue # deleted in the working tree
  pkg=${f#internal/}; pkg=${pkg%%/*}
  at_tree[$pkg]=$(( ${at_tree[$pkg]:-0} + $(code_lines < "$f") ))
done < <(git ls-files -co --exclude-standard -- internal | sources)

printf '%-14s %8s %8s %7s\n' "internal/" "$ref" worktree delta
total_ref=0 total_tree=0
for pkg in $(printf '%s\n' "${!at_ref[@]}" "${!at_tree[@]}" | sort -u); do
  r=${at_ref[$pkg]:-0} t=${at_tree[$pkg]:-0}
  printf '%-14s %8d %8d %+7d\n' "$pkg" "$r" "$t" $((t - r))
  total_ref=$((total_ref + r)) total_tree=$((total_tree + t))
done
printf '%-14s %8d %8d %+7d\n' total "$total_ref" "$total_tree" $((total_tree - total_ref))
