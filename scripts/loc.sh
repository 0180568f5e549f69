#!/usr/bin/env bash
# loc.sh [ref] — size as a cost (ROADMAP aim 2), at ref (default HEAD)
# versus the working tree: non-test Go lines that are neither blank nor
# comment, per internal/* package, for the root package (`root`) and for
# cmd/ (`cmd`), then the exported-symbol count of package seep
# (`go doc -short .`) and how many of those are With* options.
# Informational: prints a table, never fails on a delta.
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

sources() { grep -E '^(internal|cmd)/.*\.go$|^[^/]*\.go$' | grep -v '_test\.go$' || true; }

# row: the table row a source file counts toward.
row() {
  case $1 in
    internal/*) r=${1#internal/}; echo "${r%%/*}" ;;
    cmd/*) echo cmd ;;
    *) echo root ;;
  esac
}

declare -A at_ref at_tree
while read -r f; do
  r=$(row "$f")
  at_ref[$r]=$(( ${at_ref[$r]:-0} + $(git show "$ref:$f" | code_lines) ))
done < <(git ls-tree -r --name-only "$ref" | sources)
while read -r f; do
  [ -f "$f" ] || continue # deleted in the working tree
  r=$(row "$f")
  at_tree[$r]=$(( ${at_tree[$r]:-0} + $(code_lines < "$f") ))
done < <(git ls-files -co --exclude-standard | sources)

printf '%-14s %8s %8s %7s\n' "internal/" "$ref" worktree delta
line() {
  local r=${at_ref[$1]:-0} t=${at_tree[$1]:-0}
  printf '%-14s %8d %8d %+7d\n' "$1" "$r" "$t" $((t - r))
  total_ref=$((total_ref + r)) total_tree=$((total_tree + t))
}
total_ref=0 total_tree=0
for pkg in $(printf '%s\n' "${!at_ref[@]}" "${!at_tree[@]}" | sort -u | grep -vx -e root -e cmd); do
  line "$pkg"
done
line root
printf '%-14s %8d %8d %+7d\n' "internal+root" "$total_ref" "$total_tree" $((total_tree - total_ref))
line cmd

# The public surface is a cost too: exported symbols of package seep.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$ref" | tar -x -C "$tmp"
(cd "$tmp" && go doc -short .) > "$tmp/doc.ref"
go doc -short . > "$tmp/doc.tree"
sym_ref=$(wc -l < "$tmp/doc.ref")
sym_tree=$(wc -l < "$tmp/doc.tree")
printf '%-14s %8d %8d %+7d\n' "seep exported" "$sym_ref" "$sym_tree" $((sym_tree - sym_ref))
# Options are the part of that surface a user sets: the With* functions.
with_ref=$(grep -cE '^[[:space:]]*func With' "$tmp/doc.ref" || true)
with_tree=$(grep -cE '^[[:space:]]*func With' "$tmp/doc.tree" || true)
printf '%-14s %8d %8d %+7d\n' "With*" "$with_ref" "$with_tree" $((with_tree - with_ref))
