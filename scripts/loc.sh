#!/usr/bin/env bash
# Code size as a recorded number: non-test, non-blank, non-comment-only Go
# and Go assembly lines per package directory and in total, one
# "<dir> <lines>" row each, sorted by directory, with a final "total <lines>"
# row. Test files (*_test.go) and hidden directories (build caches) are
# skipped; a line of a .go or .s file counts unless it is empty or holds
# nothing but a // comment.
# scripts/bench_record.sh embeds the output in BENCH_serve.json.
#
#   scripts/loc.sh                      # every package
#   scripts/loc.sh | grep -E '^(internal/serve|total) '
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

total=0
while IFS= read -r dir; do
  n=0
  for f in "$dir"/*.go "$dir"/*.s; do
    case "$f" in *_test.go | *'/*.go' | *'/*.s') continue ;; esac
    # grep -c exits 1 on a count of zero (a comment-only file) but still
    # prints the 0.
    n=$((n + $(grep -vcE '^\s*(//.*)?$' "$f" || true)))
  done
  printf '%s %d\n' "${dir#./}" "$n"
  total=$((total + n))
done < <(find . -type f \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path '*/.*' -exec dirname {} + | sort -u)
printf 'total %d\n' "$total"
