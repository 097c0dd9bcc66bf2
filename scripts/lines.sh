#!/bin/sh
# lines.sh — the line counts a change reports in CHANGES.md.
#
# Prints four counts of Go source lines, at REV or, without one, in the
# working tree (untracked files included, ignored ones not):
#
#   go        non-test Go outside bench/, without testdata fixtures
#   go+fix    the same with the fixtures (internal/analysis/*/testdata)
#   bench     non-test Go under bench/
#   test      _test.go files outside bench/
#
# Usage: make lines [REV=<rev>]
#    or: scripts/lines.sh [<rev>]
set -eu

cd "$(git rev-parse --show-toplevel)"
REV=${1:-}

# count <pathspec>... sums the lines of the matching files.
count() {
	if [ -n "$REV" ]; then
		out=$(git grep -c '' "$REV" -- "$@")
	else
		out=$(git grep --untracked -c '' -- "$@")
	fi
	printf '%s\n' "$out" | awk -F: '{ n += $NF } END { print n }'
}

go=$(count '*.go' ':!*_test.go' ':!bench/' ':!*/testdata/*')
fix=$(count '*.go' ':!*_test.go' ':!bench/')
bench=$(count 'bench/*.go' ':!*_test.go')
test=$(count '*_test.go' ':!bench/')
printf 'go\t%s\ngo+fix\t%s\nbench\t%s\ntest\t%s\n' "$go" "$fix" "$bench" "$test"
