#!/bin/sh
# exp-diff.sh — do the paper's experiments print the same at BASE and in
# the working tree?
#
# Builds ./cmd/benchrunner twice into bin/: at BASE, from a `git archive`
# export of the local history into a temporary directory, and from the
# working tree as it stands. Then runs `-exp all -queries QUERIES -seed S`
# on both for each S in SEEDS and compares their standard output byte for
# byte: one line per seed, `identical`, or `differs` followed by the first
# differing lines of a unified diff (base first). Exits 1 if any seed
# differs or a run fails, 0 otherwise.
#
#   BASE     commit to compare against (default: git merge-base main HEAD)
#   QUERIES  benchrunner -queries (default 240)
#   SEEDS    benchrunner -seed values (default: 2018 1 2 3 4 5)
#
# Usage: make exp-diff [BASE=<rev>] [QUERIES=240] [SEEDS="2018 1 2 3 4 5"]
#    or: BASE=<rev> QUERIES=1000 SEEDS=2018 scripts/exp-diff.sh
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
BASE=${BASE:-$(git merge-base main HEAD)}
QUERIES=${QUERIES:-240}
SEEDS=${SEEDS:-2018 1 2 3 4 5}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$BASE" | tar -x -C "$tmp/base"
mkdir -p bin
(cd "$tmp/base" && go build -o "$root/bin/benchrunner-base" ./cmd/benchrunner)
go build -o bin/benchrunner-head ./cmd/benchrunner

status=0
for seed in $SEEDS; do
	for side in base head; do
		if ! "bin/benchrunner-$side" -exp all -queries "$QUERIES" -seed "$seed" >"$tmp/$side.out" 2>"$tmp/$side.err"; then
			printf 'seed %s: the %s run failed\n' "$seed" "$side"
			head -n 20 "$tmp/$side.err"
			status=1
			continue 2
		fi
	done
	if cmp -s "$tmp/base.out" "$tmp/head.out"; then
		printf 'seed %s: identical\n' "$seed"
	else
		printf 'seed %s: differs\n' "$seed"
		diff -u "$tmp/base.out" "$tmp/head.out" | sed -n '3,40p'
		status=1
	fi
done
exit "$status"
