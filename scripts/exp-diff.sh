#!/bin/sh
# exp-diff.sh — do the paper's experiments write the same at BASE and in
# the working tree?
#
# Builds ./cmd/benchrunner twice into bin/: at BASE, from a `git archive`
# export of the local history into a temporary directory, and from the
# working tree as it stands. Then runs
#
#   -exp all -queries QUERIES -seed S -csv out -metrics out/metrics.prom -bench-out out
#
# on both for each S in SEEDS, each side from its own directory so that
# every path the run prints is the same relative path. It compares
# everything the two runs wrote: standard output, every CSV, the
# Prometheus dump and every BENCH_<exp>.json with its wall_seconds
# zeroed, the one field that is a wall-clock time. The CSVs matter on
# their own: standard output rounds most figures (fig6 to 0.1 s) where the
# CSVs carry four decimals. The trace (-trace) stays out: it is over
# 100 MB per run at 240 queries, and cmd/benchrunner's TestGoldenQ60 pins
# its shape. Prints one line per seed, `identical`, or `differs` followed
# by the first lines of a recursive unified diff (base first). Exits 1 if
# any seed differs or a run fails, 0 otherwise.
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
mkdir "$tmp/src"
git archive "$BASE" | tar -x -C "$tmp/src"
mkdir -p bin
(cd "$tmp/src" && go build -o "$root/bin/benchrunner-base" ./cmd/benchrunner)
go build -o bin/benchrunner-head ./cmd/benchrunner

status=0
for seed in $SEEDS; do
	for side in base head; do
		rm -rf "$tmp/$side"
		mkdir "$tmp/$side"
		if ! (cd "$tmp/$side" && "$root/bin/benchrunner-$side" -exp all -queries "$QUERIES" -seed "$seed" \
			-csv out -metrics out/metrics.prom -bench-out out >stdout 2>"$tmp/$side.err"); then
			printf 'seed %s: the %s run failed\n' "$seed" "$side"
			head -n 20 "$tmp/$side.err"
			status=1
			continue 2
		fi
		for f in "$tmp/$side"/out/BENCH_*.json; do
			sed 's/"wall_seconds": [0-9.e+-]*/"wall_seconds": 0/' "$f" >"$f.tmp"
			mv "$f.tmp" "$f"
		done
	done
	if diff -r "$tmp/base" "$tmp/head" >/dev/null; then
		printf 'seed %s: identical\n' "$seed"
	else
		printf 'seed %s: differs\n' "$seed"
		(cd "$tmp" && diff -ru base head | sed -n '1,40p')
		status=1
	fi
done
exit "$status"
