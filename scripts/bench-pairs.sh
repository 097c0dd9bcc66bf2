#!/bin/sh
# bench-pairs.sh — alternating parent/change pairs of `go run ./bench`.
#
# Builds ./bench twice into bin/: at BASE, from a temporary git worktree of
# the local history, and from the working tree as it stands. Then runs N
# pairs of one workload at one seed, alternating which side runs first, and
# prints one TSV line per run with the four bounded end-to-end metrics
# (BENCHMARK.json's end_to_end list) read off the run's summary line, then
# cpu_us_per_op and throughput_ops_s (unbounded, calibrated) read off the
# run's text lines.
#
#   BASE      commit to compare against (default: git merge-base main HEAD)
#   N         pairs to run (default 10)
#   WORKLOAD  bench workload (default batch_tpch)
#   SEED      bench -seed (default 3)
#
# Usage: make bench-pairs [BASE=<rev>] [N=10] [WORKLOAD=batch_tpch] [SEED=3]
#    or: BASE=<rev> N=3 scripts/bench-pairs.sh
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
BASE=${BASE:-$(git merge-base main HEAD)}
N=${N:-10}
WORKLOAD=${WORKLOAD:-batch_tpch}
SEED=${SEED:-3}

wt=$(mktemp -d)
trap 'git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"' EXIT
git worktree add --quiet --detach "$wt" "$BASE"
mkdir -p bin
(cd "$wt" && go build -o "$root/bin/bench-base" ./bench)
go build -o bin/bench-head ./bench

# metric NAME LINE prints NAME's value from a bench summary line
# ({"correct":…,"metrics":{"setup_s":{"value":…,"unit":"s"},…}}).
metric() {
	printf '%s\n' "$2" | sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# text NAME OUT prints NAME's value from the run's text line for it
# ("  cpu_us_per_op   9.11851 us   [q1 …, q3 …, n 40] raw …").
text() {
	printf '%s\n' "$2" | awk -v name="$1" '$1 == name { print $2; exit }'
}

# run PAIR SIDE runs one side once and prints its TSV line. A run that
# fails its own checks still prints its figures, with correct=false.
run() {
	out=$("bin/bench-$2" -workload "$WORKLOAD" -seed "$SEED" || true)
	line=$(printf '%s\n' "$out" | grep '^{"correct"' || true)
	correct=$(printf '%s\n' "$line" | sed -n 's/^{"correct":\([a-z]*\).*/\1/p')
	printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "${correct:-false}" \
		"$(metric setup_s "$line")" "$(metric allocs_per_op "$line")" \
		"$(metric alloc_kb_per_op "$line")" "$(metric est_err "$line")" \
		"$(text cpu_us_per_op "$out")" "$(text throughput_ops_s "$out")" "$WORKLOAD"
}

printf 'pair\tside\tcorrect\tsetup_s\tallocs_per_op\talloc_kb_per_op\test_err\tcpu_us_per_op\tthroughput_ops_s\tworkload\n'
i=1
while [ "$i" -le "$N" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run "$i" base
		run "$i" head
	else
		run "$i" head
		run "$i" base
	fi
	i=$((i + 1))
done
