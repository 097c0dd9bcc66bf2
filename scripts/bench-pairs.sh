#!/bin/sh
# bench-pairs.sh — alternating parent/change pairs of `go run ./bench`.
#
# Builds ./bench twice into bin/: at BASE, from a `git archive` export of
# the local history into a temporary directory, and from the working tree
# as it stands. Then runs N pairs of one workload at each seed, alternating
# which side runs first, and prints one TSV line per run with the four
# bounded end-to-end metrics (BENCHMARK.json's end_to_end list) read off the
# run's summary line, then cpu_us_per_op and throughput_ops_s (unbounded,
# calibrated) read off the run's text lines.
#
# After the runs it prints, per seed and bounded metric, what the claim
# rule (docs/MEASURING.md) is worked out from: each side's median and
# quartiles, the parent's interquartile spread, the gap between the
# medians, and how many pairs the change wins, ties and loses (lower is
# better for all four; a tie counts for neither side). It judges nothing.
#
#   BASE      commit to compare against (default: git merge-base main HEAD)
#   N         pairs to run per seed (default 10)
#   WORKLOAD  bench workload (default batch_tpch)
#   SEEDS     bench -seed values, one set of N pairs each (default: SEED)
#   SEED      the one seed when SEEDS is unset (default 3)
#
# Usage: make bench-pairs [BASE=<rev>] [N=10] [WORKLOAD=batch_tpch] [SEEDS="3 7"]
#    or: BASE=<rev> N=3 SEEDS="3 7" scripts/bench-pairs.sh
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
BASE=${BASE:-$(git merge-base main HEAD)}
N=${N:-10}
WORKLOAD=${WORKLOAD:-batch_tpch}
SEEDS=${SEEDS:-${SEED:-3}}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$BASE" | tar -x -C "$tmp/base"
mkdir -p bin
(cd "$tmp/base" && go build -o "$root/bin/bench-base" ./bench)
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

# run PAIR SIDE SEED runs one side once and prints its TSV line, keeping a
# copy for the summary. A run that fails its own checks still prints its
# figures, with correct=false.
run() {
	out=$("bin/bench-$2" -workload "$WORKLOAD" -seed "$3" || true)
	line=$(printf '%s\n' "$out" | grep '^{"correct"' || true)
	correct=$(printf '%s\n' "$line" | sed -n 's/^{"correct":\([a-z]*\).*/\1/p')
	printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "${correct:-false}" \
		"$(metric setup_s "$line")" "$(metric allocs_per_op "$line")" \
		"$(metric alloc_kb_per_op "$line")" "$(metric est_err "$line")" \
		"$(text cpu_us_per_op "$out")" "$(text throughput_ops_s "$out")" "$WORKLOAD" "$3" |
		tee -a "$tmp/rows.tsv"
}

printf 'pair\tside\tcorrect\tsetup_s\tallocs_per_op\talloc_kb_per_op\test_err\tcpu_us_per_op\tthroughput_ops_s\tworkload\tseed\n'
for seed in $SEEDS; do
	i=1
	while [ "$i" -le "$N" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run "$i" base "$seed"
			run "$i" head "$seed"
		else
			run "$i" head "$seed"
			run "$i" base "$seed"
		fi
		i=$((i + 1))
	done
done

# The summary: quartiles interpolate linearly between the sorted runs
# (position (n-1)p, counted from 0). A run with no value for a metric
# (a failed run) is left out of that metric's figures and pairs.
printf '\nseed\tmetric\tbase_median\tbase_q1\tbase_q3\thead_median\thead_q1\thead_q3\tbase_iqr\tmedian_gap\twins\tties\tlosses\n'
awk -F'\t' '
function sort(a, n,   i, j, v) {
	for (i = 1; i < n; i++) {
		v = a[i]
		for (j = i - 1; j >= 0 && a[j] > v; j--)
			a[j + 1] = a[j]
		a[j + 1] = v
	}
}
function quantile(a, n, p,   h, i) {
	h = (n - 1) * p
	i = int(h)
	return i + 1 < n ? a[i] + (h - i) * (a[i + 1] - a[i]) : a[i]
}
function quartiles(side, s, m,   a, n, k) {
	n = 0
	for (k = 1; k <= pairs[s]; k++)
		if ((s, m, k, side) in val)
			a[n++] = val[s, m, k, side]
	sort(a, n)
	q[side, 1] = quantile(a, n, 0.25)
	q[side, 2] = quantile(a, n, 0.5)
	q[side, 3] = quantile(a, n, 0.75)
}
BEGIN { split("setup_s allocs_per_op alloc_kb_per_op est_err", names, " ") }
{
	if (!($11 in seen)) {
		seen[$11] = 1
		order[nseeds++] = $11
	}
	if ($1 > pairs[$11])
		pairs[$11] = $1
	for (m = 1; m <= 4; m++)
		if ($(m + 3) != "")
			val[$11, m, $1, $2] = $(m + 3) + 0
}
END {
	for (i = 0; i < nseeds; i++) {
		s = order[i]
		for (m = 1; m <= 4; m++) {
			quartiles("base", s, m)
			quartiles("head", s, m)
			w = t = l = 0
			for (k = 1; k <= pairs[s]; k++) {
				if (!((s, m, k, "base") in val) || !((s, m, k, "head") in val))
					continue
				b = val[s, m, k, "base"]
				h = val[s, m, k, "head"]
				if (h < b) w++
				else if (h == b) t++
				else l++
			}
			gap = q["head", 2] - q["base", 2]
			printf "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%d\t%d\n", s, names[m],
				q["base", 2], q["base", 1], q["base", 3], q["head", 2], q["head", 1], q["head", 3],
				q["base", 3] - q["base", 1], gap < 0 ? -gap : gap, w, t, l
		}
	}
}' "$tmp/rows.tsv"
