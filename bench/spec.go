package main

import (
	"math"
	"slices"
)

// metricSpec names one metric with its unit and direction; BENCHMARK.json
// at the repository root repeats these tables (TestBenchmarkJSONAgrees
// keeps the two in step).
type metricSpec struct {
	name, unit, better string
}

// Every untraced run measures and prints nine end-to-end figures. Four
// of them repeat between runs of the same code to well within a
// regression bound of a tenth or less, and BENCHMARK.json bounds them:
// endToEnd. The other five — the four timings and the resident set — do
// not on the reference machine (README.md, "Measured"), so they carry no
// bound and BENCHMARK.json lists them first among the per-layer metrics:
// unbounded.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"est_err", "ratio", "lower"},
}

var unbounded = []metricSpec{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_tail_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// stageNames are the ten stage timings that also get a <stage>_share
// metric (stage self time ÷ request time).
var stageNames = []string{
	"query.parse", "query.normalize", "query.resolve", "plan.compile",
	"selectivity.estimate", "predict.score", "cluster.build",
	"cluster.simulate", "learn.observe", "serve.overhead",
}

// tpchNames are the canonical queries batch_tpch runs, in pass order.
var tpchNames = []string{"q1", "q3", "q6", "q11", "q14", "q17", "q19"}

// perLayer lists the metrics without a bound, reported by every workload
// on a traced run: the unbounded end-to-end figures, then the 66 of single
// layers; a layer the workload does not touch reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := slices.Clone(unbounded)
	m = append(m,
		metricSpec{"query.parse_us", "us", "lower"},
		metricSpec{"query.normalize_us", "us", "lower"},
		metricSpec{"query.resolve_us", "us", "lower"},
		metricSpec{"plan.compile_us", "us", "lower"},
		metricSpec{"plan.jobs_per_query", "count", "lower"},
		metricSpec{"selectivity.estimate_us", "us", "lower"},
		metricSpec{"selectivity.is_abs_err", "ratio", "lower"},
		metricSpec{"selectivity.fs_abs_err", "ratio", "lower"},
		metricSpec{"predict.score_us", "us", "lower"},
		metricSpec{"predict.fit_s", "s", "lower"},
		metricSpec{"cluster.build_us", "us", "lower"},
		metricSpec{"cluster.simulate_us", "us", "lower"},
		metricSpec{"cluster.tasks_per_query", "count", "lower"},
		metricSpec{"cluster.simulate_ns_per_task", "ns", "lower"},
		metricSpec{"serve.submit_us", "us", "lower"},
		metricSpec{"serve.wait_us", "us", "lower"},
		metricSpec{"serve.overhead_us", "us", "lower"},
		metricSpec{"serve.cache_hit_rate", "ratio", "higher"},
		metricSpec{"serve.cache_evictions_per_op", "count", "lower"},
		metricSpec{"serve.queue_depth_p50", "count", "lower"},
		metricSpec{"learn.observe_us", "us", "lower"},
		metricSpec{"learn.promotions", "count", "higher"},
		metricSpec{"learn.model_version", "count", "higher"},
		metricSpec{"net.submit_rtt_us", "us", "lower"},
		metricSpec{"net.wait_rtt_us", "us", "lower"},
		metricSpec{"net.explain_rtt_us", "us", "lower"},
		metricSpec{"net.stats_rtt_us", "us", "lower"},
		metricSpec{"net.overhead_us", "us", "lower"},
		metricSpec{"net.busy_refusals", "count", "lower"},
		metricSpec{"proto.encode_ns", "ns", "lower"},
		metricSpec{"proto.decode_ns", "ns", "lower"},
		metricSpec{"dataset.generate_s", "s", "lower"},
		metricSpec{"dataset.rows", "count", "higher"},
		metricSpec{"catalog.collect_s", "s", "lower"},
		metricSpec{"catalog.collect_rows_per_s", "1/s", "higher"},
		metricSpec{"catalog.from_schemas_us", "us", "lower"},
	)
	for _, q := range tpchNames {
		m = append(m, metricSpec{"mapreduce.run_ms." + q, "ms", "lower"})
	}
	m = append(m,
		metricSpec{"mapreduce.in_rows_per_s", "1/s", "higher"},
		metricSpec{"mapreduce.allocs_per_query", "count", "lower"},
		metricSpec{"mapreduce.alloc_mb_per_query", "MB", "lower"},
		metricSpec{"mapreduce.med_rows", "count", "lower"},
		metricSpec{"mapreduce.out_rows", "count", "lower"},
		metricSpec{"obs.metrics_text_us", "us", "lower"},
		metricSpec{"go.gc_cycles_per_kop", "count", "lower"},
		metricSpec{"go.gc_pause_ms_per_s", "ms/s", "lower"},
		metricSpec{"go.heap_live_mb", "MB", "lower"},
		metricSpec{"bench.calib_us", "us", "lower"},
		metricSpec{"bench.calib_spread", "ratio", "lower"},
		metricSpec{"bench.round_spread", "ratio", "lower"},
		metricSpec{"bench.trace_overhead", "ratio", "lower"},
	)
	for _, s := range stageNames {
		m = append(m, metricSpec{s + "_share", "ratio", "lower"})
	}
	return m
}

// workloadSpec names one workload and why it was chosen.
type workloadSpec struct {
	name, why string
	// setups and rounds are the repeated set-ups and the timed rounds of a
	// defaultSeconds run: fixed work that takes about that long, reference
	// runs included, on the reference machine — about half of it in
	// set-ups, because setup_s carries a bound and a single set-up is
	// ±15 % from one repetition to the next.
	setups, rounds int
	run            func(runConfig) (*result, error)
}

// workFor returns the set-ups and timed rounds of a run asked to measure
// for seconds: work in proportion, never a time box, so the ops a run
// executes do not depend on how fast the machine happens to be.
func (w workloadSpec) workFor(seconds float64) (setups, rounds int) {
	scale := func(n int) int { return int(math.Round(float64(n) * seconds / defaultSeconds)) }
	return max(minSetups, scale(w.setups)), max(countRounds, scale(w.rounds))
}

// workloads lists the four workloads in run order.
var workloads = []workloadSpec{
	{"serve_hot", "7 TPC-H texts round-robin, plan-cache hit rate 1: parse/normalize, simulator build+run and queue hand-off do all the work; compiler, estimator and predictor do none", 40, 40, runServeHot},
	{"serve_cold", "4096 distinct generated texts cycled against the 256-entry cache, hit rate 0 and one eviction per op: resolve, compile, estimate, WRD scoring and cache insert/evict dominate", 40, 36, runServeCold},
	{"net_mixed", "loopback wire protocol, Zipf(1.1) over the same 4096 texts, online learning and observer on, EXPLAIN and STATS mixed in: the only path through net, proto, learn and obs", 40, 32, runNetMixed},
	{"batch_tpch", "no server: generate SF 0.01 data, collect a catalog, run the 7 TPC-H DAGs on the row engine; the only workload touching dataset, catalog.Collect and mapreduce, with a large set-up", 30, 40, runBatchTPCH},
}

// workloadByName returns the named workload's spec.
func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
