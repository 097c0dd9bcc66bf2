GO  ?= go
BIN := bin

.PHONY: all build test race lint fuzz-smoke stress cover-serve bench bench-pairs exp-diff lines ci clean

all: build

build:
	$(GO) build ./...

# gofmt (lists unformatted files and fails if there are any), stock go vet,
# then the saqpvet gate: TestRepositoryIsClean in
# internal/analysis/self_test.go (docs/ANALYSIS.md), beside the analyzers' fixtures
# and the export census, TestInternalExportsHaveProductCallers in
# internal/analysis/census_test.go (every exported internal function has a
# non-test caller or a kept reason).
lint:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"
	$(GO) vet ./...
	$(GO) test -count=1 ./internal/analysis/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A short native-fuzzing burst over the full compile→estimate→execute
# stack, the randomized estimator-vs-engine agreement test, the
# wire-protocol decoder (no panics, no over-reads, byte-exact
# re-encoding of every accepted frame), the query normalizer (every
# accepted text renders to a text that parses and renders to itself), and
# the serving miss path (typed refusals, the task bound, allocation
# linear in the text, estimates independent of the pooled scratch).
fuzz-smoke:
	$(GO) test -run TestRandomQueriesEstimatorVsEngine -count=1 ./internal/mapreduce
	$(GO) test -fuzz FuzzEngineQuery -fuzztime 10s -run '^$$' ./internal/mapreduce
	$(GO) test -fuzz FuzzProtocolDecode -fuzztime 10s -run '^$$' ./internal/net/proto
	$(GO) test -fuzz FuzzNormalize -fuzztime 10s -run '^$$' ./internal/query
	$(GO) test -fuzz FuzzSubmit -fuzztime 10s -run '^$$' ./internal/serve

# Concurrency stress: the serving-layer and network-frontend stress/
# property suites under the race detector, run twice to vary goroutine
# interleavings (includes the 64-connection TCP stress test and the
# real-engine drain test at the root, the connection-lifecycle suite in
# internal/net with its drain-versus-quiet-clients race, the plan
# cache's text-tier invariant and single-flight suites, the
# reused-simulator equivalence test, the job-counters-equal-scans test
# beside it, the batch engine, whose tasks run on internal/par's pool and
# whose digest must read the same at GOMAXPROCS 1 and 8, and the
# column-parallel dataset.Generate and catalog.Collect, whose values and
# encoded catalog must read the same at GOMAXPROCS 1 and 8, the
# metrics registry, whose counts must stay exact while its exports read,
# internal/par's own pool tests, and workload.RunStandalone, whose pooled
# runners pass from goroutine to goroutine and must leave a run's record
# the same whatever ran on them before).
stress:
	$(GO) test -race -count=2 -run 'TestServer|TestNetShutdown|TestProperty|TestSingleFlight|TestDeterministicSnapshots|TestSimReuse|TestSimCounters|TestEngine|ScheduleIndependent|TestRegistryConcurrent|TestFor|TestRunStandalone' \
		. ./internal/serve ./internal/selectivity ./internal/net ./internal/cluster ./internal/mapreduce \
		./internal/dataset ./internal/catalog ./internal/obs ./internal/par ./internal/workload

# Coverage gate for the serving engine: fail if internal/serve drops
# below 85% statement coverage.
SERVE_COVER_FLOOR := 85.0
cover-serve:
	@mkdir -p $(BIN)
	@$(GO) test -coverprofile=$(BIN)/serve.cover ./internal/serve > /dev/null
	@pct=$$($(GO) tool cover -func=$(BIN)/serve.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/serve statement coverage: $$pct% (floor $(SERVE_COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(SERVE_COVER_FLOOR)" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage below floor"; exit 1; }

# Regenerate the paper's tables and figures plus the deterministic
# fault and online-learning replays and the design-choice ablations with
# full observability:
# machine-readable BENCH_<exp>.json per experiment, a Perfetto-loadable
# trace of the simulated runs (gzipped; Perfetto opens .json.gz
# directly), and a Prometheus metrics dump, all under bench-out/. Its
# fig8 row is the instrumented scheduler comparison a separate
# `scheduler-comparison` target used to run; that the trace is valid JSON
# is asserted by `go test ./cmd/benchrunner` (TestGoldenQ60), which also
# pins every CSV and report this target writes at 60 queries.
BENCH_QUERIES ?= 240
bench:
	@mkdir -p bench-out
	$(GO) run ./cmd/benchrunner -exp all -queries $(BENCH_QUERIES) \
		-bench-out bench-out -csv bench-out \
		-trace bench-out/runs.trace.json -metrics bench-out/metrics.prom
	gzip -f -9 bench-out/runs.trace.json

# Paired timings of the benchmark of record: builds ./bench at BASE (default:
# the merge base with main) and from the working tree into bin/, then runs
# N alternating pairs of each of WORKLOADS (default: WORKLOAD) at each of
# SEEDS (default: SEED) and prints one TSV line per run with the four
# bounded end-to-end metrics, cpu_us_per_op, throughput_ops_s and the
# per-layer peak_rss_mb, predict.fit_s (on the serving workloads) and
# dataset.generate_s, catalog.collect_s, mapreduce.alloc_mb_per_query,
# mapreduce.allocs_per_query and mapreduce.in_rows_per_s (on batch_tpch),
# then each metric's medians, quartiles and pair wins per workload and seed
# (higher is better for throughput_ops_s and mapreduce.in_rows_per_s). Not
# part of ci: a pair takes about a minute.
bench-pairs:
	BASE='$(BASE)' N='$(N)' WORKLOADS='$(WORKLOADS)' WORKLOAD='$(WORKLOAD)' SEED='$(SEED)' SEEDS='$(SEEDS)' scripts/bench-pairs.sh

# Did any experiment move? (scripts/exp-diff.sh): builds ./cmd/benchrunner
# at BASE (bench-pairs' convention) and from the working tree into bin/,
# runs `-exp all -queries QUERIES` (default 240) on both at each of SEEDS
# (default: 2018 1 2 3 4 5) with -csv, -metrics and -bench-out set, and
# compares stdout, every CSV, the metrics dump and every BENCH_<exp>.json
# (wall_seconds aside; the trace is left out); prints `identical` or the
# first differing lines per seed, and any difference fails it. Not part of
# ci: it needs a BASE.
exp-diff:
	BASE='$(BASE)' QUERIES='$(QUERIES)' SEEDS='$(SEEDS)' scripts/exp-diff.sh

# Line counts for a CHANGES.md entry (scripts/lines.sh): non-test Go outside
# bench/ without and with the analyzers' testdata fixtures, bench/, and test
# Go outside bench/, in the working tree or at REV. Not part of ci: it
# checks nothing.
lines:
	scripts/lines.sh $(REV)

# Everything CI runs, in the same order: .github/workflows/ci.yml is one
# `make <target>` step per name here.
ci: build lint test race fuzz-smoke stress cover-serve bench

clean:
	rm -rf $(BIN) bench-out
