package analysis

// DeterministicPackages is the single declared list of packages under
// the simulator's bit-for-bit reproducibility contract: no wall-clock
// reads, no global randomness, no map-iteration-ordered output. The
// determinism analyzer's Scope and the loader-driven self-tests both
// consume this list, so a package cannot be in scope for one and
// silently fall out of the other; the self-test additionally checks
// the list against SeededCorePackages' import graph, so a new
// internal package that builds on the seeded core cannot dodge the
// contract by simply not being listed.
var DeterministicPackages = []string{
	"saqp/internal/sim",
	"saqp/internal/cluster",
	"saqp/internal/sched",
	"saqp/internal/mapreduce",
	"saqp/internal/workload",
	// The observability layer promises byte-identical traces, metrics
	// and drift snapshots for a fixed seed; a wall-clock timestamp or
	// map-ordered serialisation would break that silently.
	"saqp/internal/obs",
	// The serving engine promises that identical seeds submitted in
	// serialized order reproduce byte-identical metrics and drift
	// snapshots; wall-clock deadlines arrive on the caller's ctx, from
	// outside this scope, precisely so the engine itself stays clock-free.
	"saqp/internal/serve",
	// Fault plans promise byte-identical expansion and failure
	// decisions for equal specs; any entropy here would break the
	// seeded-replay guarantee.
	"saqp/internal/fault",
	// The model-lifecycle subsystem promises that promotion sequences
	// are functions of the observed sample stream alone — versions,
	// thresholds and error windows all count samples, never the clock,
	// and per-operator iteration only ever fills a map.
	"saqp/internal/learn",
	// The regression itself: batch fit ≡ online learner is a bit-identity
	// (one accumulator fed one stream), and Tables 3–5, Fig. 6/7, the
	// learning replay and every saved bundle are pinned to the digit, so
	// a fit must not depend on the order a map happens to yield operators.
	"saqp/internal/predict",
	// The wire codec promises that every accepted frame re-encodes
	// byte-identically (the fuzzer's round-trip property) and that
	// golden transcripts stay byte-stable; a clock or map-ordered
	// field anywhere in encode/decode would break both. The
	// connection loop above it (internal/net) is deliberately NOT
	// listed: deadlines and accept scheduling are wall-clock by
	// nature, and the boundary keeps that entropy out of the codec.
	"saqp/internal/net/proto",
	// Shared substrate of the seeded core: values, traces and numeric
	// helpers feed directly into simulated execution, so entropy here
	// would surface as nondeterministic schedules downstream.
	"saqp/internal/dataset",
	"saqp/internal/trace",
	"saqp/internal/core",
	// Collected statistics feed the pinned estimator digests (and the
	// catalog fingerprint every plan-cache key carries), and Collect
	// summarises columns on parallel workers: its output must not depend
	// on the schedule or on the order a map yields its counts.
	"saqp/internal/catalog",
	// The experiment drivers: every -exp row is pinned byte for byte in
	// cmd/benchrunner's golden_q60, so no clock reads, no map-order rows.
	"saqp/internal/repro",
}

// SeededCorePackages are the packages whose import marks a consumer as
// part of the seeded execution core: importing any of them means the
// importer's outputs feed (or derive from) seeded simulation, so it
// belongs in DeterministicPackages. The self-test enforces exactly
// that implication for every saqp/internal package.
var SeededCorePackages = []string{
	"saqp/internal/sim",
	"saqp/internal/cluster",
	"saqp/internal/sched",
	"saqp/internal/mapreduce",
	"saqp/internal/fault",
	"saqp/internal/workload",
}
