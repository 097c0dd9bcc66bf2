// Package serve is the concurrent query-serving engine over the paper's
// prediction stack: many goroutines submit HiveQL text, the engine
// deduplicates compile+estimate work through a bounded single-flight LRU
// cache (keyed by normalized SQL + catalog fingerprint; a text seen
// before skips the parse through an exact-text memo of that key), ranks
// admitted queries by Weighted Resource Demand (paper Eq. 10) into an
// SWRD admission queue, and dispatches them onto a pool of workers, each
// re-running one cluster simulator it owns. Submissions are cancellable
// via context.Context — a canceled query is skipped if still queued and
// aborted mid-run if already on a simulator — and Close drains
// gracefully: queued work completes, then the pool exits.
//
// Keeping prediction on the hot admission path is the point (cf. Wu et
// al. on query-time prediction and Rizvandi et al. on MapReduce CPU
// regression): every admission decision consumes the semantics-aware
// estimate, so the estimate must be cached and the models must be safe
// under concurrent readers. The fitted models and the catalog are
// immutable after construction, so the engine shares them across the
// pool without locks; all mutable state (cache, queue, counters) is
// guarded here.
//
// The engine is deterministic modulo goroutine interleaving: each
// query's simulated run depends only on its submission seed, and every
// metric recorded is a count or a simulated duration. Identical seeds
// submitted in serialized order therefore reproduce byte-identical
// metrics and drift snapshots (the package is in the determinism
// analyzer's scope — no wall clock, no global RNG, no map-ordered
// output).
package serve
