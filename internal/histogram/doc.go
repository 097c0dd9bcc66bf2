// Package histogram implements the equi-width histograms with per-bucket
// distinct counts that the paper builds offline over table attributes
// (Section 3.1, citing Piatetsky-Shapiro & Connell for predicate
// selectivity and Bell et al. for the piece-wise-uniform join estimator of
// Eq. 5). Within a bucket, values are assumed uniformly distributed over
// the bucket's distinct values — the paper's "piece-wise uniform"
// assumption.
//
// Counts are float64: histograms double as *estimated* distributions that
// get scaled and filtered as statistics propagate along a query DAG, where
// fractional row masses are meaningful.
//
// Synthesize, Scale, Filter, Join and Rebucket never write their
// receiver: each cuts its result from the Arena it is given, or allocates
// it when that arena is nil. A histogram cut from an arena is valid until
// the arena's next Reset, so whoever owns the arena owns its histograms'
// lifetime: the estimator resets its arena when an estimate returns, and
// nothing it returns points into it; workload.Stats synthesizes the
// short-lived statistics of one corpus estimate into a pooled arena the
// same way, while a catalog that outlives its call (catalog.FromSchema)
// passes nil.
//
// Scale and NarrowedTotals compute a bucket's scaled form once per run of
// equal buckets — a synthesized uniform histogram is one bucket repeated —
// and reuse it for the rest of the run, which is exact: the step is a pure
// function of the bucket's bits and the factor.
package histogram
