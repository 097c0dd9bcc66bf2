// Package selectivity implements the paper's semantics-aware selectivity
// estimation (Section 3): per-job Intermediate Selectivity (IS = D_med/D_in)
// and Final Selectivity (FS = D_out/D_in) for the Extract, Groupby and Join
// job categories, including
//
//   - predicate selectivity S_pred from equi-width histograms,
//   - projection selectivity S_proj from column widths,
//   - combine selectivity S_comb for Groupby (Eq. 2, clustered vs random),
//   - join input mixing (Eq. 3) and the join balance ratio P (Eq. 7),
//   - piece-wise-uniform join cardinality (Eq. 5),
//
// and the propagation of data statistics along a query DAG so that a job's
// estimates feed its downstream jobs. Eq. 6, the cardinality of a PK–FK
// natural-join chain with accumulated predicates, is not evaluated on its
// own: Eq. 5 per join with the predicates relayed along the chain
// reproduces it, and TestEstimatorJoinChainsFollowEq6 holds the estimator
// to it as the reference.
package selectivity
