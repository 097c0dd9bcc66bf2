// Package core implements the paper's cross-layer semantics percolation
// (Section 2.2): the bridge that carries query-level semantics from the
// Hive-style compiler down to the Hadoop-style scheduler.
//
// In stock Hive/Hadoop, a job arrives at the scheduler as an opaque unit —
// "all the query-level semantics are lost when Hadoop receives a job from
// Hive". Percolation attaches, to every job submitted for execution:
//
//   - the query DAG and inter-job dependencies,
//   - the estimated data flow (D_in/D_med/D_out from Section 3), and
//   - per-task predicted times from the multivariate model (Section 4),
//     from which the scheduler computes Weighted Resource Demand (Eq. 10).
//
// The scheduler-visible predictions are always derived from the
// *estimator's* statistics — never from ground truth — so scheduling
// quality inherits both selectivity-estimation error and time-model error,
// as it would in a real deployment.
//
// The way back up is RecordJobDrift: each finished job's predicted time
// against the time it took, for the serving engine, the facade's
// SimulateQueryConfig and the replays alike.
package core
