// Package cluster is a discrete-event simulator of a Hadoop 1.x cluster:
// nodes with fixed container slots execute the map and reduce tasks of
// MapReduce jobs, jobs belong to queries compiled as chains and are
// submitted when the job before them completes (Hive's JobListener
// behaviour, paper Section 2.2), and a pluggable Scheduler decides which
// pending task each freed container runs next.
//
// The simulator replaces the paper's physical 9-node testbed. Task
// durations come from the hidden trace.CostModel; per-task predicted times
// (from the paper's multivariate model) ride along so semantics-aware
// schedulers can compute Weighted Resource Demand without seeing the
// ground truth.
//
// Events pop in (time, seq) order from a binary heap of 24-byte,
// pointer-free keys over a store of the events themselves: a sift moves
// only keys, so it passes no write barrier and the collector has no heap to
// scan, and an event stays in its store slot until it pops, when the slot
// is zeroed and reused.
package cluster
