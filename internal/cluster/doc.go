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
// A Lone runs one estimate alone. A serving lane embeds one; the corpus and
// the facade's SimulateQuery take theirs from the package pool.
//
// A task leaves TaskRunning only through finish, which completes the
// attempt, or vacate, which ends it unfinished (preemption, a transient
// failure, a node crash, an abandoned query) and returns its slot, or
// withholds it while the node is down or blacklisted. Both bump the
// task's epoch, so any event still booked for the attempt is stale when it
// pops. A hoarder is a running reduce of a job whose maps are not done: it
// holds its slot with no finish booked until its job's last map finishes.
// The simulator counts hoarders for the hoarding caps but lists none.
//
// Events pop in (time, seq) order from a binary heap of 24-byte,
// pointer-free keys over a store of the events themselves: a sift moves
// only keys, so it passes no write barrier and the collector has no heap to
// scan, and an event stays in its store slot until it pops, when the slot
// is zeroed and reused.
package cluster
