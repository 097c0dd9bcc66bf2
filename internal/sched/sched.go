package sched

import (
	"fmt"
	"strings"

	"saqp/internal/cluster"
	"saqp/internal/sim"
)

// Names returns every registered policy name, in the order the paper's
// evaluation presents them. ByName accepts exactly this set.
func Names() []string { return []string{"HCS", "HFS", "SWRD"} }

// ByName returns the registered policy for name. HCS resolves to the
// stock single-queue capacity configuration the paper's motivation
// experiment exhibits (multi-queue HCS remains available as
// HCS{Queues: n} for ablations). Unknown names produce an error that
// enumerates the valid policies.
func ByName(name string) (cluster.Scheduler, error) {
	switch name {
	case "HCS":
		return HCS{}, nil
	case "HFS":
		return HFS{}, nil
	case "SWRD":
		return SWRD{}, nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (valid schedulers: %s)",
		name, strings.Join(Names(), ", "))
}

// HCS is the capacity scheduler: per-queue FIFO with elastic shares.
// Queues <= 1 degenerates to a single FIFO queue.
type HCS struct {
	// Queues is the number of capacity queues (Hadoop deployments
	// typically configured one per team); queries hash onto queues.
	Queues int
}

// Name implements cluster.Scheduler.
func (h HCS) Name() string { return "HCS" }

// queueOf hashes a job's query onto one of n > 1 queues (FNV-1a 32).
func queueOf(j *cluster.Job, n int) int {
	return int(sim.FNV32a(j.Query.ID)) % n
}

// PickJob serves the most under-served queue that has a candidate, FIFO
// within the queue. With one queue that is plain FIFO.
func (h HCS) PickJob(_ float64, cands, active []*cluster.Job, _ bool) *cluster.Job {
	if h.Queues <= 1 {
		return fifo(cands)
	}
	// Usage per queue over all active jobs (running tasks occupy slots).
	usage := map[int]int{}
	for _, j := range active {
		usage[queueOf(j, h.Queues)] += j.RunningTasks()
	}
	// The least-used queue holding a candidate (ties: lowest queue index),
	// FIFO within it: the first candidate minimising (usage, queue,
	// submit time).
	var best *cluster.Job
	bestQueue := 0
	for _, j := range cands {
		q := queueOf(j, h.Queues)
		if best == nil || usage[q] < usage[bestQueue] ||
			usage[q] == usage[bestQueue] && (q < bestQueue || q == bestQueue && j.SubmitTime < best.SubmitTime) {
			best, bestQueue = j, q
		}
	}
	return best
}

// fifo returns the earliest-submitted candidate, the first on ties.
func fifo(cands []*cluster.Job) *cluster.Job {
	var best *cluster.Job
	for _, j := range cands {
		if best == nil || j.SubmitTime < best.SubmitTime {
			best = j
		}
	}
	return best
}

// HFS is the fair scheduler: serve the candidate with the fewest running
// tasks, so slot shares equalise across active jobs.
type HFS struct{}

// Name implements cluster.Scheduler.
func (HFS) Name() string { return "HFS" }

// PickJob returns the candidate with the smallest running-task count.
func (HFS) PickJob(_ float64, cands, _ []*cluster.Job, _ bool) *cluster.Job {
	var best *cluster.Job
	bestRunning := 0
	for _, j := range cands {
		r := j.RunningTasks()
		if best == nil || r < bestRunning ||
			(r == bestRunning && j.SubmitTime < best.SubmitTime) {
			best = j
			bestRunning = r
		}
	}
	return best
}

// SWRD is the paper's Smallest-WRD-first query scheduler: all slots go to
// the query with the smallest remaining Weighted Resource Demand. Ties
// break by arrival time so equal queries retain FIFO fairness. A query is a
// chain whose next job is submitted when the one before it completes, so a
// query has at most one candidate and ranking jobs ranks their queries.
type SWRD struct{}

// Name implements cluster.Scheduler.
func (SWRD) Name() string { return "SWRD" }

// PickJob selects the candidate whose query has the smallest (remaining
// WRD, arrival time), the first on ties.
func (SWRD) PickJob(_ float64, cands, _ []*cluster.Job, _ bool) *cluster.Job {
	var best *cluster.Job
	for _, j := range cands {
		q := j.Query
		if best == nil ||
			q.RemainingWRD() < best.Query.RemainingWRD() ||
			(q.RemainingWRD() == best.Query.RemainingWRD() && q.ArrivalTime < best.Query.ArrivalTime) {
			best = j
		}
	}
	return best
}

var (
	_ cluster.Scheduler = HCS{}
	_ cluster.Scheduler = HFS{}
	_ cluster.Scheduler = SWRD{}
)
