package cluster

// Fault-recovery machinery for the simulator: transient task failures with
// capped re-execution and deterministic backoff, node crashes with timed
// recovery, and blacklisting of nodes that host repeated failures — the
// Hadoop 1.x JobTracker behaviours (mapred.map.max.attempts,
// mapred.max.tracker.failures, heartbeat-loss expiry) driven by an
// internal/fault.Plan. All of it is dormant when Config.Faults is nil: its
// event kinds are never scheduled, so a fault-free run is byte-identical to
// the pre-fault simulator.

import (
	"fmt"

	"saqp/internal/obs"
)

// TaskFailedError reports a query abandoned because one task exhausted its
// attempt cap under fault injection. It is carried on Query.Err and
// surfaces through the serving layer's Ticket.Wait.
type TaskFailedError struct {
	Query    string
	Job      string
	Reduce   bool
	Index    int
	Attempts int
}

// Error formats the failure with its full task identity.
func (e *TaskFailedError) Error() string {
	phase := "map"
	if e.Reduce {
		phase = "reduce"
	}
	return fmt.Sprintf("cluster: query %s failed: %s %s task %d exhausted %d attempts",
		e.Query, e.Job, phase, e.Index, e.Attempts)
}

// FaultStats tallies injected-fault recovery activity over one run. The
// JSON names are BENCH_fault.json's.
type FaultStats struct {
	// TaskFailures counts transient attempt failures (FAILED attempts).
	TaskFailures int `json:"task_failures"`
	// TaskRetries counts task re-executions scheduled after a failure or
	// crash kill (KILLED attempts re-queue immediately).
	TaskRetries int `json:"task_retries"`
	// NodeCrashes and NodeRecoveries count outage windows applied.
	NodeCrashes    int `json:"node_crashes"`
	NodeRecoveries int `json:"node_recoveries"`
	// NodesBlacklisted counts nodes excluded after repeated failures.
	NodesBlacklisted int `json:"nodes_blacklisted"`
	// QueryFailures counts queries abandoned at the attempt cap.
	QueryFailures int `json:"query_failures"`
}

// effFactor is the node's speed multiplier at the current sim time: the
// configured NodeFactor scaled by any active slowdown window.
func (s *Sim) effFactor(node int) float64 {
	f := s.factors[node]
	if s.fplan != nil {
		f *= s.fplan.SlowFactor(node, s.now)
	}
	return f
}

// releaseSlot returns a slot of phase p to its free pool unless its node
// is down or blacklisted, in which case the slot is withheld until recovery
// (crashed nodes re-add their full slot set on recovery; blacklisted nodes
// never return).
func (s *Sim) releaseSlot(p, slot int) {
	if n := s.nodeOf(p, slot); !s.down[n] && !s.blacklisted[n] {
		s.free[p] = append(s.free[p], slot)
	}
}

// retry requeues a lost (crash-killed or backed-off) task as a
// re-execution.
func (s *Sim) retry(t *Task) {
	t.requeue()
	s.fstats.TaskRetries++
	s.obs.Count(obs.MTaskRetries)
}

// taskFail handles a transient attempt failure scheduled by the fault
// plan: the hosting node's failure count may trip the blacklist, the
// attempt vacates its slot (the burn window was already charged), and the
// task backs off before retrying — or, at the attempt cap, fails its whole
// query.
func (s *Sim) taskFail(e *event) {
	t := e.task
	if e.epoch != t.epoch {
		return
	}
	j := t.Job
	t.failures++
	t.faulted = true
	j.Query.Faulted = true
	s.fstats.TaskFailures++
	node := int(t.node)
	s.nodeFails[node]++
	backoff := s.fplan.Backoff(int(t.failures))
	if s.obs != nil {
		failed := s.taskEvent(obs.TaskFailed, t, int(e.slot))
		failed.Start = t.StartTime
		s.obs.Emit(failed, obs.AttrInt("attempt", t.Attempts), obs.AttrFloat("backoff_sec", backoff))
	}
	if !s.blacklisted[node] && s.nodeFails[node] >= s.fplan.BlacklistAfter() &&
		s.canBlacklist() {
		s.blacklistNode(node)
	}
	s.vacate(t)
	if int(t.failures) >= s.fplan.MaxAttempts() {
		// t has left its slot: out of TaskRunning, failQuery does not
		// vacate it again.
		t.setState(TaskPending)
		s.failQuery(j.Query, t)
		return
	}
	t.setState(TaskWaiting)
	t.StartTime = 0
	s.push(event{time: s.now + backoff, kind: evRetry, task: t, epoch: t.epoch})
}

// retryTask moves a backed-off task back to pending once its delay ends.
func (s *Sim) retryTask(e *event) {
	t := e.task
	if e.epoch != t.epoch || t.State != TaskWaiting || t.Job.Query.Failed() {
		return
	}
	s.retry(t)
}

// canBlacklist enforces Hadoop's cluster-wide cap: at most half the
// nodes may be blacklisted, so a long faulty run degrades instead of
// starving outright.
func (s *Sim) canBlacklist() bool {
	count := 0
	for _, b := range s.blacklisted {
		if b {
			count++
		}
	}
	return 2*(count+1) <= s.cfg.Nodes
}

// blacklistNode permanently excludes a node from scheduling: free slots
// leave the pools now, running attempts finish but their slots are
// withheld by releaseSlot.
func (s *Sim) blacklistNode(node int) {
	s.blacklisted[node] = true
	s.fstats.NodesBlacklisted++
	s.dropNodeSlots(node)
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: obs.NodeBlacklisted, At: s.now, Node: node}, obs.AttrInt("task_failures", s.nodeFails[node]))
	}
}

// dropNodeSlots removes a node's free slots from both pools.
func (s *Sim) dropNodeSlots(node int) {
	for p, pool := range s.free {
		keep := pool[:0]
		for _, slot := range pool {
			if s.nodeOf(p, slot) != node {
				keep = append(keep, slot)
			}
		}
		s.free[p] = keep
	}
}

// crashNode takes a node down: its free slots leave the pools and every
// attempt it hosts, hoarders included, is killed. Killed attempts re-queue
// immediately without burning a failure (Hadoop marks them KILLED, not
// FAILED). The node is down, so vacate withholds their slots.
func (s *Sim) crashNode(node int) {
	if s.down[node] {
		return
	}
	s.down[node] = true
	s.fstats.NodeCrashes++
	s.dropNodeSlots(node)
	killed := 0
	for _, j := range s.active {
		// Reduces, then maps: the order the query's remaining WRD is
		// summed back in decides its last bits, which SWRD compares.
		for _, tasks := range [2][]*Task{j.Reds, j.Maps} {
			for _, t := range tasks {
				if t.State != TaskRunning || int(t.node) != node {
					continue
				}
				killed++
				t.faulted = true
				j.Query.Faulted = true
				s.vacate(t)
				s.retry(t)
			}
		}
	}
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: obs.NodeCrashed, At: s.now, Node: node}, obs.AttrInt("killed_attempts", killed))
	}
}

// recoverNode brings a crashed node back. Every attempt it hosted was
// killed at crash time, so the full slot set returns free — unless the
// node was also blacklisted, in which case it stays out.
func (s *Sim) recoverNode(node int) {
	if !s.down[node] {
		return
	}
	s.down[node] = false
	s.fstats.NodeRecoveries++
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: obs.NodeRecovered, At: s.now, Node: node})
	}
	if !s.blacklisted[node] {
		s.addNodeSlots(node)
	}
}

// failQuery abandons a query whose task t exhausted the attempt cap: every
// other running attempt vacates its slot (t has vacated its own), every
// backed-off task is cancelled, and the query's jobs leave the active set. The typed error
// lands on Query.Err and the run continues with the remaining queries.
func (s *Sim) failQuery(q *Query, t *Task) {
	q.Err = &TaskFailedError{
		Query: q.ID, Job: t.Job.ID, Reduce: t.Reduce,
		Index: t.Index, Attempts: int(t.failures),
	}
	q.DoneTime = s.now
	q.Faulted = true
	q.remainingWRD = 0
	s.fstats.QueryFailures++
	s.terminal++
	if s.obs != nil {
		s.obs.Emit(obs.Event{Kind: obs.QueryFailed, At: s.now, Start: q.ArrivalTime, Query: q.ID},
			obs.AttrStr("reason", q.Err.Error()))
	}
	for _, j := range q.Jobs {
		// The free pools are stacks, so the order in which a phase's
		// slots return decides which slot, and node, the phase's next
		// task takes: chain order, then index order. Each phase has its
		// own pool, so which phase goes first changes nothing
		// (TestFailQueryReturnsSlotsInTaskOrder).
		for _, tasks := range [2][]*Task{j.Reds, j.Maps} {
			for _, tt := range tasks {
				switch tt.State {
				case TaskRunning:
					s.vacate(tt)
					tt.setState(TaskPending)
				case TaskWaiting:
					tt.epoch++
					tt.setState(TaskPending)
				}
			}
		}
		s.deactivate(j)
	}
}
