package sched

import (
	"saqp/internal/cluster"
	"saqp/internal/obs"
)

// Instrument wraps a scheduling policy so every PickJob call is recorded
// by the observer: the winning job plus the full candidate ranking the
// policy saw (per-query remaining WRD, running-task counts and submit
// times), making "why did the scheduler pick this query" answerable
// from the trace. With a nil observer the policy is returned unwrapped,
// so uninstrumented runs pay nothing.
//
// Instrument is the scheduler half of the observability seam; attach the
// same observer to the simulator with (*cluster.Sim).SetObserver for the
// task-lifecycle half.
func Instrument(s cluster.Scheduler, o *obs.Observer) cluster.Scheduler {
	if o == nil {
		return s
	}
	return &instrumented{inner: s, obs: o}
}

type instrumented struct {
	inner cluster.Scheduler
	obs   *obs.Observer
}

// Name implements cluster.Scheduler, delegating to the wrapped policy so
// results and run labels stay attributed to it.
func (in *instrumented) Name() string { return in.inner.Name() }

// PickJob delegates to the wrapped policy and records the decision. The
// ranking is built only for a timeline: the span collector and the
// registry keep just the queue depth.
func (in *instrumented) PickJob(now float64, cands, active []*cluster.Job, reduce bool) *cluster.Job {
	j := in.inner.PickJob(now, cands, active, reduce)
	var ranked []obs.Candidate
	if in.obs.Trace != nil {
		ranked = make([]obs.Candidate, len(cands))
		for i, c := range cands {
			ranked[i] = obs.Candidate{
				Job:     c.ID,
				Query:   c.Query.ID,
				WRD:     c.Query.RemainingWRD(),
				Running: c.RunningTasks(),
				Submit:  c.SubmitTime,
			}
		}
	}
	picked := ""
	if j != nil {
		picked = j.ID
	}
	in.obs.SchedulerDecision(now, in.inner.Name(), reduce, picked, len(cands), ranked)
	return j
}

var _ cluster.Scheduler = (*instrumented)(nil)
