package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/sched"
	"saqp/internal/sim"
)

// Work conservation, checked after each run from the task attempts'
// intervals: no map slot idles while a ready map task waits, no reduce
// starts before its job's finished maps reach the slowstart count, and a
// reduce slot idles only while every waiting reduce is held back by
// slowstart or the hoarding caps.

// attempt is one task attempt's slot occupancy, [start, end).
type attempt struct {
	task       *cluster.Task
	start, end float64
}

// attemptLog is a policy that records every attempt the simulator runs.
// The task a pick starts is its job's first pending task of the phase, and
// it starts at the pick's time. Preemption happens in a dispatch just
// before a pick of the same instant, so the pick after it finds the
// victim pending again and closes its attempt then; every other attempt
// runs to its task's EndTime (faults are off).
type attemptLog struct {
	cluster.Scheduler
	open     map[*cluster.Task]float64 // running attempts by start time
	attempts []attempt
}

func (l *attemptLog) PickJob(now float64, cands, active []*cluster.Job, reduce bool) *cluster.Job {
	for t, start := range l.open {
		if t.State == cluster.TaskPending {
			l.attempts = append(l.attempts, attempt{t, start, now})
			delete(l.open, t)
		}
	}
	j := l.Scheduler.PickJob(now, cands, active, reduce)
	if j != nil {
		tasks := j.Maps
		if reduce {
			tasks = j.Reds
		}
		for _, t := range tasks {
			if t.State == cluster.TaskPending {
				l.open[t] = now
				break
			}
		}
	}
	return j
}

// close ends every attempt still open at its task's finish.
func (l *attemptLog) close(t *testing.T) {
	t.Helper()
	for tk, start := range l.open {
		if tk.State != cluster.TaskDone || tk.StartTime != start {
			t.Fatalf("%s task %d: state %d, start %v, but an attempt opened at %v", tk.Job.ID, tk.Index, tk.State, tk.StartTime, start)
		}
		l.attempts = append(l.attempts, attempt{tk, start, tk.EndTime})
	}
	clear(l.open)
}

// conservationInstance draws a seeded cluster and 2–6 chains of 1–3 jobs
// arriving within 60 s, predicted times equal to actual ones.
func conservationInstance(seed uint64, preempt bool) (cluster.Config, []*cluster.Query, []float64) {
	rng := sim.New(seed)
	cfg := cluster.Config{
		Nodes:                 1 + rng.Intn(3),
		MapSlotsPerNode:       1 + rng.Intn(4),
		ReduceSlotsPerNode:    1 + rng.Intn(3),
		SchedulingOverheadSec: 0.5 * float64(rng.Intn(2)),
		JobInitSec:            float64(rng.Intn(3)),
		ReduceSlowstart:       []float64{0.05, 0.3, 0.6, 1}[rng.Intn(4)],
		PreemptiveReduce:      preempt,
	}
	if rng.Bool(0.5) {
		cfg.NodeFactors = make([]float64, cfg.Nodes)
		for n := range cfg.NodeFactors {
			cfg.NodeFactors[n] = rng.Range(0.5, 2)
		}
	}
	qs := make([]*cluster.Query, 2+rng.Intn(5))
	at := make([]float64, len(qs))
	for i := range qs {
		specs := make([]jobSpec, 1+rng.Intn(3))
		for k := range specs {
			specs[k] = jobSpec{id: fmt.Sprintf("J%d", k+1), maps: 1 + rng.Intn(12), reds: rng.Intn(6),
				mapSec: rng.Range(1, 30), redSec: rng.Range(1, 30)}
		}
		qs[i] = synthQuery(fmt.Sprintf("q%d", i), specs)
		at[i] = float64(rng.Intn(60))
	}
	return cfg, qs, at
}

// TestWorkConserving runs 150 seeded instances under SWRD, HFS and HCS,
// with and without PreemptiveReduce, and holds each run's attempts to
// the three rules, at every instant an attempt starts or ends or a job
// becomes ready. The state at an instant is the one its dispatch left:
// an attempt [start, end) runs at τ when start ≤ τ < end.
func TestWorkConserving(t *testing.T) {
	policies := []cluster.Scheduler{sched.SWRD{}, sched.HFS{}, sched.HCS{Queues: 2}}
	preempted := 0
	for seed := uint64(1); seed <= 150; seed++ {
		for _, preempt := range []bool{false, true} {
			pol := policies[seed%3]
			cfg, qs, at := conservationInstance(seed, preempt)
			rec := &attemptLog{Scheduler: pol, open: map[*cluster.Task]float64{}}
			s := cluster.New(cfg, rec)
			for i, q := range qs {
				s.Submit(q, at[i])
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			rec.close(t)
			preempted += len(rec.attempts) - countTasks(qs)
			if msg := conservationViolation(cfg, qs, rec.attempts); msg != "" {
				t.Fatalf("seed %d %s preempt=%v %+v: %s", seed, pol.Name(), preempt, cfg, msg)
			}
		}
	}
	if preempted == 0 {
		t.Fatal("no instance preempted a reduce")
	}
	t.Logf("%d preempted attempts", preempted)
}

// countTasks returns how many tasks the queries hold: one attempt each
// when nothing is preempted.
func countTasks(qs []*cluster.Query) int {
	n := 0
	for _, q := range qs {
		for _, j := range q.Jobs {
			n += len(j.Maps) + len(j.Reds)
		}
	}
	return n
}

// conservationViolation describes the first broken rule in a run's
// attempts, or returns "".
func conservationViolation(cfg cluster.Config, qs []*cluster.Query, attempts []attempt) string {
	cfg = cfg.Normalized()
	mapSlots, redSlots := cfg.Nodes*cfg.MapSlotsPerNode, cfg.Nodes*cfg.ReduceSlotsPerNode
	// The simulator's hoarding caps: half the reduce slots per job, three
	// quarters across jobs, at least one each.
	perJob, globalCap := max(1, redSlots/2), max(1, 3*redSlots/4)
	need := func(j *cluster.Job) int {
		return max(1, int(math.Ceil(cfg.ReduceSlowstart*float64(len(j.Maps)))))
	}
	mapsDoneBy := func(j *cluster.Job, at float64) int {
		n := 0
		for _, m := range j.Maps {
			if m.EndTime <= at {
				n++
			}
		}
		return n
	}
	byTask := map[*cluster.Task][]attempt{}
	for _, a := range attempts {
		byTask[a.task] = append(byTask[a.task], a)
	}
	runs := func(t *cluster.Task, at float64) bool {
		for _, a := range byTask[t] {
			if a.start <= at && at < a.end {
				return true
			}
		}
		return false
	}
	var jobs []*cluster.Job
	var instants []float64
	for _, q := range qs {
		for _, j := range q.Jobs {
			jobs = append(jobs, j)
			instants = append(instants, j.ReadyTime)
		}
	}
	for _, a := range attempts {
		instants = append(instants, a.start, a.end)
		if r := a.task; r.Reduce && mapsDoneBy(r.Job, a.start) < need(r.Job) {
			return fmt.Sprintf("%s r%d started at %v with %d maps finished, slowstart needs %d",
				r.Job.ID, r.Index, a.start, mapsDoneBy(r.Job, a.start), need(r.Job))
		}
	}
	for _, at := range instants {
		var runningMaps, runningReds, hoarded int
		for _, j := range jobs {
			mapsDone := mapsDoneBy(j, at) == len(j.Maps)
			for _, m := range j.Maps {
				if runs(m, at) {
					runningMaps++
				}
			}
			for _, r := range j.Reds {
				if runs(r, at) {
					runningReds++
					if !mapsDone {
						hoarded++
					}
				}
			}
		}
		for _, j := range jobs {
			if !j.Submitted || j.ReadyTime > at {
				continue
			}
			mapsDone := mapsDoneBy(j, at)
			launched := 0
			var waitingMap, waitingRed *cluster.Task
			for _, m := range j.Maps {
				if m.StartTime > at && waitingMap == nil {
					waitingMap = m
				}
			}
			for _, r := range j.Reds {
				switch {
				case runs(r, at) || r.EndTime <= at:
					launched++
				case waitingRed == nil:
					waitingRed = r
				}
			}
			if waitingMap != nil && runningMaps < mapSlots {
				return fmt.Sprintf("at %v: %d of %d map slots run while %s m%d waits", at, runningMaps, mapSlots, j.ID, waitingMap.Index)
			}
			held := mapsDone < need(j) ||
				mapsDone < len(j.Maps) && (launched >= perJob || hoarded >= globalCap)
			if waitingRed != nil && runningReds < redSlots && !held {
				return fmt.Sprintf("at %v: %d of %d reduce slots run while %s r%d waits (%d maps finished, %d reduces launched, %d hoarding)",
					at, runningReds, redSlots, j.ID, waitingRed.Index, mapsDone, launched, hoarded)
			}
		}
	}
	return ""
}
