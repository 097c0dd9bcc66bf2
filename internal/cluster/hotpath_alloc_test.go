package cluster

import (
	"fmt"
	"testing"

	"saqp/internal/fault"
	"saqp/internal/obs"
)

// idlePick sees every candidate and leaves the slot idle.
type idlePick struct{}

func (idlePick) Name() string                               { return "idle" }
func (idlePick) PickJob(float64, []*Job, []*Job, bool) *Job { return nil }

// TestDecisionSpansOnlyBuildsNoRanking: the candidate ranking exists for
// the timeline alone. Under a spans-only observer (what the serving engine
// attaches per traced run) the request tree keeps only the first few
// decisions and the queue depth, so once past its cap a dispatch over 64
// candidates must not allocate at all — in particular not an O(queued
// jobs) ranking.
func TestDecisionSpansOnlyBuildsNoRanking(t *testing.T) {
	s := New(Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, idlePick{})
	tree := obs.BeginQuerySpan("t", "q")
	tree.BeginRun()
	s.SetObserver(&obs.Observer{Spans: tree})
	for i := 0; i < 64; i++ {
		s.arrive(mkQuery(fmt.Sprintf("q%02d", i), 1, 1))
	}
	if n := len(s.candidates(false)); n != 64 {
		t.Fatalf("%d candidates, want 64", n)
	}
	for i := 0; i < 16; i++ { // exhaust the tree's decision cap
		s.dispatch()
	}
	if n := testing.AllocsPerRun(100, s.dispatch); n != 0 {
		t.Errorf("an observed dispatch on a spans-only observer allocates %.0f times, want 0", n)
	}
}

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the simulator's per-dispatch and per-task path (candidates,
// scheduleFinish, and dispatch around them, which static analysis cannot
// follow through the Scheduler interface): on a warmed Sim, Reset plus a
// whole run allocates nothing, however many tasks are dispatched — the
// queries slice and the Results are the Sim's, kept across Reset. Reduces
// hoard at the default slowstart, and the simulator only counts them. The
// faulty config drives the recovery paths too: Reset books a node crash,
// every node slows down for a window, and transient failures back tasks
// off, retry them and blacklist nodes, with an attempt cap no task
// reaches. A warmed event queue's push and pop allocate nothing on their
// own either.
func TestHotPathAllocs(t *testing.T) {
	faulty := DefaultConfig()
	faulty.Faults = fault.NewPlan(fault.Spec{
		Seed: 4, Nodes: 9, HorizonSec: 30,
		CrashProb: 0.3, CrashDowntimeSec: 20,
		SlowProb: 1, SlowDurationSec: 30,
		TaskFailProb: 0.05, MaxAttempts: 20,
	})
	build := func(maps, reds int) *Query {
		q := &Query{ID: "q"}
		for _, id := range []string{"J1", "J2"} {
			j := &Job{ID: "q/" + id, JobID: id, Query: q}
			for i := 0; i < maps; i++ {
				j.Maps = append(j.Maps, &Task{Job: j, Index: i, ActualSec: 3 + float64(i%5), PredSec: 4})
			}
			for i := 0; i < reds; i++ {
				j.Reds = append(j.Reds, &Task{Job: j, Reduce: true, Index: i, ActualSec: 5, PredSec: 5})
			}
			q.Jobs = append(q.Jobs, j)
		}
		return q
	}
	rewind := func(q *Query) {
		q.DoneTime, q.Faulted = 0, false
		for _, j := range q.Jobs {
			*j = Job{ID: j.ID, JobID: j.JobID, Query: q, Maps: j.Maps, Reds: j.Reds}
			j.ResetPending()
			for _, tasks := range [2][]*Task{j.Maps, j.Reds} {
				for _, tk := range tasks {
					*tk = Task{Job: j, Reduce: tk.Reduce, Index: tk.Index, ActualSec: tk.ActualSec, PredSec: tk.PredSec}
				}
			}
		}
		q.RecomputeWRD()
	}
	var q eventQueue
	for i := 0; i < 64; i++ { // warm: grow the keys, the store and the free list once
		q.push(event{time: float64(i % 7), seq: i})
	}
	for q.len() > 0 {
		q.pop()
	}
	seq, task := 64, &Task{}
	pushPop := func() {
		seq++
		q.push(event{time: float64(seq % 5), seq: seq, task: task})
		q.push(event{time: float64(seq % 3), seq: seq + 1})
		seq++
		q.pop()
		q.pop()
	}
	if n := testing.AllocsPerRun(100, pushPop); n != 0 {
		t.Errorf("a warmed event queue allocates %.0f times per push/pop, want 0", n)
	}
	for _, cfg := range []Config{DefaultConfig(), faulty} {
		s := New(cfg, fifoPick{})
		for _, size := range []struct{ maps, reds int }{{6, 2}, {200, 40}} {
			q := build(size.maps, size.reds)
			var res *Results
			run := func() {
				rewind(q)
				s.Reset(cfg, fifoPick{})
				s.Submit(q, 0)
				var err error
				if res, err = s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: grow the event queue and the scratch once
			if n := testing.AllocsPerRun(20, run); n != 0 {
				t.Errorf("faulty=%v, %d+%d tasks per job: a warmed Sim allocates %.0f times per run, want 0",
					cfg.Faults != nil, size.maps, size.reds, n)
			}
			if !q.Done() || q.Failed() {
				t.Fatalf("the measured run did not execute the query")
			}
			if f := res.Faults; cfg.Faults != nil && size.maps > 6 &&
				(f.NodeCrashes == 0 || f.TaskFailures == 0 || f.NodesBlacklisted == 0 || !anySlowed(q)) {
				t.Fatalf("%d+%d tasks per job: the faulty run missed a recovery path: %+v, slowed %v",
					size.maps, size.reds, f, anySlowed(q))
			}
		}
	}
}

// anySlowed reports whether a map of q was dispatched into a slowdown
// window: faulted on its one attempt, which neither failed nor was killed.
func anySlowed(q *Query) bool {
	for _, j := range q.Jobs {
		for _, t := range j.Maps {
			if t.faulted && t.failures == 0 && t.Attempts == 1 {
				return true
			}
		}
	}
	return false
}
