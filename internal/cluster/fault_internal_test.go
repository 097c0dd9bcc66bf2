package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"saqp/internal/fault"
)

// fifoPick is a minimal FIFO scheduler for white-box tests (the sched
// package cannot be imported here without a cycle).
type fifoPick struct{}

func (fifoPick) Name() string { return "fifo" }
func (fifoPick) PickJob(_ float64, cands, _ []*Job, _ bool) *Job {
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
}

// mkQuery builds a map-only query in-package.
func mkQuery(id string, maps int, sec float64) *Query {
	q := &Query{ID: id}
	j := &Job{ID: id + "/J1", JobID: "J1", Query: q}
	for i := 0; i < maps; i++ {
		j.Maps = append(j.Maps, &Task{Job: j, Index: i, ActualSec: sec, PredSec: sec})
	}
	j.ResetPending()
	q.Jobs = []*Job{j}
	q.RecomputeWRD()
	return q
}

// TestBlacklistedNodeReceivesNoNewTasks pins the blacklist contract at the
// dispatch layer: once a node is blacklisted its free slots leave the
// pools and every subsequent placement lands elsewhere.
func TestBlacklistedNodeReceivesNoNewTasks(t *testing.T) {
	s := New(Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}, fifoPick{})
	s.blacklistNode(0)
	q := mkQuery("q", 8, 5)
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, task := range q.Jobs[0].Maps {
		if task.node != 1 {
			t.Fatalf("map %d ran on blacklisted node %d", task.Index, task.node)
		}
	}
	if s.fstats.NodesBlacklisted != 1 {
		t.Fatalf("blacklist count = %d", s.fstats.NodesBlacklisted)
	}
}

// TestBlacklistTripsAfterRepeatedFailures drives the end-to-end path:
// with BlacklistAfter=1, the node hosting the run's single probed failure
// is excluded, and every later placement — including the failed task's
// own retry — drains through the surviving node.
func TestBlacklistTripsAfterRepeatedFailures(t *testing.T) {
	// Probe a plan where only map 0's first attempt fails: its host is
	// blacklisted and the other node must absorb the rest of the run.
	var plan *fault.Plan
	for seed := uint64(0); seed < 50000; seed++ {
		p := fault.NewPlan(fault.Spec{Seed: seed, TaskFailProb: 0.3, BlacklistAfter: 1})
		ok := true
		for i := 0; i < 4; i++ {
			f1, _ := p.TaskFailure("q/J1", false, i, 1)
			f2, _ := p.TaskFailure("q/J1", false, i, 2)
			if f1 != (i == 0) || f2 {
				ok = false
				break
			}
		}
		if ok {
			plan = p
			break
		}
	}
	if plan == nil {
		t.Fatal("no seed under 50000 fails exactly map 0's first attempt")
	}
	s := New(Config{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		Faults: plan}, fifoPick{})
	q := mkQuery("q", 4, 5)
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("workload should survive a blacklisted node")
	}
	if res.Faults.NodesBlacklisted != 1 || res.Faults.TaskFailures != 1 {
		t.Fatalf("fault stats = %+v, want 1 blacklist from 1 failure", res.Faults)
	}
	blacklisted := -1
	for n, b := range s.blacklisted {
		if b {
			blacklisted = n
		}
	}
	if blacklisted < 0 {
		t.Fatal("blacklist flag not set")
	}
	// The failure struck the first dispatch; everything that completed
	// afterwards (every final attempt) must sit on the surviving node.
	for _, task := range q.Jobs[0].Maps {
		if int(task.node) == blacklisted {
			t.Fatalf("map %d's final attempt ran on blacklisted node %d", task.Index, blacklisted)
		}
	}
}

// TestSlotPoolsRestoredPerPhase: at the end of a run every slot is free
// again, so each phase's pool holds every slot id of every node that is
// neither down nor blacklisted, exactly once, and no other id. The config
// gives the phases different slot counts, so a slot id read against the
// other phase's per-node count lands on the wrong node; the fault plan
// crashes a node that recovers before the run ends (its killed attempts'
// slots must come back once, through the recovery alone) and blacklists
// another (its slots must never come back).
func TestSlotPoolsRestoredPerPhase(t *testing.T) {
	cfg := Config{Nodes: 4, MapSlotsPerNode: 3, ReduceSlotsPerNode: 2}
	workload := func() []*Query {
		var qs []*Query
		for _, id := range []string{"a", "b", "c"} {
			q := &Query{ID: id}
			for _, jid := range []string{"J1", "J2"} {
				j := &Job{ID: id + "/" + jid, JobID: jid, Query: q}
				for i := 0; i < 12; i++ {
					j.Maps = append(j.Maps, &Task{Job: j, Index: i, ActualSec: 4 + float64(i%3), PredSec: 5})
				}
				for i := 0; i < 4; i++ {
					j.Reds = append(j.Reds, &Task{Job: j, Reduce: true, Index: i, ActualSec: 6, PredSec: 6})
				}
				j.ResetPending()
				q.Jobs = append(q.Jobs, j)
			}
			q.RecomputeWRD()
			qs = append(qs, q)
		}
		return qs
	}
	for seed := uint64(0); seed < 2000; seed++ {
		cfg.Faults = fault.NewPlan(fault.Spec{
			Seed: seed, Nodes: cfg.Nodes, HorizonSec: 60,
			CrashProb: 0.3, CrashDowntimeSec: 15,
			TaskFailProb: 0.1, MaxAttempts: 20, BlacklistAfter: 2,
		})
		s := New(cfg, fifoPick{})
		for i, q := range workload() {
			s.Submit(q, float64(5*i))
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		recovered := -1
		for _, w := range cfg.Faults.Crashes() {
			if w.End < res.Makespan && !s.blacklisted[w.Node] {
				recovered = w.Node
			}
		}
		blacklisted := slices.Index(s.blacklisted, true)
		// Some attempt was crash-killed: it re-queued without failing.
		killed := res.Faults.TaskRetries > res.Faults.TaskFailures
		if recovered < 0 || blacklisted < 0 || !killed {
			continue
		}
		for p, per := range s.perNode {
			var want []int
			for n := 0; n < cfg.Nodes; n++ {
				for k := 0; k < per && !s.down[n] && !s.blacklisted[n]; k++ {
					want = append(want, n*per+k)
				}
			}
			got := slices.Clone(s.free[p])
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: node %d recovered, node %d blacklisted, down %v: the %s pool holds %v, want %v",
					seed, recovered, blacklisted, s.down, []string{"map", "reduce"}[p], got, want)
			}
		}
		return
	}
	t.Fatal("no seed under 2000 crashes and recovers one node and blacklists another")
}

// mkJob builds a one-job query in-package: maps map tasks of mapSec
// seconds and reds reduces of redSec.
func mkJob(id string, maps, reds int, mapSec, redSec float64) *Query {
	q := mkQuery(id, maps, mapSec)
	j := q.Jobs[0]
	for i := 0; i < reds; i++ {
		j.Reds = append(j.Reds, &Task{Job: j, Reduce: true, Index: i, ActualSec: redSec, PredSec: redSec})
	}
	j.ResetPending()
	q.RecomputeWRD()
	return q
}

// poolMismatch describes the first free pool of s that holds a slot twice
// or more slots than the cluster has, or returns "".
func poolMismatch(s *Sim) string {
	for p, pool := range s.free {
		if n := s.cfg.Nodes * s.perNode[p]; len(pool) > n {
			return fmt.Sprintf("the %s pool holds %d slots, the cluster has %d: %v", []string{"map", "reduce"}[p], len(pool), n, pool)
		}
		seen := make(map[int]bool, len(pool))
		for _, slot := range pool {
			if seen[slot] {
				return fmt.Sprintf("the %s pool holds slot %d twice: %v", []string{"map", "reduce"}[p], slot, pool)
			}
			seen[slot] = true
		}
	}
	return ""
}

// TestLastFailureReturnsSlotOnce: a task whose last allowed attempt fails
// returns its slot to its pool once — taskFail vacates it, and failQuery,
// which vacates the query's other running tasks, does not vacate it
// again. Over 200 seeded runs of three 6-map queries on 4 nodes × 3 map
// slots, every attempt failing with probability 0.3 and one attempt
// allowed, no pool ends a run holding a slot twice or more slots than the
// cluster has, and the Sim's count of hoarding reduces equals a scan.
// While failQuery vacated the task a second time, 178 of the 200 runs
// ended with more free map slots than the cluster has. A failing attempt
// never hoards — a reduce is scheduled to end, or fail, only once its
// job's maps are done — so the hoarder count read the same either way.
func TestLastFailureReturnsSlotOnce(t *testing.T) {
	cfg := Config{Nodes: 4, MapSlotsPerNode: 3, ReduceSlotsPerNode: 2}
	failed := 0
	for seed := uint64(0); seed < 200; seed++ {
		cfg.Faults = fault.NewPlan(fault.Spec{Seed: seed, Nodes: cfg.Nodes, TaskFailProb: 0.3, MaxAttempts: 1})
		s := New(cfg, fifoPick{})
		for i, id := range []string{"a", "b", "c"} {
			s.Submit(mkJob(id, 6, 2, 4+float64(i), 3), float64(2*i))
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		failed += res.Failed
		if msg := poolMismatch(s); msg != "" {
			t.Fatalf("seed %d, %d queries failed: %s", seed, res.Failed, msg)
		}
		if msg := s.HoardMismatch(); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
	if failed == 0 {
		t.Fatal("no run failed a query")
	}
	t.Logf("%d queries failed in 200 runs", failed)
}

// TestFailQueryReturnsSlotsInTaskOrder pins the order in which a failed
// query's slots return to the free pools, which are stacks: the failed
// attempt's slot first (taskFail), then each job's running reduces,
// hoarders among them, and running maps, each in index order
// (failQuery). Query a's map 3 fails on its one allowed attempt at 9 s,
// while its maps 1, 2 and 4 run and, since map 0 finished at 2 s, both its
// reduces hoard. Query b then takes the slots from the tops of the pools:
// the map pool was empty and gets 0 (map 3), 2 (map 1), 1 (map 2) and
// 3 (map 4), so b's first four maps take 3, 1, 2 and 0; the reduce pool
// held 0 and 1 and gets 3 and 2 (reduces 0 and 1), so b's reduces take 2
// and 3. Slots 0 and 1 are node 0's, 2 and 3 node 1's. Each phase
// returns to its own pool, so whether reduces or maps are vacated first
// changes nothing: only the order within a phase is observable.
func TestFailQueryReturnsSlotsInTaskOrder(t *testing.T) {
	// Probe a plan in which a's map 3 fails on its first attempt and no
	// other first attempt of a's or b's tasks does.
	var plan *fault.Plan
	for seed := uint64(0); seed < 50000 && plan == nil; seed++ {
		p := fault.NewPlan(fault.Spec{Seed: seed, TaskFailProb: 0.1, MaxAttempts: 1})
		ok := true
		for _, job := range []string{"a/J1", "b/J1"} {
			for _, reduce := range []bool{false, true} {
				for i := 0; i < 8; i++ {
					fails, _ := p.TaskFailure(job, reduce, i, 1)
					ok = ok && fails == (job == "a/J1" && !reduce && i == 3)
				}
			}
		}
		if ok {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no seed under 50000 fails exactly a's map 3")
	}
	a := mkJob("a", 6, 2, 0, 3)
	for i, m := range a.Jobs[0].Maps {
		m.ActualSec = float64(20 + i)
		if i == 0 {
			m.ActualSec = 2
		}
		m.PredSec = m.ActualSec
	}
	a.RecomputeWRD()
	b := mkJob("b", 8, 2, 9, 3)
	s := New(Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2, Faults: plan}, fifoPick{})
	s.Submit(a, 0)
	s.Submit(b, 1)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var failed *TaskFailedError
	if !errors.As(a.Err, &failed) || failed.Reduce || failed.Index != 3 || b.Err != nil {
		t.Fatalf("a ended with %v and b with %v; want a failed by map 3 and b done", a.Err, b.Err)
	}
	// The failure caught maps 1, 2 and 4 running (scheduled to end, so
	// one attempt each) and both reduces hoarding (started, never
	// scheduled to end); failQuery left every one pending.
	if a.Jobs[0].MapsDone() {
		t.Fatal("a's maps are done")
	}
	for _, tk := range append(slices.Clone(a.Jobs[0].Maps[1:5]), a.Jobs[0].Reds...) {
		running := tk.Attempts == 1 && !tk.Reduce || tk.Attempts == 0 && tk.Reduce && tk.StartTime == 2
		if tk.State != TaskPending || !running {
			t.Fatalf("a's reduce=%v task %d: state %d, %d attempts, started at %v; want it caught running, or hoarding, by the failure",
				tk.Reduce, tk.Index, tk.State, tk.Attempts, tk.StartTime)
		}
	}
	slots := func(tasks []*Task) []int {
		var out []int
		for _, tk := range tasks {
			out = append(out, int(tk.slot))
		}
		return out
	}
	if got, want := slots(b.Jobs[0].Maps[:4]), []int{3, 1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("b's first maps took map slots %v, want %v", got, want)
	}
	if got, want := slots(b.Jobs[0].Reds), []int{2, 3}; !slices.Equal(got, want) {
		t.Errorf("b's reduces took reduce slots %v, want %v", got, want)
	}
	if b.Jobs[0].Maps[0].StartTime != a.DoneTime {
		t.Errorf("b's first map started at %v, a failed at %v", b.Jobs[0].Maps[0].StartTime, a.DoneTime)
	}
}
