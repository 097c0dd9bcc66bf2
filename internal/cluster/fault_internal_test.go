package cluster

import (
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
