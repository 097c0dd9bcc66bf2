package cluster_test

import (
	"fmt"
	"sort"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/sched"
	"saqp/internal/sim"
)

// TestRandomWorkloadsAllPoliciesAllFeatures stress-tests the simulator:
// random synthetic query mixes run to completion under every scheduler and
// every feature combination (slowstart hoarding, preemption, heterogeneous
// node speeds), with structural invariants checked after each run. Every
// pick must offer at most one job per query (oneJobPerQuery): the premise
// SWRD's pick rests on.
func TestRandomWorkloadsAllPoliciesAllFeatures(t *testing.T) {
	policies := []cluster.Scheduler{sched.HCS{}, sched.HCS{Queues: 4}, sched.HFS{}, sched.SWRD{}}
	features := []cluster.Config{
		{Nodes: 3, MapSlotsPerNode: 3, ReduceSlotsPerNode: 2},
		{Nodes: 3, MapSlotsPerNode: 3, ReduceSlotsPerNode: 2, PreemptiveReduce: true},
		{Nodes: 3, MapSlotsPerNode: 3, ReduceSlotsPerNode: 2, NodeFactors: []float64{0.7, 1.0, 1.2}},
		{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, PreemptiveReduce: true,
			NodeFactors: []float64{0.5, 1.1}},
	}
	picks := 0
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.New(seed * 977)
		queries := randomMix(rng)
		for pi, pol := range policies {
			for fi, cfg := range features {
				qs := cloneMix(queries)
				s := cluster.New(cfg, oneJobPerQuery{pol, t, &picks})
				at := 0.0
				for _, q := range qs {
					s.Submit(q, at)
					at += rng.Range(0, 20)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatalf("seed %d policy %d feature %d: %v", seed, pi, fi, err)
				}
				checkInvariants(t, qs, res, cfg, fmt.Sprintf("seed=%d pol=%d feat=%d", seed, pi, fi))
			}
		}
	}
	t.Logf("%d picks offered at most one job per query", picks)
}

// randomMix builds 4-8 random queries of 1-3 chained jobs each.
func randomMix(rng *sim.RNG) []*cluster.Query {
	n := 4 + rng.Intn(5)
	var out []*cluster.Query
	for qi := 0; qi < n; qi++ {
		jobs := 1 + rng.Intn(3)
		var specs []jobSpec
		for ji := 0; ji < jobs; ji++ {
			sp := jobSpec{
				id:     fmt.Sprintf("J%d", ji+1),
				maps:   1 + rng.Intn(12),
				reds:   rng.Intn(4),
				mapSec: rng.Range(1, 15),
				redSec: rng.Range(1, 10),
			}
			specs = append(specs, sp)
		}
		out = append(out, synthQuery(fmt.Sprintf("q%d", qi), specs))
	}
	return out
}

// cloneMix deep-copies a mix so each run starts from pristine state.
func cloneMix(qs []*cluster.Query) []*cluster.Query {
	var out []*cluster.Query
	for _, q := range qs {
		var specs []jobSpec
		for _, j := range q.Jobs {
			sp := jobSpec{id: j.JobID, maps: len(j.Maps), reds: len(j.Reds)}
			if len(j.Maps) > 0 {
				sp.mapSec = j.Maps[0].ActualSec
			}
			if len(j.Reds) > 0 {
				sp.redSec = j.Reds[0].ActualSec
			}
			specs = append(specs, sp)
		}
		out = append(out, synthQuery(q.ID, specs))
	}
	return out
}

// checkInvariants asserts completion, interval sanity, slot bounds and WRD
// drain for every query of a finished run.
func checkInvariants(t *testing.T, qs []*cluster.Query, res *cluster.Results, cfg cluster.Config, label string) {
	t.Helper()
	type iv struct {
		t float64
		d int
	}
	var points [2][]iv // map, reduce
	for _, q := range qs {
		if !q.Done() {
			t.Fatalf("%s: query %s incomplete", label, q.ID)
		}
		if q.RemainingWRD() > 1e-9 {
			t.Fatalf("%s: query %s WRD not drained (%v)", label, q.ID, q.RemainingWRD())
		}
		if q.ResponseTime() < 0 || q.DoneTime > res.Makespan {
			t.Fatalf("%s: query %s bad completion times", label, q.ID)
		}
		for _, j := range q.Jobs {
			for _, task := range append(append([]*cluster.Task{}, j.Maps...), j.Reds...) {
				if task.State != cluster.TaskDone {
					t.Fatalf("%s: task not done in %s", label, j.ID)
				}
				if task.EndTime < task.StartTime {
					t.Fatalf("%s: inverted task interval in %s", label, j.ID)
				}
				p := &points[0]
				if task.Reduce {
					p = &points[1]
				}
				*p = append(*p, iv{task.StartTime, 1}, iv{task.EndTime, -1})
			}
		}
	}
	// Concurrency of each phase (by completed-attempt intervals, a hoarding
	// reduce's from its launch) never exceeds that phase's slot count.
	for p, slots := range [2]int{cfg.Nodes * cfg.MapSlotsPerNode, cfg.Nodes * cfg.ReduceSlotsPerNode} {
		ivs := points[p]
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].t != ivs[j].t {
				return ivs[i].t < ivs[j].t
			}
			return ivs[i].d < ivs[j].d
		})
		cur, max := 0, 0
		for _, iv := range ivs {
			cur += iv.d
			if cur > max {
				max = cur
			}
		}
		if max > slots {
			t.Fatalf("%s: %d concurrent %s tasks exceeded %d slots", label, max, [2]string{"map", "reduce"}[p], slots)
		}
	}
}
