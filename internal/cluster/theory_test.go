package cluster_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/sched"
	"saqp/internal/sim"
)

// The simulator held to exact answers from scheduling theory, on hand-built
// instances whose assumptions the configuration can match: one node of p
// identical map slots, tasks whose predicted time is their actual time, no
// faults and no node speed factors.

// listSchedule returns the total completion time of jobs of the given
// durations, all ready at ready, on p identical slots that take them in
// the given order: each job starts on the slot that frees first, and
// occupies it for its duration plus ov.
func listSchedule(durs []float64, p int, ready, ov float64) float64 {
	free := make([]float64, p)
	for i := range free {
		free[i] = ready
	}
	total := 0.0
	for _, d := range durs {
		k := 0
		for i := range free {
			if free[i] < free[k] {
				k = i
			}
		}
		free[k] += d + ov
		total += free[k]
	}
	return total
}

// singleTaskRun submits one single-map query per duration at t = 0, in
// the given order, on 1 node × p map slots, and returns the total
// response time.
func singleTaskRun(t *testing.T, durs []float64, p int, cfg cluster.Config, pol cluster.Scheduler) float64 {
	t.Helper()
	cfg.Nodes, cfg.MapSlotsPerNode, cfg.ReduceSlotsPerNode = 1, p, 1
	s := cluster.New(cfg, pol)
	qs := make([]*cluster.Query, len(durs))
	for i, d := range durs {
		qs[i] = synthQuery(fmt.Sprintf("q%02d", i), []jobSpec{{id: "J1", maps: 1, mapSec: d}})
		s.Submit(qs[i], 0)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, q := range qs {
		total += q.ResponseTime()
	}
	return total
}

// near reports whether got equals want up to rounding in the order the
// two sums were taken.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want)) }

// theoryInstances yields seeded sets of 2–31 single-task durations in
// [1, 101) s.
func theoryInstances(seeds int) [][]float64 {
	out := make([][]float64, seeds)
	for seed := range out {
		rng := sim.New(uint64(seed) + 1)
		durs := make([]float64, 2+rng.Intn(30))
		for i := range durs {
			durs[i] = rng.Range(1, 101)
		}
		out[seed] = durs
	}
	return out
}

// TestSWRDIsSPT: SWRD on single-task queries released together is
// shortest-processing-time first, so its total response time is SPT list
// scheduling's on p identical slots (Smith's rule optimum on one; Conway,
// Maxwell and Miller, "Theory of Scheduling", 1967) whatever order the
// queries were submitted in, with or without a job initialisation delay.
// With JobInitSec 0 the queries are ready as they arrive, so this holds
// only if the simulator dispatches once per instant, after every arrival
// at it: dispatching after each event let the first p submitted take the
// slots.
func TestSWRDIsSPT(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		for _, init := range []float64{0, 1} {
			for i, durs := range theoryInstances(100) {
				cfg := cluster.Config{JobInitSec: init, SchedulingOverheadSec: 0.5}
				got := singleTaskRun(t, durs, p, cfg, sched.SWRD{})
				spt := slices.Clone(durs)
				slices.Sort(spt)
				want := listSchedule(spt, p, init, 0.5)
				if !near(got, want) {
					t.Fatalf("p=%d JobInitSec=%v instance %d (%d queries): SWRD total response %v, SPT %v", p, init, i, len(durs), got, want)
				}
			}
		}
	}
}

// TestSingleQueueHCSIsListScheduling: the stock single-queue HCS is FIFO,
// so single-task queries released together run as list scheduling in
// submission order.
func TestSingleQueueHCSIsListScheduling(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		for _, init := range []float64{0, 1} {
			for i, durs := range theoryInstances(100) {
				cfg := cluster.Config{JobInitSec: init, SchedulingOverheadSec: 0.5}
				got := singleTaskRun(t, durs, p, cfg, sched.HCS{Queues: 1})
				if want := listSchedule(durs, p, init, 0.5); !near(got, want) {
					t.Fatalf("p=%d JobInitSec=%v instance %d (%d queries): HCS total response %v, in-order list scheduling %v", p, init, i, len(durs), got, want)
				}
			}
		}
	}
}

// TestLoneChainResponse: a lone query of uniform tasks, with slowstart 1
// and no noise, responds in Σ over its jobs of JobInitSec +
// ⌈M/S_m⌉·(t_m + overhead) + ⌈R/S_r⌉·(t_r + overhead) — the composition
// TaskModel.PredictQuery makes of exact task times — under every policy.
func TestLoneChainResponse(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.New(seed)
		cfg := cluster.Config{
			Nodes:                 1 + rng.Intn(3),
			MapSlotsPerNode:       1 + rng.Intn(4),
			ReduceSlotsPerNode:    1 + rng.Intn(3),
			SchedulingOverheadSec: 0.5 * float64(rng.Intn(2)),
			JobInitSec:            float64(rng.Intn(3)),
			ReduceSlowstart:       1,
		}
		specs := make([]jobSpec, 1+rng.Intn(4))
		sm, sr := float64(cfg.Nodes*cfg.MapSlotsPerNode), float64(cfg.Nodes*cfg.ReduceSlotsPerNode)
		want := 0.0
		for k := range specs {
			specs[k] = jobSpec{id: fmt.Sprintf("J%d", k+1), maps: 1 + rng.Intn(20), reds: rng.Intn(7),
				mapSec: rng.Range(1, 50), redSec: rng.Range(1, 50)}
			want += cfg.JobInitSec + math.Ceil(float64(specs[k].maps)/sm)*(specs[k].mapSec+cfg.SchedulingOverheadSec) +
				math.Ceil(float64(specs[k].reds)/sr)*(specs[k].redSec+cfg.SchedulingOverheadSec)
		}
		for _, pol := range []cluster.Scheduler{sched.SWRD{}, sched.HCS{Queues: 1}, sched.HFS{}} {
			q := synthQuery("q", specs)
			s := cluster.New(cfg, pol)
			s.Submit(q, 0)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if got := q.ResponseTime(); !near(got, want) {
				t.Fatalf("seed %d %s, %+v, jobs %+v: response %v, want %v", seed, pol.Name(), cfg, specs, got, want)
			}
		}
	}
}
