package cluster_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/sched"
)

// observedRun replays a fixed three-query workload (with dependencies,
// slowstart hoarding and contention) under SWRD with full instrumentation
// and returns the serialised trace, metrics and drift snapshot.
func observedRun(t *testing.T) (traceJSON, prom, drift []byte) {
	t.Helper()
	var traceBuf bytes.Buffer
	o := obs.New(obs.NewTraceSink(&traceBuf))

	s := cluster.New(cluster.Config{
		Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		SchedulingOverheadSec: 0.5, JobInitSec: 2, ReduceSlowstart: 0.5,
	}, sched.SWRD{}).SetObserver(o)

	big := synthQuery("big", []jobSpec{
		{id: "J1", maps: 6, reds: 2, mapSec: 10, redSec: 8, jobType: plan.Join},
		{id: "J2", maps: 2, reds: 1, mapSec: 6, redSec: 4, jobType: plan.Groupby},
	})
	small1 := synthQuery("small1", []jobSpec{
		{id: "J1", maps: 2, reds: 1, mapSec: 3, redSec: 2, jobType: plan.Groupby},
	})
	small2 := synthQuery("small2", []jobSpec{
		{id: "J1", maps: 2, mapSec: 4, jobType: plan.Extract},
	})
	s.Submit(big, 0)
	s.Submit(small1, 5)
	s.Submit(small2, 9)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var promBuf bytes.Buffer
	if err := o.Metrics.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	dj, err := o.Drift.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	return traceBuf.Bytes(), promBuf.Bytes(), dj
}

// TestObservedRunDeterministic is the tentpole guarantee: a fixed
// workload produces byte-identical trace JSONL, Prometheus text and
// drift snapshots across independent runs.
func TestObservedRunDeterministic(t *testing.T) {
	t1, p1, d1 := observedRun(t)
	t2, p2, d2 := observedRun(t)
	if !bytes.Equal(t1, t2) {
		t.Error("trace output differs between identical runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Errorf("metrics exposition differs between identical runs:\n%s\nvs\n%s", p1, p2)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("drift snapshot differs between identical runs")
	}
}

// TestObservedRunContent sanity-checks the instrumentation against the
// known workload: every lifecycle event type appears and the counters
// match the task totals.
func TestObservedRunContent(t *testing.T) {
	traceJSON, _, _ := observedRun(t)
	var events []map[string]any
	if err := json.Unmarshal(traceJSON, &events); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e["ph"].(string)]++
	}
	// 3 query spans + 4 job spans + 12 map + 4 reduce task spans.
	if want := 23; counts["X"] != want {
		t.Errorf("complete spans = %d, want %d", counts["X"], want)
	}
	if counts["i"] == 0 {
		t.Error("no instant events (arrivals, submissions, scheduler decisions)")
	}

	o := obs.New(nil)
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		SchedulingOverheadSec: 0.5}, sched.HCS{}).SetObserver(o)
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 3, reds: 2, mapSec: 5, redSec: 4, jobType: plan.Join}})
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	counters := o.Metrics.Snapshot().Counters
	if got := counters["saqp_cluster_map_tasks_completed_total"]; got != 3 {
		t.Errorf("map tasks completed = %v, want 3", got)
	}
	if got := counters["saqp_cluster_reduce_tasks_completed_total"]; got != 2 {
		t.Errorf("reduce tasks completed = %v, want 2", got)
	}
	if got := counters["saqp_cluster_queries_completed_total"]; got != 1 {
		t.Errorf("queries completed = %v, want 1", got)
	}
	// Predicted == actual in synthetic queries, but observed slot
	// occupancy adds scheduling overhead (maps) and slowstart hoard time
	// (reduces launched before the map phase ends), so drift is positive:
	// exactly the gap the recorder exists to surface.
	ds := o.Drift.Snapshot()
	if len(ds.Tasks) != 2 {
		t.Fatalf("task drift categories = %d, want Join/map and Join/reduce", len(ds.Tasks))
	}
	for _, s := range ds.Tasks {
		if s.MeanRelError < 0 || s.MeanRelError > 1 {
			t.Errorf("%s mean rel err = %v, want overhead-scale drift", s.Category, s.MeanRelError)
		}
	}
}

// TestUninstrumentedRunUnchanged guards the refactor that threaded slot
// identities through the simulator: with and without an observer the
// schedule must be identical.
func TestUninstrumentedRunUnchanged(t *testing.T) {
	build := func() *cluster.Sim {
		s := cluster.New(cluster.Config{
			Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			SchedulingOverheadSec: 0.5, JobInitSec: 2, ReduceSlowstart: 0.5,
		}, sched.SWRD{})
		s.Submit(synthQuery("a", []jobSpec{
			{id: "J1", maps: 5, reds: 2, mapSec: 7, redSec: 3, jobType: plan.Join},
		}), 0)
		s.Submit(synthQuery("b", []jobSpec{
			{id: "J1", maps: 2, reds: 1, mapSec: 2, redSec: 2, jobType: plan.Groupby},
		}), 3)
		return s
	}
	plain := build()
	r1, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	instrumented := build().SetObserver(obs.New(nil))
	r2, err := instrumented.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.AvgResponseTime() != r2.AvgResponseTime() {
		t.Fatalf("observer changed the schedule: makespan %v vs %v, avg %v vs %v",
			r1.Makespan, r2.Makespan, r1.AvgResponseTime(), r2.AvgResponseTime())
	}
}
