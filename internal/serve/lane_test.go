package serve

import (
	"context"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
	"saqp/internal/slab"
	"saqp/internal/workload"
)

// estimateAt estimates sql over the analytic catalog at scale factor sf.
func estimateAt(t *testing.T, sql string, sf float64) *selectivity.QueryEstimate {
	t.Helper()
	var list []*dataset.Schema
	for _, s := range dataset.AllSchemas() {
		list = append(list, s)
	}
	q := mustParse(t, sql)
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	est, err := selectivity.NewEstimator(catalog.FromSchemas(list, sf, catalog.DefaultBuckets), selectivity.Config{}).EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// schedule is every task's start and end, in layout order, and the
// response time: what a run decided.
func schedule(q *cluster.Query) []float64 {
	out := []float64{q.ResponseTime()}
	for _, j := range q.Jobs {
		for _, tasks := range [2][]*cluster.Task{j.Maps, j.Reds} {
			for _, tk := range tasks {
				out = append(out, tk.StartTime, tk.EndTime)
			}
		}
	}
	return out
}

// TestLaneReleasesOutsizedLayout: a lane that served a layout past
// slab.RetainBytes drops its slabs after the run, one within it
// keeps them, and a small query served after the large one schedules
// exactly as on a fresh lane. The large layout is TPC-H Q1 at SF 1,000,
// about 3,700 tasks.
func TestLaneReleasesOutsizedLayout(t *testing.T) {
	q11, err := workload.TPCHSQL("q11")
	if err != nil {
		t.Fatal(err)
	}
	small, large := estimateAt(t, q11, 1), estimateAt(t, q1, 1000)
	serve := func(w *lane, est *selectivity.QueryEstimate) []float64 {
		t.Helper()
		if err := w.simulate(context.Background(), cluster.Config{}, "q", est, 7, cluster.ConstantPredictor(1), nil); err != nil {
			t.Fatal(err)
		}
		return schedule(&w.q)
	}
	want := serve(new(lane), small)

	w := new(lane)
	serve(w, small)
	w.release()
	kept := w.q.SlabBytes()
	if kept == 0 || kept > slab.RetainBytes {
		t.Fatalf("a small layout keeps %d bytes, want 1…%d", kept, slab.RetainBytes)
	}
	serve(w, large)
	t.Logf("small layout %d bytes, large %d bytes", kept, w.q.SlabBytes())
	if n := w.q.SlabBytes(); n <= slab.RetainBytes {
		t.Fatalf("the large layout holds %d bytes, not over the %d-byte bound", n, slab.RetainBytes)
	}
	w.release()
	if n := w.q.SlabBytes(); n != 0 {
		t.Errorf("after the large run the lane keeps %d bytes, want 0", n)
	}
	got := serve(w, small)
	if len(got) != len(want) {
		t.Fatalf("small query after the large one lays out %d values, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("small query after the large one: schedule value %d = %v, fresh lane %v", i, got[i], want[i])
		}
	}
	if n := w.q.SlabBytes(); n != kept {
		t.Errorf("the regrown lane holds %d bytes, first growth %d", n, kept)
	}
}
