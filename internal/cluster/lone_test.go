package cluster_test

import (
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/plan"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/slab"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// tpchEstimate estimates the named TPC-H query over the analytic catalog
// at scale factor sf.
func tpchEstimate(t *testing.T, name string, sf float64) *selectivity.QueryEstimate {
	t.Helper()
	q, err := workload.TPCHQuery(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := analyticEstimator(sf).EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	return qe
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

// TestLoneTrimsOutsizedLayout holds the one retention rule of a lone run,
// through both of its holders. An embedded Lone that ran a layout past
// slab.RetainBytes drops its slabs when trimmed, one within the bound
// keeps them, and a small query run after the large one schedules exactly
// as on a fresh Lone. The package pool trims what it is given back: it
// keeps a small layout, not an outsized one, and a small query run on a
// pooled Lone after a large one schedules as on a fresh Lone too. The
// large layout is TPC-H Q1 at SF 1,000, about 3,700 tasks.
func TestLoneTrimsOutsizedLayout(t *testing.T) {
	small, large := tpchEstimate(t, "q11", 1), tpchEstimate(t, "q1", 1000)
	run := func(l *cluster.Lone, est *selectivity.QueryEstimate) *cluster.Query {
		t.Helper()
		q, err := l.Run(nil, cluster.Config{}, sched.SWRD{}, "q", est, trace.NewDefaultCostModel(7), cluster.ConstantPredictor(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	sameAsFresh := func(holder string, got []float64) {
		t.Helper()
		want := schedule(run(new(cluster.Lone), small))
		if len(got) != len(want) {
			t.Fatalf("%s: the small query after the large one lays out %d values, fresh %d", holder, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: the small query after the large one: schedule value %d = %v, fresh Lone %v", holder, i, got[i], want[i])
			}
		}
	}

	l := new(cluster.Lone)
	q := run(l, small)
	l.Trim()
	kept := q.SlabBytes()
	if kept == 0 || kept > slab.RetainBytes {
		t.Fatalf("a small layout keeps %d bytes, want 1…%d", kept, slab.RetainBytes)
	}
	q = run(l, large)
	t.Logf("small layout %d bytes, large %d bytes", kept, q.SlabBytes())
	if n := q.SlabBytes(); n <= slab.RetainBytes {
		t.Fatalf("the large layout holds %d bytes, not over the %d-byte bound", n, slab.RetainBytes)
	}
	l.Trim()
	if n := q.SlabBytes(); n != 0 {
		t.Errorf("after the large run the Lone keeps %d bytes, want 0", n)
	}
	q = run(l, small)
	sameAsFresh("embedded", schedule(q))
	if n := q.SlabBytes(); n != kept {
		t.Errorf("the regrown Lone holds %d bytes, first growth %d", n, kept)
	}

	// The pool: q points into the Lone just put back, which no other
	// goroutine takes while this test reads it.
	p := cluster.GetLone()
	q = run(p, small)
	cluster.PutLone(p)
	if n := q.SlabBytes(); n != kept {
		t.Errorf("the pool keeps %d bytes of a small layout, want %d", n, kept)
	}
	p = cluster.GetLone()
	q = run(p, large)
	cluster.PutLone(p)
	if n := q.SlabBytes(); n != 0 {
		t.Errorf("the pool keeps %d bytes of the large layout, want 0", n)
	}
	p = cluster.GetLone()
	sameAsFresh("pooled", schedule(run(p, small)))
	cluster.PutLone(p)
}
