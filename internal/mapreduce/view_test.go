package mapreduce

import (
	"runtime"
	"testing"

	"saqp/internal/plan"
)

// checkView holds one frame, read through its view, to its gathered copy
// (what the engine built for every join output before outputs were views):
// Validate, Bytes, rowBytes over every other row, and every value by At
// and by Row.
func checkView(t *testing.T, what string, f *Frame) {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	g := f.gathered()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s gathered: %v", what, err)
	}
	if fb, gb := f.Bytes(), g.Bytes(); fb != gb {
		t.Fatalf("%s: view reads %d bytes, gathered copy %d", what, fb, gb)
	}
	var odd []int32
	for i := 1; i < f.n; i += 2 {
		odd = append(odd, int32(i))
	}
	if fb, gb := f.rowBytes(odd), g.rowBytes(odd); fb != gb {
		t.Fatalf("%s: every other row reads %d bytes through the view, %d gathered", what, fb, gb)
	}
	for i := 0; i < f.n; i++ {
		row := f.Row(i)
		for j := range f.Cols {
			if want := g.At(i, j); row[j] != want || f.At(i, j) != want {
				t.Fatalf("%s: row %d column %s reads %v (At %v), gathered %v", what, i, f.Cols[j], row[j], f.At(i, j), want)
			}
		}
	}
}

// TestEngineViewsEqualGathered runs every plan the digest covers, job by
// job, at GOMAXPROCS 8 (make stress runs it under -race), and holds every
// frame the engine builds to its gathered copy: each job's output and each
// folded MAPJOIN's rewritten input. It also checks that the three shapes a
// view takes are reached: q14's folded MAPJOIN shares the 60 000-row
// lineitem side's vectors outright (its selection is the identity), q17's
// three-join chain composes one index per base table rather than one per
// column, and a DAG whose last job is a Join returns a view as
// QueryResult.Final.
func TestEngineViewsEqualGathered(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the engine's view check in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	e := New(Config{})
	for _, rel := range digestRelations() {
		e.Register(rel)
	}
	lineitem := e.tables["lineitem"]
	var sharedQ14, chainedQ17, finalViews bool
	names, dags := digestPlans(t)
	for i, d := range dags {
		var out *Frame
		s := new(scratch)
		for _, job := range d.Jobs {
			what := names[i] + "/" + job.ID
			if len(job.MapJoins) > 0 {
				ins, err := e.resolveInputs(job, out)
				if err == nil {
					ins, err = e.applyMapJoins(s, job, ins, &JobStats{})
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for _, in := range ins {
					checkView(t, what+" input", in.frame)
					if names[i] == "q14" {
						j, k := in.frame.Col("lineitem.l_extendedprice"), lineitem.Schema.ColumnIndex("l_extendedprice")
						sharedQ14 = in.frame.sides != nil && in.frame.index(j) == nil &&
							&in.frame.vecs[j].Floats()[0] == &lineitem.Cols[k].Floats()[0]
					}
				}
			}
			next, _, err := e.runJob(s, job, out)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			out = next
			checkView(t, what, out)
			if names[i] == "q17" && job.ID == "J3" {
				chainedQ17 = len(out.sides) == 4 && len(out.Cols) > len(out.sides)
				for _, s := range out.sides {
					chainedQ17 = chainedQ17 && s.rows != nil
				}
			}
		}
		if sink := d.Jobs[len(d.Jobs)-1]; sink.Type == plan.Join && out.sides != nil {
			finalViews = true
		}
	}
	if !sharedQ14 {
		t.Error("q14's folded MAPJOIN does not share the lineitem side's vectors")
	}
	if !chainedQ17 {
		t.Error("q17's J3 is not a view of four sides, one index per base table")
	}
	if !finalViews {
		t.Error("no plan ends in a Join whose output is a view")
	}
}
