package mapreduce

import (
	"slices"
	"strings"
	"testing"

	"saqp/internal/plan"
	"saqp/internal/workload"
)

// TestGroupbyColumnsArePlanNames holds every Groupby job of the 7 TPC-H
// DAGs to the plan's names for its output: its GroupKeys, then
// Job.AggColumn(i) per aggregate — the names a later job's ORDER BY
// resolves. Each DAG is cut after the Groupby so its output is the sink.
func TestGroupbyColumnsArePlanNames(t *testing.T) {
	e := newTestEngine(t)
	for _, name := range workload.TPCHNames() {
		q, err := workload.TPCHQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		groupbys := 0
		for g, job := range d.Jobs {
			if job.Type != plan.Groupby {
				continue
			}
			groupbys++
			res, err := e.RunQuery(&plan.DAG{Jobs: d.Jobs[:g+1], Query: d.Query})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var want []string
			for _, k := range job.GroupKeys {
				want = append(want, k.String())
			}
			for i := range job.Aggs {
				want = append(want, job.AggColumn(i).String())
			}
			if !slices.Equal(res.Final.Cols, want) {
				t.Errorf("%s %s: output columns %q, plan names %q", name, job.ID, res.Final.Cols, want)
			}
		}
		if groupbys == 0 {
			t.Errorf("%s: no Groupby job", name)
		}
	}
}

// TestOrderByAggregatePastSpelledNames orders by a Groupby's 17th
// aggregate, agg16, whose name is past the ones plan spells out and is
// formatted by AggColumn: the Groupby must write it and the Extract find
// it.
func TestOrderByAggregatePastSpelledNames(t *testing.T) {
	var aggs []string
	for _, c := range []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"} {
		for _, f := range []string{"sum", "avg", "min", "max"} {
			aggs = append(aggs, f+"("+c+")")
		}
	}
	last := "sum(l_extendedprice*l_discount)"
	d := compile(t, "SELECT l_shipmode, "+strings.Join(aggs, ", ")+", "+last+
		" FROM lineitem GROUP BY l_shipmode ORDER BY "+last+" DESC")
	gb, ext := d.Jobs[len(d.Jobs)-2], d.Jobs[len(d.Jobs)-1]
	col := gb.AggColumn(16)
	if gb.Type != plan.Groupby || len(gb.Aggs) != 17 || col.Column != "agg16" || ext.OrderKeys[0].Col != col {
		t.Fatalf("plan: %s with %d aggregates, AggColumn(16) %v, order key %v", gb.Type, len(gb.Aggs), col, ext.OrderKeys[0].Col)
	}
	res, err := newTestEngine(t).RunQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Final
	j := f.Col(col)
	if j != 17 || f.NumRows() < 2 {
		t.Fatalf("%s at column %d of %q, %d rows", col, j, f.Cols, f.NumRows())
	}
	for i := 1; i < int(f.NumRows()); i++ {
		if f.At(i, j).F > f.At(i-1, j).F {
			t.Fatalf("row %d: %s %v after %v, not descending", i, col, f.At(i, j).F, f.At(i-1, j).F)
		}
	}
}
