package selectivity

import (
	"reflect"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
)

// TestResetWalkHoldsNothing: between estimates a pooled walk points into
// none of them — no estimator, plan, job estimate, task group or edge
// statistic survives reset, in the slots used or the spare capacity —
// while its slabs stay for the next estimate.
func TestResetWalkHoldsNothing(t *testing.T) {
	var list []*dataset.Schema
	for _, s := range dataset.AllSchemas() {
		list = append(list, s)
	}
	est := NewEstimator(catalog.FromSchemas(list, 1, catalog.DefaultBuckets), Config{})
	w := new(walk)
	for _, sql := range []string{q11, `SELECT o_orderpriority, count(*) FROM customer JOIN orders ON o_custkey = c_custkey JOIN lineitem ON l_orderkey = o_orderkey WHERE l_quantity < 20 AND o_orderkey < 50000 GROUP BY o_orderpriority`, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 30`} {
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.estimate(est, d); err != nil {
			t.Fatal(err)
		}
		w.reset()
		if w.e != nil || w.jobs != nil || w.groups != nil {
			t.Errorf("%.40s…: reset kept the estimator, plan or task groups", sql)
		}
		if cap(w.stages) == 0 || cap(w.cols) == 0 {
			t.Errorf("%.40s…: reset dropped the stage or column slab", sql)
		}
		for i, st := range w.stages[:cap(w.stages)] {
			if !reflect.ValueOf(st).IsZero() {
				t.Errorf("%.40s…: stage %d survives reset: %+v", sql, i, st)
			}
		}
		for i, c := range w.cols[:cap(w.cols)] {
			if !reflect.ValueOf(c).IsZero() {
				t.Errorf("%.40s…: edge column %d survives reset: %+v", sql, i, c)
			}
		}
	}
}
