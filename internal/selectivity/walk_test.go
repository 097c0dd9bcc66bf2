package selectivity

import (
	"reflect"
	"testing"
	"unsafe"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/histogram"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/slab"
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
		if w.stages != nil || w.stageSlab.Bytes() == 0 || w.colSlab.Bytes() == 0 {
			t.Errorf("%.40s…: reset kept the stages or dropped the stage or column slab", sql)
		}
		for i, st := range cutAll(t, &w.stageSlab) {
			if !reflect.ValueOf(st).IsZero() {
				t.Errorf("%.40s…: stage %d survives reset: %+v", sql, i, st)
			}
		}
		for i, c := range cutAll(t, &w.colSlab) {
			if !reflect.ValueOf(c).IsZero() {
				t.Errorf("%.40s…: edge column %d survives reset: %+v", sql, i, c)
			}
		}
		w.stageSlab.Reset()
		w.colSlab.Reset()
	}
}

// cutAll cuts a reset slab's whole buffer, spare capacity included, and
// fails the test if that took a new buffer: the walk reset its slab for
// reuse rather than leaving it full.
func cutAll[T any](t *testing.T, s *slab.Slab[T]) []T {
	t.Helper()
	var zero T
	kept := s.Bytes()
	all := s.Cut(int(kept / int64(unsafe.Sizeof(zero))))
	if s.Bytes() != kept {
		t.Errorf("cutting the %d bytes a reset %T slab keeps grew it to %d", kept, zero, s.Bytes())
	}
	return all
}

// TestResetWalkDropsOutsizedSlabs: reset drops each of a walk's slabs —
// stages, edge columns, the arena — that holds more than
// slab.RetainBytes, and keeps the others.
func TestResetWalkDropsOutsizedSlabs(t *testing.T) {
	w := new(walk)
	w.stageSlab.Cut(1)
	w.colSlab.Cut(slab.RetainBytes/int(unsafe.Sizeof(edgeCol{})) + 1)
	w.arena.New(0, 1, slab.RetainBytes/int(unsafe.Sizeof(histogram.Bucket{}))+1)
	w.reset()
	if w.stageSlab.Bytes() == 0 || w.colSlab.Bytes() != 0 || !reflect.ValueOf(w.arena).IsZero() {
		t.Errorf("after outsized columns and arena: stage slab %d bytes (want kept), column slab %d (want 0), arena dropped %v",
			w.stageSlab.Bytes(), w.colSlab.Bytes(), reflect.ValueOf(w.arena).IsZero())
	}
	w.stageSlab.Cut(slab.RetainBytes/int(unsafe.Sizeof(stage{})) + 1)
	w.colSlab.Cut(1)
	w.arena.New(0, 1, 1)
	w.reset()
	if w.stageSlab.Bytes() != 0 || w.colSlab.Bytes() == 0 || reflect.ValueOf(w.arena).IsZero() {
		t.Errorf("after outsized stages: stage slab %d bytes (want 0), column slab %d (want kept), arena dropped %v",
			w.stageSlab.Bytes(), w.colSlab.Bytes(), reflect.ValueOf(w.arena).IsZero())
	}
}
