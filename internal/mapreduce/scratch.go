package mapreduce

import (
	"saqp/internal/dataset"
	"saqp/internal/slab"
)

// scratch is one query's working storage: the buffers whose lifetime ends
// with the query — selections, shuffle buckets, match pairs, composed view
// indexes, gathered input columns, combine vectors and reduce states — are
// cut from it instead of made. The engine keeps one idle scratch between
// queries (Engine.RunQuery), so a warm query allocates none of them. Only
// code outside a par.For body cuts: a phase's per-task buffers are cut
// before it starts, one segment per task.
type scratch struct {
	i32    slab.Slab[int32]
	i64    slab.Slab[int64]
	f64    slab.Slab[float64]
	strs   slab.Slab[string]
	states slab.Slab[aggState]
}

func (s *scratch) size() int64 {
	return s.i32.Bytes() + s.i64.Bytes() + s.f64.Bytes() + s.strs.Bytes() + s.states.Bytes()
}

func (s *scratch) reset() {
	s.i32.Reset()
	s.i64.Reset()
	s.f64.Reset()
	s.strs.Reset()
	s.states.Reset()
}

// gather copies the selected rows of one column, in selection order, into
// storage cut from s: an input column a job reads through a view's index.
// Outputs are gathered onto the heap by the package-level gather.
func (s *scratch) gather(v dataset.Vector, sel []int32) dataset.Vector {
	switch v.Kind() {
	case dataset.KindString:
		out := s.strs.Cut(len(sel))
		take(out, v.Strings(), sel)
		return dataset.StringVector(out)
	case dataset.KindFloat:
		out := s.f64.Cut(len(sel))
		take(out, v.Floats(), sel)
		return dataset.FloatVector(out)
	}
	out := s.i64.Cut(len(sel))
	take(out, v.Ints(), sel)
	return dataset.IntVector(v.Kind(), out)
}
