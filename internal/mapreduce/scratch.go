package mapreduce

import (
	"unsafe"

	"saqp/internal/dataset"
)

// scratch is one query's working storage: the buffers whose lifetime ends
// with the query — selections, shuffle buckets, match pairs, composed view
// indexes, gathered input columns, combine vectors and reduce states — are
// cut from it instead of made. The engine keeps one idle scratch between
// queries (Engine.RunQuery), so a warm query allocates none of them. Only
// code outside a par.For body cuts: a phase's per-task buffers are cut
// before it starts, one segment per task.
type scratch struct {
	i32    slab[int32]
	i64    slab[int64]
	f64    slab[float64]
	strs   slab[string]
	states slab[aggState]
}

// slab is one element type's storage. A cut that does not fit starts a new
// buffer rather than growing the old one, so every slice cut before stays
// where it is; reset sizes the buffer to all the query cut.
type slab[T any] struct {
	buf  []T
	used int // elements cut since the last reset, across buffers
}

// cut returns n zeroed elements, as make does, valid until the next reset.
//
//saqp:hotpath
func (b *slab[T]) cut(n int) []T {
	start := len(b.buf)
	if cap(b.buf)-start < n {
		b.buf, start = make([]T, 0, max(n, 2*cap(b.buf))), 0 //lint:allow saqpvet/allocfree grows only while the scratch warms up; TestHotPathAllocs proves a warm cut allocates nothing
	}
	b.used += n
	b.buf = b.buf[:start+n]
	out := b.buf[start : start+n : start+n]
	clear(out)
	return out
}

// size is the bytes b keeps after its next reset.
func (b *slab[T]) size() int64 {
	var zero T
	return int64(max(b.used, cap(b.buf))) * int64(unsafe.Sizeof(zero))
}

// reset makes b's storage reusable, invalidating every slice cut from it.
func (b *slab[T]) reset() {
	if b.used > cap(b.buf) {
		b.buf = make([]T, 0, b.used)
	}
	b.buf, b.used = b.buf[:0], 0
}

func (s *scratch) size() int64 {
	return s.i32.size() + s.i64.size() + s.f64.size() + s.strs.size() + s.states.size()
}

func (s *scratch) reset() {
	s.i32.reset()
	s.i64.reset()
	s.f64.reset()
	s.strs.reset()
	s.states.reset()
}

// gather copies the selected rows of one column, in selection order, into
// storage cut from s: an input column a job reads through a view's index.
// Outputs are gathered onto the heap by the package-level gather.
func (s *scratch) gather(v dataset.Vector, sel []int32) dataset.Vector {
	switch v.Kind() {
	case dataset.KindString:
		out := s.strs.cut(len(sel))
		take(out, v.Strings(), sel)
		return dataset.StringVector(out)
	case dataset.KindFloat:
		out := s.f64.cut(len(sel))
		take(out, v.Floats(), sel)
		return dataset.FloatVector(out)
	}
	out := s.i64.cut(len(sel))
	take(out, v.Ints(), sel)
	return dataset.IntVector(v.Kind(), out)
}
