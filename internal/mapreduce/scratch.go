package mapreduce

import (
	"unsafe"

	"saqp/internal/dataset"
	"saqp/internal/slab"
)

// scratch is one query's working storage: the buffers whose lifetime ends
// with the query — selections, shuffle buckets, match pairs, composed view
// indexes, gathered input columns, combine vectors, reduce states and
// rendered group keys — are
// cut from it instead of made, and each combine task and join build hashes
// into a slot of it. The engine keeps one idle scratch between queries
// (Engine.RunQuery), so a warm query allocates none of them. Only code
// outside a par.For body cuts or hands out slots: a phase's per-task
// buffers are cut before it starts, one segment and one slot per task.
type scratch struct {
	i32    slab.Slab[int32]
	i64    slab.Slab[int64]
	f64    slab.Slab[float64]
	strs   slab.Slab[string]
	states slab.Slab[aggState]
	slot   []slot
	// keys holds a Groupby's rendered output keys, one job at a time.
	keys []byte
}

func (s *scratch) size() int64 {
	n := s.i32.Bytes() + s.i64.Bytes() + s.f64.Bytes() + s.strs.Bytes() + s.states.Bytes() + int64(cap(s.keys))
	for i := range s.slot {
		n += s.slot[i].bytes()
	}
	return n
}

func (s *scratch) reset() {
	s.i32.Reset()
	s.i64.Reset()
	s.f64.Reset()
	s.strs.Reset()
	s.states.Reset()
}

// slots hands out one slot per task of a phase, valid until the next call.
func (s *scratch) slots(n int) []slot {
	if len(s.slot) < n {
		s.slot = append(s.slot, make([]slot, n-len(s.slot))...)
	}
	return s.slot[:n]
}

// slot is one task's hash tables and partial states, kept across queries
// and emptied when reused: a join build's index heads, by key class, a
// combine's or the reduce's group-key maps, one per key class, and the
// buffer a combine's partial states are cut from. Nothing ranges over a
// kept map, so reusing one changes no order.
type slot struct {
	joinInts  table[int64, chain]
	joinStrs  table[string, chain]
	groupInts table[prefixed[int64], int32]
	groupStrs table[prefixed[string], int32]
	groupFlts table[prefixed[uint64], int32]
	states    slab.Slab[aggState]
}

// partials returns n zeroed aggregate states, in place of the last ones.
func (sl *slot) partials(n int) []aggState {
	sl.states.Reset()
	return sl.states.Cut(n)
}

func (sl *slot) bytes() int64 {
	return sl.joinInts.bytes() + sl.joinStrs.bytes() + sl.groupInts.bytes() +
		sl.groupStrs.bytes() + sl.groupFlts.bytes() + sl.states.Bytes()
}

// table is one map a slot keeps. A Go map never shrinks, so it weighs what
// its most entries did: peak is the highest len it held before emptied.
type table[K comparable, V any] struct {
	m    map[K]V
	peak int
}

// reuse returns t's map, empty.
func (t *table[K, V]) reuse() map[K]V {
	if t.m == nil {
		t.m = make(map[K]V)
	}
	t.peak = max(t.peak, len(t.m))
	clear(t.m)
	return t.m
}

// bytes estimates the storage t keeps: its most entries, at the 7/8 a
// map's groups are filled to before they grow.
func (t *table[K, V]) bytes() int64 {
	var k K
	var v V
	return int64(max(t.peak, len(t.m))) * int64(unsafe.Sizeof(k)+unsafe.Sizeof(v)) * 8 / 7
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
