package mapreduce

import (
	"unsafe"

	"saqp/internal/dataset"
	"saqp/internal/slab"
)

// scratch is one query's working storage: everything a job builds but its
// output's data vectors is cut from it instead of made — selections,
// shuffle buckets, match pairs, composed view indexes, gathered input
// columns, combine vectors, reduce states and rendered group keys; the
// offsets and bounds between them; resolved inputs, predicates and
// aggregates; every per-task slice header; and the header of every frame
// (the Frame, its Cols, vecs and sides), job outputs included — and each
// combine task and join build hashes into a slot of it. Data vectors live
// on the heap: relations' columns and job output data. Only the sink's
// header outlives the query, and Frame.detached copies it out. The
// engine keeps one idle scratch between queries (Engine.RunQuery), so a
// warm query allocates only what it returns. Only code outside a par.For
// body cuts or hands out slots: a phase's per-task buffers are cut before
// it starts, one segment and one slot per task.
type scratch struct {
	i32    slab.Slab[int32]
	i64    slab.Slab[int64]
	f64    slab.Slab[float64]
	strs   slab.Slab[string]
	states slab.Slab[aggState]
	rows   slab.Slab[[]int32] // per-task row lists: map splits' survivors, shuffle buckets
	frames slab.Slab[Frame]
	vecs   slab.Slab[dataset.Vector]
	sides  slab.Slab[side]
	ins    slab.Slab[jobInput]
	preds  slab.Slab[scanPred]
	specs  slab.Slab[aggSpec]
	tasks  slab.Slab[combineTask]
	slot   []slot
	// keys holds a Groupby's rendered output keys, one job at a time.
	keys []byte
	// phase holds the parallel phases' contexts.
	phase phases
}

// phases is a context for each kind of parallel phase, the par.Body
// whose Run is one of its tasks: a query runs its phases one after
// another, so one of each kind serves them all, and living in the
// scratch, each is handed to internal/par.For by address without
// allocating.
type phases struct {
	filter   filterPhase
	combine  combinePhase
	intMatch matchPhase[int64]
	strMatch matchPhase[string]
}

func (s *scratch) size() int64 {
	n := s.i32.Bytes() + s.i64.Bytes() + s.f64.Bytes() + s.strs.Bytes() + s.states.Bytes() +
		s.rows.Bytes() + s.frames.Bytes() + s.vecs.Bytes() + s.sides.Bytes() + s.ins.Bytes() +
		s.preds.Bytes() + s.specs.Bytes() + s.tasks.Bytes() + int64(cap(s.keys))
	for i := range s.slot {
		n += s.slot[i].bytes()
	}
	return n
}

// reset readies s for the next query. A slot's join indexes drop their
// rows, and the phase contexts what they read and filled, which were cut
// from the slabs or are the query's data, so neither a slab's replaced
// buffer nor a finished query's data is kept alive through them.
func (s *scratch) reset() {
	s.phase = phases{}
	s.i32.Reset()
	s.i64.Reset()
	s.f64.Reset()
	s.strs.Reset()
	s.states.Reset()
	s.rows.Reset()
	s.frames.Reset()
	s.vecs.Reset()
	s.sides.Reset()
	s.ins.Reset()
	s.preds.Reset()
	s.specs.Reset()
	s.tasks.Reset()
	for i := range s.slot {
		s.slot[i].joinInts.drop()
		s.slot[i].joinStrs.drop()
	}
}

// frame cuts an n-row frame's header from s.
func (s *scratch) frame(n int, cols []string, vecs []dataset.Vector, sides []side) *Frame {
	f := &s.frames.Cut(1)[0]
	*f = Frame{Cols: cols, vecs: vecs, sides: sides, n: n}
	return f
}

// one is rows as the only build of a match: a broadcast's.
func (s *scratch) one(rows []int32) [][]int32 {
	b := s.rows.Cut(1)
	b[0] = rows
	return b
}

// slots hands out one slot per task of a phase, valid until the next call.
func (s *scratch) slots(n int) []slot {
	if len(s.slot) < n {
		s.slot = append(s.slot, make([]slot, n-len(s.slot))...)
	}
	return s.slot[:n]
}

// slot is one task's hash tables and partial states, kept across queries
// and emptied when reused: a join build's index, by key class, a
// combine's or the reduce's group-key maps, one for strings and one for
// integers and floats (a float by floatKey's bits), and the buffer a
// combine's partial states are cut from. Nothing ranges over a
// kept map, so reusing one changes no order.
type slot struct {
	joinInts  hashIndex[int64]
	joinStrs  hashIndex[string]
	groupInts table[prefixed[int64], int32]
	groupStrs table[prefixed[string], int32]
	states    slab.Slab[aggState]
}

// partials returns n zeroed aggregate states, in place of the last ones.
func (sl *slot) partials(n int) []aggState {
	sl.states.Reset()
	return sl.states.Cut(n)
}

func (sl *slot) bytes() int64 {
	return sl.joinInts.heads.bytes() + sl.joinStrs.heads.bytes() + sl.groupInts.bytes() +
		sl.groupStrs.bytes() + sl.states.Bytes()
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
