package mapreduce

import (
	"fmt"
	"math"

	"saqp/internal/dataset"
	"saqp/internal/par"
	"saqp/internal/sim"
)

// same is the grouping identity of integer and string keys; floats group
// by floatKey.
func same[T any](v T) T { return v }

// groupRows assigns each of rows a dense group id over the composite key
// held in keys, ids in first-seen order, into gid (zeroed, one per row),
// and returns the row that introduced each group, written to the front of
// buf (one per row). One typed pass per key column refines the ids of the
// columns before it, in sl's map for the column's key class; no key is
// rendered and nothing is allocated per group.
func groupRows(sl *slot, keys []dataset.Vector, rows, gid, buf []int32) (first []int32) {
	first = rows[:min(1, len(rows))] // no key columns: one group, if any row
	for _, v := range keys {
		switch v.Kind() {
		case dataset.KindString:
			first = refine(sl.groupStrs.reuse(), gid, v.Strings(), rows, same[string], buf)
		case dataset.KindFloat:
			first = refine(sl.groupFlts.reuse(), gid, v.Floats(), rows, floatKey, buf)
		default:
			first = refine(sl.groupInts.reuse(), gid, v.Ints(), rows, same[int64], buf)
		}
	}
	return first
}

// prefixed is a row's key under refine: the group the columns before gave
// it, and its value in the next.
type prefixed[K comparable] struct {
	g int32
	k K
}

// refine splits the groups gid already assigns to rows by one more column,
// numbering them in ids (empty), and writes each new group's first row to
// the front of buf: the previous column's groups are read only through
// gid, so their first rows may go.
func refine[T any, K comparable](ids map[prefixed[K]]int32, gid []int32, vals []T, rows []int32, key func(T) K, buf []int32) (first []int32) {
	first = buf[:0]
	for j, i := range rows {
		p := prefixed[K]{gid[j], key(vals[i])}
		id, ok := ids[p]
		if !ok {
			id = int32(len(first))
			ids[p], first = id, append(first, i)
		}
		gid[j] = id
	}
	return first
}

// joinKey is one side of an equi-join's key in the form it hashes and
// compares in: strings and integers as stored, and floats — or integers
// joined against floats — as floatKey's bit patterns in ints.
type joinKey struct {
	kind dataset.Kind
	ints []int64
	strs []string
}

// joinKeys returns the two key columns of an equi-join in a common storage
// class. Integer and date keys compare as integers, floats by floatKey and
// strings as strings; an integer column against a float one is widened so
// the pair compares numerically; a string against a number is an error.
func joinKeys(s *scratch, a, b dataset.Vector, an, bn string) (joinKey, joinKey, error) {
	if (a.Kind() == dataset.KindString) != (b.Kind() == dataset.KindString) {
		return joinKey{}, joinKey{}, fmt.Errorf("join keys %s (%s) and %s (%s) are not comparable", an, a.Kind(), bn, b.Kind())
	}
	if a.Kind() == dataset.KindFloat || b.Kind() == dataset.KindFloat {
		return floatBits(s, a), floatBits(s, b), nil
	}
	return joinKey{a.Kind(), a.Ints(), a.Strings()}, joinKey{b.Kind(), b.Ints(), b.Strings()}, nil
}

// floatBits keys a numeric column by floatKey of its values as floats.
func floatBits(s *scratch, v dataset.Vector) joinKey {
	bits := s.i64.Cut(v.Len())
	if v.Kind() == dataset.KindFloat {
		for i, x := range v.Floats() {
			bits[i] = int64(floatKey(x))
		}
	} else {
		for i, x := range v.Ints() {
			bits[i] = int64(floatKey(float64(x)))
		}
	}
	return joinKey{kind: dataset.KindFloat, ints: bits}
}

// partition splits rows into r shuffle buckets by sim.FNV32a of the
// Value.AppendText of the value the join compares (a float's from its bits,
// so an integer joined to a float is the widened float; a string is hashed
// where it lies), each bucket keeping rows in order. It returns the buckets
// as segments of one buffer cut from s.
func partition(s *scratch, key joinKey, rows []int32, r int) [][]int32 {
	pid := s.i32.Cut(len(rows))
	bounds := make([]int, r+1)
	var buf [32]byte
	for j, i := range rows {
		var h uint32
		switch key.kind {
		case dataset.KindString:
			h = sim.FNV32a(key.strs[i])
		case dataset.KindFloat:
			h = sim.FNV32a(dataset.Float(math.Float64frombits(uint64(key.ints[i]))).AppendText(buf[:0]))
		default:
			h = sim.FNV32a(dataset.Int(key.ints[i]).AppendText(buf[:0]))
		}
		pid[j] = int32(int(h) % r)
		bounds[pid[j]+1]++
	}
	for p := 0; p < r; p++ {
		bounds[p+1] += bounds[p]
	}
	out := s.i32.Cut(len(rows))
	buckets := make([][]int32, r)
	for p := range buckets {
		buckets[p] = out[bounds[p]:bounds[p]:bounds[p+1]]
	}
	for j, p := range pid {
		buckets[p] = append(buckets[p], rows[j])
	}
	return buckets
}

// pairs are matched (build row, probe row) index pairs in output order.
type pairs struct{ build, probe []int32 }

// chain locates one key's build rows: the position of its first and how
// many there are.
type chain struct{ first, n int32 }

// hashIndex indexes the build rows of a hash join by key, each key's rows
// chained in insertion order through next. Probing only reads it, so
// probe tasks may share one.
type hashIndex[K comparable] struct {
	head  map[K]chain
	next  []int32 // position in brows → position of the key's next row
	brows []int32
}

// newIndex indexes brows by key in head (empty), chaining them through
// next (one per row).
func newIndex[K comparable](head map[K]chain, keys []K, brows, next []int32) hashIndex[K] {
	h := hashIndex[K]{head: head, next: next, brows: brows}
	for j := len(brows) - 1; j >= 0; j-- {
		k := keys[brows[j]]
		c := h.head[k]
		h.next[j] = c.first
		h.head[k] = chain{int32(j), c.n + 1}
	}
	return h
}

// count returns how many build rows the probe rows prows match; keys are
// the probe side's, by row.
//
//saqp:hotpath
func (h *hashIndex[K]) count(keys []K, prows []int32) int {
	n := 0
	for _, r := range prows {
		n += int(h.head[keys[r]].n)
	}
	return n
}

// fill writes the matches count counted into build and probe: probe rows
// in order, each against its key's build rows in insertion order.
//
//saqp:hotpath
func (h *hashIndex[K]) fill(keys []K, prows, build, probe []int32) {
	k := 0
	for _, r := range prows {
		c := h.head[keys[r]]
		for b := c.first; c.n > 0; c.n-- {
			build[k], probe[k] = h.brows[b], r
			b = h.next[b]
			k++
		}
	}
}

// match pairs every probe task's rows with a hash index of build rows and
// returns all the matches, in task order, in one exact-size pair: each task
// counts its matches, a prefix sum places its segment, and each task fills
// its own. With one build set for many tasks (a broadcast) the index is
// built once and shared; with one per task (a shuffle's reducers) each task
// indexes its own. The pairs and every index's chains are cut from s, and
// build i hashes into slot i's heads for the key class.
func match(s *scratch, bk, pk joinKey, builds, probes [][]int32) pairs {
	if bk.kind == dataset.KindString {
		return matchOn(s, bk.strs, pk.strs, builds, probes, func(sl *slot) *table[string, chain] { return &sl.joinStrs })
	}
	return matchOn(s, bk.ints, pk.ints, builds, probes, func(sl *slot) *table[int64, chain] { return &sl.joinInts })
}

func matchOn[K comparable](s *scratch, bkeys, pkeys []K, builds, probes [][]int32, heads func(*slot) *table[K, chain]) pairs {
	idx := make([]hashIndex[K], len(builds))
	for i, b := range builds {
		idx[i].next = s.i32.Cut(len(b))
	}
	slots := s.slots(len(builds))
	own := len(builds) == len(probes)
	if !own {
		idx[0] = newIndex(heads(&slots[0]).reuse(), bkeys, builds[0], idx[0].next)
	}
	off := make([]int, len(probes)+1)
	par.For(len(probes), func(_ *struct{}, i int) {
		if own {
			idx[i] = newIndex(heads(&slots[i]).reuse(), bkeys, builds[i], idx[i].next)
		}
		off[i+1] = idx[min(i, len(idx)-1)].count(pkeys, probes[i])
	})
	for i := range probes {
		off[i+1] += off[i]
	}
	m := pairs{s.i32.Cut(off[len(probes)]), s.i32.Cut(off[len(probes)])}
	par.For(len(probes), func(_ *struct{}, i int) {
		lo, hi := off[i], off[i+1]
		idx[min(i, len(idx)-1)].fill(pkeys, probes[i], m.build[lo:hi], m.probe[lo:hi])
	})
	return m
}
