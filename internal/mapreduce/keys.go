package mapreduce

import (
	"fmt"
	"math"

	"saqp/internal/dataset"
	"saqp/internal/par"
	"saqp/internal/plan"
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
			first = refine(sl.groupInts.reuse(), gid, v.Floats(), rows, floatKey, buf)
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
			bits[i] = floatKey(x)
		}
	} else {
		for i, x := range v.Ints() {
			bits[i] = floatKey(float64(x))
		}
	}
	return joinKey{kind: dataset.KindFloat, ints: bits}
}

// partition splits rows into r shuffle buckets by sim.FNV32a of the
// Value.AppendText of the value the join compares (a float's from its bits,
// so an integer joined to a float is the widened float; a string is hashed
// where it lies), each bucket keeping rows in order. It returns the buckets
// as segments of one buffer, all cut from s.
func partition(s *scratch, key joinKey, rows []int32, r int) [][]int32 {
	pid := s.i32.Cut(len(rows))
	bounds := s.i32.Cut(r + 1)
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
	buckets := s.rows.Cut(r)
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
// chained in insertion order through next. A slot keeps one per key class:
// its heads map across queries, its rows for one match. Probing only reads
// it, so probe tasks may share one.
type hashIndex[K comparable] struct {
	heads table[K, chain]
	next  []int32 // position in brows → position of the key's next row
	brows []int32
}

// build indexes h.brows by their keys, chaining them through h.next (one
// per row); the caller sets both.
func (h *hashIndex[K]) build(keys []K) {
	head := h.heads.reuse()
	for j := len(h.brows) - 1; j >= 0; j-- {
		k := keys[h.brows[j]]
		c := head[k]
		h.next[j] = c.first
		head[k] = chain{int32(j), c.n + 1}
	}
}

// drop forgets the rows of h's last build.
func (h *hashIndex[K]) drop() { h.next, h.brows = nil, nil }

// count returns how many build rows the probe rows prows match; keys are
// the probe side's, by row.
//
//saqp:hotpath
func (h *hashIndex[K]) count(keys []K, prows []int32) int {
	n := 0
	for _, r := range prows {
		n += int(h.heads.m[keys[r]].n)
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
		c := h.heads.m[keys[r]]
		for b := c.first; c.n > 0; c.n-- {
			build[k], probe[k] = h.brows[b], r
			b = h.next[b]
			k++
		}
	}
}

// JoinTooLargeError is a join refused before its match pairs were cut:
// they would take more than Budget bytes, 8 per match. RunQuery's error
// wraps it with the job's ID.
type JoinTooLargeError struct {
	Job     string // the refused job's ID
	Matches int64  // the matches its tasks counted
	Budget  int64  // bytes
}

// Error states the count and the budget; the job is named by the error
// that wraps it.
func (e *JoinTooLargeError) Error() string {
	return fmt.Sprintf("join of %d matches needs %d bytes of pairs, over the %d-byte budget", e.Matches, 8*e.Matches, e.Budget)
}

// match pairs every probe task's rows with a hash index of build rows and
// returns all the matches, in task order, in one exact-size pair: each task
// counts its matches, a prefix sum places its segment, and each task fills
// its own. With one build set for many tasks (a broadcast) the index is
// built once and shared; with one per task (a shuffle's reducers) each task
// indexes its own. The pairs and every index's chains are cut from s, and
// build i hashes into slot i's index for the key class.
//
// A join may match at most one row pair per byte of the engine's
// registered relations: its pairs, 8 bytes a match, get 8 × e.bytes. One
// that counts more is refused before they are cut, with a
// JoinTooLargeError. Every other frame is bounded by its inputs: a filter,
// sort or limit keeps at most their rows, a Groupby at most one row per
// input row, and a join's output is its pairs.
func (e *Engine) match(s *scratch, job *plan.Job, bk, pk joinKey, builds, probes [][]int32) (pairs, error) {
	limit := e.bytes // matches
	var m pairs
	var n int64
	if bk.kind == dataset.KindString {
		m, n = matchOn(s, &s.phase.strMatch, strIndex, limit, bk.strs, pk.strs, builds, probes)
	} else {
		m, n = matchOn(s, &s.phase.intMatch, intIndex, limit, bk.ints, pk.ints, builds, probes)
	}
	if n > limit {
		return pairs{}, &JoinTooLargeError{Job: job.ID, Matches: n, Budget: 8 * limit}
	}
	return m, nil
}

// matchPhase is a match's context for one key class: the slots whose
// indexes its tasks build or share, where a slot keeps the class's index,
// whether each task builds its own, the build and probe sides' keys, by
// row, each task's probe rows, its offset into the pairs, the pairs, and
// which of its two passes Run takes.
type matchPhase[K comparable] struct {
	slots        []slot
	index        func(*slot) *hashIndex[K]
	own          bool
	bkeys, pkeys []K
	probes       [][]int32
	off          []int64
	pairs        pairs
	filling      bool
}

// Run is match task i. Its first pass indexes its own build rows, if it
// has them, and counts its probe rows' matches into off[i+1]; its second,
// once filling, writes them into its segment of the pairs. It probes its
// own slot's index, or slot 0's, which every task shares.
func (c *matchPhase[K]) Run(i int) {
	ix := c.index(&c.slots[min(i, len(c.slots)-1)])
	if c.filling {
		lo, hi := c.off[i], c.off[i+1]
		ix.fill(c.pkeys, c.probes[i], c.pairs.build[lo:hi], c.pairs.probe[lo:hi])
		return
	}
	if c.own {
		ix.build(c.bkeys)
	}
	c.off[i+1] = int64(ix.count(c.pkeys, c.probes[i]))
}

// intIndex is where a slot keeps the index of integer and float keys.
func intIndex(sl *slot) *hashIndex[int64] { return &sl.joinInts }

// strIndex is where a slot keeps the index of string keys.
func strIndex(sl *slot) *hashIndex[string] { return &sl.joinStrs }

// matchOn is match for one key class, in its context c, with the class's
// index in each slot. It returns the matches its tasks counted, and cuts
// and fills the pairs only if they are at most limit.
func matchOn[K comparable](s *scratch, c *matchPhase[K], index func(*slot) *hashIndex[K], limit int64, bkeys, pkeys []K, builds, probes [][]int32) (pairs, int64) {
	*c = matchPhase[K]{slots: s.slots(len(builds)), index: index, own: len(builds) == len(probes),
		bkeys: bkeys, pkeys: pkeys, probes: probes, off: s.i64.Cut(len(probes) + 1)}
	for i, b := range builds {
		ix := index(&c.slots[i])
		ix.next, ix.brows = s.i32.Cut(len(b)), b
	}
	if !c.own {
		index(&c.slots[0]).build(bkeys)
	}
	par.For(len(probes), c)
	off := c.off
	for i := range probes {
		off[i+1] += off[i]
	}
	n := off[len(probes)]
	if n > limit {
		return pairs{}, n
	}
	c.pairs, c.filling = pairs{s.i32.Cut(int(n)), s.i32.Cut(int(n))}, true
	par.For(len(probes), c)
	return c.pairs, n
}
