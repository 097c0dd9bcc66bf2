package mapreduce

import (
	"fmt"

	"saqp/internal/dataset"
)

// same is the grouping identity of integer and string keys; floats group
// by floatKey.
func same[T any](v T) T { return v }

// groupRows assigns each of rows a dense group id over the composite key
// held in keys, ids in first-seen order, and returns them with the row that
// introduced each group. One typed pass per key column refines the ids of
// the columns before it; no key is rendered and nothing is allocated per
// group.
func groupRows(keys []dataset.Vector, rows []int32) (gid, first []int32) {
	gid = make([]int32, len(rows))
	first = rows[:min(1, len(rows))] // no key columns: one group, if any row
	for _, v := range keys {
		switch v.Kind() {
		case dataset.KindString:
			first = refine(gid, v.Strings(), rows, same[string])
		case dataset.KindFloat:
			first = refine(gid, v.Floats(), rows, floatKey)
		default:
			first = refine(gid, v.Ints(), rows, same[int64])
		}
	}
	return gid, first
}

// refine splits the groups gid already assigns to rows by one more column.
func refine[T any, K comparable](gid []int32, vals []T, rows []int32, key func(T) K) (first []int32) {
	type prefixed struct {
		g int32
		k K
	}
	ids := make(map[prefixed]int32)
	for j, i := range rows {
		p := prefixed{gid[j], key(vals[i])}
		id, ok := ids[p]
		if !ok {
			id = int32(len(first))
			ids[p], first = id, append(first, i)
		}
		gid[j] = id
	}
	return first
}

// joinKeys returns the two key columns of an equi-join in a common storage
// class. Integer and date keys compare as integers, floats by floatKey and
// strings as strings; an integer column against a float one is widened once
// so the pair compares numerically; a string against a number is an error.
func joinKeys(a, b dataset.Vector, an, bn string) (dataset.Vector, dataset.Vector, error) {
	if (a.Kind() == dataset.KindString) != (b.Kind() == dataset.KindString) {
		return a, b, fmt.Errorf("join keys %s (%s) and %s (%s) are not comparable", an, a.Kind(), bn, b.Kind())
	}
	if af, bf := a.Kind() == dataset.KindFloat, b.Kind() == dataset.KindFloat; af && !bf {
		b = widened(b)
	} else if bf && !af {
		a = widened(a)
	}
	return a, b, nil
}

func widened(v dataset.Vector) dataset.Vector {
	f := make([]float64, v.Len())
	for i, x := range v.Ints() {
		f[i] = float64(x)
	}
	return dataset.FloatVector(f)
}

// partition splits rows into r shuffle buckets by fnv32a of the key's
// rendering (appendKey's; a string is hashed where it lies), each bucket
// keeping rows in order. It returns the rows grouped by bucket and the r+1
// bucket boundaries.
func partition(key dataset.Vector, rows []int32, r int) ([]int32, []int) {
	pid := make([]int32, len(rows))
	bounds := make([]int, r+1)
	var buf [32]byte
	for j, i := range rows {
		var h uint32
		if strs := key.Strings(); strs != nil {
			h = fnv32a(strs[i])
		} else {
			h = fnv32a(appendKey(buf[:0], key, i))
		}
		pid[j] = int32(int(h) % r)
		bounds[pid[j]+1]++
	}
	for p := 0; p < r; p++ {
		bounds[p+1] += bounds[p]
	}
	out := make([]int32, len(rows))
	next := append([]int(nil), bounds[:r]...)
	for j, p := range pid {
		out[next[p]] = rows[j]
		next[p]++
	}
	return out, bounds
}

// pairs are matched (build row, probe row) index pairs in output order.
type pairs struct{ build, probe []int32 }

// joinIndex indexes the build rows of a hash join by key — each key's rows
// chained in insertion order through one next slice — and returns the probe:
// it matches probe rows in order, each against its key's build rows in
// insertion order. The probe only reads, so map tasks may share it.
func joinIndex(build, probe dataset.Vector, brows []int32) func(prows []int32) pairs {
	switch build.Kind() {
	case dataset.KindString:
		return indexOn(build.Strings(), probe.Strings(), brows, same[string])
	case dataset.KindFloat:
		return indexOn(build.Floats(), probe.Floats(), brows, floatKey)
	}
	return indexOn(build.Ints(), probe.Ints(), brows, same[int64])
}

func indexOn[T any, K comparable](bvals, pvals []T, brows []int32, key func(T) K) func([]int32) pairs {
	head := make(map[K]int32) // key → position in brows of its first row
	next := make([]int32, len(brows))
	for j := len(brows) - 1; j >= 0; j-- {
		k := key(bvals[brows[j]])
		if h, ok := head[k]; ok {
			next[j] = h
		} else {
			next[j] = -1
		}
		head[k] = int32(j)
	}
	return func(prows []int32) (out pairs) {
		for _, r := range prows {
			if b, ok := head[key(pvals[r])]; ok {
				for ; b >= 0; b = next[b] {
					out.build, out.probe = append(out.build, brows[b]), append(out.probe, r)
				}
			}
		}
		return out
	}
}

// concatPairs joins per-task pair lists in task order.
func concatPairs(parts []pairs) pairs {
	n := 0
	for _, p := range parts {
		n += len(p.build)
	}
	out := pairs{build: make([]int32, 0, n), probe: make([]int32, 0, n)}
	for _, p := range parts {
		out.build, out.probe = append(out.build, p.build...), append(out.probe, p.probe...)
	}
	return out
}
