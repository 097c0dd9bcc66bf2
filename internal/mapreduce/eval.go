package mapreduce

import (
	"cmp"
	"math"

	"saqp/internal/query"
)

// This file holds the per-element kernels: what runs once per row, per
// group or per match inside the map and reduce loops of engine.go. They
// work on typed slices and row indices, never on a tuple, and must not
// allocate; the loops that size and grow slices live with their callers.

// evalPred evaluates one column-vs-literal predicate against one value,
// given as its numeric reading and its string reading (0 for a string
// column, "" for a numeric one — what a mismatched literal compares
// against). It runs once per row per predicate inside the map phase.
//
//saqp:hotpath
func evalPred(num float64, str string, p *query.Predicate) bool {
	if p.Op == query.OpIN {
		for i := range p.Set {
			if lit := &p.Set[i]; lit.IsString {
				if str == lit.S {
					return true
				}
			} else if num == lit.F {
				return true
			}
		}
		return false
	}
	if p.Lit.IsString {
		return compare(str, p.Lit.S, p.Op)
	}
	return compare(num, p.Lit.F, p.Op)
}

// compare applies one comparison operator to two numerics or two strings.
//
//saqp:hotpath
func compare[T cmp.Ordered](a, b T, op query.CmpOp) bool {
	switch op {
	case query.OpEQ:
		return a == b
	case query.OpNE:
		return a != b
	case query.OpLT:
		return a < b
	case query.OpLE:
		return a <= b
	case query.OpGT:
		return a > b
	case query.OpGE:
		return a >= b
	}
	return false
}

// filterNums compacts sel, in place, to the rows of a numeric column that
// satisfy p, and returns how many it kept.
//
//saqp:hotpath
func filterNums[T int64 | float64](vals []T, sel []int32, p *query.Predicate) int {
	k := 0
	for _, i := range sel {
		if evalPred(float64(vals[i]), "", p) {
			sel[k] = i
			k++
		}
	}
	return k
}

// filterStrings is filterNums for a string column.
//
//saqp:hotpath
func filterStrings(vals []string, sel []int32, p *query.Predicate) int {
	k := 0
	for _, i := range sel {
		if evalPred(0, vals[i], p) {
			sel[k] = i
			k++
		}
	}
	return k
}

// take gathers src[idx[j]] into dst[j]: how every output column of a
// filter, sort, join or group-by is produced from row indices.
//
//saqp:hotpath
func take[T any](dst, src []T, idx []int32) {
	for j, i := range idx {
		dst[j] = src[i]
	}
}

// widen reads the selected rows of a numeric column as float64s, the type
// every aggregate expression is evaluated in.
//
//saqp:hotpath
func widen[T int64 | float64](dst []float64, src []T, sel []int32) {
	for j, i := range sel {
		dst[j] = float64(src[i])
	}
}

// arith folds r into l element-wise under op. Division by zero yields 0.
//
//saqp:hotpath
func arith(l, r []float64, op query.ArithOp) {
	for j, b := range r {
		switch a := l[j]; op {
		case query.ArithMul:
			l[j] = a * b
		case query.ArithAdd:
			l[j] = a + b
		case query.ArithSub:
			l[j] = a - b
		case query.ArithDiv:
			if b == 0 {
				l[j] = 0
			} else {
				l[j] = a / b
			}
		}
	}
}

// floatKey is the identity a float groups and joins by: its bit pattern,
// so +0 and -0 are two keys (as their renderings "0" and "-0" always
// were), with every NaN folded onto one.
//
//saqp:hotpath
func floatKey(f float64) uint64 {
	if f != f {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// aggState accumulates one aggregate of one group.
type aggState struct {
	sum   float64
	count int64
	min   float64
	max   float64
	init  bool
}

// add folds one value into the aggregate; called once per surviving row.
//
//saqp:hotpath
func (a *aggState) add(v float64) {
	a.sum += v
	a.count++
	if !a.init || v < a.min {
		a.min = v
	}
	if !a.init || v > a.max {
		a.max = v
	}
	a.init = true
}

// addCount is used for count(*) where no value is evaluated.
//
//saqp:hotpath
func (a *aggState) addCount(n int64) { a.count += n; a.init = true }

// merge combines a partial (combiner) state into a.
//
//saqp:hotpath
func (a *aggState) merge(o *aggState) {
	if !o.init {
		return
	}
	a.sum += o.sum
	a.count += o.count
	if !a.init || o.min < a.min {
		a.min = o.min
	}
	if !a.init || o.max > a.max {
		a.max = o.max
	}
	a.init = true
}

// value reads the finished aggregate as fn, counts included, as a float:
// the form HAVING compares and every output column but count's takes.
//
//saqp:hotpath
func (a *aggState) value(fn query.AggFunc) float64 {
	switch fn {
	case query.AggSum:
		return a.sum
	case query.AggCount:
		return float64(a.count)
	case query.AggAvg:
		if a.count == 0 {
			return 0
		}
		return a.sum / float64(a.count)
	case query.AggMin:
		return a.min
	case query.AggMax:
		return a.max
	}
	return 0
}
