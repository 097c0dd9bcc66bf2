package mapreduce

import (
	"runtime"
	"strconv"
	"testing"

	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/workload"
)

// hotSink* defeat dead-code elimination inside AllocsPerRun closures.
var (
	hotSinkBool bool
	hotSinkInt  int
	hotSinkU64  uint64
	hotSinkF64  float64
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract:
// the allocfree analyzer proves statically that these functions contain
// no allocating constructs, and this guard proves the compiled code
// actually performs zero heap allocations per call — one case per
// per-element kernel: predicate → selection, float key identity, shuffle
// hash, gather, expression evaluation, aggregate fold and merge, a join's
// match count and fill, and a view's identity test and byte size.
func TestHotPathAllocs(t *testing.T) {
	numPred := query.Predicate{Op: query.OpLT, Lit: query.NumLit(10)}
	strPred := query.Predicate{Op: query.OpEQ, Lit: query.StrLit("x")}
	inPred := query.Predicate{Op: query.OpIN, Set: []query.Literal{query.NumLit(1), query.NumLit(3.5)}}
	ints, floats, strs := []int64{7, 12, 7}, []float64{3.5, 0.25, 3.5}, []string{"x", "yz", "x"}
	sel, idx := make([]int32, 3), []int32{2, 0}
	fill := func() []int32 { sel[0], sel[1], sel[2] = 0, 1, 2; return sel }
	f64, f64b, i64, str2 := make([]float64, 2), []float64{2, 0}, make([]int64, 2), make([]string, 2)
	var a, b aggState
	b.add(2)
	ix, sx := newIndex(ints, []int32{0, 1, 2}), newIndex(strs, []int32{0, 1, 2})
	build, probe := make([]int32, 4), make([]int32, 4)
	cases := []struct {
		name string
		fn   func()
	}{
		{"evalPred/numeric", func() { hotSinkBool = evalPred(3.5, "", &numPred) }},
		{"evalPred/string", func() { hotSinkBool = evalPred(0, "x", &strPred) }},
		{"evalPred/in", func() { hotSinkBool = evalPred(3.5, "", &inPred) }},
		{"compare/float", func() { hotSinkBool = compare(1.0, 2.0, query.OpLE) }},
		{"compare/string", func() { hotSinkBool = compare("a", "b", query.OpGT) }},
		{"filterNums/int", func() { hotSinkInt = filterNums(ints, fill(), &numPred) }},
		{"filterNums/float", func() { hotSinkInt = filterNums(floats, fill(), &inPred) }},
		{"filterStrings", func() { hotSinkInt = filterStrings(strs, fill(), &strPred) }},
		{"take/int", func() { take(i64, ints, idx) }},
		{"take/string", func() { take(str2, strs, idx) }},
		{"widen/int", func() { widen(f64, ints, idx) }},
		{"widen/float", func() { widen(f64, floats, idx) }},
		{"arith", func() { arith(f64, f64b, query.ArithDiv) }},
		{"floatKey", func() { hotSinkU64 = floatKey(floats[1]) }},
		{"fnv32a/string", func() { hotSinkU64 = uint64(fnv32a(strs[1])) }},
		{"fnv32a/bytes", func() { hotSinkU64 = uint64(fnv32a(strconv.AppendInt(make([]byte, 0, 32), ints[1], 10))) }},
		{"aggState.add", func() { a.add(1.5) }},
		{"aggState.addCount", func() { a.addCount(2) }},
		{"aggState.merge", func() { a.merge(&b) }},
		{"aggState.value", func() { hotSinkF64 = a.value(query.AggAvg) }},
		{"hashIndex.count/int", func() { hotSinkInt = ix.count(ints, idx) }},
		{"hashIndex.count/string", func() { hotSinkInt = sx.count(strs, idx) }},
		{"hashIndex.fill/int", func() { ix.fill(ints, idx, build, probe) }},
		{"hashIndex.fill/string", func() { sx.fill(strs, idx, build, probe) }},
		{"identity", func() { hotSinkBool = identity(fill(), 3) }},
		{"strBytes", func() { hotSinkInt = int(strBytes(strs, nil, idx)) }},
		{"strBytes/via", func() { hotSinkInt = int(strBytes(strs, idx, idx[1:])) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}

// TestEngineAllocBudget bounds what one pass of the 7 TPC-H DAGs allocates
// on the bench's configuration (SF 0.01, seed 1, Config{}): the whole-DAG
// successor of the per-family allocation gate the deleted micro suite kept
// (docs/MEASURING.md), and the tier-1 form of bench's batch_tpch
// allocs_per_op and alloc_kb_per_op (these ÷ 7). The row engine allocated
// 988 164 times per pass; the column engine 2 450 and 11 913 KB while every
// join output was gathered; since join outputs are index views, 1 690 and
// 7 115 KB, nothing per row and nothing per group:
//
//	q1   162   944 KB  J1 Groupby 159 (10 maps, 60 local groups)
//	q3   362  1569 KB  J1 Join 111, J2 Join 133 (11 maps), J3 Groupby 100, J4 Extract 18
//	q6    92   259 KB  J1 Groupby 90 (10 maps)
//	q11  280  1025 KB  J1 Join 72, J2 Join 97, J3 Groupby 112
//	q14  246  2203 KB  J1 Groupby 225 (a 60 000-row folded MAPJOIN: the build
//	                   map, one exact-size pair, the gathered group key
//	                   p_type — 940 KB of it), J2 Extract 16
//	q17  375   674 KB  J1 Join 100, J2 Join 106, J3 Join 105, J4 Groupby 60
//	q19  176   441 KB  J1 Join 112, J2 Groupby 61
//
// A job costs its resolved columns (a view's gathered), one selection
// buffer, one goroutine and closure per task, and per reducer or map a key
// map's growth steps; a Join adds two partitions, a count and a fill phase
// over one exact-size pair, and one composed index per side of a view
// input. Both budgets are the measured value + 10 %. The race detector's
// instrumentation moves the count by under 1 % (≈ 1 705), so the test does
// not skip under -race.
func TestEngineAllocBudget(t *testing.T) {
	e := New(Config{})
	for _, rel := range digestRelations() {
		e.Register(rel)
	}
	var dags []*plan.DAG
	for _, name := range workload.TPCHNames() {
		q, err := workload.TPCHQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		dags = append(dags, d)
	}
	pass := func() {
		for _, d := range dags {
			if _, err := e.RunQuery(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	got, kb := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)>>10
	const measured, measuredKB = 1_690, 7_115
	t.Logf("one pass: %d mallocs, %d KB", got, kb)
	if got > measured+measured/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d times, budget %d + 10%%", got, measured)
	}
	if kb > measuredKB+measuredKB/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d KB, budget %d KB + 10%%", kb, measuredKB)
	}
}
