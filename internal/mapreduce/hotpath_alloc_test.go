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
// match count and fill, a view's identity test and byte size, and a cut
// from each of a warm query scratch's slabs.
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
	ix, sx := newIndex(ints, []int32{0, 1, 2}, make([]int32, 3)), newIndex(strs, []int32{0, 1, 2}, make([]int32, 3))
	build, probe := make([]int32, 4), make([]int32, 4)
	var s scratch // each cut case resets first: a warm scratch, as RunQuery reuses it
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
		{"slab.cut/int32", func() { s.i32.reset(); hotSinkInt = len(s.i32.cut(64)) + len(s.i32.cut(8)) }},
		{"slab.cut/int64", func() { s.i64.reset(); hotSinkInt = len(s.i64.cut(64)) }},
		{"slab.cut/float64", func() { s.f64.reset(); hotSinkInt = len(s.f64.cut(64)) }},
		{"slab.cut/string", func() { s.strs.reset(); hotSinkInt = len(s.strs.cut(64)) }},
		{"slab.cut/aggState", func() { s.states.reset(); hotSinkInt = len(s.states.cut(64)) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}

// TestEngineAllocBudget bounds what one pass of the 7 TPC-H DAGs allocates
// on the bench's configuration (SF 0.01, seed 1, Config{}) at GOMAXPROCS 4:
// the whole-DAG successor of the per-family allocation gate the deleted
// micro suite kept (docs/MEASURING.md), and the tier-1 form of bench's
// batch_tpch allocs_per_op and alloc_kb_per_op (these ÷ 7). The row engine
// allocated 988 164 times per pass; the column engine 2 450 and 11 913 KB
// while every join output was gathered; 1 690 and 7 115 KB once join
// outputs were index views; 1 600 and 7 117 KB once tasks ran on
// internal/par's pool; since a query's working buffers are cut from the
// engine's reused scratch, 1 215 and 966 KB, nothing per row and nothing
// per group (job counts, each query's total adds RunQuery's own few):
//
//	q1    67    14 KB  J1 Groupby 61 (10 maps, 60 local groups)
//	q3   282   288 KB  J1 Join 96, J2 Join 106 (11 maps), J3 Groupby 63, J4 Extract 14
//	q6    52     6 KB  J1 Groupby 49 (10 maps)
//	q11  204   318 KB  J1 Join 54, J2 Join 74, J3 Groupby 73
//	q14  180   255 KB  J1 Groupby 168 (a 60 000-row folded MAPJOIN: the
//	                   build map and each task's group-key map), J2 Extract 12
//	q17  290    58 KB  J1 Join 78, J2 Join 89, J3 Join 86, J4 Groupby 35
//	q19  130    21 KB  J1 Join 91, J2 Groupby 36
//
// What is left is what outlives a task or the query: a job's output
// columns and stats, each combine task's key map and partial states, each
// join index's key map, one goroutine and closure per pool worker of each
// parallel phase (up to GOMAXPROCS, so the count is taken at a fixed 4:
// 1 020 at 1, 1 269 at 8, at most one per task), and the frames, column
// lists and per-task slice headers a job builds. Selections, shuffle
// buckets, match pairs, composed indexes, gathered input columns, combine
// vectors and reduce states come from the scratch, which the first pass
// grows. Both budgets are the measured value + 10 %. The race detector's
// instrumentation moves the count by under 1 % (≈ 1 214), so the test
// does not skip under -race.
func TestEngineAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
	const measured, measuredKB = 1_215, 966
	t.Logf("one pass: %d mallocs, %d KB", got, kb)
	if got > measured+measured/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d times, budget %d + 10%%", got, measured)
	}
	if kb > measuredKB+measuredKB/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d KB, budget %d KB + 10%%", kb, measuredKB)
	}
}
