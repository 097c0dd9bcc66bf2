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
// hash, gather, expression evaluation, aggregate fold and merge.
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
// allocs_per_op (this count ÷ 7). The row engine allocated 988 164 times per
// pass; the column engine 2 450, nothing per row and nothing per group:
//
//	q1   161  J1 Groupby 158 (10 maps, 60 local groups)
//	q3   525  J1 Join 183, J2 Join 223 (11 maps), J3 Groupby 98, J4 Extract 17
//	q6    92  J1 Groupby 89 (10 maps)
//	q11  409  J1 Join 110, J2 Join 189, J3 Groupby 109
//	q14  474  J1 Groupby 452 (a 60 000-row folded MAPJOIN: the build map, the
//	          pair lists' growth, one gather per column), J2 Extract 17
//	q17  545  J1 Join 156, J2 Join 164, J3 Join 163, J4 Groupby 58
//	q19  245  J1 Join 183, J2 Groupby 59
//
// A job costs its resolved columns, one selection buffer, one goroutine and
// closure per task, and per reducer or map a key map's growth steps and the
// amortised growth of its output lists; a Join adds two partitions and a
// gather per output column. The budget is the measured count + 10 %. The
// race detector's instrumentation moves the count by under 0.5 % (2 452),
// so the test does not skip under -race.
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
	got := after.Mallocs - before.Mallocs
	const measured = 2_450
	t.Logf("one pass: %d mallocs, %d KB", got, (after.TotalAlloc-before.TotalAlloc)>>10)
	if got > measured+measured/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d times, budget %d + 10%%", got, measured)
	}
}
