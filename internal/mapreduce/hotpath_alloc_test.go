package mapreduce

import (
	"math"
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
	ix := newIndex(make(map[int64]chain), ints, []int32{0, 1, 2}, make([]int32, 3))
	sx := newIndex(make(map[string]chain), strs, []int32{0, 1, 2}, make([]int32, 3))
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
		{"Slab.Cut/int32", func() { s.i32.Reset(); hotSinkInt = len(s.i32.Cut(64)) + len(s.i32.Cut(8)) }},
		{"Slab.Cut/int64", func() { s.i64.Reset(); hotSinkInt = len(s.i64.Cut(64)) }},
		{"Slab.Cut/float64", func() { s.f64.Reset(); hotSinkInt = len(s.f64.Cut(64)) }},
		{"Slab.Cut/string", func() { s.strs.Reset(); hotSinkInt = len(s.strs.Cut(64)) }},
		{"Slab.Cut/aggState", func() { s.states.Reset(); hotSinkInt = len(s.states.Cut(64)) }},
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
// internal/par's pool; 1 215 and 966 KB once a query's working buffers
// were cut from the engine's reused scratch; since the combine and join
// tasks hash into the scratch's kept slots and scans share their
// relation's column names, 675 and 158 KB; since a job's map phase runs
// once in runJob over inputs sliced at their exact count, 667 and 158 KB;
// since a Groupby renders its sort keys into the scratch, 617 and 111 KB,
// nothing per row, per group or per key (job counts, each query's total
// adds RunQuery's own few):
//
//	q1    46     5 KB  J1 Groupby 43 (10 maps)
//	q3   125    33 KB  J1 Join 46, J2 Join 43 (11 maps), J3 Groupby 19, J4 Extract 14
//	q6    38     4 KB  J1 Groupby 35 (10 maps)
//	q11  104    36 KB  J1 Join 41, J2 Join 41, J3 Groupby 19
//	q14   86    11 KB  J1 Groupby 71 (a folded MAPJOIN's prelude, its two
//	                   mapFilter calls and match, then the job's map phase
//	                   and 3 combines), J2 Extract 12
//	q17  148    13 KB  J1 Join 48, J2 Join 41, J3 Join 37, J4 Groupby 19
//	q19   70     6 KB  J1 Join 48, J2 Groupby 19
//
// What is left is what outlives a task or the query: a job's output
// columns and stats (most of q3's and q11's bytes are their Groupby's
// output columns), the frames, column lists and per-task slice headers a
// job builds, and one goroutine and closure per pool worker of each
// parallel phase (up to GOMAXPROCS, so the count is taken at a fixed 4).
// Selections, shuffle buckets, match pairs, composed indexes, gathered
// input columns, combine vectors, reduce states, rendered group keys,
// join index heads, group-key maps and partial states come from the
// scratch, which the first pass grows. The first ten or so passes
// allocate more: a goroutine needs a new descriptor (runtime.malg) when
// the P that starts it has no dead one to reuse, and the pool's workers
// exit on whichever P ran them (docs/MEASURING.md, "Where batch_tpch's
// allocation spread comes from"). After one warm-up pass the least of
// three read 667 to 693 mallocs (before the Groupby keys moved to the
// scratch); after twelve it reads the quiet count, 617 and 111 KB, in
// every run. Both budgets are that count + 10 %. The race detector's
// instrumentation moves the count by about 1 % (624 and 113 KB), so the
// test does not skip under -race.
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
	for range 12 {
		pass()
	}
	got, kb := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		got, kb = min(got, after.Mallocs-before.Mallocs), min(kb, (after.TotalAlloc-before.TotalAlloc)>>10)
	}
	const measured, measuredKB = 617, 111
	t.Logf("one pass: %d mallocs, %d KB", got, kb)
	if got > measured+measured/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d times, budget %d + 10%%", got, measured)
	}
	if kb > measuredKB+measuredKB/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d KB, budget %d KB + 10%%", kb, measuredKB)
	}
}
