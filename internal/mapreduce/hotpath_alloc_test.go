package mapreduce

import (
	"runtime"
	"runtime/debug"
	"slices"
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
// per-element kernel: predicate → selection, float key identity, gather, expression evaluation, aggregate fold and merge, a join's
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
// since a Groupby renders its sort keys into the scratch, 617 and 111 KB;
// since internal/par keeps its helpers alive and a parallel phase
// allocates nothing of its own, 439 and 104 KB; since a Groupby's output
// keeps its input's group-key names and names its aggregates with
// plan.Job.AggColumn instead of fmt.Sprintf (one allocation fewer per key
// and per aggregate, 7 keys and 10 aggregates a pass), 422 and 104 KB,
// nothing per row, per group or per key (job counts, each query's total
// adds RunQuery's own few):
//
//	q1    29     5 KB  J1 Groupby 26 (10 maps)
//	q3    89    32 KB  J1 Join 30, J2 Join 25 (11 maps), J3 Groupby 17, J4 Extract 14
//	q6    24     4 KB  J1 Groupby 21 (10 maps)
//	q11   74    35 KB  J1 Join 29, J2 Join 25, J3 Groupby 17
//	q14   56    10 KB  J1 Groupby 41 (a folded MAPJOIN's prelude, its two
//	                   mapFilter calls and match, then the job's map phase
//	                   and 3 combines), J2 Extract 12
//	q17  100    11 KB  J1 Join 30, J2 Join 25, J3 Join 25, J4 Groupby 17
//	q19   50     5 KB  J1 Join 30, J2 Groupby 17
//
// What is left is what outlives a task or the query: a job's output
// columns and stats (most of q3's and q11's bytes are their Groupby's
// output columns) and the frames, column lists and per-task slice headers
// a job builds. Selections, shuffle buckets, match pairs, composed
// indexes, gathered input columns, combine vectors, reduce states,
// rendered group keys, join index heads, group-key maps and partial
// states come from the scratch, which the first pass grows; the first
// pass also starts the pool's helpers. A parallel phase allocates nothing
// of its own, so a pass reads 422 at GOMAXPROCS 1, 2, 4 and 8 alike; the
// count is taken at 4, where the phases run on helpers.
//
// Ten passes after twelve warm-up passes must read within 1 % of each
// other, and each within its budget, the quiet count + 10 %. When each
// phase started its own goroutines, a start now and then allocated a new
// descriptor (runtime.malg) and the same check failed 31 runs in 50
// (617 to 654 mallocs; docs/MEASURING.md, "Where batch_tpch's allocation
// spread comes from"); with kept helpers it passed 200 runs in 200, 196
// of them at exactly 439 and 4 at 440, and at 422 40 runs in 40, 39 of
// them at exactly 422. The rest is the runtime's own warm-up and
// collection: in the first passes a new OS thread or a blocked
// goroutine's wait record adds a few allocations now and then, and a
// collection empties sync.Pool (fmt's printers, while fmt named the
// aggregates), so the ten counted passes run with the collector off.
// Under the race detector sync.Pool drops a random share of what is put
// back, which moved a pass by a few allocations while fmt was on it (439
// to 449; 422 to 423 since): the budgets hold there, the 1 % check is
// skipped.
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
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mallocs, kbs [10]uint64
	for r := range mallocs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		mallocs[r], kbs[r] = after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)>>10
	}
	lo, got, kb := slices.Min(mallocs[:]), slices.Max(mallocs[:]), slices.Max(kbs[:])
	const measured, measuredKB = 422, 104
	t.Logf("ten passes: %d to %d mallocs, at most %d KB", lo, got, kb)
	if !raceEnabled && got > lo+lo/100 {
		t.Errorf("ten warm passes of the 7 TPC-H DAGs allocate %d to %d times, more than 1%% apart: %v", lo, got, mallocs)
	}
	if got > measured+measured/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d times, budget %d + 10%%", got, measured)
	}
	if kb > measuredKB+measuredKB/10 {
		t.Errorf("one pass of the 7 TPC-H DAGs allocates %d KB, budget %d KB + 10%%", kb, measuredKB)
	}
}
