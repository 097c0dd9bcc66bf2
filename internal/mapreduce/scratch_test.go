package mapreduce

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"saqp/internal/plan"
)

// TestEngineResultsOutliveLaterQueries holds every result the digest
// covers on one engine, so every query after the first runs on a scratch
// an earlier one released: each result must digest the same right after
// its run and after all of them, and the total must be
// TestEngineDigestPinned's bench constant. A result that reads storage a
// later query cut again — a Join sink's pairs left in the scratch — fails
// it.
func TestEngineResultsOutliveLaterQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the engine digest in -short mode")
	}
	e := New(Config{})
	for _, rel := range digestRelations() {
		e.Register(rel)
	}
	names, dags := digestPlans(t)
	results := make([]*QueryResult, len(dags))
	fresh := make([]uint64, len(dags))
	views := 0
	for i, d := range dags {
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		results[i], fresh[i] = res, digestResult(d, res)
		if res.Final.sides != nil {
			views++
		}
	}
	if views == 0 {
		t.Fatal("no result is a view; the check never reads a sink join's indexes")
	}
	total := fnv.New64a()
	for i, d := range dags {
		if err := results[i].Final.Validate(); err != nil {
			t.Fatalf("%s after every run: %v", names[i], err)
		}
		got := digestResult(d, results[i])
		if got != fresh[i] {
			t.Errorf("%s: digest %#x after every run, %#x right after its own", names[i], got, fresh[i])
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], got)
		total.Write(buf[:])
	}
	if got, want := total.Sum64(), uint64(0xc47889e59a829381); got != want {
		t.Errorf("digest %#x, pinned %#x", got, want)
	}
}

// TestEngineReusedSlotsLeakNothing runs the 7 TPC-H DAGs and three
// fixtures on one engine at GOMAXPROCS 4, forward and then in reverse, so
// every query's combine and join tasks hash into slots an earlier query
// filled: a float group key, a string join key and a map-side join add
// the key classes TPC-H leaves out. Every result must digest as the same
// DAG does on a fresh engine; each of a slot's five maps must have been
// emptied for reuse while holding an earlier query's entries, and its
// partial states cut again. A kept map that is not emptied, or states
// that are not zeroed, fail it.
func TestEngineReusedSlotsLeakNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	names, dags := tpchPlans(t)
	for _, src := range []string{
		`SELECT l_discount, sum(l_quantity), count(*) FROM lineitem GROUP BY l_discount`,
		`SELECT o_orderkey, l_orderkey FROM orders JOIN lineitem ON o_orderstatus = l_returnflag WHERE o_totalprice < 900 AND l_quantity > 49`,
		`SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`,
	} {
		names, dags = append(names, src), append(dags, compile(t, src))
	}
	engine := func() *Engine {
		e := New(Config{})
		for _, rel := range digestRelations() {
			e.Register(rel)
		}
		return e
	}
	want := make([]uint64, len(dags))
	for i, d := range dags {
		res, err := engine().RunQuery(d)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want[i] = digestResult(d, res)
	}
	e := engine()
	for k := range 2 * len(dags) {
		i := k
		if k >= len(dags) {
			i = 2*len(dags) - 1 - k
		}
		res, err := e.RunQuery(dags[i])
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if got := digestResult(dags[i], res); got != want[i] {
			t.Errorf("%s: digest %#x after other queries, %#x on a fresh engine", names[i], got, want[i])
		}
	}
	s := e.idle.Load()
	if s == nil {
		t.Fatal("the engine kept no scratch")
	}
	var reused [5]bool
	for i := range s.slot {
		sl := &s.slot[i]
		for j, peak := range []int{sl.joinInts.heads.peak, sl.joinStrs.heads.peak, sl.groupInts.peak, sl.groupStrs.peak, int(sl.states.Bytes())} {
			reused[j] = reused[j] || peak > 0
		}
	}
	for j, name := range []string{"int join heads", "string join heads", "int group keys", "string group keys", "partial states"} {
		if !reused[j] {
			t.Errorf("no slot's %s were reused", name)
		}
	}
}

// TestEngineConcurrentRunQuery runs the digest's plans on one engine from
// four goroutines at GOMAXPROCS 4, each starting at a different plan, so
// queries take the idle scratch, start their own and put theirs back
// while others run (make stress runs it under -race). Every result must
// digest as it does run alone.
func TestEngineConcurrentRunQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the engine digest in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	e := New(Config{})
	for _, rel := range digestRelations() {
		e.Register(rel)
	}
	names, dags := digestPlans(t)
	want := make([]uint64, len(dags))
	for i, d := range dags {
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want[i] = digestResult(d, res)
	}
	const goroutines = 4
	got := make([][]uint64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		got[g] = make([]uint64, len(dags))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range dags {
				i := (k + g*len(dags)/goroutines) % len(dags)
				res, err := e.RunQuery(dags[i])
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = digestResult(dags[i], res)
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range dags {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d: %s digests %#x, %#x run alone", g, names[i], got[g][i], want[i])
			}
		}
	}
}

// TestEngineDropsOutsizedScratch registers one small relation and runs
// two queries whose scratch outweighs it: a many-to-many self-join whose
// pairs alone do, and a group-by on its unique key whose slabs do not but
// whose kept group-key maps and partial states tip it over. The engine
// must keep neither query's scratch, must keep a small query's, and must
// give the same answers after any of them.
func TestEngineDropsOutsizedScratch(t *testing.T) {
	e := New(Config{})
	for _, rel := range fixtureRelations() {
		if rel.Schema.Name == "customer" {
			e.Register(rel)
		}
	}
	self := compile(t, `SELECT c1.c_name FROM customer c1 JOIN customer c2 ON c1.c_nationkey = c2.c_nationkey`)
	unique := compile(t, `SELECT c_custkey, count(*) FROM customer GROUP BY c_custkey`)
	small := compile(t, `SELECT c_name FROM customer WHERE c_nationkey < 2`)
	// One aggregate: the reduce's states, cut from a slab, are as many
	// as the combine's partials, so more would tip the slabs over too.
	s := new(scratch)
	var up *Frame
	for _, job := range unique.Jobs {
		out, _, err := e.runJob(s, job, up)
		if err != nil {
			t.Fatal(err)
		}
		up = out
	}
	var slots int64
	for i := range s.slot {
		slots += s.slot[i].bytes()
	}
	if slabs := s.size() - slots; slabs > e.bytes || s.size() <= e.bytes {
		t.Fatalf("the group-by's %d bytes of slabs and %d of slots do not straddle customer's %d", slabs, slots, e.bytes)
	}
	run := func(d *plan.DAG) uint64 {
		t.Helper()
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatal(err)
		}
		if pairs := 8 * res.Final.NumRows(); d == self && pairs <= e.bytes {
			t.Fatalf("the self-join's %d bytes of pairs do not exceed customer's %d", pairs, e.bytes)
		}
		return digestResult(d, res)
	}
	wantSmall := run(small)
	if e.idle.Load() == nil {
		t.Fatal("the engine dropped a scratch smaller than its data")
	}
	wantSelf := run(self)
	if s := e.idle.Load(); s != nil {
		t.Fatalf("the engine kept a %d-byte scratch over %d bytes of data", s.size(), e.bytes)
	}
	if got := run(small); got != wantSmall {
		t.Errorf("the small query digests %#x after the self-join, %#x before", got, wantSmall)
	}
	wantUnique := run(unique)
	if s := e.idle.Load(); s != nil {
		t.Fatalf("the engine kept a %d-byte scratch of kept maps and states over %d bytes of data", s.size(), e.bytes)
	}
	if got := run(small); got != wantSmall {
		t.Errorf("the small query digests %#x after the group-by, %#x before", got, wantSmall)
	}
	if got := run(self); got != wantSelf {
		t.Errorf("the self-join digests %#x on a kept scratch, %#x on a new one", got, wantSelf)
	}
	run(small)
	if got := run(unique); got != wantUnique {
		t.Errorf("the group-by digests %#x on a kept scratch, %#x on a new one", got, wantUnique)
	}
}

// TestEngineRefusesJoinOverBudget runs a self-join of lineitem on
// l_returnflag on a warm engine over the bench's data: 3 flags over 60,000
// rows, about 1.2 × 10⁹ matches, 9.6 GB of pairs. The join's tasks count
// every match, and the join is refused before the pairs are cut: a
// JoinTooLargeError that names the job, the exact count and the budget (8
// bytes per byte of the registered relations, 118 MB), with under 1 MB
// allocated. The TPC-H DAGs then run and digest as they did before it.
func TestEngineRefusesJoinOverBudget(t *testing.T) {
	e := New(Config{})
	for _, rel := range digestRelations() {
		e.Register(rel)
	}
	names, dags := tpchPlans(t)
	want := make([]uint64, len(dags))
	for i, d := range dags {
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want[i] = digestResult(d, res)
	}
	self := compile(t, `SELECT l1.l_orderkey FROM lineitem l1 JOIN lineitem l2 ON l1.l_returnflag = l2.l_returnflag`)
	flags := map[string]int64{}
	lineitem := e.tables["lineitem"]
	for _, f := range lineitem.Cols[lineitem.Schema.ColumnIndex("l_returnflag")].Strings() {
		flags[f]++
	}
	var matches int64
	for _, n := range flags {
		matches += n * n
	}
	// The first refusal grows the scratch for the join's selections,
	// buckets and chains, 2.8 MB for 120,000 input rows, and the engine
	// keeps it; the second is counted.
	if _, err := e.RunQuery(self); err == nil {
		t.Fatal("the self-join runs")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := e.RunQuery(self)
	runtime.ReadMemStats(&after)
	var big *JoinTooLargeError
	if !errors.As(err, &big) {
		t.Fatalf("the self-join of %d matches is not refused as too large: %v", matches, err)
	}
	if big.Job != self.Sink().ID || big.Matches != matches || big.Budget != 8*e.bytes {
		t.Errorf("refused %+v, want job %s, %d matches, budget %d", *big, self.Sink().ID, matches, 8*e.bytes)
	}
	t.Logf("%v; %d bytes allocated", err, after.TotalAlloc-before.TotalAlloc)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("the refused self-join allocates %d bytes, want under 1 MB", n)
	}
	for i, d := range dags {
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("%s after the refusal: %v", names[i], err)
		}
		if got := digestResult(d, res); got != want[i] {
			t.Errorf("%s digests %#x after the refusal, %#x before", names[i], got, want[i])
		}
	}
}
