package mapreduce

import (
	"encoding/binary"
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

// TestEngineDropsOutsizedScratch registers one small relation and runs a
// many-to-many self-join whose pairs alone outweigh it: the engine must
// not keep that query's scratch, must keep a small query's, and must give
// the same answers after either.
func TestEngineDropsOutsizedScratch(t *testing.T) {
	e := New(Config{})
	for _, rel := range fixtureRelations() {
		if rel.Schema.Name == "customer" {
			e.Register(rel)
		}
	}
	self := compile(t, `SELECT c1.c_name FROM customer c1 JOIN customer c2 ON c1.c_nationkey = c2.c_nationkey`)
	small := compile(t, `SELECT c_name FROM customer WHERE c_nationkey < 2`)
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
	if got := run(self); got != wantSelf {
		t.Errorf("the self-join digests %#x on a kept scratch, %#x on a new one", got, wantSelf)
	}
}
