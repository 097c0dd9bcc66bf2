package mapreduce

import (
	"sync"
	"testing"

	"saqp/internal/plan"
	"saqp/internal/selectivity"
	"saqp/internal/workload"
)

// FuzzEngineQuery is the native fuzz entry point CI's fuzz-smoke stage
// drives for a few seconds per run: each fuzzed seed derives a fresh
// random query which must compile, estimate, and execute without
// crashing and with structurally sane (non-negative, stats-complete)
// results. Every call shares one engine, so queries run on scratch that
// earlier ones left: the fuzzed query runs, then the seed's next
// generated query, then the fuzzed query again. The first result is kept
// across the second query's run and must then still read the rows and
// bytes its sink job measured while its frame was live, and digest as it
// did right after its own run: a sink that still reads the scratch, which
// RunQuery zeroes when it returns, fails on any generated shape with
// rows. The third run must digest alike too. A generated plan seldom ends
// in a Join, so when the plan has one, the chain cut after its last Join
// runs too, right after the fuzzed query, and its result is kept and held
// alike: a Join sink is a view whose row indexes the scratch holds until
// detached copies them out. The heavier quantitative agreement checks
// stay in TestRandomQueriesEstimatorVsEngine below.
func FuzzEngineQuery(f *testing.F) {
	for _, seed := range []uint64{0, 1, 99, 1 << 32, ^uint64(0)} {
		f.Add(seed)
	}
	var (
		once sync.Once
		e    *Engine
	)
	f.Fuzz(func(t *testing.T, seed uint64) {
		once.Do(func() { e = newTestEngine(t) })
		est := selectivity.NewEstimator(fixtureCatalog(), selectivity.Config{BlockSize: 64 << 10})
		gen := workload.NewGenerator(seed)
		q, _, err := gen.RandomQuery()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, q)
		}
		next, _, err := gen.RandomQuery()
		if err != nil {
			t.Fatalf("seed %d, second query: %v", seed, err)
		}
		nd, err := plan.Compile(next)
		if err != nil {
			t.Fatalf("seed %d's second query does not compile: %v\n%s", seed, err, next)
		}
		qe, err := est.EstimateQuery(d)
		if err != nil {
			t.Fatalf("seed %d does not estimate: %v\n%s", seed, err, q)
		}
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("seed %d does not execute: %v\n%s", seed, err, q)
		}
		want := digestResult(d, res)
		var cut *plan.DAG
		for k := len(d.Jobs) - 1; k >= 0 && cut == nil; k-- {
			if d.Jobs[k].Type == plan.Join {
				cut = &plan.DAG{Jobs: d.Jobs[:k+1], Query: d.Query}
			}
		}
		var cutRes *QueryResult
		var cutWant uint64
		if cut != nil {
			if cutRes, err = e.RunQuery(cut); err != nil {
				t.Fatalf("seed %d cut after %s does not execute: %v\n%s", seed, cut.Sink().ID, err, q)
			}
			cutWant = digestResult(cut, cutRes)
		}
		if _, err := e.RunQuery(nd); err != nil {
			t.Fatalf("seed %d's second query does not execute: %v\n%s", seed, err, next)
		}
		kept := func(d *plan.DAG, res *QueryResult, want uint64) {
			t.Helper()
			sink := res.Stats[d.Sink().ID]
			if err := res.Final.Validate(); err != nil || res.Final.NumRows() != sink.OutRows || res.Final.Bytes() != sink.OutBytes {
				t.Fatalf("seed %d's kept result of %s reads %d rows and %d bytes (%v) after another query; its job measured %d and %d\n%s",
					seed, d.Sink().ID, res.Final.NumRows(), res.Final.Bytes(), err, sink.OutRows, sink.OutBytes, q)
			}
			if got := digestResult(d, res); got != want {
				t.Fatalf("seed %d's kept result of %s digests %#x after another query, %#x before\n%s", seed, d.Sink().ID, got, want, q)
			}
		}
		kept(d, res, want)
		if cut != nil {
			kept(cut, cutRes, cutWant)
		}
		again, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("seed %d does not execute again: %v\n%s", seed, err, q)
		}
		if got := digestResult(d, again); got != want {
			t.Fatalf("seed %d digests %#x after another query, %#x before\n%s", seed, got, want, q)
		}
		for _, je := range qe.Jobs {
			if je.IS < 0 || je.FS < 0 || je.OutRows < 0 {
				t.Fatalf("seed %d job %s: negative estimate\n%s", seed, je.Job.ID, q)
			}
			st := res.Stats[je.Job.ID]
			if st == nil {
				t.Fatalf("seed %d: job %s has no execution stats", seed, je.Job.ID)
			}
			if st.OutRows < 0 || st.MedBytes < 0 {
				t.Fatalf("seed %d job %s: negative measurement", seed, je.Job.ID)
			}
		}
	})
}

// TestRandomQueriesEstimatorVsEngine fuzzes the whole stack: randomly
// generated TPC-H/DS-shaped queries (including MAPJOIN hints, IN lists and
// BETWEEN ranges) are estimated from statistics and executed for real; the
// estimates must track measured ground truth within loose multiplicative
// bounds, and nothing may crash, for every query the generator can emit.
func TestRandomQueriesEstimatorVsEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fuzz in -short mode")
	}
	e := newTestEngine(t)
	est := selectivity.NewEstimator(fixtureCatalog(), selectivity.Config{BlockSize: 64 << 10})
	gen := workload.NewGenerator(99)

	const numQueries = 60
	checked := 0
	for i := 0; i < numQueries; i++ {
		q, shape, err := gen.RandomQuery()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("query %d does not compile: %v\n%s", i, err, q)
		}
		qe, err := est.EstimateQuery(d)
		if err != nil {
			t.Fatalf("query %d does not estimate: %v\n%s", i, err, q)
		}
		res, err := e.RunQuery(d)
		if err != nil {
			t.Fatalf("query %d does not execute: %v\n%s", i, err, q)
		}
		for _, je := range qe.Jobs {
			st := res.Stats[je.Job.ID]
			if st == nil {
				t.Fatalf("query %d: job %s has no execution stats", i, je.Job.ID)
			}
			// Structural invariants on both sides.
			if je.IS < 0 || je.FS < 0 || je.OutRows < 0 {
				t.Fatalf("query %d job %s: negative estimate\n%s", i, je.Job.ID, q)
			}
			if st.OutRows < 0 || st.MedBytes < 0 {
				t.Fatalf("query %d job %s: negative measurement", i, je.Job.ID)
			}
			if je.Job.MapOnly && je.Job.Broadcast != "" && st.MedBytes != st.OutBytes {
				t.Fatalf("query %d job %s: broadcast join shuffled data", i, je.Job.ID)
			}
			// Quantitative agreement on the sink where the sample is big
			// enough to be statistically meaningful at laptop scale.
			if je.Job.ID == d.Sink().ID && st.OutRows >= 100 {
				meas := float64(st.OutRows)
				if je.OutRows < meas/5 || je.OutRows > meas*5 {
					t.Errorf("query %d (%s) sink rows: est %.0f vs measured %.0f\n%s",
						i, shape, je.OutRows, meas, q)
				}
				checked++
			}
		}
	}
	if checked < numQueries/4 {
		t.Fatalf("only %d of %d queries produced checkable outputs; generator too degenerate", checked, numQueries)
	}
}
