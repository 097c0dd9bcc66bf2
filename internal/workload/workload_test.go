package workload

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/histogram"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/selectivity"
)

func TestGeneratorProducesValidQueries(t *testing.T) {
	g := NewGenerator(1)
	shapes := map[Shape]int{}
	for i := 0; i < 300; i++ {
		q, shape, err := g.RandomQuery()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		shapes[shape]++
		// Every generated query must compile.
		if _, err := plan.Compile(q); err != nil {
			t.Fatalf("query %d does not compile: %v\n%s", i, err, q)
		}
		// And reparse from its own rendering.
		if _, err := query.Parse(q.String()); err != nil {
			t.Fatalf("query %d does not reparse: %v\n%s", i, err, q)
		}
	}
	// All shapes appear over 300 draws.
	for s := Shape(0); s < numShapes; s++ {
		if shapes[s] == 0 {
			t.Fatalf("shape %s never generated", s)
		}
	}
}

func TestShapeJobCounts(t *testing.T) {
	g := NewGenerator(2)
	wantJobs := map[Shape]int{
		ShapeScan:     1,
		ShapeScanSort: 1,
		ShapeAgg:      1,
		ShapeAggSort:  2,
		ShapeJoinAgg:  2,
		ShapeJoin2Agg: 3,
		ShapeJoin3Agg: 4,
	}
	for shape, want := range wantJobs {
		for i := 0; i < 10; i++ {
			q, err := g.QueryOfShape(shape)
			if err != nil {
				t.Fatal(err)
			}
			d, err := plan.Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			expect := want
			// A MAPJOIN hint on the first join merges it into its consumer
			// (Hive job merging), shrinking the chain by one job.
			if len(q.MapJoinTables) > 0 && want > 1 {
				expect--
			}
			if len(d.Jobs) != expect {
				t.Fatalf("shape %s produced %d jobs, want %d\n%s", shape, len(d.Jobs), expect, q)
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 50; i++ {
		qa, _, err := a.RandomQuery()
		if err != nil {
			t.Fatal(err)
		}
		qb, _, err := b.RandomQuery()
		if err != nil {
			t.Fatal(err)
		}
		if qa.String() != qb.String() {
			t.Fatalf("generation diverged at %d:\n%s\n%s", i, qa, qb)
		}
	}
}

func TestInputBytesAtSF1(t *testing.T) {
	q, err := query.Parse(`SELECT n_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	schemas := dataset.AllSchemas()
	if err := query.Resolve(q, schemas); err != nil {
		t.Fatal(err)
	}
	want := float64(dataset.Nation().BytesAt(1) + dataset.Supplier().BytesAt(1))
	if got := InputBytesAtSF1(q, schemas); got != want {
		t.Fatalf("input bytes = %v, want %v", got, want)
	}
}

func TestSFForTargetBytes(t *testing.T) {
	g := NewGenerator(3)
	schemas := dataset.AllSchemas()
	for i := 0; i < 50; i++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			t.Fatal(err)
		}
		target := 20e9 // 20 GB
		sf := SFForTargetBytes(q, target)
		got := InputBytesAtSF1(q, schemas) * sf
		// Fixed-size tables (nation/region/date_dim) break exact linearity,
		// so allow slack.
		if math.Abs(got-target)/target > 0.5 {
			t.Fatalf("sf %v gives %v bytes, want ~%v\n%s", sf, got, target, q)
		}
	}
}

func TestTable2Compositions(t *testing.T) {
	bing, fb := BingComposition(), FacebookComposition()
	sum := func(c []BinSpec) int {
		n := 0
		for _, b := range c {
			n += b.Count
		}
		return n
	}
	if sum(bing) != 100 || sum(fb) != 100 {
		t.Fatalf("compositions must total 100 queries: bing %d fb %d", sum(bing), sum(fb))
	}
	// Table 2 exact counts.
	if bing[0].Count != 44 || bing[3].Count != 22 {
		t.Fatal("Bing composition drifted from Table 2")
	}
	if fb[0].Count != 85 || fb[4].Count != 1 {
		t.Fatal("Facebook composition drifted from Table 2")
	}
}

func TestBuildWorkload(t *testing.T) {
	w, err := BuildWorkload("bing", BingComposition(), 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Items) != 100 {
		t.Fatalf("items = %d", len(w.Items))
	}
	// Arrivals must be non-decreasing and start at 0.
	if w.Items[0].ArrivalSec != 0 {
		t.Fatalf("first arrival = %v", w.Items[0].ArrivalSec)
	}
	binCounts := map[int]int{}
	for i := 1; i < len(w.Items); i++ {
		if w.Items[i].ArrivalSec < w.Items[i-1].ArrivalSec {
			t.Fatal("arrivals not sorted")
		}
	}
	for _, it := range w.Items {
		binCounts[it.Bin]++
	}
	if binCounts[1] != 44 || binCounts[5] != 2 {
		t.Fatalf("bin counts wrong: %v", binCounts)
	}
	// Mean inter-arrival near 30s.
	span := w.Items[len(w.Items)-1].ArrivalSec
	if span < 30*99*0.6 || span > 30*99*1.5 {
		t.Fatalf("arrival span %v implausible for mean gap 30", span)
	}
}

func TestBuildWorkloadErrors(t *testing.T) {
	if _, err := BuildWorkload("x", BingComposition(), 0, 1); err == nil {
		t.Fatal("zero gap should error")
	}
}

func TestBuildCorpusSmall(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.NumQueries = 40
	cfg.MaxGB = 20
	c, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != 40 {
		t.Fatalf("runs = %d", len(c.Runs))
	}
	if len(c.JobSamples) < 40 {
		t.Fatalf("jobs = %d, want >= 40", len(c.JobSamples))
	}
	if len(c.TaskSamples) == 0 {
		t.Fatal("no task samples")
	}
	for _, r := range c.Runs {
		if r.Seconds <= 0 {
			t.Fatalf("run with non-positive time: %v", r.Seconds)
		}
		if r.Est == nil || r.Oracle == nil {
			t.Fatal("missing estimates")
		}
		if len(r.JobSamples) != len(r.Est.Jobs) || len(r.JobSamples) != len(r.Oracle.Jobs) {
			t.Fatalf("run has %d job samples for %d estimated and %d oracle jobs",
				len(r.JobSamples), len(r.Est.Jobs), len(r.Oracle.Jobs))
		}
	}
	// Samples carry positive features and targets.
	for _, s := range c.JobSamples {
		if s.Seconds <= 0 || s.Features[0] <= 0 {
			t.Fatalf("bad job sample: %+v", s)
		}
	}
	train, test := c.Split(0.75)
	if len(train.Runs) != 30 || len(test.Runs) != 10 {
		t.Fatalf("split = %d/%d", len(train.Runs), len(test.Runs))
	}
}

func TestCorpusDeterministic(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.NumQueries = 10
	a, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i].Seconds != b.Runs[i].Seconds {
			t.Fatalf("corpus not deterministic at run %d: %v vs %v",
				i, a.Runs[i].Seconds, b.Runs[i].Seconds)
		}
	}
}

func TestWorkloadToClusterPipeline(t *testing.T) {
	// A tiny end-to-end smoke test: build a 10-query workload, submit all
	// under HCS, everything completes.
	comp := []BinSpec{{Bin: 1, MinGB: 1, MaxGB: 5, Count: 10}}
	w, err := BuildWorkload("tiny", comp, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = cluster.DefaultConfig()
	if len(w.Items) != 10 {
		t.Fatal("bad workload")
	}
}

// TestCorpusSamplesAreTheRuns: each run records one job sample per job
// while its layout is live, and the corpus and both halves of a split are
// nothing but those samples concatenated, to the bit. Every feature vector
// has a capacity of its own length, so appending to one cannot write into
// the next.
func TestCorpusSamplesAreTheRuns(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.NumQueries = 60
	c, err := BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []predict.JobSample
	var tasks []predict.TaskSample
	for i, r := range c.Runs {
		if len(r.JobSamples) != len(r.Est.Jobs) {
			t.Fatalf("run %d: %d job samples for %d jobs", i, len(r.JobSamples), len(r.Est.Jobs))
		}
		jobs = append(jobs, r.JobSamples...)
		tasks = append(tasks, r.TaskSamples...)
	}
	sameSamples(t, "corpus", c.JobSamples, c.TaskSamples, jobs, tasks)
	train, test := c.Split(0.75)
	sameSamples(t, "split", append(slices.Clip(train.JobSamples), test.JobSamples...),
		append(slices.Clip(train.TaskSamples), test.TaskSamples...), c.JobSamples, c.TaskSamples)
}

// sameSamples fails unless got and want hold the same samples in the
// same order, features compared by their bits, and every got feature
// vector has len == cap.
func sameSamples(t *testing.T, what string, gotJobs []predict.JobSample, gotTasks []predict.TaskSample,
	wantJobs []predict.JobSample, wantTasks []predict.TaskSample) {
	t.Helper()
	if len(gotJobs) != len(wantJobs) || len(gotTasks) != len(wantTasks) {
		t.Fatalf("%s: %d job and %d task samples, want %d and %d",
			what, len(gotJobs), len(gotTasks), len(wantJobs), len(wantTasks))
	}
	same := func(kind string, i int, got, want []float64) {
		t.Helper()
		if len(got) != cap(got) {
			t.Fatalf("%s: %s sample %d: features have len %d, cap %d", what, kind, i, len(got), cap(got))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %s sample %d: %d features, want %d", what, kind, i, len(got), len(want))
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: %s sample %d feature %d: %v, want %v", what, kind, i, k, got[k], want[k])
			}
		}
	}
	for i, g := range gotJobs {
		w := wantJobs[i]
		if g.Op != w.Op || math.Float64bits(g.Seconds) != math.Float64bits(w.Seconds) {
			t.Fatalf("%s: job sample %d: (%v, %v), want (%v, %v)", what, i, g.Op, g.Seconds, w.Op, w.Seconds)
		}
		same("job", i, g.Features, w.Features)
	}
	for i, g := range gotTasks {
		w := wantTasks[i]
		if g.Op != w.Op || g.Reduce != w.Reduce || math.Float64bits(g.Seconds) != math.Float64bits(w.Seconds) {
			t.Fatalf("%s: task sample %d: (%v, %v, %v), want (%v, %v, %v)", what, i, g.Op, g.Reduce, g.Seconds, w.Op, w.Reduce, w.Seconds)
		}
		same("task", i, g.Features, w.Features)
	}
}

// estimateBits appends every number qe exposes, floats by their bits.
func estimateBits(dst []uint64, qe *selectivity.QueryEstimate) []uint64 {
	f := func(vs ...float64) {
		for _, v := range vs {
			dst = append(dst, math.Float64bits(v))
		}
	}
	for _, je := range qe.Jobs {
		f(je.InBytes, je.MedBytes, je.OutBytes, je.InRows, je.MedRows, je.OutRows, je.IS, je.FS, je.P)
		dst = append(dst, uint64(je.NumMaps), uint64(je.NumReduces))
		for _, gs := range [][]selectivity.TaskGroup{je.MapGroups, je.ReduceGroups} {
			dst = append(dst, uint64(len(gs)))
			for _, g := range gs {
				dst = append(dst, uint64(g.Count))
				f(g.InBytes, g.OutBytes)
			}
		}
	}
	return dst
}

// TestStatsEstimateLeaksNothingAcrossQueries: Stats.Estimate synthesizes
// its statistics into a pooled arena that the estimates before it grew and
// wrote. The 7 TPC-H plans at 10 GB and 100 GB estimate to the same bits
// before and after 200 generated queries are estimated on the same
// goroutine, which takes the same arena back from the pool.
func TestStatsEstimateLeaksNothingAcrossQueries(t *testing.T) {
	stats := NewStats(DefaultCorpusConfig())
	type planAt struct {
		d  *plan.DAG
		sf float64
	}
	var tpch []planAt
	for _, name := range TPCHNames() {
		q, err := TPCHQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []float64{10e9, 100e9} {
			tpch = append(tpch, planAt{d, SFForTargetBytes(q, target)})
		}
	}
	estimateAll := func() []uint64 {
		var bits []uint64
		for _, p := range tpch {
			est, oracle, err := stats.Estimate(p.d, p.sf)
			if err != nil {
				t.Fatal(err)
			}
			bits = estimateBits(estimateBits(bits, est), oracle)
		}
		return bits
	}
	before := estimateAll()
	g := NewGenerator(45)
	for i := 0; i < 200; i++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := stats.Estimate(d, SFForTargetBytes(q, float64(1+i%100)*1e9)); err != nil {
			t.Fatal(err)
		}
	}
	if after := estimateAll(); !slices.Equal(before, after) {
		k := 0
		for k < min(len(before), len(after)) && before[k] == after[k] {
			k++
		}
		t.Fatalf("the TPC-H estimates moved after 200 other estimates, first at number %d of %d", k, len(before))
	}
}

// TestStatsEstimateDropsOutsizedArena: Stats.Estimate puts its arena
// back empty once it held more than slab.RetainBytes. A six-table join
// with fifteen predicates synthesizes ≈ 300 KB of statistics at both
// resolutions; the arena the next estimate on this goroutine would take
// from the pool must hold nothing. (If the pool hands out a new arena
// instead, as it may after a collection, that is empty too.)
func TestStatsEstimateDropsOutsizedArena(t *testing.T) {
	q, err := query.Parse(`SELECT count(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey JOIN part ON l_partkey = p_partkey
		JOIN supplier ON l_suppkey = s_suppkey JOIN nation ON c_nationkey = n_nationkey
		WHERE l_quantity < 30 AND l_discount < 0.05 AND l_tax < 0.04 AND l_shipdate > 100
		AND l_commitdate > 100 AND l_receiptdate > 100 AND l_extendedprice > 5 AND o_totalprice > 10
		AND o_orderdate > 1000 AND c_acctbal > 0 AND p_size < 20 AND p_retailprice > 1000
		AND s_acctbal > 0 AND s_nationkey < 20 AND n_regionkey < 4`)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewStats(DefaultCorpusConfig()).Estimate(d, 10); err != nil {
		t.Fatal(err)
	}
	a := arenas.Get().(*histogram.Arena)
	defer arenas.Put(a)
	if !reflect.ValueOf(*a).IsZero() {
		t.Error("an arena past slab.RetainBytes went back to the pool with its storage")
	}
}

// TestFilterableDomains holds the filterable columns to what randPredicates
// assumes when it cuts predicates from a column's domain at SF 1: each
// exists in its table's schema, is numeric, and has the same domain at
// every scale factor.
func TestFilterableDomains(t *testing.T) {
	schemas := dataset.AllSchemas()
	for table, cols := range filterable {
		s := schemas[table]
		if s == nil {
			t.Errorf("filterable table %s has no schema", table)
			continue
		}
		for _, name := range cols {
			c := s.Column(name)
			if c == nil {
				t.Errorf("filterable column %s.%s is not in the schema", table, name)
				continue
			}
			if c.Kind == dataset.KindString {
				t.Errorf("filterable column %s.%s is a string column", table, name)
			}
			if a, b, z := c.Domain(0.01), c.Domain(1), c.Domain(1000); a != b || b != z {
				t.Errorf("filterable column %s.%s: domain %+v at SF 0.01, %+v at 1, %+v at 1000", table, name, a, b, z)
			}
		}
	}
}
