package saqp_test

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"saqp"
)

// Experiments share one trained artifact set; building it dominates test
// time, so it is constructed once.
var (
	artOnce sync.Once
	art     *saqp.TrainedArtifacts
	artCfg  saqp.ExperimentConfig
	artErr  error
)

func artifacts(t testing.TB) (*saqp.TrainedArtifacts, saqp.ExperimentConfig) {
	t.Helper()
	artOnce.Do(func() {
		artCfg = saqp.DefaultExperimentConfig()
		artCfg.CorpusQueries = 160
		art, artErr = saqp.BuildTrainedArtifacts(artCfg)
	})
	if artErr != nil {
		t.Fatal(artErr)
	}
	return art, artCfg
}

func TestFrameworkCompileEstimate(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := fw.Compile(`SELECT c_name, count(*) FROM customer
		JOIN orders ON o_custkey = c_custkey GROUP BY c_name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(dag.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(dag.Jobs))
	}
	est, err := fw.Estimate(dag)
	if err != nil {
		t.Fatal(err)
	}
	if est.ByID["J1"].OutRows <= 0 {
		t.Fatal("estimate produced no rows")
	}
	// Untrained predictions must fail loudly.
	if _, err := fw.PredictQuerySeconds(est); err == nil {
		t.Fatal("prediction before training should error")
	}
	if _, err := fw.WRD(est); err == nil {
		t.Fatal("WRD before training should error")
	}
}

func TestFrameworkCompileErrors(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Compile(`SELEC x`); err == nil {
		t.Fatal("bad SQL should fail")
	}
	if _, err := fw.Compile(`SELECT ghost FROM nowhere`); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestFrameworkTrainAndPredict(t *testing.T) {
	a, _ := artifacts(t)
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(a.Corpus); err != nil {
		t.Fatal(err)
	}
	dag, err := fw.Compile(`SELECT l_shipmode, sum(l_extendedprice) FROM lineitem
		WHERE l_shipdate < 9500 GROUP BY l_shipmode`)
	if err != nil {
		t.Fatal(err)
	}
	est, err := fw.Estimate(dag)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := fw.PredictQuerySeconds(est)
	if err != nil {
		t.Fatal(err)
	}
	if secs < 10 || secs > 3600 {
		t.Fatalf("predicted %v s for a ~16 GB aggregation, implausible", secs)
	}
	wrd, err := fw.WRD(est)
	if err != nil {
		t.Fatal(err)
	}
	if wrd <= 0 {
		t.Fatalf("WRD = %v", wrd)
	}
	jsec, err := fw.PredictJobSeconds(est.ByID["J1"])
	if err != nil || jsec <= 0 {
		t.Fatalf("job prediction = %v, %v", jsec, err)
	}
}

func TestReproduceTable2(t *testing.T) {
	rows := saqp.ReproduceTable2()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Bing != 44 || rows[0].Facebook != 85 {
		t.Fatalf("bin 1 = %+v", rows[0])
	}
	bing, facebook := 0, 0
	for _, r := range rows {
		bing, facebook = bing+r.Bing, facebook+r.Facebook
	}
	if bing != 100 || facebook != 100 {
		t.Fatalf("mixes hold %d (Bing) and %d (Facebook) queries, want 100 each", bing, facebook)
	}
}

// TestAblationBaselinesAreFig8AndTable3: every ablation's baseline is, to
// the bit, the cell of the row it ablates. A variant that hand-rolls its
// own replay or re-seeds its corpus forks from the paper's rows and fails
// here.
func TestAblationBaselinesAreFig8AndTable3(t *testing.T) {
	a, cfg := artifacts(t)
	rs, err := saqp.ReproduceAblations(a, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rs {
		got[r.Ablation+" "+r.Variant+" "+r.Metric] = r.Value
	}
	fig8, err := saqp.ReproduceFig8("bing", a, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	avg := map[string]float64{}
	for _, r := range fig8 {
		avg[r.Scheduler] = r.AvgResponseSec
	}
	var join saqp.GroupAccuracy
	for _, r := range saqp.ReproduceTable3(a).TrainRows {
		if r.Op == "Join" {
			join = r
		}
	}
	for cell, want := range map[string]float64{
		"A2_swrd_predictor trained bing_avg_response_sec":    avg[saqp.SchedulerSWRD],
		"A3_hcs_queues 1 bing_avg_response_sec":              avg[saqp.SchedulerHCS],
		"A5_hfs_preemptive_reduce off bing_avg_response_sec": avg[saqp.SchedulerHFS],
		"A6_reduce_skew on join_r_squared":                   join.RSquared,
		"A6_reduce_skew on join_avg_error":                   join.AvgError,
	} {
		if g, ok := got[cell]; !ok || math.Float64bits(g) != math.Float64bits(want) || !(want > 0) {
			t.Errorf("%s = %v (present %v), want the ablated row's %v", cell, g, ok, want)
		}
	}
}

// TestClusterConfigRefused: a ClusterConfig is outside input. One whose
// NodeFactors do not give each node a finite speed above zero is refused
// with a *ClusterConfigError wherever it enters — never a panic on a pool
// goroutine, a +Inf or NaN response time, or a run reported as starved.
func TestClusterConfigRefused(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, cfg := artifacts(t)
	qe := a.Test.Runs[0].Est
	for _, factors := range [][]float64{{1, 2}, {0}, {math.NaN()}, {-1}, {math.Inf(1)}} {
		cc := saqp.ClusterConfig{Nodes: 1, NodeFactors: factors}
		if len(factors) == 2 {
			cc.Nodes = 4
		}
		var ce *saqp.ClusterConfigError
		if srv, err := fw.NewServer(saqp.ServerOptions{Workers: 1, Cluster: cc}); !errors.As(err, &ce) {
			if srv != nil {
				srv.Close()
			}
			t.Errorf("NewServer(%v) = %v, want a *ClusterConfigError", factors, err)
		}
		if sec, err := fw.SimulateQueryConfig("q6", qe, saqp.SchedulerSWRD, 1, cc); !errors.As(err, &ce) {
			t.Errorf("SimulateQueryConfig(%v) = %v, %v, want a *ClusterConfigError", factors, sec, err)
		}
		ecfg := cfg
		ecfg.Cluster = cc
		if _, err := saqp.ReproduceFig8("bing", a, ecfg, 12); !errors.As(err, &ce) {
			t.Errorf("ReproduceFig8(%v) = %v, want a *ClusterConfigError", factors, err)
		}
	}
	cc := saqp.DefaultClusterConfig()
	cc.NodeFactors = []float64{0.5, 1, 1, 1, 1, 1, 1, 1, 2}
	if sec, err := fw.SimulateQueryConfig("q6", qe, saqp.SchedulerSWRD, 1, cc); err != nil || !(sec > 0) || math.IsInf(sec, 1) {
		t.Errorf("one finite speed per node: %v, %v", sec, err)
	}
}

func TestReproduceTable3Shape(t *testing.T) {
	a, _ := artifacts(t)
	res := saqp.ReproduceTable3(a)
	if len(res.TrainRows) < 3 {
		t.Fatalf("train rows = %d", len(res.TrainRows))
	}
	for _, r := range res.TrainRows {
		if r.N < 5 {
			continue
		}
		// Join (and the pooled row) absorb the hot-reducer scatter the
		// paper describes; see internal/predict for the detailed bands.
		band := 0.75
		if r.Op == "Join" || r.Op == "All" {
			band = 0.55
		} else if r.Op == "Extract" {
			band = 0.65
		}
		if r.RSquared < band || r.AvgError > 0.35 {
			t.Errorf("Table3 %s out of paper-like band: R²=%.3f err=%.3f", r.Op, r.RSquared, r.AvgError)
		}
	}
	// Paper's TestSet row: 13.98%; allow a generous band.
	if res.TestSetAvgError <= 0 || res.TestSetAvgError > 0.30 {
		t.Errorf("test-set avg error = %.3f", res.TestSetAvgError)
	}
}

func TestReproduceTables4And5Shape(t *testing.T) {
	a, _ := artifacts(t)
	for i, rows := range [][]saqp.GroupAccuracy{saqp.ReproduceTable4(a), saqp.ReproduceTable5(a)} {
		if len(rows) != 4 {
			t.Fatalf("table %d rows = %d", 4+i, len(rows))
		}
		for _, r := range rows {
			if r.RSquared < 0.7 || r.AvgError > 0.30 {
				t.Errorf("Table%d %s: R²=%.3f err=%.3f", 4+i, r.Op, r.RSquared, r.AvgError)
			}
		}
	}
}

func TestReproduceFig6Scatter(t *testing.T) {
	a, _ := artifacts(t)
	pts := saqp.ReproduceFig6(a)
	if len(pts) < 50 {
		t.Fatalf("scatter points = %d", len(pts))
	}
	// Points must hug the perfect line on average.
	var sum float64
	n := 0
	for _, p := range pts {
		if p.Actual > 0 {
			sum += math.Abs(p.Predicted-p.Actual) / p.Actual
			n++
		}
	}
	if avg := sum / float64(n); avg > 0.30 {
		t.Errorf("Fig6 mean deviation from perfect line = %.3f", avg)
	}
}

func TestReproduceFig7(t *testing.T) {
	a, cfg := artifacts(t)
	res, err := saqp.ReproduceFig7(a, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper reports 8.3% on 100 GB queries.
	if res.AvgError > 0.20 {
		t.Errorf("Fig7 avg error = %.3f", res.AvgError)
	}
}

func TestReproduceFig2Thrashing(t *testing.T) {
	a, cfg := artifacts(t)
	hcs, err := saqp.ReproduceFig2(saqp.SchedulerHCS, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	swrd, err := saqp.ReproduceFig2(saqp.SchedulerSWRD, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m *saqp.MotivationResult, name string) saqp.MotivationQuery {
		for _, q := range m.Queries {
			if q.Name == name {
				return q
			}
		}
		t.Fatalf("missing query %s", name)
		return saqp.MotivationQuery{}
	}
	// Paper Fig. 2: the small queries are delayed ~3x under HCS.
	for _, name := range []string{"QA", "QC"} {
		h := get(hcs, name)
		if h.Slowdown < 1.6 {
			t.Errorf("HCS %s slowdown = %.2f, want >= 1.6 (paper ~3x)", name, h.Slowdown)
		}
		s := get(swrd, name)
		if s.Slowdown > 1.35 {
			t.Errorf("SWRD %s slowdown = %.2f, want near 1x", name, s.Slowdown)
		}
	}
	// QB is a four-job 100 GB query; QA two jobs.
	if len(get(hcs, "QB").JobSpans) != 4 {
		t.Errorf("QB spans = %d, want 4 jobs", len(get(hcs, "QB").JobSpans))
	}
	if len(get(hcs, "QA").JobSpans) != 2 {
		t.Errorf("QA spans = %d, want 2 jobs", len(get(hcs, "QA").JobSpans))
	}
}

func TestReproduceFig8Shape(t *testing.T) {
	a, cfg := artifacts(t)
	for _, mix := range []string{"bing", "facebook"} {
		rs, err := saqp.ReproduceFig8(mix, a, cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 3 {
			t.Fatalf("%s results = %d", mix, len(rs))
		}
		m := map[string]float64{}
		for _, r := range rs {
			if r.Queries != 100 {
				t.Fatalf("%s %s ran %d queries", mix, r.Scheduler, r.Queries)
			}
			m[r.Scheduler] = r.AvgResponseSec
		}
		// SWRD must win on both workloads (the paper's headline claim).
		if !(m[saqp.SchedulerSWRD] < m[saqp.SchedulerHFS] && m[saqp.SchedulerSWRD] < m[saqp.SchedulerHCS]) {
			t.Errorf("%s: SWRD not best: %v", mix, m)
		}
		if mix == "bing" {
			// On Bing the improvement vs HCS is dramatic (paper: 72.8%).
			gain := 1 - m[saqp.SchedulerSWRD]/m[saqp.SchedulerHCS]
			if gain < 0.5 {
				t.Errorf("bing SWRD-vs-HCS gain = %.2f, want large", gain)
			}
			// HCS is the worst policy on the big-query-heavy mix.
			if m[saqp.SchedulerHCS] < m[saqp.SchedulerHFS] {
				t.Errorf("bing: HCS should be worst: %v", m)
			}
		}
	}
}

func TestReproduceFig5(t *testing.T) {
	rows, err := saqp.ReproduceFig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper Section 3.2: groupby output cardinality ~200,000.
	j3 := rows[2]
	if j3.Type != "Groupby" {
		t.Fatalf("J3 type = %s", j3.Type)
	}
	if math.Abs(j3.OutRows-200000)/200000 > 0.1 {
		t.Errorf("J3 out rows = %.0f, want ~200000", j3.OutRows)
	}
	for _, r := range rows {
		if r.IS < 0 || r.IS > 1 || r.FS < 0 {
			t.Errorf("job %s selectivities out of range: IS=%v FS=%v", r.ID, r.IS, r.FS)
		}
	}
}

func TestNewEngineExecutesQuery(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	e := saqp.NewEngine(0.01, 7)
	dag, err := fw.Compile(`SELECT n_name, count(*) FROM nation JOIN supplier ON s_nationkey = n_nationkey GROUP BY n_name`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunQuery(dag)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.NumRows() == 0 {
		t.Fatal("engine produced no rows")
	}
}

func TestReproduceFig8UnknownMix(t *testing.T) {
	a, cfg := artifacts(t)
	if _, err := saqp.ReproduceFig8("yahoo", a, cfg, 10); err == nil {
		t.Fatal("unknown mix should error")
	}
}

func TestFig8PerBinFairness(t *testing.T) {
	// The paper's fairness narrative: SWRD turns small queries (bin 1)
	// around far faster than HCS without materially hurting the biggest
	// bin. Percentiles and per-bin means must be internally consistent.
	a, cfg := artifacts(t)
	rs, err := saqp.ReproduceFig8("bing", a, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]saqp.Fig8Result{}
	for _, r := range rs {
		byName[r.Scheduler] = r
		if r.P50Sec > r.P95Sec {
			t.Fatalf("%s: p50 %v > p95 %v", r.Scheduler, r.P50Sec, r.P95Sec)
		}
		for bin := 1; bin <= 5; bin++ {
			if _, ok := r.AvgByBin[bin]; !ok {
				t.Fatalf("%s: missing bin %d", r.Scheduler, bin)
			}
		}
	}
	hcs, swrd := byName[saqp.SchedulerHCS], byName[saqp.SchedulerSWRD]
	if swrd.AvgByBin[1] >= hcs.AvgByBin[1] {
		t.Fatalf("SWRD did not speed up bin-1 queries: %v vs %v",
			swrd.AvgByBin[1], hcs.AvgByBin[1])
	}
	// Big queries must not be starved into oblivion: within 3x of HCS.
	if swrd.AvgByBin[5] > 3*hcs.AvgByBin[5] {
		t.Fatalf("SWRD starves bin-5 queries: %v vs %v",
			swrd.AvgByBin[5], hcs.AvgByBin[5])
	}
}

// TestLearningReplayConverges is the online-learning convergence gate:
// a cold registry fed the seeded 120-query corpus one completion at a
// time must promote at least one challenger and end with a challenger
// whose average relative error equals that of a batch fit over the same
// samples — the two are one accumulator fed one stream — reproducibly,
// field for field.
func TestLearningReplayConverges(t *testing.T) {
	run := func() *saqp.LearnReplayResult {
		r, err := saqp.ReproduceLearningReplay(saqp.ExperimentConfig{CorpusQueries: 120, Seed: 2018})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	if r.JobSamples == 0 || r.BatchErr <= 0 {
		t.Fatalf("replay fed nothing: %+v", r)
	}
	if r.FinalChallengerErr != r.BatchErr {
		t.Fatalf("final challenger err %v differs from batch err %v", r.FinalChallengerErr, r.BatchErr)
	}
	if len(r.Promotions) == 0 || r.FinalVersion == 0 {
		t.Fatalf("cold registry never promoted a challenger: %+v", r)
	}
	if r2 := run(); !reflect.DeepEqual(r2, r) {
		t.Fatalf("learning replay not reproducible:\n%+v\n%+v", r, r2)
	}
}
