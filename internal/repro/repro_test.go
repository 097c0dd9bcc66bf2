package repro_test

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/fault"
	"saqp/internal/obs"
	"saqp/internal/predict"
	"saqp/internal/repro"
	"saqp/internal/workload"
)

// The scheduler names the drivers accept (sched.Names()).
const (
	schedulerHCS  = "HCS"
	schedulerHFS  = "HFS"
	schedulerSWRD = "SWRD"
)

// Experiments share one trained artifact set; building it dominates test
// time, so it is constructed once.
var (
	artOnce sync.Once
	art     *repro.TrainedArtifacts
	artCfg  repro.ExperimentConfig
	artErr  error
)

func artifacts(t testing.TB) (*repro.TrainedArtifacts, repro.ExperimentConfig) {
	t.Helper()
	artOnce.Do(func() {
		artCfg = repro.DefaultExperimentConfig()
		artCfg.CorpusQueries = 160
		art, artErr = repro.BuildTrainedArtifacts(artCfg)
	})
	if artErr != nil {
		t.Fatal(artErr)
	}
	return art, artCfg
}

// seedSweep is the first five seeds of the Section 5 seed sweep
// (EXPERIMENTS.md), fixed before they were run: the orderings the paper
// reports must hold on each. A seed that fails means a change moved a
// shape, not that the seed is unlucky.
var seedSweep = []uint64{2018, 1, 2, 3, 4}

// Each seed's artifacts are trained once, from 60 corpus queries, and
// shared by the tests that hold orderings over the sweep.
var (
	sweepOnce sync.Once
	sweepArt  []*repro.TrainedArtifacts
	sweepCfg  []repro.ExperimentConfig
	sweepErr  error
)

func sweepArtifacts(t testing.TB) ([]*repro.TrainedArtifacts, []repro.ExperimentConfig) {
	t.Helper()
	sweepOnce.Do(func() {
		for _, seed := range seedSweep {
			cfg := repro.DefaultExperimentConfig()
			cfg.CorpusQueries, cfg.Seed = 60, seed
			a, err := repro.BuildTrainedArtifacts(cfg)
			if err != nil {
				sweepErr = err
				return
			}
			sweepArt, sweepCfg = append(sweepArt, a), append(sweepCfg, cfg)
		}
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepArt, sweepCfg
}

func TestReproduceTable2(t *testing.T) {
	rows := repro.ReproduceTable2()
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
	rs, err := repro.ReproduceAblations(a, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rs {
		got[r.Ablation+" "+r.Variant+" "+r.Metric] = r.Value
	}
	fig8, err := repro.ReproduceFig8("bing", a, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	avg := map[string]float64{}
	for _, r := range fig8 {
		avg[r.Scheduler] = r.AvgResponseSec
	}
	var join predict.GroupAccuracy
	for _, r := range repro.ReproduceTable3(a).TrainRows {
		if r.Op == "Join" {
			join = r
		}
	}
	for cell, want := range map[string]float64{
		"A2_swrd_predictor trained bing_avg_response_sec":    avg[schedulerSWRD],
		"A3_hcs_queues 1 bing_avg_response_sec":              avg[schedulerHCS],
		"A5_hfs_preemptive_reduce off bing_avg_response_sec": avg[schedulerHFS],
		"A6_reduce_skew on join_r_squared":                   join.RSquared,
		"A6_reduce_skew on join_avg_error":                   join.AvgError,
	} {
		if g, ok := got[cell]; !ok || math.Float64bits(g) != math.Float64bits(want) || !(want > 0) {
			t.Errorf("%s = %v (present %v), want the ablated row's %v", cell, g, ok, want)
		}
	}
}

// TestClusterConfigRefused: a cluster config whose NodeFactors do not give
// each node a finite speed above zero is refused by the experiment drivers
// with a *cluster.ConfigError, as it is by the facade (the root package's
// test of the same name) — never a panic, a +Inf or NaN response time, or
// a run reported as starved.
func TestClusterConfigRefused(t *testing.T) {
	a, cfg := artifacts(t)
	for _, factors := range [][]float64{{1, 2}, {0}, {math.NaN()}, {-1}, {math.Inf(1)}} {
		cc := cluster.Config{Nodes: 1, NodeFactors: factors}
		if len(factors) == 2 {
			cc.Nodes = 4
		}
		var ce *cluster.ConfigError
		ecfg := cfg
		ecfg.Cluster = cc
		if _, err := repro.ReproduceFig8("bing", a, ecfg, 12); !errors.As(err, &ce) {
			t.Errorf("ReproduceFig8(%v) = %v, want a *ClusterConfigError", factors, err)
		}
	}
}

func TestReproduceTable3Shape(t *testing.T) {
	a, _ := artifacts(t)
	res := repro.ReproduceTable3(a)
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
	// Over the seed sweep, the ordering only: Groupby fits better than Join.
	arts, _ := sweepArtifacts(t)
	for i, a := range arts {
		r2 := map[string]float64{}
		for _, r := range repro.ReproduceTable3(a).TrainRows {
			r2[r.Op] = r.RSquared
		}
		if !(r2["Groupby"] > r2["Join"]) {
			t.Errorf("seed %d: Groupby R² %.3f not above Join R² %.3f", seedSweep[i], r2["Groupby"], r2["Join"])
		}
	}
}

func TestReproduceTables4And5Shape(t *testing.T) {
	a, _ := artifacts(t)
	for i, rows := range [][]predict.GroupAccuracy{repro.ReproduceTable4(a), repro.ReproduceTable5(a)} {
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
	pts := repro.ReproduceFig6(a)
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
	res, err := repro.ReproduceFig7(a, cfg, 8)
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
	hcs, err := repro.ReproduceFig2(schedulerHCS, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	swrd, err := repro.ReproduceFig2(schedulerSWRD, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m *repro.MotivationResult, name string) repro.MotivationQuery {
		for _, q := range m.Queries {
			if q.Name == name {
				return q
			}
		}
		t.Fatalf("missing query %s", name)
		return repro.MotivationQuery{}
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
		rs, err := repro.ReproduceFig8(mix, a, cfg, 12)
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
		if !(m[schedulerSWRD] < m[schedulerHFS] && m[schedulerSWRD] < m[schedulerHCS]) {
			t.Errorf("%s: SWRD not best: %v", mix, m)
		}
		if mix == "bing" {
			// On Bing the improvement vs HCS is dramatic (paper: 72.8%).
			gain := 1 - m[schedulerSWRD]/m[schedulerHCS]
			if gain < 0.5 {
				t.Errorf("bing SWRD-vs-HCS gain = %.2f, want large", gain)
			}
			// HCS is the worst policy on the big-query-heavy mix.
			if m[schedulerHCS] < m[schedulerHFS] {
				t.Errorf("bing: HCS should be worst: %v", m)
			}
		}
	}
	// Over the seed sweep, the ordering only: SWRD < HFS < HCS on both
	// mixes' average response times.
	arts, cfgs := sweepArtifacts(t)
	for i, a := range arts {
		for _, mix := range []string{"bing", "facebook"} {
			rs, err := repro.ReproduceFig8(mix, a, cfgs[i], 12)
			if err != nil {
				t.Fatal(err)
			}
			m := map[string]float64{}
			for _, r := range rs {
				m[r.Scheduler] = r.AvgResponseSec
			}
			if !(m[schedulerSWRD] < m[schedulerHFS] && m[schedulerHFS] < m[schedulerHCS]) {
				t.Errorf("seed %d %s: want SWRD < HFS < HCS: %v", seedSweep[i], mix, m)
			}
		}
	}
}

func TestReproduceFig5(t *testing.T) {
	rows, err := repro.ReproduceFig5()
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

func TestReproduceFig8UnknownMix(t *testing.T) {
	a, cfg := artifacts(t)
	if _, err := repro.ReproduceFig8("yahoo", a, cfg, 10); err == nil {
		t.Fatal("unknown mix should error")
	}
}

func TestFig8PerBinFairness(t *testing.T) {
	// The paper's fairness narrative: SWRD turns small queries (bin 1)
	// around far faster than HCS without materially hurting the biggest
	// bin. Percentiles and per-bin means must be internally consistent.
	a, cfg := artifacts(t)
	rs, err := repro.ReproduceFig8("bing", a, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]repro.Fig8Result{}
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
	hcs, swrd := byName[schedulerHCS], byName[schedulerSWRD]
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
	cfg := workload.DefaultCorpusConfig()
	cfg.NumQueries = 120
	corpus, err := workload.BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *repro.LearnReplayResult {
		r, err := repro.ReproduceLearningReplay(corpus, nil)
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

// TestFaultReplayDefaultPlanCompletes backs the CI completion gate: the
// TPC-H replay under the default fault plan recovers every query, inflates
// the response distribution, and reproduces byte-identically per seed.
func TestFaultReplayDefaultPlanCompletes(t *testing.T) {
	run := func() *repro.FaultReplayResult {
		cfg := repro.DefaultExperimentConfig()
		r, err := repro.ReproduceFaultReplay(cfg,
			fault.NewPlan(fault.DefaultSpec(2018)), 2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	if r.CompletionRate != 1 || r.Failed != 0 {
		t.Fatalf("default plan must recover everything: %+v", r)
	}
	if r.Faults.TaskFailures == 0 && r.Faults.NodeCrashes == 0 {
		t.Fatalf("default plan injected nothing: %+v", r.Faults)
	}
	if r.P99Inflation < 1 {
		t.Fatalf("faults should not speed the tail up: %+v", r)
	}
	if r2 := run(); *r2 != *r {
		t.Fatalf("fault replay not reproducible:\n%+v\n%+v", r, r2)
	}
}

// recordCorpusDrift replays the artifacts' training samples through an
// observer's drift recorder, scoring each with exactly the model the
// accuracy tables use, so the live drift snapshot reproduces the
// per-category mean relative error of Tables 3–5.
func recordCorpusDrift(a *repro.TrainedArtifacts, o *obs.Observer) {
	for _, s := range a.Train.JobSamples {
		o.Drift.RecordJob(s.Op.String(), a.Jobs.PredictSample(s), s.Seconds, false)
	}
	for _, s := range a.Train.TaskSamples {
		o.Drift.RecordTask(s.Op.String(), s.Reduce, a.Tasks.PredictTaskSample(s), s.Seconds, false)
	}
}

// TestCorpusDriftMatchesAccuracyTables: replaying the training corpus
// through the drift recorder must reproduce the per-category mean
// relative error and R² of Tables 3-5 (computed independently by the
// predict package) to within floating-point noise.
func TestCorpusDriftMatchesAccuracyTables(t *testing.T) {
	a, _ := artifacts(t)
	o := obs.New(nil)
	recordCorpusDrift(a, o)
	drift := o.Drift.Snapshot()

	const tol = 1e-9
	check := func(kind, category string, rows []obs.DriftSummary, want predict.GroupAccuracy) {
		t.Helper()
		for _, s := range rows {
			if s.Category != category {
				continue
			}
			if s.N != want.N {
				t.Errorf("%s %s: n = %d, accuracy table has %d", kind, category, s.N, want.N)
			}
			if math.Abs(s.MeanRelError-want.AvgError) > tol {
				t.Errorf("%s %s: mean rel err %v, accuracy table %v", kind, category, s.MeanRelError, want.AvgError)
			}
			// The recorder computes R² from running sums, the table from
			// two passes; they agree to far better than table precision.
			if math.Abs(s.RSquared-want.RSquared) > 1e-6 {
				t.Errorf("%s %s: R² %v, accuracy table %v", kind, category, s.RSquared, want.RSquared)
			}
			return
		}
		t.Errorf("%s: no drift category %q", kind, category)
	}

	res := repro.ReproduceTable3(a)
	for _, row := range res.TrainRows {
		if row.Op == "All" {
			continue // the recorder keys by category only
		}
		check("job", row.Op, drift.Jobs, row)
	}
	for _, row := range repro.ReproduceTable4(a) {
		if row.Op == "Together" {
			continue
		}
		check("map task", row.Op+"/map", drift.Tasks, row)
	}
	for _, row := range repro.ReproduceTable5(a) {
		if row.Op == "Together" {
			continue
		}
		check("reduce task", row.Op+"/reduce", drift.Tasks, row)
	}
}

// TestFig2Observed: the motivation experiment must feed the observer —
// scheduler decisions, cluster lifecycle metrics, selectivity estimate
// drift and (given trained models) job-time drift.
func TestFig2Observed(t *testing.T) {
	a, cfg := artifacts(t)
	var traceBuf bytes.Buffer
	o := obs.New(obs.NewTraceSink(&traceBuf))
	cfg.Observer = o
	if _, err := repro.ReproduceFig2(schedulerSWRD, a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	counters := o.Metrics.Snapshot().Counters
	if got := counters["saqp_cluster_queries_completed_total"]; got != 3 {
		t.Errorf("concurrent run should complete 3 queries, metrics say %v (alone runs must stay uninstrumented)", got)
	}
	if counters["saqp_sched_decisions_total"] == 0 {
		t.Error("no scheduler decisions recorded")
	}
	if got := counters["saqp_framework_compiles_total"]; got > 3 {
		t.Errorf("the three queries are prepared once for all four runs, yet %v compiles were counted", got)
	}
	drift := o.Drift.Snapshot()
	if len(drift.Estimates) == 0 {
		t.Error("no selectivity estimate drift recorded")
	}
	if len(drift.Jobs) == 0 {
		t.Error("no job-time drift recorded")
	}
	for _, s := range drift.Estimates {
		if s.N == 0 {
			t.Errorf("estimate drift category %s empty", s.Category)
		}
	}
	if !bytes.Contains(traceBuf.Bytes(), []byte("SWRD")) {
		t.Error("trace missing scheduler decision events")
	}
}
