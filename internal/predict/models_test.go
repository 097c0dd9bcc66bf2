package predict_test

import (
	"math"
	"sync"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/workload"
)

// The corpus is expensive; build once for all accuracy tests.
var (
	corpusOnce sync.Once
	corpus     *workload.Corpus
	corpusErr  error
)

func sharedCorpus(t *testing.T) *workload.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := workload.DefaultCorpusConfig()
		cfg.NumQueries = 240
		corpus, corpusErr = workload.BuildCorpus(cfg)
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

var _ cluster.TaskTimePredictor = (*predict.TaskModel)(nil)

func TestJobModelAccuracyTable3(t *testing.T) {
	c := sharedCorpus(t)
	train, test := c.Split(0.75)
	jm, err := predict.FitJobModel(train.JobSamples)
	if err != nil {
		t.Fatal(err)
	}
	rows := jm.JobAccuracyByOperator(train.JobSamples)
	if len(rows) < 3 {
		t.Fatalf("expected >=3 operator rows, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("Table3 train %-8s n=%4d R²=%.4f avgErr=%.4f", r.Op, r.N, r.RSquared, r.AvgError)
		if r.N < 5 {
			continue
		}
		// Join and Extract are the weak operators in the paper too; with
		// reduce-partition skew modelled, hot-reducer jobs carry exactly
		// the "small number of non-fitted dots scatter[ed] a little far
		// from the perfect line" the paper describes for Join — variance a
		// job-level linear model cannot express (the task-composition
		// predictor of Fig. 7 handles it explicitly and stays ~5%).
		band := 0.80
		if r.Op == plan.Join.String() || r.Op == "All" {
			band = 0.55
		} else if r.Op == plan.Extract.String() {
			band = 0.65
		}
		if r.RSquared < band {
			t.Errorf("%s: training R² = %.3f, below paper-like range", r.Op, r.RSquared)
		}
		if r.AvgError > 0.35 {
			t.Errorf("%s: training avg error = %.3f, above paper-like range", r.Op, r.AvgError)
		}
	}
	// Test-set error using prediction-time (estimated) features, like the
	// paper's TestSet row (13.98%).
	var sumErr float64
	var n int
	for _, run := range test.Runs {
		for ji, je := range run.Est.Jobs {
			actual := run.JobSamples[ji].Seconds
			if actual <= 0 {
				continue
			}
			pred := jm.PredictJob(je)
			sumErr += math.Abs(pred-actual) / actual
			n++
		}
	}
	testErr := sumErr / float64(n)
	t.Logf("Table3 test-set avg error = %.4f over %d jobs", testErr, n)
	if testErr > 0.40 {
		t.Errorf("test-set avg error %.3f too high", testErr)
	}
}

func TestTaskModelAccuracyTables4And5(t *testing.T) {
	c := sharedCorpus(t)
	train, _ := c.Split(0.75)
	tm, err := predict.FitTaskModel(train.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	for _, reduce := range []bool{false, true} {
		phase := "map"
		if reduce {
			phase = "reduce"
		}
		rows := tm.TaskAccuracyByOperator(train.TaskSamples, reduce)
		for _, r := range rows {
			t.Logf("Table%s train %-8s %-8s n=%5d R²=%.4f avgErr=%.4f",
				map[bool]string{false: "4", true: "5"}[reduce], phase, r.Op, r.N, r.RSquared, r.AvgError)
			if r.N < 10 {
				continue
			}
			if r.RSquared < 0.7 {
				t.Errorf("%s %s: R² = %.3f too low", phase, r.Op, r.RSquared)
			}
			if r.AvgError > 0.35 {
				t.Errorf("%s %s: avg error = %.3f too high", phase, r.Op, r.AvgError)
			}
		}
	}
}

func TestQueryPredictionFig7(t *testing.T) {
	c := sharedCorpus(t)
	train, test := c.Split(0.75)
	tm, err := predict.FitTaskModel(train.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	slots, ov := core.Capacity(cluster.DefaultConfig())
	var sumErr float64
	var n int
	for _, run := range test.Runs {
		pred := tm.PredictQuery(run.Est, slots, ov)
		if run.Seconds <= 0 {
			continue
		}
		sumErr += math.Abs(pred-run.Seconds) / run.Seconds
		n++
	}
	avg := sumErr / float64(n)
	t.Logf("Fig7 query-level avg error = %.4f over %d queries", avg, n)
	// Paper reports 8.3% on 100 GB TPC-H queries; our mixed test set allows
	// a looser band.
	if avg > 0.35 {
		t.Errorf("query-level avg error %.3f too high", avg)
	}
}

func TestWRDCorrelatesWithWork(t *testing.T) {
	c := sharedCorpus(t)
	train, test := c.Split(0.75)
	tm, err := predict.FitTaskModel(train.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	// Rank correlation between WRD and observed standalone seconds should
	// be strongly positive.
	type pair struct{ wrd, secs float64 }
	var ps []pair
	for _, run := range test.Runs {
		ps = append(ps, pair{tm.WRD(run.Est), run.Seconds})
	}
	concordant, discordant := 0, 0
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			dw := ps[i].wrd - ps[j].wrd
			ds := ps[i].secs - ps[j].secs
			if dw*ds > 0 {
				concordant++
			} else if dw*ds < 0 {
				discordant++
			}
		}
	}
	tau := float64(concordant-discordant) / float64(concordant+discordant)
	t.Logf("Kendall tau(WRD, seconds) = %.3f", tau)
	if tau < 0.5 {
		t.Errorf("WRD poorly correlated with actual work: tau = %.3f", tau)
	}
}

func TestScaleOutPrediction(t *testing.T) {
	// Paper Section 5.1: 150–400 GB queries added to the test set to
	// assess scalability. Task-based job prediction must stay sane there.
	cfg := workload.DefaultCorpusConfig()
	cfg.NumQueries = 20
	cfg.MinGB, cfg.MaxGB = 150, 400
	cfg.Seed = 777
	big, err := workload.BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := sharedCorpus(t)
	train, _ := c.Split(0.75)
	tm, err := predict.FitTaskModel(train.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	slots, ov := core.Capacity(cluster.DefaultConfig())
	var sumErr float64
	var n int
	for _, run := range big.Runs {
		pred := tm.PredictQuery(run.Est, slots, ov)
		sumErr += math.Abs(pred-run.Seconds) / run.Seconds
		n++
	}
	avg := sumErr / float64(n)
	t.Logf("scale-out (150-400GB) query avg error = %.4f over %d queries", avg, n)
	if avg > 0.45 {
		t.Errorf("scale-out error %.3f too high", avg)
	}
}
