package saqp_test

// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 5). Each bench reports the reproduced headline
// metrics via b.ReportMetric alongside wall-clock cost, so
// `go test -bench=. -benchmem` doubles as the experiment harness:
//
//	Table 2  -> BenchmarkTable2WorkloadComposition
//	Table 3  -> BenchmarkTable3JobAccuracy
//	Table 4  -> BenchmarkTable4MapTaskAccuracy
//	Table 5  -> BenchmarkTable5ReduceTaskAccuracy
//	Fig 1-2  -> BenchmarkFig1Fig2Motivation
//	Fig 5    -> BenchmarkFig5SelectivityWalkthrough
//	Fig 6    -> BenchmarkFig6JobScatter
//	Fig 7    -> BenchmarkFig7QueryPrediction
//	Fig 8    -> BenchmarkFig8Schedulers
//
// The Ablation* benches quantify the design choices DESIGN.md calls out:
// histogram resolution, prediction quality inside SWRD, and HCS queue
// structure.

import (
	"testing"

	"saqp"
	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

func BenchmarkTable2WorkloadComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := workload.BuildWorkload("bing", workload.BingComposition(), 12, 1)
		if err != nil {
			b.Fatal(err)
		}
		if w.TotalQueries() != 100 {
			b.Fatal("wrong composition")
		}
	}
}

func BenchmarkTable3JobAccuracy(b *testing.B) {
	a, _ := artifacts(b)
	var res saqp.Table3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = saqp.ReproduceTable3(a)
	}
	b.ReportMetric(100*res.TestSetAvgError, "testErr%")
	for _, r := range res.TrainRows {
		if r.Op == "All" {
			b.ReportMetric(100*r.RSquared, "trainR2%")
		}
	}
}

func BenchmarkTable4MapTaskAccuracy(b *testing.B) {
	a, _ := artifacts(b)
	var rows []saqp.GroupAccuracy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = saqp.ReproduceTable4(a)
	}
	for _, r := range rows {
		if r.Op == "Together" {
			b.ReportMetric(100*r.RSquared, "R2%")
			b.ReportMetric(100*r.AvgError, "err%")
		}
	}
}

func BenchmarkTable5ReduceTaskAccuracy(b *testing.B) {
	a, _ := artifacts(b)
	var rows []saqp.GroupAccuracy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = saqp.ReproduceTable5(a)
	}
	for _, r := range rows {
		if r.Op == "Together" {
			b.ReportMetric(100*r.RSquared, "R2%")
			b.ReportMetric(100*r.AvgError, "err%")
		}
	}
}

func BenchmarkFig1Fig2Motivation(b *testing.B) {
	a, cfg := artifacts(b)
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := saqp.ReproduceFig2(saqp.SchedulerHCS, a, cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, q := range res.Queries {
			if q.Name != "QB" && q.Slowdown > worst {
				worst = q.Slowdown
			}
		}
	}
	b.ReportMetric(worst, "smallQslowdown(x)")
}

func BenchmarkFig5SelectivityWalkthrough(b *testing.B) {
	var rows []saqp.Fig5Job
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = saqp.ReproduceFig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].OutRows, "groupbyRows")
}

func BenchmarkFig6JobScatter(b *testing.B) {
	a, _ := artifacts(b)
	var pts []saqp.ScatterPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = saqp.ReproduceFig6(a)
	}
	b.ReportMetric(float64(len(pts)), "points")
}

func BenchmarkFig7QueryPrediction(b *testing.B) {
	a, cfg := artifacts(b)
	var res saqp.Fig7Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = saqp.ReproduceFig7(a, cfg, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.AvgError, "err%")
}

func BenchmarkFig8Schedulers(b *testing.B) {
	a, cfg := artifacts(b)
	for _, mix := range []string{"bing", "facebook"} {
		b.Run(mix, func(b *testing.B) {
			var gainHFS, gainHCS float64
			for i := 0; i < b.N; i++ {
				rs, err := saqp.ReproduceFig8(mix, a, cfg, 12)
				if err != nil {
					b.Fatal(err)
				}
				m := map[string]float64{}
				for _, r := range rs {
					m[r.Scheduler] = r.AvgResponseSec
				}
				gainHFS = 100 * (1 - m["SWRD"]/m["HFS"])
				gainHCS = 100 * (1 - m["SWRD"]/m["HCS"])
			}
			b.ReportMetric(gainHFS, "gainVsHFS%")
			b.ReportMetric(gainHCS, "gainVsHCS%")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkAblationHistogramResolution quantifies how histogram bucket
// count affects join-size estimation on a many-to-many join of two
// Zipf-skewed fact tables (store_sales ⋈ web_sales on item): coarse
// buckets smear the hot keys and mis-estimate the blow-up; results are
// compared against a 4096-bucket reference.
func BenchmarkAblationHistogramResolution(b *testing.B) {
	compile := func() *plan.DAG {
		fw, err := saqp.NewFramework(saqp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		d, err := fw.Compile(`SELECT ss_quantity FROM store_sales JOIN web_sales ON ws_item_sk = ss_item_sk`)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	d := compile()
	ref, err := selectivity.NewEstimator(catalog.FromSchemas(dataset.TPCDS(), 1, 4096), selectivity.Config{}).EstimateQuery(d)
	if err != nil {
		b.Fatal(err)
	}
	refRows := ref.Jobs[0].OutRows
	for _, buckets := range []int{8, 64, 512} {
		b.Run(bucketsName(buckets), func(b *testing.B) {
			cat := catalog.FromSchemas(dataset.TPCDS(), 1, buckets)
			var est *selectivity.QueryEstimate
			for i := 0; i < b.N; i++ {
				var err error
				est, err = selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
				if err != nil {
					b.Fatal(err)
				}
			}
			dev := 100 * absF(est.Jobs[0].OutRows-refRows) / refRows
			b.ReportMetric(dev, "devFromRef%")
		})
	}
}

func bucketsName(n int) string {
	switch n {
	case 8:
		return "buckets=8"
	case 64:
		return "buckets=64"
	default:
		return "buckets=512"
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkAblationSWRDPredictor compares SWRD driven by the trained task
// model against SWRD driven by a constant (semantics-free) predictor: how
// much of SWRD's gain comes from prediction quality versus mere query-level
// grouping.
func BenchmarkAblationSWRDPredictor(b *testing.B) {
	a, cfg := artifacts(b)
	w, err := workload.BuildWorkload("bing", workload.BingComposition(), 12, cfg.Seed^0xfb8)
	if err != nil {
		b.Fatal(err)
	}
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	type prepared struct {
		est *selectivity.QueryEstimate
		at  float64
	}
	var items []prepared
	for _, wi := range w.Items {
		d, err := plan.Compile(wi.Query)
		if err != nil {
			b.Fatal(err)
		}
		_, oracle, err := stats.Estimate(d, wi.SF)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, prepared{est: oracle, at: wi.ArrivalSec})
	}
	run := func(pred cluster.TaskTimePredictor) float64 {
		cm := trace.NewDefaultCostModel(cfg.Seed ^ 0xc0ffee)
		sim := cluster.New(cfg.Cluster, sched.SWRD{})
		for i, it := range items {
			cq := cluster.BuildQuery(string(rune('a'+i%26))+"-q", it.est, cm, pred)
			sim.Submit(cq, it.at)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgResponseTime()
	}
	var trained, constant float64
	for i := 0; i < b.N; i++ {
		trained = run(a.Tasks)
		constant = run(cluster.ConstantPredictor(10))
	}
	b.ReportMetric(trained, "trainedResp(s)")
	b.ReportMetric(constant, "constResp(s)")
}

// BenchmarkAblationHCSQueues measures how the Capacity Scheduler's queue
// count changes average response time on the Bing mix: a single queue
// exhibits the paper's head-of-line thrashing; more queues dilute it.
func BenchmarkAblationHCSQueues(b *testing.B) {
	a, cfg := artifacts(b)
	w, err := workload.BuildWorkload("bing", workload.BingComposition(), 12, cfg.Seed^0xfb8)
	if err != nil {
		b.Fatal(err)
	}
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	type prepared struct {
		est *selectivity.QueryEstimate
		at  float64
	}
	var items []prepared
	for _, wi := range w.Items {
		d, err := plan.Compile(wi.Query)
		if err != nil {
			b.Fatal(err)
		}
		_, oracle, err := stats.Estimate(d, wi.SF)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, prepared{est: oracle, at: wi.ArrivalSec})
	}
	for _, queues := range []int{1, 4, 16} {
		name := map[int]string{1: "queues=1", 4: "queues=4", 16: "queues=16"}[queues]
		b.Run(name, func(b *testing.B) {
			var resp float64
			for i := 0; i < b.N; i++ {
				cm := trace.NewDefaultCostModel(cfg.Seed ^ 0xc0ffee)
				sim := cluster.New(cfg.Cluster, sched.HCS{Queues: queues})
				for j, it := range items {
					cq := cluster.BuildQuery(benchQueryName(j), it.est, cm, a.Tasks)
					sim.Submit(cq, it.at)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				resp = res.AvgResponseTime()
			}
			b.ReportMetric(resp, "avgResp(s)")
		})
	}
}

func benchQueryName(i int) string {
	return "q" + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}

// BenchmarkAblationPreemptiveReduce measures the effect of [30]-style
// preemptive reduce scheduling on the Bing mix under HFS — the policy most
// exposed to reduce-slot hoarding.
func BenchmarkAblationPreemptiveReduce(b *testing.B) {
	a, cfg := artifacts(b)
	w, err := workload.BuildWorkload("bing", workload.BingComposition(), 12, cfg.Seed^0xfb8)
	if err != nil {
		b.Fatal(err)
	}
	stats := workload.NewStats(workload.DefaultCorpusConfig())
	type prepared struct {
		est *selectivity.QueryEstimate
		at  float64
	}
	var items []prepared
	for _, wi := range w.Items {
		d, err := plan.Compile(wi.Query)
		if err != nil {
			b.Fatal(err)
		}
		_, oracle, err := stats.Estimate(d, wi.SF)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, prepared{est: oracle, at: wi.ArrivalSec})
	}
	for _, preempt := range []bool{false, true} {
		name := map[bool]string{false: "baseline", true: "preemptive"}[preempt]
		b.Run(name, func(b *testing.B) {
			var resp float64
			for i := 0; i < b.N; i++ {
				ccfg := cfg.Cluster
				ccfg.PreemptiveReduce = preempt
				cm := trace.NewDefaultCostModel(cfg.Seed ^ 0xc0ffee)
				simr := cluster.New(ccfg, sched.HFS{})
				for j, it := range items {
					cq := cluster.BuildQuery(benchQueryName(j), it.est, cm, a.Tasks)
					simr.Submit(cq, it.at)
				}
				res, err := simr.Run()
				if err != nil {
					b.Fatal(err)
				}
				resp = res.AvgResponseTime()
			}
			b.ReportMetric(resp, "avgResp(s)")
		})
	}
}

// BenchmarkAblationReduceSkew quantifies how much of the job-level (Eq. 8)
// prediction error comes from reduce-partition skew: the same corpus is
// built with hot-partition modelling on (physical) and off (idealised
// uniform reducers), and the Join rows of Table 3 are compared.
func BenchmarkAblationReduceSkew(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := map[bool]string{false: "skew-on", true: "skew-off"}[disable]
		b.Run(name, func(b *testing.B) {
			var joinR2, joinErr float64
			for i := 0; i < b.N; i++ {
				cfg := workload.DefaultCorpusConfig()
				cfg.NumQueries = 160
				cfg.Sizing = selectivity.Config{DisableReduceSkew: disable}
				c, err := workload.BuildCorpus(cfg)
				if err != nil {
					b.Fatal(err)
				}
				train, _ := c.Split(0.75)
				jm, err := predict.FitJobModel(train.JobSamples)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range jm.JobAccuracyByOperator(train.JobSamples) {
					if r.Op == "Join" {
						joinR2, joinErr = r.RSquared, r.AvgError
					}
				}
			}
			b.ReportMetric(100*joinR2, "joinR2%")
			b.ReportMetric(100*joinErr, "joinErr%")
		})
	}
}
