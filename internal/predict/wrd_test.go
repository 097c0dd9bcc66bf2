package predict_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// wrdQueries is how many generated texts TestWRDIsTheSimulatorsSum checks.
const wrdQueries = 200

// predictQueryDigest is the FNV-64a of the bits of every PredictQuery
// value TestWRDIsTheSimulatorsSum computes, in its order, recorded at
// 1fe02ef, before WRD and PredictQuery shared one pricing walk.
const predictQueryDigest = 0x70adec7607c9813e

// wrdTexts returns the seven TPC-H texts, a MAPJOIN sink and the first
// wrdQueries generated texts of seed 7 that compile, compiled.
func wrdTexts(t *testing.T) []*plan.DAG {
	t.Helper()
	compile := func(sql string) (*plan.DAG, error) {
		q, err := query.Parse(sql)
		if err != nil {
			return nil, err
		}
		if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
			return nil, err
		}
		return plan.Compile(q)
	}
	var dags []*plan.DAG
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := compile(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dags = append(dags, d)
	}
	d, err := compile(`SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey WHERE n_name <> 'CHINA'`)
	if err != nil {
		t.Fatal(err)
	}
	dags = append(dags, d)
	g := workload.NewGenerator(7)
	for tries := 0; len(dags) < 8+wrdQueries && tries < 64*wrdQueries; tries++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			continue
		}
		if d, err := compile(q.String()); err == nil {
			dags = append(dags, d)
		}
	}
	if len(dags) != 8+wrdQueries {
		t.Fatalf("%d generated texts compile, want %d", len(dags)-8, wrdQueries)
	}
	return dags
}

// TestWRDIsTheSimulatorsSum: Eq. 10 has one definition. Under the default
// task model (TrainDefault's 200-query corpus), TaskModel.WRD of an
// estimate equals the sum of the per-task predictions the simulator lays
// out from it, within 1e-12 relative, on the TPC-H texts, a MAPJOIN and
// generated texts at SF 1 and SF 100 (where a shuffle is large enough for
// a hot reducer); it fails unless some job has a hot reduce group, the
// case where pricing reduces as N_R−1 mean tasks plus the hot one read
// up to 3 % high. PredictQuery, which reads the same group prices, is
// pinned bit for bit by predictQueryDigest.
func TestWRDIsTheSimulatorsSum(t *testing.T) {
	cfg := workload.DefaultCorpusConfig()
	cfg.NumQueries = 200
	c, err := workload.BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := predict.FitTaskModel(c.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	slots, ov := core.Capacity(cluster.DefaultConfig())
	dags := wrdTexts(t)
	h := fnv.New64a()
	hot := 0
	for _, sf := range []float64{1, 100} {
		cat := catalog.FromSchemas(dataset.Schemas(), sf, catalog.DefaultBuckets)
		est := selectivity.NewEstimator(cat, selectivity.Config{})
		for i, d := range dags {
			qe, err := est.EstimateQuery(d)
			if err != nil {
				t.Fatalf("text %d at SF %g: %v", i, sf, err)
			}
			if err := cluster.CheckTaskBound(qe); err != nil {
				t.Fatalf("text %d at SF %g: %v", i, sf, err)
			}
			for _, je := range qe.Jobs {
				if len(je.ReduceGroups) > 1 {
					hot++
				}
			}
			wrd := tm.WRD(qe)
			sum := cluster.BuildQuery("q", qe, trace.NewDefaultCostModel(1), tm).RemainingWRD()
			if !(math.Abs(wrd-sum) <= 1e-12*sum) {
				t.Errorf("text %d at SF %g: WRD %v, the simulator's tasks sum to %v (%.3g relative)",
					i, sf, wrd, sum, (wrd-sum)/sum)
			}
			binary.Write(h, binary.LittleEndian, math.Float64bits(tm.PredictQuery(qe, slots, ov)))
		}
	}
	t.Logf("%d jobs with a hot reduce group", hot)
	if hot == 0 {
		t.Error("coverage: no job has a hot reduce group")
	}
	if got := h.Sum64(); got != predictQueryDigest {
		t.Errorf("PredictQuery digest %#x, want %#x", got, predictQueryDigest)
	}
}
