package core_test

import (
	"math"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/core"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// estimates compiles a query and estimates it at two statistics
// resolutions, like the experiment drivers do.
func estimates(t *testing.T, src string, sf float64) (truth, est *selectivity.QueryEstimate) {
	t.Helper()
	q, err := query.Parse(src)
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
	var list []*dataset.Schema
	for _, s := range dataset.AllSchemas() {
		list = append(list, s)
	}
	mk := func(buckets int) *selectivity.QueryEstimate {
		cat := catalog.FromSchemas(list, sf, buckets)
		qe, err := selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
		if err != nil {
			t.Fatal(err)
		}
		return qe
	}
	return mk(1024), mk(64)
}

func trainedTaskModel(t *testing.T) *predict.TaskModel {
	t.Helper()
	cfg := workload.DefaultCorpusConfig()
	cfg.NumQueries = 40
	c, err := workload.BuildCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := predict.FitTaskModel(c.TaskSamples)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

const sql = `SELECT c_mktsegment, sum(o_totalprice) FROM customer
	JOIN orders ON o_custkey = c_custkey WHERE o_orderdate < 9200
	GROUP BY c_mktsegment`

// hotSQL joins on a Zipf key whose shuffle at SF 100 gives the join's
// hottest reducer its own task group.
const hotSQL = `SELECT ws_quantity, max(ws_sales_price) FROM item
	JOIN web_sales ON i_item_sk = ws_item_sk
	WHERE i_current_price >= 6.9 AND ws_sales_price >= 60.14 GROUP BY ws_quantity`

func TestPercolateCarriesEstimatorWRD(t *testing.T) {
	tm := trainedTaskModel(t)
	hot := 0
	for _, c := range []struct {
		sql string
		sf  float64
	}{{sql, 5}, {hotSQL, 100}} {
		truth, est := estimates(t, c.sql, c.sf)
		for _, je := range truth.Jobs {
			if len(je.ReduceGroups) > 1 {
				hot++
			}
		}
		cm := trace.NewDefaultCostModel(3)
		q := core.Percolate("q1", truth, est, cm, tm)

		// The scheduler-visible WRD must equal the estimator-side
		// prediction, not the oracle's, in the task-level PredSec totals
		// and in the query's remaining WRD: WRD is what the tasks sum to.
		want := tm.WRD(est)
		var sum float64
		for _, j := range q.Jobs {
			for _, task := range j.Maps {
				sum += task.PredSec
			}
			for _, task := range j.Reds {
				sum += task.PredSec
			}
		}
		if !(math.Abs(sum-want) <= 1e-12*want) {
			t.Errorf("SF %g: task predictions sum to %v, want %v", c.sf, sum, want)
		}
		if !(math.Abs(q.RemainingWRD()-want) <= 1e-12*want) {
			t.Errorf("SF %g: query remaining WRD %v, want %v", c.sf, q.RemainingWRD(), want)
		}
	}
	if hot == 0 {
		t.Error("coverage: no truth job has a hot reduce group")
	}
}

func TestPercolateTasksSizedByTruth(t *testing.T) {
	truth, est := estimates(t, sql, 5)
	tm := trainedTaskModel(t)
	cm := trace.NewDefaultCostModel(3)
	q := core.Percolate("q1", truth, est, cm, tm)
	for i, je := range truth.Jobs {
		j := q.Jobs[i]
		if len(j.Maps) != je.NumMaps || len(j.Reds) != je.NumReduces {
			t.Fatalf("job %s tasks %d/%d, truth says %d/%d",
				j.JobID, len(j.Maps), len(j.Reds), je.NumMaps, je.NumReduces)
		}
	}
}

func TestPercolateWithoutModel(t *testing.T) {
	truth, est := estimates(t, sql, 2)
	cm := trace.NewDefaultCostModel(3)
	q := core.Percolate("q1", truth, est, cm, nil)
	for _, j := range q.Jobs {
		for _, task := range append(append([]*cluster.Task{}, j.Maps...), j.Reds...) {
			if task.PredSec != 1 {
				t.Fatalf("task predicted %v s without a model, want 1", task.PredSec)
			}
		}
	}
	// The query must still be schedulable end to end.
	sim := cluster.New(cluster.DefaultConfig(), sched.SWRD{})
	sim.Submit(q, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("query did not finish")
	}
}

func TestPercolatedQueryRunsUnderEveryPolicy(t *testing.T) {
	truth, est := estimates(t, sql, 5)
	tm := trainedTaskModel(t)
	for _, pol := range []cluster.Scheduler{sched.HCS{}, sched.HFS{}, sched.SWRD{}} {
		cm := trace.NewDefaultCostModel(3)
		q := core.Percolate("q1", truth, est, cm, tm)
		sim := cluster.New(cluster.DefaultConfig(), pol)
		sim.Submit(q, 0)
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: empty run", pol.Name())
		}
	}
}

// TestCapacityIsTheNormalisedCluster holds the predictor's view of the
// cluster to the one the simulator runs: unset slot counts are filled by
// Config.Normalized before they are multiplied out, and predict's default
// slots and overheads are the translation of cluster.DefaultConfig.
func TestCapacityIsTheNormalisedCluster(t *testing.T) {
	for _, tc := range []struct {
		name string
		cc   cluster.Config
		want predict.Slots
	}{
		{"three nodes, per-node slots unset", cluster.Config{Nodes: 3}, predict.Slots{Map: 24, Reduce: 12}},
		{"all zero", cluster.Config{}, predict.Slots{Map: 72, Reduce: 36}},
		{"explicit", cluster.Config{Nodes: 2, MapSlotsPerNode: 5, ReduceSlotsPerNode: 3}, predict.Slots{Map: 10, Reduce: 6}},
		{"one phase unset", cluster.Config{Nodes: 4, MapSlotsPerNode: 6}, predict.Slots{Map: 24, Reduce: 4}},
	} {
		slots, _ := core.Capacity(tc.cc)
		if slots != tc.want {
			t.Errorf("%s: Capacity = %+v, want %+v", tc.name, slots, tc.want)
		}
		if n := tc.cc.Normalized(); slots.Map != n.Nodes*n.MapSlotsPerNode || slots.Reduce != n.Nodes*n.ReduceSlotsPerNode {
			t.Errorf("%s: Capacity %+v is not the normalised config %+v", tc.name, slots, n)
		}
	}
}
