package saqp_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"saqp"
	"saqp/internal/repro"
)

// Tests that need trained models share the experiment drivers' artifact
// set at 160 queries (testdata/golden_obs/ is pinned to it); building it
// dominates test time, so it is constructed once.
var (
	artOnce sync.Once
	art     *repro.TrainedArtifacts
	artErr  error
)

func artifacts(t testing.TB) *repro.TrainedArtifacts {
	t.Helper()
	artOnce.Do(func() {
		cfg := repro.DefaultExperimentConfig()
		cfg.CorpusQueries = 160
		art, artErr = repro.BuildTrainedArtifacts(cfg)
	})
	if artErr != nil {
		t.Fatal(artErr)
	}
	return art
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
	a := artifacts(t)
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

// TestClusterConfigRefused: a ClusterConfig is outside input. One whose
// NodeFactors do not give each node a finite speed above zero is refused
// with a *ClusterConfigError wherever it enters the facade — never a panic
// on a pool goroutine, a +Inf or NaN response time, or a run reported as
// starved. internal/repro's test of the same name holds the experiment
// drivers to it.
func TestClusterConfigRefused(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	qe := artifacts(t).Test.Runs[0].Est
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
	}
	cc := saqp.DefaultClusterConfig()
	cc.NodeFactors = []float64{0.5, 1, 1, 1, 1, 1, 1, 1, 2}
	if sec, err := fw.SimulateQueryConfig("q6", qe, saqp.SchedulerSWRD, 1, cc); err != nil || !(sec > 0) || math.IsInf(sec, 1) {
		t.Errorf("one finite speed per node: %v, %v", sec, err)
	}
}

// TestSimulateQueryRefusesGrouplessEstimate: an estimate's task groups
// are its only task layout, so SimulateQuery refuses a caller-built
// estimate whose job carries no map group with a *TaskBoundError rather
// than laying it out from NumMaps, and WRD and PredictQuerySeconds refuse
// it the same way rather than pricing the missing phase as no work.
func TestSimulateQueryRefusesGrouplessEstimate(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(artifacts(t).Corpus); err != nil {
		t.Fatal(err)
	}
	sql, err := saqp.TPCHSQL("q6")
	if err != nil {
		t.Fatal(err)
	}
	qe := mustEstimate(t, fw, sql)
	calls := []struct {
		name string
		call func() (float64, error)
	}{
		{"SimulateQuery", func() (float64, error) { return fw.SimulateQuery("q6", qe, saqp.SchedulerSWRD, 1) }},
		{"WRD", func() (float64, error) { return fw.WRD(qe) }},
		{"PredictQuerySeconds", func() (float64, error) { return fw.PredictQuerySeconds(qe) }},
	}
	for _, c := range calls {
		if v, err := c.call(); err != nil || !(v > 0) {
			t.Fatalf("%s of the estimate as made: %v, %v", c.name, v, err)
		}
	}
	qe.Jobs[0].MapGroups = nil
	for _, c := range calls {
		var tb *saqp.TaskBoundError
		if v, err := c.call(); !errors.As(err, &tb) || tb.Tasks != 0 {
			t.Errorf("%s with no map group: %v, %v, want a *TaskBoundError for the missing group", c.name, v, err)
		}
	}
}

// TestServerKeepsClusterShapeWithNodesUnset: a ClusterConfig whose Nodes
// is unset is the paper's testbed with the fields the caller did set —
// here nine nodes at half speed, which must serve q3 slower than the zero
// config does.
func TestServerKeepsClusterShapeWithNodesUnset(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := saqp.TPCHSQL("q3")
	if err != nil {
		t.Fatal(err)
	}
	simSec := func(cc saqp.ClusterConfig) float64 {
		srv, err := fw.NewServer(saqp.ServerOptions{Workers: 1, Cluster: cc})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tk, err := srv.Submit(context.Background(), sql, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.SimSec
	}
	half := saqp.ClusterConfig{NodeFactors: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}}
	if slow, zero := simSec(half), simSec(saqp.ClusterConfig{}); !(slow > zero) {
		t.Fatalf("nine half-speed nodes served q3 in %v s, the zero config in %v s: the node factors were dropped", slow, zero)
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
