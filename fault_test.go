package saqp_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"saqp"
)

// estimateTPCH compiles and estimates one canonical TPC-H query.
func estimateTPCH(t *testing.T, fw *saqp.Framework, name string) *saqp.QueryEstimate {
	t.Helper()
	sql, err := saqp.TPCHSQL(name)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := fw.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := fw.Estimate(dag)
	if err != nil {
		t.Fatal(err)
	}
	return qe
}

// TestServerFaultFailureTyped: a served query runs once, fault-free, so a
// Server given a fault plan fails typed at construction — NewServer
// returns a *saqp.ClusterConfigError naming Cluster.Faults and starts no
// pool worker.
func TestServerFaultFailureTyped(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := saqp.ServerOptions{Workers: 1}
	opts.Cluster.Faults = saqp.NewFaultPlan(saqp.FaultSpec{
		Seed: 1, TaskFailProb: 1, MaxAttempts: 1,
	})
	before := runtime.NumGoroutine()
	srv, err := fw.NewServer(opts)
	if srv != nil {
		srv.Close()
		t.Fatal("NewServer admitted a fault plan")
	}
	var ce *saqp.ClusterConfigError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "Faults") {
		t.Fatalf("NewServer(Faults set) = %v, want a *saqp.ClusterConfigError naming Faults", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("a refused NewServer left %d goroutines running, %d before", after, before)
	}
}

// TestSimulateFaultFailureTyped replays a query under a doomed fault
// plan — every task attempt fails, one attempt allowed — where fault
// plans are replayed: SimulateQueryConfig must surface the simulator's
// *saqp.TaskFailedError.
func TestSimulateFaultFailureTyped(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc := saqp.DefaultClusterConfig()
	cc.Faults = saqp.NewFaultPlan(saqp.FaultSpec{Seed: 1, TaskFailProb: 1, MaxAttempts: 1})
	sec, err := fw.SimulateQueryConfig("doomed", estimateTPCH(t, fw, "q6"), saqp.SchedulerSWRD, 7, cc)
	if err == nil {
		t.Fatalf("doomed run completed in %v s", sec)
	}
	var tfe *saqp.TaskFailedError
	if !errors.As(err, &tfe) {
		t.Fatalf("SimulateQueryConfig error = %v, want a *saqp.TaskFailedError", err)
	}
	if tfe.Attempts != 1 || tfe.Query == "" || tfe.Job == "" {
		t.Fatalf("typed error fields: %+v", *tfe)
	}
}

// TestDefaultFaultPlanRecovers replays one TPC-H query under the default
// CI fault plan: the simulator's task-level recovery (retry, backoff,
// blacklist) must complete it.
func TestDefaultFaultPlanRecovers(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc := saqp.DefaultClusterConfig()
	cc.Faults = saqp.NewFaultPlan(saqp.DefaultFaultSpec(11))
	sec, err := fw.SimulateQueryConfig("q1", estimateTPCH(t, fw, "q1"), saqp.SchedulerSWRD, 3, cc)
	if err != nil {
		t.Fatalf("default plan should recover, got %v", err)
	}
	if !(sec > 0) {
		t.Fatalf("response time = %v, want positive", sec)
	}
}
