package saqp_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"saqp"
)

// TestSimulateQueryConcurrent: SimulateQuery and SimulateQueryConfig take
// their lone runs from one pool shared by every goroutine, so a run may
// land on the simulator and layout another goroutine's run just left,
// failed or not. Eight goroutines each replay, in their own rotation, the
// seven TPC-H estimates × four seeds on the default cluster, under a
// doomed fault plan (every attempt fails, one allowed) and under the
// default fault plan, so a pooled run goes from a failed query to a clean
// one. Serially, only the doomed plan fails a query; concurrently, every
// response time must equal the serial run's bit for bit, and every error
// its serial error.
func TestSimulateQueryConcurrent(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(artifacts(t).Corpus); err != nil {
		t.Fatal(err)
	}
	doomed, recovering := saqp.DefaultClusterConfig(), saqp.DefaultClusterConfig()
	doomed.Faults = saqp.NewFaultPlan(saqp.FaultSpec{Seed: 1, TaskFailProb: 1, MaxAttempts: 1})
	recovering.Faults = saqp.NewFaultPlan(saqp.DefaultFaultSpec(11))
	type call struct {
		name string
		qe   *saqp.QueryEstimate
		seed uint64
		cc   *saqp.ClusterConfig // nil: SimulateQuery
	}
	var calls []call
	for _, name := range saqp.TPCHNames() {
		qe := estimateTPCH(t, fw, name)
		for seed := uint64(1); seed <= 4; seed++ {
			calls = append(calls, call{name, qe, seed, &doomed}, call{name, qe, seed, nil}, call{name, qe, seed, &recovering})
		}
	}
	// simulate returns the call's outcome, its response time's bits and
	// its error, and whether it failed with a *TaskFailedError.
	simulate := func(c call) (string, bool) {
		var sec float64
		var err error
		if c.cc == nil {
			sec, err = fw.SimulateQuery(c.name, c.qe, saqp.SchedulerSWRD, c.seed)
		} else {
			sec, err = fw.SimulateQueryConfig(c.name, c.qe, saqp.SchedulerSWRD, c.seed, *c.cc)
		}
		var tfe *saqp.TaskFailedError
		return fmt.Sprintf("%#x %v", math.Float64bits(sec), err), errors.As(err, &tfe)
	}
	want := make([]string, len(calls))
	for i, c := range calls {
		var failed bool
		if want[i], failed = simulate(c); failed != (c.cc == &doomed) {
			t.Fatalf("%s seed %d (doomed %v): %s; only the doomed plan fails a query", c.name, c.seed, c.cc == &doomed, want[i])
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range calls {
				i := (k + g*len(calls)/goroutines) % len(calls)
				if got, _ := simulate(calls[i]); got != want[i] {
					c := calls[i]
					errs <- fmt.Sprintf("goroutine %d: %s seed %d (faults %v): %s, serially %s", g, c.name, c.seed, c.cc != nil, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	t.Logf("%d calls × %d goroutines", len(calls), goroutines)
}
