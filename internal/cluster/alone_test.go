package cluster_test

import (
	"math"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/fault"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// oneJobPerQuery is a policy that fails the test when a pick offers it
// two candidate jobs of one query, and counts the picks it checked. A
// query is a chain whose next job is submitted when the one before it
// completes, so no run reaches that state; SWRD ranks jobs by their
// query's alone on that premise.
type oneJobPerQuery struct {
	cluster.Scheduler
	t     *testing.T
	picks *int
}

func (c oneJobPerQuery) PickJob(now float64, cands, active []*cluster.Job, reduce bool) *cluster.Job {
	for i, a := range cands {
		for _, b := range cands[:i] {
			if a.Query == b.Query {
				c.t.Fatalf("%s: a pick at %v offered jobs %s and %s of one query", c.Name(), now, b.ID, a.ID)
			}
		}
	}
	*c.picks++
	return c.Scheduler.PickJob(now, cands, active, reduce)
}

// TestAloneRunIsPolicyInvariant holds the reason the serving engine has
// no scheduler to choose: every compiled plan is a chain (job f reads
// job f−1), so each pick of a query run alone offers at most one
// candidate job, and every policy schedules it identically.
// Over the TPC-H texts and 300 generated queries, at SF 1 and SF 100,
// fault-free and under a fault.DefaultSpec plan, HCS, HCS with four
// queues, HFS and SWRD give bit-identical response times. A plan shape
// that is not a chain fails DAG.Validate, in plan.Compile and here.
func TestAloneRunIsPolicyInvariant(t *testing.T) {
	policies := []cluster.Scheduler{sched.HCS{}, sched.HCS{Queues: 4}, sched.HFS{}, sched.SWRD{}}
	faulty := cluster.DefaultConfig()
	faulty.Faults = fault.NewPlan(fault.DefaultSpec(5))
	configs := []cluster.Config{cluster.DefaultConfig(), faulty}
	s := new(cluster.Sim)
	var q cluster.Query
	runs, faulted, picks := 0, 0, 0
	for _, sf := range []float64{1, 100} {
		for i, qe := range aloneEstimates(t, sf) {
			if err := qe.DAG.Validate(); err != nil {
				t.Fatalf("SF %v query %d: %v", sf, i, err)
			}
			for ci, cfg := range configs {
				var want float64
				for pi, pol := range policies {
					s.Reset(cfg, oneJobPerQuery{pol, t, &picks})
					q.Rebuild("alone", qe, trace.NewDefaultCostModel(uint64(i)), cluster.ConstantPredictor(1))
					s.Submit(&q, 0)
					if _, err := s.Run(); err != nil {
						t.Fatalf("SF %v query %d config %d %s: %v", sf, i, ci, pol.Name(), err)
					}
					got := q.ResponseTime()
					if pi == 0 {
						want = got
					} else if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("SF %v query %d config %d: %#v responds in %v s, %#v in %v s",
							sf, i, ci, pol, got, policies[0], want)
					}
					runs++
					if q.Faulted {
						faulted++
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d of them perturbed by injected faults, %d picks", runs, faulted, picks)
	if faulted == 0 {
		t.Fatal("the fault plan perturbed no run")
	}
}

// aloneEstimates returns the TPC-H texts and 300 queries of
// workload.NewGenerator(11), estimated at scale factor sf.
func aloneEstimates(t *testing.T, sf float64) []*selectivity.QueryEstimate {
	t.Helper()
	var out []*selectivity.QueryEstimate
	for _, name := range workload.TPCHNames() {
		out = append(out, tpchEstimate(t, name, sf))
	}
	next := generatedEstimates(t, 11, sf)
	for range 300 {
		out = append(out, next())
	}
	return out
}
