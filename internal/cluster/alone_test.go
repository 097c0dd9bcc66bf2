package cluster_test

import (
	"math"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/fault"
	"saqp/internal/plan"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// oneCandidate is a policy that fails the test when a pick offers it
// more than one job.
type oneCandidate struct {
	cluster.Scheduler
	t *testing.T
}

func (c oneCandidate) PickJob(now float64, cands, active []*cluster.Job, reduce bool) *cluster.Job {
	if len(cands) > 1 {
		c.t.Fatalf("%s: a pick at %v offered %d candidate jobs to a query run alone", c.Name(), now, len(cands))
	}
	return c.Scheduler.PickJob(now, cands, active, reduce)
}

// TestAloneRunIsPolicyInvariant holds the reason the serving engine has
// no scheduler to choose: every compiled plan is a chain (job f's only
// dependency is job f−1), so each pick of a query run alone offers at
// most one candidate job, and every policy schedules it identically.
// Over the TPC-H texts and 300 generated queries, at SF 1 and SF 100,
// fault-free and under a fault.DefaultSpec plan, HCS, HCS with four
// queues, HFS and SWRD give bit-identical response times. A plan shape
// that is not a chain fails here first.
func TestAloneRunIsPolicyInvariant(t *testing.T) {
	policies := []cluster.Scheduler{sched.HCS{}, sched.HCS{Queues: 4}, sched.HFS{}, sched.SWRD{}}
	faulty := cluster.DefaultConfig()
	faulty.Faults = fault.NewPlan(fault.DefaultSpec(5))
	configs := []cluster.Config{cluster.DefaultConfig(), faulty}
	s := new(cluster.Sim)
	var q cluster.Query
	runs, faulted := 0, 0
	for _, sf := range []float64{1, 100} {
		for i, qe := range aloneEstimates(t, sf) {
			for f, je := range qe.Jobs {
				deps := je.Job.Deps
				if f == 0 && len(deps) == 0 || f > 0 && len(deps) == 1 && deps[0] == qe.Jobs[f-1].Job {
					continue
				}
				t.Fatalf("SF %v query %d: job %d has %d dependencies; in a chain, job f depends on job f−1 alone",
					sf, i, f, len(deps))
			}
			for ci, cfg := range configs {
				var want float64
				for pi, pol := range policies {
					s.Reset(cfg, oneCandidate{pol, t})
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
	t.Logf("%d runs, %d of them perturbed by injected faults", runs, faulted)
	if faulted == 0 {
		t.Fatal("the fault plan perturbed no run")
	}
}

// aloneEstimates returns the TPC-H texts and 300 queries of
// workload.NewGenerator(11), estimated at scale factor sf.
func aloneEstimates(t *testing.T, sf float64) []*selectivity.QueryEstimate {
	t.Helper()
	est := analyticEstimator(sf)
	var out []*selectivity.QueryEstimate
	for _, name := range workload.TPCHNames() {
		q, err := workload.TPCHQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		qe, err := est.EstimateQuery(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, qe)
	}
	next := generatedEstimates(t, 11, sf)
	for range 300 {
		out = append(out, next())
	}
	return out
}
