package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/fault"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/sim"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// analyticEstimator estimates over the analytic catalog at scale factor
// sf.
func analyticEstimator(sf float64) *selectivity.Estimator {
	return selectivity.NewEstimator(catalog.FromSchemas(dataset.Schemas(), sf, catalog.DefaultBuckets), selectivity.Config{})
}

// generatedEstimates returns a source of estimated queries: each call
// draws the next query of workload.NewGenerator(seed) and estimates it over
// the analytic catalog at scale factor sf.
func generatedEstimates(t *testing.T, seed uint64, sf float64) func() *selectivity.QueryEstimate {
	est := analyticEstimator(sf)
	g := workload.NewGenerator(seed)
	return func() *selectivity.QueryEstimate {
		t.Helper()
		q, _, err := g.RandomQuery()
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
		return qe
	}
}

// reuseConfigs are the cluster shapes TestSimReuseEqualsNew alternates:
// the default, preemption, skewed node speeds, faulty (the given plan),
// skewed node speeds with preemption, and a 3-node faulty cluster with
// skewed node speeds and preemption.
func reuseConfigs(faulty *fault.Plan) []cluster.Config {
	skewed := []float64{0.4, 1, 1.3, 0.7, 1, 1, 2, 0.9, 1.1}
	with := func(edit func(*cluster.Config)) cluster.Config {
		c := cluster.DefaultConfig()
		edit(&c)
		return c
	}
	return []cluster.Config{
		cluster.DefaultConfig(),
		with(func(c *cluster.Config) { c.PreemptiveReduce = true }),
		with(func(c *cluster.Config) { c.NodeFactors = skewed }),
		with(func(c *cluster.Config) { c.Faults = faulty }),
		with(func(c *cluster.Config) { c.NodeFactors, c.PreemptiveReduce = skewed, true }),
		{Nodes: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, JobInitSec: 1, Faults: faulty,
			NodeFactors: skewed[:3], PreemptiveReduce: true},
	}
}

// reusePolicies are the slot policies TestSimReuseEqualsNew alternates.
func reusePolicies() []cluster.Scheduler {
	return []cluster.Scheduler{sched.SWRD{}, sched.HFS{}, sched.HCS{Queues: 2}}
}

// cancelAt is a policy that cancels its run's context at its n-th pick,
// abandoning the run mid-flight with tasks running and hoarding.
type cancelAt struct {
	cluster.Scheduler
	n      int
	picks  *int
	cancel context.CancelFunc
}

func (c cancelAt) PickJob(now float64, cands, active []*cluster.Job, reduce bool) *cluster.Job {
	if *c.picks++; *c.picks == c.n {
		c.cancel()
	}
	return c.Scheduler.PickJob(now, cands, active, reduce)
}

// TestSimReuseEqualsNew holds Reset and Query.Rebuild to their contracts
// — a re-initialised Sim is indistinguishable from a new one, and a query
// rebuilt in place from one BuildQuery made — over 240 generated query
// pairs run back-to-back on one Sim and rebuilt into the same two Query
// values, each pair also run on a fresh New with fresh BuildQuery
// queries. Configs alternate (cluster shape, preemption, heterogeneous
// nodes, a fault plan with crashes, slowdowns and task failures) and so do
// policies, so state a run left behind would meet a run it does not fit;
// the two queries alternate between a large and a small scale factor, so
// their slabs grow and shrink. Every tenth pair is first rebuilt from the
// other's estimate and abandoned: canceled mid-flight at a pick further
// into the run each time, or run to the end on a cluster whose task
// failures fail queries — leaving events queued, tasks running and
// hoarding, cursors moved, Err and Faulted set. Compared: every task, job and query time, attempt
// and fault count, the Results, and the full obs event stream (which
// carries node and slot).
func TestSimReuseEqualsNew(t *testing.T) {
	small, large := generatedEstimates(t, 11, 1), generatedEstimates(t, 12, 10)
	configs := reuseConfigs(fault.NewPlan(fault.Spec{
		Seed: 7, Nodes: 9, HorizonSec: 600,
		CrashProb: 0.5, CrashDowntimeSec: 40,
		SlowProb: 0.5, SlowDurationSec: 80,
		TaskFailProb: 0.08,
	}))
	failing := cluster.DefaultConfig()
	failing.Faults = fault.NewPlan(fault.Spec{
		Seed: 9, Nodes: 9, HorizonSec: 600,
		CrashProb: 0.5, CrashDowntimeSec: 40,
		TaskFailProb: 0.2, MaxAttempts: 1,
	})
	policies := reusePolicies()

	reused := new(cluster.Sim)
	var ra, rb cluster.Query
	var canceled, failed int
	abandon := func(i int, qa, qb *selectivity.QueryEstimate) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var picks int
		if i%20 == 0 {
			reused.Reset(configs[(i+1)%len(configs)], cancelAt{policies[0], 1 + 3*(i/20), &picks, cancel})
		} else {
			reused.Reset(failing, policies[i%len(policies)])
		}
		cm := trace.NewDefaultCostModel(1)
		ra.Rebuild("abandoned-a", qb, cm, cluster.ConstantPredictor(1))
		rb.Rebuild("abandoned-b", qa, cm, cluster.ConstantPredictor(2))
		reused.Submit(&ra, 0)
		reused.Submit(&rb, 1)
		switch _, err := reused.RunContext(ctx); {
		case errors.Is(err, context.Canceled):
			canceled++
		case err != nil:
			t.Fatalf("run %d: abandoned run: %v", i, err)
		}
		if ra.Failed() || rb.Failed() {
			failed++
		}
	}
	for i := 0; i < 240; i++ {
		qa, qb := small(), large()
		if i%2 == 1 {
			qa, qb = qb, qa
		}
		cfg := configs[i%len(configs)]
		run := func(fresh bool) (string, []byte) {
			var events bytes.Buffer
			o := obs.New(obs.NewTraceSink(&events))
			pol := policies[i%len(policies)]
			s := reused
			cm := trace.NewDefaultCostModel(uint64(i))
			var a, b *cluster.Query
			if fresh {
				s = cluster.New(cfg, pol)
				a = cluster.BuildQuery("a", qa, cm, cluster.ConstantPredictor(3))
				b = cluster.BuildQuery("b", qb, cm, cluster.ConstantPredictor(2))
			} else {
				if i%10 == 0 {
					abandon(i, qa, qb)
				}
				s.Reset(cfg, pol)
				a, b = &ra, &rb
				a.Rebuild("a", qa, cm, cluster.ConstantPredictor(3))
				b.Rebuild("b", qb, cm, cluster.ConstantPredictor(2))
			}
			s.SetObserver(o)
			s.Submit(a, 0)
			s.Submit(b, 4)
			res, err := s.Run()
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if err := o.Close(); err != nil {
				t.Fatal(err)
			}
			return fingerprint(res, a, b), events.Bytes()
		}
		wantPrint, wantEvents := run(true)
		gotPrint, gotEvents := run(false)
		if gotPrint != wantPrint {
			t.Fatalf("run %d (config %d): a reset Sim and rebuilt queries scheduled differently from new ones:\nnew:\n%s\nreset:\n%s",
				i, i%len(configs), wantPrint, gotPrint)
		}
		if !bytes.Equal(gotEvents, wantEvents) {
			t.Fatalf("run %d (config %d): a reset Sim and rebuilt queries emitted a different event stream from new ones", i, i%len(configs))
		}
	}
	t.Logf("abandoned runs: %d canceled mid-flight, %d with a failed query", canceled, failed)
	if canceled == 0 || failed == 0 {
		t.Fatalf("the abandoned runs left %d canceled mid-flight and %d with a failed query; want some of each", canceled, failed)
	}
}

// scanChecked is a policy that, before every pick, holds each job of the
// run to cluster.Job.ScanMismatch and the run's hoarder count to
// cluster.Sim.HoardMismatch.
type scanChecked struct {
	cluster.Scheduler
	t       *testing.T
	sim     *cluster.Sim
	queries []*cluster.Query
}

func (c scanChecked) PickJob(now float64, cands, active []*cluster.Job, reduce bool) *cluster.Job {
	c.check(now)
	return c.Scheduler.PickJob(now, cands, active, reduce)
}

func (c scanChecked) check(now float64) {
	c.t.Helper()
	if msg := c.sim.HoardMismatch(); msg != "" {
		c.t.Fatalf("at %.3f s: %s", now, msg)
	}
	for _, q := range c.queries {
		for _, j := range q.Jobs {
			if msg := j.ScanMismatch(); msg != "" {
				c.t.Fatalf("at %.3f s: %s", now, msg)
			}
		}
	}
}

// TestSimCountersEqualScans: the running count and first-pending cursors a
// job keeps equal the scans they replaced, at every dispatch decision of
// 200 seeded two-query runs with everything that moves a task on at once —
// hoard preemption on heterogeneous nodes, and a fault plan whose crashes
// requeue running and hoarding tasks, whose task failures back off
// (TaskWaiting → pending) and whose exhausted attempts fail whole queries —
// under the three policies and two cluster shapes, at SF 20 so that reduce
// slots fill with hoarders. Jobs that left the active set (done, or failed with their
// tasks reset to pending) are held too, and so is the simulator's count of
// hoarding reduces. Every run is also folded into one FNV-64a digest —
// every task's times, attempts, failures, state and fault mark, every
// query's completion and error, the Results and the full trace, which
// carries node and slot — pinned as schedDigest: the order in which slots
// return to the free pools decides the node, and with node speeds, crash
// windows and slowdowns the duration, of every later task, so a change to
// how a task leaves its slot that moves any schedule moves the digest.
func TestSimCountersEqualScans(t *testing.T) {
	const schedDigest uint64 = 0x469a156d034163ef
	estimate := generatedEstimates(t, 13, 20)
	policies := reusePolicies()
	o := obs.New(nil) // counts the transitions the runs are meant to drive
	s := new(cluster.Sim)
	var digest uint64
	var run bytes.Buffer
	for i := 0; i < 200; i++ {
		cfg := cluster.DefaultConfig()
		if i%2 == 1 {
			cfg = cluster.Config{Nodes: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1, JobInitSec: 1}
		}
		cfg.PreemptiveReduce = true
		cfg.NodeFactors = []float64{0.4, 1, 1.3, 0.7, 1, 1, 2, 0.9, 1.1}[:cfg.Nodes]
		cfg.Faults = fault.NewPlan(fault.Spec{
			Seed: uint64(i), Nodes: cfg.Nodes, HorizonSec: 600,
			CrashProb: 0.5, CrashDowntimeSec: 40,
			SlowProb: 0.5, SlowDurationSec: 80,
			TaskFailProb: 0.08, MaxAttempts: 2 + i%3,
		})
		cm := trace.NewDefaultCostModel(uint64(i))
		a := cluster.BuildQuery("a", estimate(), cm, cluster.ConstantPredictor(3))
		b := cluster.BuildQuery("b", estimate(), cm, cluster.ConstantPredictor(2))
		checked := scanChecked{policies[i%len(policies)], t, s, []*cluster.Query{a, b}}
		s.Reset(cfg, checked)
		run.Reset()
		fmt.Fprintf(&run, "%016x\n", digest)
		o.Trace = obs.NewTraceSink(&run)
		s.SetObserver(o)
		s.Submit(a, 0)
		s.Submit(b, 4)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		checked.check(res.Makespan)
		fmt.Fprintf(&run, "%s makespan=%v completed=%d failed=%d faults=%+v\n",
			res.SchedulerName, res.Makespan, res.Completed, res.Failed, res.Faults)
		for _, q := range res.Queries {
			fmt.Fprintf(&run, "%s done=%v err=%v\n", q.ID, q.DoneTime, q.Err)
			for _, j := range q.Jobs {
				if n := j.RunningTasks(); n != 0 && !q.Failed() {
					t.Fatalf("run %d: %s finished with %d tasks running", i, j.ID, n)
				}
				for _, tasks := range [2][]*cluster.Task{j.Maps, j.Reds} {
					for _, tk := range tasks {
						fmt.Fprintf(&run, "%v %v %d %d %d %v\n",
							tk.StartTime, tk.EndTime, tk.Attempts, tk.Failures(), tk.State, tk.Faulted())
					}
				}
			}
		}
		digest = sim.FNV64a(run.Bytes())
	}
	if digest != schedDigest {
		t.Errorf("schedule digest %#x, pinned at %#x: a schedule, a fault outcome or the trace moved", digest, schedDigest)
	}
	counters := o.Metrics.Snapshot().Counters
	for _, m := range []string{"saqp_cluster_reduce_preemptions_total", "saqp_cluster_task_failures_total",
		"saqp_cluster_task_retries_total", "saqp_cluster_node_crashes_total", "saqp_cluster_query_failures_total"} {
		n := counters[m]
		if n == 0 {
			t.Errorf("the 200 runs never drove %s", m)
		}
		t.Logf("%s %.0f", m, n)
	}
}
