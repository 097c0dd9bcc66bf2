package cluster_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/fault"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/sim"
	"saqp/internal/trace"
)

// fingerprint flattens every per-task time of a run into one comparable
// string, so two runs can be checked for schedule identity.
func fingerprint(res *cluster.Results, qs ...*cluster.Query) string {
	s := fmt.Sprintf("makespan=%v completed=%d failed=%d faults=%+v\n",
		res.Makespan, res.Completed, res.Failed, res.Faults)
	for _, q := range qs {
		s += fmt.Sprintf("q=%s in=%v arrival=%v done=%v wrd=%v faulted=%v err=%v\n",
			q.ID, q.InputBytes, q.ArrivalTime, q.DoneTime, q.RemainingWRD(), q.Faulted, q.Err)
		for _, j := range q.Jobs {
			s += fmt.Sprintf(" j=%s (%s %v) submitted=%v submit=%v ready=%v done=%v running=%d\n",
				j.ID, j.JobID, j.Type, j.Submitted, j.SubmitTime, j.ReadyTime, j.DoneTime, j.RunningTasks())
			for _, t := range append(append([]*cluster.Task{}, j.Maps...), j.Reds...) {
				s += fmt.Sprintf("  r=%v i=%d actual=%v pred=%v state=%d start=%v end=%v attempts=%d fail=%d faulted=%v\n",
					t.Reduce, t.Index, t.ActualSec, t.PredSec, t.State, t.StartTime, t.EndTime, t.Attempts, t.Failures(), t.Faulted())
			}
		}
	}
	return s
}

// faultWorkload is a nontrivial mix (a two-job chain, reduces, two queries) used
// by the schedule-identity tests.
func faultWorkload() []*cluster.Query {
	qa := synthQuery("a", []jobSpec{
		{id: "J1", maps: 6, reds: 2, mapSec: 8, redSec: 4},
		{id: "J2", maps: 3, reds: 1, mapSec: 5, redSec: 3},
	})
	qb := synthQuery("b", []jobSpec{{id: "J1", maps: 4, reds: 2, mapSec: 6, redSec: 5}})
	return []*cluster.Query{qa, qb}
}

func runFaultWorkload(t *testing.T, cfg cluster.Config) (*cluster.Results, []*cluster.Query) {
	t.Helper()
	qs := faultWorkload()
	s := cluster.New(cfg, sched.SWRD{})
	s.Submit(qs[0], 0)
	s.Submit(qs[1], 3)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, qs
}

// TestZeroFaultPlanScheduleIdentical is the golden comparison the issue
// demands: a zero-probability fault plan must leave the schedule
// byte-identical to a run with no plan at all, down to every task time.
func TestZeroFaultPlanScheduleIdentical(t *testing.T) {
	cfg := cluster.Config{
		Nodes: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
		NodeFactors:           []float64{0.5, 1.0, 1.1},
		SchedulingOverheadSec: 0.5, JobInitSec: 2,
		PreemptiveReduce: true,
	}
	resNil, qsNil := runFaultWorkload(t, cfg)

	cfg.Faults = fault.NewPlan(fault.Spec{Seed: 42}) // zero probabilities
	resZero, qsZero := runFaultWorkload(t, cfg)

	a, b := fingerprint(resNil, qsNil...), fingerprint(resZero, qsZero...)
	if a != b {
		t.Fatalf("zero-probability plan perturbed the schedule:\nnil plan:\n%s\nzero plan:\n%s", a, b)
	}
	if resZero.Faults != (cluster.FaultStats{}) {
		t.Fatalf("zero plan recorded fault activity: %+v", resZero.Faults)
	}
}

// TestFaultedRunsByteIdentical: the same seeded plan over the same
// workload replays every task time and fault counter exactly.
func TestFaultedRunsByteIdentical(t *testing.T) {
	run := func() string {
		cfg := cluster.Config{
			Nodes: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1,
			NodeFactors:           []float64{0.5, 1.0, 1.1},
			SchedulingOverheadSec: 0.5, JobInitSec: 2,
			PreemptiveReduce: true,
			Faults: fault.NewPlan(fault.Spec{
				Seed: 7, Nodes: 3, HorizonSec: 120,
				CrashProb: 0.9, CrashDowntimeSec: 15,
				SlowProb: 0.9, SlowDurationSec: 40,
				TaskFailProb: 0.1,
			}),
		}
		res, qs := runFaultWorkload(t, cfg)
		return fingerprint(res, qs...)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("seeded faulted runs diverged:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// probeFailSeed finds a plan seed whose pure task-failure hash fails the
// first n attempts of map 0 of job "q/J1" and passes attempt n+1, so
// retry tests need no luck at run time.
func probeFailSeed(t *testing.T, spec fault.Spec, n int) *fault.Plan {
	t.Helper()
	for seed := uint64(0); seed < 10000; seed++ {
		spec.Seed = seed
		p := fault.NewPlan(spec)
		ok := true
		for a := 1; a <= n; a++ {
			if fail, _ := p.TaskFailure("q/J1", false, 0, a); !fail {
				ok = false
				break
			}
		}
		if ok {
			if fail, _ := p.TaskFailure("q/J1", false, 0, n+1); !fail {
				return p
			}
		}
	}
	t.Fatalf("no seed under 10000 fails exactly %d attempt(s)", n)
	return nil
}

// TestTransientFailureRetriesAndCompletes: one attempt fails partway, the
// task backs off, retries, and the query still completes — with the
// failure charged to the task and the run marked faulted.
func TestTransientFailureRetriesAndCompletes(t *testing.T) {
	spec := fault.Spec{TaskFailProb: 0.5, BlacklistAfter: 100}
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		Faults: probeFailSeed(t, spec, 1)}
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 1, mapSec: 10}})
	s := cluster.New(cfg, sched.HCS{})
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	task := q.Jobs[0].Maps[0]
	if !q.Done() || q.Failed() {
		t.Fatalf("query should recover: done=%v err=%v", q.Done(), q.Err)
	}
	if task.Attempts != 2 || task.Failures() != 1 {
		t.Fatalf("attempts=%d failures=%d, want 2/1", task.Attempts, task.Failures())
	}
	if !task.Faulted() || !q.Faulted {
		t.Fatal("fault not marked on task/query")
	}
	if res.Faults.TaskFailures != 1 || res.Faults.TaskRetries != 1 {
		t.Fatalf("fault stats = %+v, want 1 failure, 1 retry", res.Faults)
	}
	// Burn + backoff + full re-run must exceed the clean 10s duration.
	if res.Makespan <= 10 {
		t.Fatalf("makespan %v not inflated by the failure", res.Makespan)
	}
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d", res.Completed, res.Failed)
	}
}

// TestAttemptCapSurfacesTypedError: with every attempt failing, the task
// exhausts MaxAttempts and the whole query fails with *TaskFailedError —
// while Run itself returns no error (other queries may proceed).
func TestAttemptCapSurfacesTypedError(t *testing.T) {
	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		Faults: fault.NewPlan(fault.Spec{
			Seed: 1, TaskFailProb: 1, MaxAttempts: 2, BlacklistAfter: 100,
		})}
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 1, mapSec: 10}})
	s := cluster.New(cfg, sched.HCS{})
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run should absorb query failure, got %v", err)
	}
	if !q.Failed() {
		t.Fatal("query should have failed at the attempt cap")
	}
	var tfe *cluster.TaskFailedError
	if !errors.As(q.Err, &tfe) {
		t.Fatalf("Err = %T(%v), want *TaskFailedError", q.Err, q.Err)
	}
	if tfe.Query != "q" || tfe.Job != "q/J1" || tfe.Reduce || tfe.Index != 0 || tfe.Attempts != 2 {
		t.Fatalf("error fields = %+v", *tfe)
	}
	if res.Failed != 1 || res.Completed != 0 || res.Faults.QueryFailures != 1 {
		t.Fatalf("results = completed %d failed %d stats %+v", res.Completed, res.Failed, res.Faults)
	}
	if q.DoneTime <= 0 {
		t.Fatal("failed query should record its abandonment time")
	}
}

// TestCrashKillsAndRequeues: a node outage kills its running attempts
// (KILLED: re-queued at once, no cap charge) and the run still completes
// after recovery.
func TestCrashKillsAndRequeues(t *testing.T) {
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		Faults: fault.NewPlan(fault.Spec{
			Seed: 3, Nodes: 2, HorizonSec: 60,
			CrashProb: 1, CrashDowntimeSec: 20,
		})}
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 4, mapSec: 100}})
	s := cluster.New(cfg, sched.HCS{})
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatal("query should complete after recovery")
	}
	if res.Faults.NodeCrashes < 1 || res.Faults.NodeRecoveries < 1 {
		t.Fatalf("crash windows not applied: %+v", res.Faults)
	}
	if res.Faults.TaskRetries < 1 {
		t.Fatalf("crash killed no running attempt: %+v", res.Faults)
	}
	for _, task := range q.Jobs[0].Maps {
		if task.Failures() != 0 {
			t.Fatalf("crash kill charged the attempt cap: task %d has %d failures",
				task.Index, task.Failures())
		}
	}
	if !q.Faulted {
		t.Fatal("crash-perturbed query not marked faulted")
	}
}

// TestSlowdownWindowInflatesMakespan: tasks dispatched inside a slowdown
// window run at the degraded speed, stretching the run past its clean
// makespan, without any failure being charged.
func TestSlowdownWindowInflatesMakespan(t *testing.T) {
	mk := func() *cluster.Query {
		return synthQuery("q", []jobSpec{{id: "J1", maps: 10, mapSec: 10}})
	}
	clean := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, sched.HCS{})
	qc := mk()
	clean.Submit(qc, 0)
	cres, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cres.Makespan != 100 {
		t.Fatalf("clean makespan = %v, want 100", cres.Makespan)
	}

	cfg := cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1,
		Faults: fault.NewPlan(fault.Spec{
			Seed: 5, Nodes: 1, HorizonSec: 50,
			SlowProb: 1, SlowFactor: 0.5, SlowDurationSec: 300,
		})}
	qf := mk()
	s := cluster.New(cfg, sched.HCS{})
	s.Submit(qf, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 100 {
		t.Fatalf("slowdown did not inflate makespan: %v", res.Makespan)
	}
	if !qf.Faulted {
		t.Fatal("slowed query not marked faulted")
	}
	if res.Faults.TaskFailures != 0 || res.Faults.QueryFailures != 0 {
		t.Fatalf("slowdown charged failures: %+v", res.Faults)
	}
}

// TestFaultPlansCompleteOrFailTyped widens the fault tests' few
// hand-picked plans to 1,008 seeds: each seed draws its own crash, slow
// and task-fail probabilities and an attempt cap of 1–4, and runs three
// generated SF 20 queries on one of TestSimReuseEqualsNew's configs
// under SWRD, HFS or HCS, cycling through all eighteen pairs. Every run must
// return, every query must end completed or failed — Completed + Failed
// is the number submitted — and every failure must be a typed
// *TaskFailedError naming its query. Runs are deterministic, so a
// failure reproduces from its seed alone.
func TestFaultPlansCompleteOrFailTyped(t *testing.T) {
	const seeds = 1008
	next := generatedEstimates(t, 17, 20)
	pool := make([]*selectivity.QueryEstimate, 64)
	for i := range pool {
		pool[i] = next()
	}
	configs, policies := reuseConfigs(nil), reusePolicies()
	s := new(cluster.Sim)
	var completed, failed int
	var capsSeen [5]int
	var faults cluster.FaultStats
	for i := 0; i < seeds; i++ {
		seed := uint64(1000 + i)
		r := sim.New(seed)
		cfg := configs[i%len(configs)]
		spec := fault.Spec{
			Seed: seed, Nodes: cfg.Nodes, HorizonSec: 300,
			CrashProb: r.Float64(), CrashDowntimeSec: r.Range(10, 120),
			SlowProb: r.Float64(), SlowDurationSec: r.Range(20, 200),
			TaskFailProb: r.Range(0, 0.3), MaxAttempts: 1 + r.Intn(4),
		}
		capsSeen[spec.MaxAttempts]++
		cfg.Faults = fault.NewPlan(spec)
		s.Reset(cfg, policies[(i/len(configs))%len(policies)])
		cm := trace.NewDefaultCostModel(seed)
		qs := make([]*cluster.Query, 3)
		for k := range qs {
			qs[k] = cluster.BuildQuery(fmt.Sprintf("q%d", k), pool[(3*i+k)%len(pool)], cm, cluster.ConstantPredictor(float64(k+1)))
			s.Submit(qs[k], 4*float64(k))
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, spec, err)
		}
		if res.Completed+res.Failed != len(qs) || len(res.Queries) != len(qs) {
			t.Fatalf("seed %d: completed %d + failed %d of %d queries (%d in results)",
				seed, res.Completed, res.Failed, len(qs), len(res.Queries))
		}
		for _, q := range qs {
			if !q.Failed() {
				if !q.Done() {
					t.Fatalf("seed %d: %s neither failed nor done", seed, q.ID)
				}
				continue
			}
			if tfe, ok := q.Err.(*cluster.TaskFailedError); !ok || tfe.Query != q.ID {
				t.Fatalf("seed %d: %s failed with %T %v, want a *cluster.TaskFailedError naming it", seed, q.ID, q.Err, q.Err)
			}
		}
		completed += res.Completed
		failed += res.Failed
		faults.NodeCrashes += res.Faults.NodeCrashes
		faults.TaskFailures += res.Faults.TaskFailures
		faults.NodesBlacklisted += res.Faults.NodesBlacklisted
	}
	if completed == 0 || failed == 0 || slices.Contains(capsSeen[1:], 0) ||
		faults.NodeCrashes == 0 || faults.TaskFailures == 0 || faults.NodesBlacklisted == 0 {
		t.Fatalf("the sweep does not discriminate: %d completed, %d failed, attempt caps drawn %v, faults %+v",
			completed, failed, capsSeen[1:], faults)
	}
	t.Logf("%d queries completed, %d failed typed; attempt caps 1–4 drawn %v times; %d crashes, %d task failures, %d blacklistings",
		completed, failed, capsSeen[1:], faults.NodeCrashes, faults.TaskFailures, faults.NodesBlacklisted)
}
