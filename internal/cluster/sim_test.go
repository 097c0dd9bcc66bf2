package cluster_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
)

// synthQuery builds a query directly, bypassing the planner: jobSpecs give
// (maps, reduces, mapSec, redSec); each job reads the one before it. Predicted times equal actuals so
// WRD-driven tests are exact.
type jobSpec struct {
	id      string
	maps    int
	reds    int
	mapSec  float64
	redSec  float64
	jobType plan.JobType
}

func synthQuery(id string, specs []jobSpec) *cluster.Query {
	q := &cluster.Query{ID: id}
	for _, sp := range specs {
		j := &cluster.Job{ID: id + "/" + sp.id, JobID: sp.id, Query: q, Type: sp.jobType}
		for i := 0; i < sp.maps; i++ {
			j.Maps = append(j.Maps, &cluster.Task{Job: j, Index: i, ActualSec: sp.mapSec, PredSec: sp.mapSec})
		}
		for i := 0; i < sp.reds; i++ {
			j.Reds = append(j.Reds, &cluster.Task{Job: j, Reduce: true, Index: i, ActualSec: sp.redSec, PredSec: sp.redSec})
		}
		j.ResetPending()
		q.Jobs = append(q.Jobs, j)
	}
	q.RecomputeWRD()
	return q
}

func TestSingleTaskMakespan(t *testing.T) {
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 1, mapSec: 10}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, SchedulingOverheadSec: 0.5}, sched.HCS{})
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 10.5 {
		t.Fatalf("makespan = %v, want 10.5", res.Makespan)
	}
	if q.ResponseTime() != 10.5 {
		t.Fatalf("response = %v", q.ResponseTime())
	}
}

func TestWaveMakespan(t *testing.T) {
	// 20 maps of 10s on 8 map slots: 3 waves => ~30s.
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 20, mapSec: 10}})
	s := cluster.New(cluster.Config{Nodes: 2, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1}, sched.HCS{})
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 30 {
		t.Fatalf("makespan = %v, want 30", res.Makespan)
	}
}

func TestReduceBarrierStrictSlowstart(t *testing.T) {
	// With slowstart=1.0 reduces may not start until every map finished.
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 4, reds: 2, mapSec: 5, redSec: 3}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 4, ReduceSlotsPerNode: 4, ReduceSlowstart: 1}, sched.HCS{})
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var lastMapEnd, firstRedStart float64
	firstRedStart = math.Inf(1)
	for _, task := range q.Jobs[0].Maps {
		lastMapEnd = math.Max(lastMapEnd, task.EndTime)
	}
	for _, task := range q.Jobs[0].Reds {
		firstRedStart = math.Min(firstRedStart, task.StartTime)
	}
	if firstRedStart < lastMapEnd {
		t.Fatalf("reduce started at %v before maps finished at %v", firstRedStart, lastMapEnd)
	}
}

func TestReduceSlowstartHoardsSlots(t *testing.T) {
	// Default slowstart 0.05: reduces launch after the first map but can
	// only FINISH after the whole map phase plus their own duration.
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 4, reds: 2, mapSec: 5, redSec: 3}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2}, sched.HCS{})
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var lastMapEnd float64
	for _, task := range q.Jobs[0].Maps {
		lastMapEnd = math.Max(lastMapEnd, task.EndTime)
	}
	early := 0
	for _, task := range q.Jobs[0].Reds {
		if task.StartTime < lastMapEnd {
			early++
			// A hoarding reduce cannot finish before the map phase ends
			// plus its own work.
			if task.EndTime < lastMapEnd+task.ActualSec {
				t.Fatalf("reduce finished at %v, before map end %v + work %v", task.EndTime, lastMapEnd, task.ActualSec)
			}
		}
	}
	// The launch ramp allows part of the reduces to start early.
	if early == 0 {
		t.Fatal("no reduce launched before the map phase ended")
	}
	if early == len(q.Jobs[0].Reds) {
		t.Fatal("launch ramp should not release every reduce at once here")
	}
}

func TestDAGDependency(t *testing.T) {
	q := synthQuery("q", []jobSpec{
		{id: "J1", maps: 2, mapSec: 5},
		{id: "J2", maps: 2, mapSec: 5},
	})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 4, ReduceSlotsPerNode: 2}, sched.HCS{})
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	j1, j2 := q.Jobs[0], q.Jobs[1]
	if j2.SubmitTime < j1.DoneTime {
		t.Fatalf("J2 submitted at %v before J1 done at %v", j2.SubmitTime, j1.DoneTime)
	}
}

func TestNoContainerOversubscription(t *testing.T) {
	// Sweep-line over all task intervals: concurrency never exceeds the
	// container count.
	q1 := synthQuery("a", []jobSpec{{id: "J1", maps: 30, reds: 5, mapSec: 7, redSec: 4}})
	q2 := synthQuery("b", []jobSpec{{id: "J1", maps: 25, reds: 3, mapSec: 3, redSec: 9}})
	cfg := cluster.Config{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}
	s := cluster.New(cfg, sched.HFS{})
	s.Submit(q1, 0)
	s.Submit(q2, 2)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	type pt struct {
		t float64
		d int
	}
	var pts []pt
	for _, q := range []*cluster.Query{q1, q2} {
		for _, j := range q.Jobs {
			for _, task := range append(append([]*cluster.Task{}, j.Maps...), j.Reds...) {
				pts = append(pts, pt{task.StartTime, 1}, pt{task.EndTime, -1})
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].t != pts[j].t {
			return pts[i].t < pts[j].t
		}
		return pts[i].d < pts[j].d // ends before starts at same instant
	})
	cur, max := 0, 0
	for _, p := range pts {
		cur += p.d
		if cur > max {
			max = cur
		}
	}
	slots := cfg.Nodes * (cfg.MapSlotsPerNode + cfg.ReduceSlotsPerNode)
	if max > slots {
		t.Fatalf("concurrency %d exceeded %d slots", max, slots)
	}
}

func TestWorkConservation(t *testing.T) {
	// A single map-only job: 64 maps / 8 map slots = 8 full waves.
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 64, mapSec: 10}})
	s := cluster.New(cluster.Config{Nodes: 2, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1}, sched.HCS{})
	s.Submit(q, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 80 {
		t.Fatalf("makespan = %v, want 8 waves x 10s", res.Makespan)
	}
}

func TestHCSIsFIFO(t *testing.T) {
	// Two jobs on one container: all of A's tasks run before any of B's.
	qa := synthQuery("a", []jobSpec{{id: "J1", maps: 3, mapSec: 5}})
	qb := synthQuery("b", []jobSpec{{id: "J1", maps: 3, mapSec: 5}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, sched.HCS{})
	s.Submit(qa, 0)
	s.Submit(qb, 1)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var aEnd, bStart float64
	bStart = math.Inf(1)
	for _, task := range qa.Jobs[0].Maps {
		aEnd = math.Max(aEnd, task.EndTime)
	}
	for _, task := range qb.Jobs[0].Maps {
		bStart = math.Min(bStart, task.StartTime)
	}
	if bStart < aEnd {
		t.Fatalf("HCS interleaved: b started %v before a finished %v", bStart, aEnd)
	}
}

func TestHFSSharesFairly(t *testing.T) {
	// Two equal jobs, two containers: both complete at ~the same time
	// because containers alternate.
	qa := synthQuery("a", []jobSpec{{id: "J1", maps: 10, mapSec: 5}})
	qb := synthQuery("b", []jobSpec{{id: "J1", maps: 10, mapSec: 5}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}, sched.HFS{})
	s.Submit(qa, 0)
	s.Submit(qb, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(qa.DoneTime-qb.DoneTime) > 5 {
		t.Fatalf("HFS unfair: a done %v, b done %v", qa.DoneTime, qb.DoneTime)
	}
}

func TestSWRDPrioritisesSmallQuery(t *testing.T) {
	// Big query (100 tasks × 10s) arrives first; small (2 × 2s) second.
	// Under HCS the small query waits for the whole big job; under SWRD it
	// jumps ahead as soon as a container frees.
	mk := func() (*cluster.Query, *cluster.Query) {
		return synthQuery("big", []jobSpec{{id: "J1", maps: 100, mapSec: 10}}),
			synthQuery("small", []jobSpec{{id: "J1", maps: 2, mapSec: 2}})
	}
	run := func(s cluster.Scheduler) (smallResp, bigResp float64) {
		big, small := mk()
		sim := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1}, s)
		sim.Submit(big, 0)
		sim.Submit(small, 1)
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return small.ResponseTime(), big.ResponseTime()
	}
	hcsSmall, _ := run(sched.HCS{})
	swrdSmall, swrdBig := run(sched.SWRD{})
	if swrdSmall >= hcsSmall {
		t.Fatalf("SWRD did not speed up small query: %v vs HCS %v", swrdSmall, hcsSmall)
	}
	if swrdSmall > 30 {
		t.Fatalf("small query should finish quickly under SWRD, took %v", swrdSmall)
	}
	if swrdBig <= 0 {
		t.Fatal("big query never finished under SWRD")
	}
}

func TestStarvingSchedulerReported(t *testing.T) {
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 1, mapSec: 1}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, refuseScheduler{})
	s.Submit(q, 0)
	if _, err := s.Run(); err == nil {
		t.Fatal("starved run should return an error")
	}
}

type refuseScheduler struct{}

func (refuseScheduler) Name() string { return "refuse" }
func (refuseScheduler) PickJob(float64, []*cluster.Job, []*cluster.Job, bool) *cluster.Job {
	return nil
}

func TestBuildQueryFromEstimate(t *testing.T) {
	qtext := `SELECT l_orderkey, sum(l_extendedprice) FROM lineitem WHERE l_shipdate < 9000 GROUP BY l_orderkey`
	qq, err := query.Parse(qtext)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Resolve(qq, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(qq)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.FromSchemas([]*dataset.Schema{dataset.LineItem()}, 10, 64)
	qe, err := selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	cm := trace.NewDefaultCostModel(1)
	cq := cluster.BuildQuery("q1", qe, cm, cluster.ConstantPredictor(10))
	if len(cq.Jobs) != len(d.Jobs) {
		t.Fatalf("jobs = %d, want %d", len(cq.Jobs), len(d.Jobs))
	}
	j := cq.Jobs[0]
	if len(j.Maps) != qe.Jobs[0].NumMaps || len(j.Reds) != qe.Jobs[0].NumReduces {
		t.Fatalf("task counts: %d/%d vs estimate %d/%d",
			len(j.Maps), len(j.Reds), qe.Jobs[0].NumMaps, qe.Jobs[0].NumReduces)
	}
	wantWRD := float64(0)
	for _, jj := range cq.Jobs {
		wantWRD += 10 * float64(len(jj.Maps)+len(jj.Reds))
	}
	if cq.RemainingWRD() != wantWRD {
		t.Fatalf("WRD = %v, want %v", cq.RemainingWRD(), wantWRD)
	}
	// Tasks carry positive ground-truth durations.
	for _, task := range j.Maps {
		if task.ActualSec <= 0 {
			t.Fatal("map task without duration")
		}
	}
	// End-to-end run.
	s := cluster.New(cluster.DefaultConfig(), sched.SWRD{})
	s.Submit(cq, 0)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || !cq.Done() {
		t.Fatal("simulated query did not complete")
	}
	if cq.RemainingWRD() != 0 {
		t.Fatalf("WRD not drained: %v", cq.RemainingWRD())
	}
}

// volumePredictor predicts a task's time as a function of its per-task
// volumes alone, so a task's PredSec names the group it was built from.
type volumePredictor struct{}

func (volumePredictor) PredictTask(_ plan.JobType, _ bool, in, out, _ float64) float64 {
	return in + out/1024
}

// TestEachSampleFollowsBuildQueryLayout pins the sample walk to the
// layout BuildQuery builds from an estimate's task groups (a join: two
// map groups), and to zero allocations, since the serving engine runs it
// per completed query.
func TestEachSampleFollowsBuildQueryLayout(t *testing.T) {
	qq, err := query.Parse(`SELECT o_orderpriority, count(*) FROM orders JOIN lineitem ON l_orderkey = o_orderkey GROUP BY o_orderpriority`)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Resolve(qq, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(qq)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.FromSchemas(dataset.TPCH(), 10, 64)
	qe, err := selectivity.NewEstimator(cat, selectivity.Config{}).EstimateQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	cq := cluster.BuildQuery("q", qe, trace.NewDefaultCostModel(1), volumePredictor{})
	const perGroup = 3
	for ji, je := range qe.Jobs {
		sj := cq.Jobs[ji]
		seen := 0
		sj.EachSample(je, perGroup, func(g selectivity.TaskGroup, tk *cluster.Task) {
			seen++
			if want := (volumePredictor{}).PredictTask(sj.Type, tk.Reduce, g.InBytes, g.OutBytes, 0); tk.PredSec != want {
				t.Errorf("%s task %d (reduce=%v): built from other volumes than its group's", sj.ID, tk.Index, tk.Reduce)
			}
		})
		want := 0
		for _, gs := range [][]selectivity.TaskGroup{je.MapGroups, je.ReduceGroups} {
			for _, g := range gs {
				want += min(g.Count, perGroup)
			}
		}
		if seen != want || seen == 0 {
			t.Errorf("%s: %d samples, want %d", sj.ID, seen, want)
		}
	}
	je, sj, n := qe.Jobs[0], cq.Jobs[0], 0
	if a := testing.AllocsPerRun(100, func() {
		sj.EachSample(je, perGroup, func(selectivity.TaskGroup, *cluster.Task) { n++ })
	}); a != 0 {
		t.Errorf("EachSample allocates %.0f times per walk", a)
	}
}

func TestWRDDecreasesMonotonically(t *testing.T) {
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 5, mapSec: 3}})
	before := q.RemainingWRD()
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1}, sched.HCS{})
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if before != 15 {
		t.Fatalf("initial WRD = %v, want 15", before)
	}
	if q.RemainingWRD() != 0 {
		t.Fatalf("final WRD = %v", q.RemainingWRD())
	}
}

func TestJobSpan(t *testing.T) {
	q := synthQuery("q", []jobSpec{{id: "J1", maps: 2, mapSec: 4}})
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}, sched.HCS{})
	s.Submit(q, 0)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	start, end := cluster.JobSpan(q.Jobs[0])
	if start != 0 || end != 8 {
		t.Fatalf("span = [%v,%v], want [0,8]", start, end)
	}
}

func TestPercentileResponse(t *testing.T) {
	// Ten queries with deterministic, distinct response times.
	s := cluster.New(cluster.Config{Nodes: 1, MapSlotsPerNode: 10, ReduceSlotsPerNode: 1}, sched.HCS{})
	var qs []*cluster.Query
	for i := 1; i <= 10; i++ {
		q := synthQuery(fmt.Sprintf("q%d", i), []jobSpec{{id: "J1", maps: 1, mapSec: float64(10 * i)}})
		qs = append(qs, q)
		s.Submit(q, 0)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Responses are 10..100; nearest-rank percentiles.
	if p := res.PercentileResponse(0.5); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := res.PercentileResponse(0.95); p != 100 {
		t.Fatalf("p95 = %v, want 100", p)
	}
	if p := res.PercentileResponse(0); p != 10 {
		t.Fatalf("p0 = %v, want 10", p)
	}
	if p := res.PercentileResponse(1); p != 100 {
		t.Fatalf("p100 = %v, want 100", p)
	}
	if avg := res.AvgResponseTime(); avg != 55 {
		t.Fatalf("avg = %v, want 55", avg)
	}
	empty := &cluster.Results{}
	if empty.PercentileResponse(0.5) != 0 || empty.AvgResponseTime() != 0 {
		t.Fatal("empty results should report zeros")
	}
}
