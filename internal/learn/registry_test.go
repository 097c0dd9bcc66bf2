package learn

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/sim"
)

// feedRegistry replays n seeded synthetic job+task observations into the
// registry. The stream is a pure function of the seed.
func feedRegistry(r *Registry, seed uint64, n int) {
	rng := sim.New(seed)
	ops := []plan.JobType{plan.Extract, plan.Groupby, plan.Join}
	for i := 0; i < n; i++ {
		op := ops[i%len(ops)]
		f := []float64{rng.Range(1, 200), rng.Range(1, 50), rng.Range(0, 4)}
		sec := 5 + 0.4*f[0] + 0.1*f[1] + rng.Normal(0, 1)
		r.ObserveJob(op, f, sec)
		tf := []float64{rng.Range(1, 100), rng.Range(1, 20), rng.Range(0, 1)}
		r.ObserveTask(op, i%2 == 1, tf, 1+0.2*tf[0]+rng.Normal(0, 0.2))
	}
}

// jobModelOf and taskModelOf pick one model out of the registry's
// champion snapshot.
func jobModelOf(r *Registry) *predict.JobModel   { _, jm, _ := r.Champion(); return jm }
func taskModelOf(r *Registry) *predict.TaskModel { _, _, tm := r.Champion(); return tm }

func TestRegistryChampionIsConsistent(t *testing.T) {
	r := NewRegistry(Config{MinSamples: 5, Window: 4})
	feedRegistry(r, 1, 10)
	v, jm, tm := r.Champion()
	if v < 1 || v != r.Version() {
		t.Fatalf("Champion version %d, Version() %d, want the same bootstrapped version", v, r.Version())
	}
	if jm == nil || tm == nil {
		t.Fatal("bootstrap should install a full champion")
	}
	var nilReg *Registry
	if v, jm, tm := nilReg.Champion(); v != 0 || jm != nil || tm != nil {
		t.Fatal("a nil registry must serve version 0 and nil models")
	}
}

func TestColdStartBootstrap(t *testing.T) {
	r := NewRegistry(Config{MinSamples: 30, Window: 20})
	if r.Version() != 0 || jobModelOf(r) != nil || taskModelOf(r) != nil {
		t.Fatal("cold registry should have no champion")
	}
	feedRegistry(r, 1, 60)
	if r.Version() < 1 {
		t.Fatalf("version = %d, want ≥1 after MinSamples", r.Version())
	}
	if jobModelOf(r) == nil || taskModelOf(r) == nil {
		t.Fatal("bootstrap should install a full champion")
	}
	ps := r.Promotions()
	if len(ps) == 0 {
		t.Fatal("bootstrap should record a promotion")
	}
	if ps[0].ChampionErr != -1 {
		t.Fatalf("cold-start ChampionErr = %v, want -1", ps[0].ChampionErr)
	}
	if ps[0].AtJobSamples != 30 {
		t.Fatalf("bootstrap at %d job samples, want 30", ps[0].AtJobSamples)
	}
}

func TestPromotionsAreDeterministic(t *testing.T) {
	run := func() ([]byte, int, int) {
		r := NewRegistry(Config{MinSamples: 25, Window: 40, PromoteMargin: 0.02})
		feedRegistry(r, 42, 400)
		js, err := json.MarshalIndent(r.Promotions(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return js, r.Version(), r.JobSamples()
	}
	j1, v1, s1 := run()
	j2, v2, s2 := run()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("promotion sequences diverged:\n%s\nvs\n%s", j1, j2)
	}
	if v1 != v2 || s1 != s2 {
		t.Fatalf("replay drift: version %d/%d, samples %d/%d", v1, v2, s1, s2)
	}
}

func TestSeededChampionPromotesOnMargin(t *testing.T) {
	// Seed a deliberately bad champion: the challenger must depose it
	// once both windows fill.
	bad := &predict.JobModel{Family: predict.Family{Pooled: &predict.Model{Theta: []float64{1000, 0, 0, 0}}}}
	badTasks := &predict.TaskModel{
		Map:    predict.Family{Pooled: &predict.Model{Theta: []float64{1, 0, 0, 0}}},
		Reduce: predict.Family{Pooled: &predict.Model{Theta: []float64{1, 0, 0, 0}}},
	}
	r := NewRegistry(Config{Window: 30, MinSamples: 10, PromoteMargin: 0.05,
		Champion: bad, ChampionTasks: badTasks})
	if r.Version() != 1 {
		t.Fatalf("seeded registry version = %d, want 1", r.Version())
	}
	feedRegistry(r, 9, 200)
	if r.Version() < 2 {
		t.Fatalf("version = %d, want ≥2: challenger should depose the bad champion", r.Version())
	}
	ps := r.Promotions()
	p := ps[0]
	if p.ChampionErr < 0 {
		t.Fatal("margin promotion should record the champion's window error")
	}
	if p.ChallengerErr >= p.ChampionErr*(1-0.05) {
		t.Fatalf("promotion without margin: challenger %v vs champion %v", p.ChallengerErr, p.ChampionErr)
	}
}

func TestChampionFrozenWhileChallengerLearns(t *testing.T) {
	r := NewRegistry(Config{MinSamples: 10, Window: 1000})
	feedRegistry(r, 5, 20) // bootstrap at 10, window far from full again
	jm := jobModelOf(r)
	if jm == nil {
		t.Fatal("no champion after bootstrap")
	}
	f := []float64{50, 10, 2}
	before := jm.Pooled.Predict(f)
	feedRegistry(r, 6, 100) // challenger keeps absorbing; window (1000) never fills
	if got := jobModelOf(r).Pooled.Predict(f); got != before {
		t.Fatalf("champion moved while unpromoted: %v vs %v", got, before)
	}
	if ch := r.ChallengerJobModel(); ch == nil {
		t.Fatal("challenger should be solvable")
	} else if ch.Pooled.Predict(f) == before {
		t.Fatal("challenger should have moved past the frozen champion")
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.ObserveJob(plan.Join, []float64{1}, 1)
	r.ObserveTask(plan.Join, false, []float64{1}, 1)
	if r.Version() != 0 || jobModelOf(r) != nil || taskModelOf(r) != nil ||
		r.JobSamples() != 0 || r.TaskSamples() != 0 ||
		r.Promotions() != nil || r.ChallengerJobModel() != nil {
		t.Fatal("nil registry should be a no-op")
	}
}

func TestIgnoresNonPositiveObservations(t *testing.T) {
	r := NewRegistry(Config{})
	r.ObserveJob(plan.Extract, []float64{1, 2, 3}, 0)
	r.ObserveJob(plan.Extract, []float64{1, 2, 3}, -4)
	r.ObserveTask(plan.Extract, false, []float64{1, 2}, 0)
	if r.JobSamples() != 0 || r.TaskSamples() != 0 {
		t.Fatal("non-positive observations should be dropped")
	}
}

// TestNonFiniteSampleIsDropped: one NaN observed time or one infinite
// feature, on a cold registry or after its first promotion, is dropped
// whole — not absorbed, not counted, no window advanced — so the learner
// promotes exactly as if it had never arrived, instead of holding a NaN
// in its accumulators (every later solve singular, no challenger ever
// again) or in an error window.
func TestNonFiniteSampleIsDropped(t *testing.T) {
	for _, bad := range []struct {
		name string
		f    []float64
		sec  float64
	}{
		{"NaN time", []float64{10, 5, 1}, math.NaN()},
		{"Inf feature", []float64{math.Inf(1), 5, 1}, 30},
	} {
		for _, at := range []int{0, 120} {
			r, clean := NewRegistry(Config{MinSamples: 50, Window: 40}), NewRegistry(Config{MinSamples: 50, Window: 40})
			feedRegistry(r, 3, at)
			feedRegistry(clean, 3, at)
			r.ObserveJob(plan.Join, bad.f, bad.sec)
			r.ObserveTask(plan.Join, true, bad.f, bad.sec)
			if r.JobSamples() != at || r.TaskSamples() != at {
				t.Fatalf("%s after %d: the sample was counted: %d job, %d task", bad.name, at, r.JobSamples(), r.TaskSamples())
			}
			feedRegistry(r, 4, 300)
			feedRegistry(clean, 4, 300)
			if r.Version() < 1 || r.ChallengerJobModel() == nil {
				t.Fatalf("%s after %d: version %d, challenger %v: one bad sample disabled the learner",
					bad.name, at, r.Version(), r.ChallengerJobModel())
			}
			if got, want := r.Promotions(), clean.Promotions(); !slices.Equal(got, want) {
				t.Fatalf("%s after %d: promotions %v, want the clean stream's %v", bad.name, at, got, want)
			}
		}
	}
}

// sameTheta reports whether two models carry bit-identical coefficients.
func sameTheta(a, b *predict.Model) bool {
	return a != nil && b != nil && slices.Equal(a.Theta, b.Theta)
}

// TestRegistryChallengerEqualsBatchFit is the family-level identity: a
// cold registry fed a seeded job/task stream holds — as its challenger,
// and as the champion a bootstrap promotion on the stream's last job
// installs — coefficient vectors == (not ≤ tol) to FitJobModel and
// FitTaskModel over the same stream, pooled and per operator. Extract
// reduce tasks are too few to identify a model, so that class must fall
// back to the pooled fit on both sides.
func TestRegistryChallengerEqualsBatchFit(t *testing.T) {
	rng := sim.New(77)
	ops := []plan.JobType{plan.Extract, plan.Groupby, plan.Join}
	var jobs []predict.JobSample
	var tasks []predict.TaskSample
	for i := 0; i < 90; i++ {
		op := ops[i%len(ops)]
		f := []float64{rng.Range(1, 200), rng.Range(1, 50), rng.Range(1, 20), 0}
		if op == plan.Join {
			f[3] = rng.Range(0, 10)
		}
		jobs = append(jobs, predict.JobSample{Op: op, Features: f,
			Seconds: 5 + 0.4*f[0] + 0.1*f[1] + 0.05*f[2] + 2*f[3] + rng.Normal(0, 1)})
		for k := 0; k < 2; k++ {
			reduce := k == 1
			if reduce && op == plan.Extract && i >= 6 {
				continue
			}
			tf := []float64{rng.Range(1, 100), rng.Range(1, 20), f[3] / 4}
			tasks = append(tasks, predict.TaskSample{Op: op, Reduce: reduce, Features: tf,
				Seconds: 1 + 0.2*tf[0] + 0.05*tf[1] + rng.Normal(0, 0.2)})
		}
	}
	// Tasks go in first, so the bootstrap on the last job sample promotes
	// a challenger that has seen the whole stream.
	r := NewRegistry(Config{MinSamples: len(jobs)})
	for _, s := range tasks {
		r.ObserveTask(s.Op, s.Reduce, s.Features, s.Seconds)
	}
	for i, s := range jobs {
		if i == len(jobs)-1 {
			if v, _, _ := r.Champion(); v != 0 {
				t.Fatalf("promoted at version %d before the last job sample", v)
			}
		}
		r.ObserveJob(s.Op, s.Features, s.Seconds)
	}
	wantJob, err := predict.FitJobModel(jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantTask, err := predict.FitTaskModel(tasks)
	if err != nil {
		t.Fatal(err)
	}
	v, champJob, champTask := r.Champion()
	if v != 1 || champJob == nil || champTask == nil {
		t.Fatalf("bootstrap did not install a full champion: version %d", v)
	}
	type family struct {
		name      string
		got, want *predict.Model
		gotOp     map[plan.JobType]*predict.Model
		wantOp    map[plan.JobType]*predict.Model
	}
	chall := r.ChallengerJobModel()
	if chall == nil {
		t.Fatal("challenger job model unsolvable after the full stream")
	}
	for _, f := range []family{
		{"challenger job", chall.Pooled, wantJob.Pooled, chall.PerOp, wantJob.PerOp},
		{"champion job", champJob.Pooled, wantJob.Pooled, champJob.PerOp, wantJob.PerOp},
		{"champion map", champTask.Map.Pooled, wantTask.Map.Pooled, champTask.Map.PerOp, wantTask.Map.PerOp},
		{"champion reduce", champTask.Reduce.Pooled, wantTask.Reduce.Pooled, champTask.Reduce.PerOp, wantTask.Reduce.PerOp},
	} {
		if !sameTheta(f.got, f.want) {
			t.Errorf("%s: pooled coefficients differ: %v vs %v", f.name, f.got, f.want)
		}
		if len(f.gotOp) != len(f.wantOp) {
			t.Errorf("%s: %d per-operator models online, %d batch", f.name, len(f.gotOp), len(f.wantOp))
		}
		for op, want := range f.wantOp {
			if !sameTheta(f.gotOp[op], want) {
				t.Errorf("%s: %s coefficients differ: %v vs %v", f.name, op, f.gotOp[op], want)
			}
		}
	}
	if _, ok := wantTask.Reduce.PerOp[plan.Extract]; ok {
		t.Fatal("the starved Extract reduce class should not identify a batch model")
	}
	if _, ok := champTask.Reduce.PerOp[plan.Extract]; ok {
		t.Fatal("the starved Extract reduce class should not identify an online model")
	}
	if got, want := champTask.PredictTask(plan.Extract, true, 40, 8, 0), wantTask.PredictTask(plan.Extract, true, 40, 8, 0); got != want {
		t.Fatalf("fallback prediction differs: %v vs %v", got, want)
	}
}

// TestFeedbackAllocBudget bounds what one feedback observation allocates
// on a registry warmed with 300 samples per family over three operators.
// The windows are sized so no promotion lands inside the measurement.
//
// A task observation is two rank-1 updates: nothing. A job observation
// is two rank-1 updates and, because the previous one changed the pooled
// and its operator's accumulators, two eliminations to score the
// challenger, each into its accumulator's own scratch: nothing either.
func TestFeedbackAllocBudget(t *testing.T) {
	r := NewRegistry(Config{Window: 1 << 16})
	rng := sim.New(5)
	ops := []plan.JobType{plan.Extract, plan.Groupby, plan.Join}
	jf := func() []float64 {
		return []float64{rng.Range(1, 200), rng.Range(1, 50), rng.Range(1, 20), rng.Range(0, 10)}
	}
	tf := func() []float64 { return []float64{rng.Range(1, 100), rng.Range(1, 20), rng.Range(0, 2)} }
	for i := 0; i < 300; i++ {
		op := ops[i%len(ops)]
		f := jf()
		r.ObserveJob(op, f, 5+0.4*f[0]+0.1*f[1]+2*f[3]+rng.Normal(0, 1))
		for _, reduce := range []bool{false, true} {
			f = tf()
			r.ObserveTask(op, reduce, f, 1+0.2*f[0]+0.05*f[1]+rng.Normal(0, 0.2))
		}
	}
	jobF, taskF := jf(), tf()
	perJob := testing.AllocsPerRun(200, func() { r.ObserveJob(plan.Join, jobF, 60) })
	perTask := testing.AllocsPerRun(200, func() { r.ObserveTask(plan.Join, true, taskF, 9) })
	t.Logf("allocations per ObserveJob %v, per ObserveTask %v", perJob, perTask)
	if perJob != 0 {
		t.Errorf("ObserveJob allocates %v times, want 0", perJob)
	}
	if perTask != 0 {
		t.Errorf("ObserveTask allocates %v times, want 0", perTask)
	}
}
