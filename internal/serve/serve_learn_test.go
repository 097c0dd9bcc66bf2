package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"saqp/internal/learn"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/workload"
)

// learnReplay runs one serialized serving replay — Workers=1, one query
// in flight at a time — of `rounds` passes over the canonical TPC-H set
// through a cold learner registry, and returns the registry plus the
// sequence of ModelVersion values the results carried.
func learnReplay(t *testing.T, rounds int) (*learn.Registry, []int) {
	t.Helper()
	reg := learn.NewRegistry(learn.Config{Window: 25, MinSamples: 12, PromoteMargin: 0.02})
	cfg := config(t)
	cfg.Workers = 1
	cfg.Learner = reg
	e := newEngine(t, cfg)

	var versions []int
	names := workload.TPCHNames()
	seed := uint64(0)
	for round := 0; round < rounds; round++ {
		for _, name := range names {
			sql, err := workload.TPCHSQL(name)
			if err != nil {
				t.Fatal(err)
			}
			seed++
			tk, err := e.Submit(context.Background(), sql, seed)
			if err != nil {
				t.Fatalf("Submit %s: %v", name, err)
			}
			res, err := tk.Wait(context.Background())
			if err != nil {
				t.Fatalf("Wait %s: %v", name, err)
			}
			versions = append(versions, res.ModelVersion)
		}
	}
	return reg, versions
}

// TestLearnReplayDeterministic pins the subsystem's end-to-end
// determinism promise: two serialized replays of the same seeded
// submission stream produce byte-identical promotion histories and
// identical version trajectories.
func TestLearnReplayDeterministic(t *testing.T) {
	reg1, v1 := learnReplay(t, 4)
	reg2, v2 := learnReplay(t, 4)

	j1, err := json.Marshal(reg1.Promotions())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(reg2.Promotions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("promotion histories diverged across replays:\n%s\nvs\n%s", j1, j2)
	}
	if len(v1) != len(v2) {
		t.Fatalf("result counts differ: %d vs %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("ModelVersion diverged at submission %d: %d vs %d", i, v1[i], v2[i])
		}
	}
	if reg1.JobSamples() != reg2.JobSamples() || reg1.TaskSamples() != reg2.TaskSamples() {
		t.Fatalf("sample counts diverged: jobs %d/%d, tasks %d/%d",
			reg1.JobSamples(), reg2.JobSamples(), reg1.TaskSamples(), reg2.TaskSamples())
	}

	// The replay is long enough that feedback bootstraps a champion, and
	// later submissions must see the bumped version.
	if reg1.Version() < 1 {
		t.Fatalf("registry version = %d, want ≥1 after %d submissions", reg1.Version(), len(v1))
	}
	if v1[0] != 0 {
		t.Fatalf("first submission saw version %d, want 0 (cold registry)", v1[0])
	}
	if last := v1[len(v1)-1]; last < 1 {
		t.Fatalf("last submission saw version %d, want the promoted champion", last)
	}
}

// TestLearnerServesChampion checks the serving side of the loop: once a
// champion exists, its model (not the static config model) scores
// admission and drift, and results report its version.
func TestLearnerServesChampion(t *testing.T) {
	jm, tm := models(t)
	reg := learn.NewRegistry(learn.Config{Champion: jm, ChampionTasks: tm})
	cfg := config(t)
	cfg.Workers = 1
	cfg.Learner = reg
	e := newEngine(t, cfg)

	tk, err := e.Submit(context.Background(), q6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 1 {
		t.Fatalf("ModelVersion = %d, want 1 (seeded champion)", res.ModelVersion)
	}
	if res.PredictedSec <= 0 {
		t.Fatalf("champion-backed prediction should be positive, got %g", res.PredictedSec)
	}
	if reg.JobSamples() == 0 {
		t.Fatal("feedback should flow into the registry after a clean completion")
	}
}

// swappingSource is a learn.Source whose champion is replaced on every
// read: call n returns version n with constant models that predict
// 1000·n seconds per job and 10·n per task, so any value the engine
// derives from a model names the call it came from.
type swappingSource struct {
	mu    sync.Mutex
	calls int
}

func swappedModels(v int) (*predict.JobModel, *predict.TaskModel) {
	task := predict.Family{Pooled: &predict.Model{Theta: []float64{10 * float64(v), 0, 0, 0}}}
	return &predict.JobModel{Family: predict.Family{Pooled: &predict.Model{Theta: []float64{1000 * float64(v), 0, 0, 0, 0}}}},
		&predict.TaskModel{Map: task, Reduce: task}
}

func (s *swappingSource) Champion() (int, *predict.JobModel, *predict.TaskModel) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	jm, tm := swappedModels(s.calls)
	return s.calls, jm, tm
}

func (s *swappingSource) ObserveJob(plan.JobType, []float64, float64) {}

func (s *swappingSource) ObserveTask(plan.JobType, bool, []float64, float64) {}

// TestServerOneChampionSnapshotPerDecision promotes the champion between
// every two reads the engine makes. A submission is still stamped with
// the version whose task model scored it, and a run still records job
// drift from the champion whose task model predicted its tasks — each
// decision reads the source once.
func TestServerOneChampionSnapshotPerDecision(t *testing.T) {
	src := &swappingSource{}
	o := obs.New(nil)
	cfg := config(t)
	cfg.Workers = 1
	cfg.Learner = src
	cfg.Observer = o
	e := newEngine(t, cfg)

	tk, err := e.Submit(context.Background(), q6, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 1 {
		t.Fatalf("ModelVersion = %d, want 1 (the submission's one read)", res.ModelVersion)
	}
	_, scored := swappedModels(res.ModelVersion)
	if want := scored.WRD(tk.est); res.WRD != want {
		t.Errorf("WRD = %v, but version %d's task model scores %v", res.WRD, res.ModelVersion, want)
	}
	if want := scored.PredictQuery(tk.est, e.slots, e.ov); res.PredictedSec != want {
		t.Errorf("PredictedSec = %v, but version %d's task model predicts %v", res.PredictedSec, res.ModelVersion, want)
	}
	if src.calls != 2 {
		t.Errorf("the source was read %d times for one query, want 2 (one per submission, one per run)", src.calls)
	}
	// The run's snapshot is read 2: every drift sample is its job model's.
	jobs := o.Drift.Snapshot().Jobs
	if len(jobs) == 0 {
		t.Fatal("no job drift recorded")
	}
	for _, d := range jobs {
		if d.MeanPredicted != 2000 {
			t.Errorf("%s drift predicted %v, want 2000 (the run's one read)", d.Category, d.MeanPredicted)
		}
	}
}

// TestServerScoreIsWhatSubmitStamps holds the one scoring function to
// Submit on the swapping source: the scores and version Score returns on
// read n are the ones a submission making read n is stamped with, from
// that read's champion and no other — which is what lets the wire's
// EXPLAIN promise the numbers of a SUBMIT.
func TestServerScoreIsWhatSubmitStamps(t *testing.T) {
	src := &swappingSource{}
	cfg := config(t)
	cfg.Workers = 1
	cfg.Learner = src
	e := newEngine(t, cfg)

	tk, err := e.Submit(context.Background(), q6, 7) // read 1
	if err != nil {
		t.Fatal(err)
	}
	// The worker's run makes its own read as soon as it picks the ticket
	// up; wait for it so Score's read has a fixed number.
	if _, err := tk.Wait(context.Background()); err != nil { // the run's read 2
		t.Fatal(err)
	}
	wrd, sec, version, ok := e.Score(tk.est) // read 3
	if !ok || version != 3 {
		t.Fatalf("Score = version %d ok %v, want the third read's champion", version, ok)
	}
	_, scored := swappedModels(3)
	if wrd != scored.WRD(tk.est) || sec != scored.PredictQuery(tk.est, e.slots, e.ov) {
		t.Errorf("Score = (%v, %v), version 3's task model scores (%v, %v)",
			wrd, sec, scored.WRD(tk.est), scored.PredictQuery(tk.est, e.slots, e.ov))
	}
	// What Score would have said on the next read is what the next
	// submission gets.
	_, next := swappedModels(4)
	tk2, err := e.Submit(context.Background(), q6, 8) // read 4
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelVersion != 4 || res.WRD != next.WRD(tk2.est) || res.PredictedSec != next.PredictQuery(tk2.est, e.slots, e.ov) {
		t.Errorf("submission stamped version %d (%v, %v), want read 4's (%v, %v)", res.ModelVersion,
			res.WRD, res.PredictedSec, next.WRD(tk2.est), next.PredictQuery(tk2.est, e.slots, e.ov))
	}
	// Without a learner or a static task model there is nothing to score
	// with, and EXPLAIN prints no score line.
	if _, _, v, ok := newEngine(t, config(t)).Score(tk.est); ok || v != 0 {
		t.Errorf("untrained engine Score = version %d ok %v, want 0 false", v, ok)
	}
}
