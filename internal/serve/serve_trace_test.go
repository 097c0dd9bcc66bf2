package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"saqp/internal/learn"
	"saqp/internal/obs"
	"saqp/internal/plan"
	"saqp/internal/predict"
)

// traceReplay is one fully instrumented serialized replay: a
// single-worker engine with tracing, online learning and metrics on, fed
// a fixed seeded TPC-H query mix one submission at a time (submit, then
// wait) so completion order is deterministic.
type traceReplay struct {
	spans   *obs.SpanStore
	obs     *obs.Observer
	simSecs []float64
}

func runTraceReplay(t *testing.T, traced bool) traceReplay {
	t.Helper()
	jm, tm := models(t)
	cfg := config(t)
	cfg.Workers = 1
	cfg.JobModel, cfg.TaskModel = jm, tm
	cfg.Learner = learn.NewRegistry(learn.Config{Champion: jm, ChampionTasks: tm})
	r := traceReplay{}
	if traced {
		r.obs = obs.New(nil)
		r.spans = obs.NewSpanStore(0)
		cfg.Observer = r.obs
		cfg.Spans = r.spans
	}
	e := newEngine(t, cfg)
	for i, sql := range []string{q1, q6, q1, q6, q1, q6} {
		tk, err := e.Submit(context.Background(), sql, uint64(7+i%2))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		r.simSecs = append(r.simSecs, res.SimSec)
	}
	return r
}

// TestServeSpanReplayDeterministic is the acceptance gate: two seeded
// serialized replays must serialise byte-identical span stores and
// metrics registries.
func TestServeSpanReplayDeterministic(t *testing.T) {
	a := runTraceReplay(t, true)
	b := runTraceReplay(t, true)

	var aj, bj bytes.Buffer
	if err := a.spans.WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := b.spans.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
		t.Error("span-store JSON differs between identical seeded replays")
	}

	am, err := a.obs.Metrics.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.obs.Metrics.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(am, bm) {
		t.Error("metrics snapshot differs between identical seeded replays")
	}
}

// TestServeSpansDoNotPerturbSchedule re-runs the same replay with
// observability off entirely: the simulated response times must be
// identical, since spans are recorded purely through observation.
func TestServeSpansDoNotPerturbSchedule(t *testing.T) {
	traced := runTraceReplay(t, true)
	plain := runTraceReplay(t, false)
	if len(traced.simSecs) != len(plain.simSecs) {
		t.Fatalf("replay lengths differ: %d vs %d", len(traced.simSecs), len(plain.simSecs))
	}
	for i := range traced.simSecs {
		if traced.simSecs[i] != plain.simSecs[i] {
			t.Errorf("query %d: traced sim %g != untraced sim %g", i, traced.simSecs[i], plain.simSecs[i])
		}
	}
}

// TestServeSpanTreesComplete follows the full observability chain: every
// served query's trace id resolves in the span store to a complete
// submit→admit→schedule→run→feedback tree with exactly one run span.
func TestServeSpanTreesComplete(t *testing.T) {
	r := runTraceReplay(t, true)

	snap := r.spans.Snapshot()
	if snap.Started != 6 || snap.Finished != 6 {
		t.Errorf("span store counts %d/%d started/finished, want 6/6", snap.Started, snap.Finished)
	}
	if hist := r.obs.Metrics.Snapshot().Histograms["saqp_serve_sim_response_seconds"]; hist.Count != 6 {
		t.Errorf("sim-response histogram count = %d, want 6", hist.Count)
	}

	trees := snap.Trees
	if len(trees) != 6 {
		t.Fatalf("span store retains %d trees, want 6", len(trees))
	}
	for _, retained := range trees {
		traceID := retained.TraceID
		tree, ok := r.spans.Tree(traceID)
		if !ok {
			t.Fatalf("trace %q not resolvable in the span store", traceID)
		}
		kinds := map[string]int{}
		for _, sp := range tree.Spans {
			kinds[sp.Kind]++
		}
		for _, kind := range []string{obs.SpanKindQuery, obs.SpanKindCache,
			obs.SpanKindAdmission, obs.SpanKindRun, obs.SpanKindJob,
			obs.SpanKindTask, obs.SpanKindSched, obs.SpanKindFeedback} {
			if kinds[kind] == 0 {
				t.Errorf("tree %q lacks a %q span", traceID, kind)
			}
		}
		if kinds[obs.SpanKindRun] != 1 {
			t.Errorf("tree %q has %d run spans, want 1", traceID, kinds[obs.SpanKindRun])
		}
		if tree.Spans[0].Kind != obs.SpanKindQuery || tree.Spans[0].End <= 0 {
			t.Errorf("tree %q root malformed: %+v", traceID, tree.Spans[0])
		}
	}
}

// cancelOnRun is a learn.Source with no champion that cancels a context
// at its nth Champion call. Submit's Score makes one call per
// submission and the ticket's run the next, after the worker has taken
// the ticket and before its simulator starts. The engine's one worker
// is the only runner.
type cancelOnRun struct {
	n      int
	calls  int
	cancel context.CancelFunc
}

func (c *cancelOnRun) Champion() (int, *predict.JobModel, *predict.TaskModel) {
	if c.calls++; c.calls == c.n {
		c.cancel()
	}
	return 0, nil, nil
}

func (*cancelOnRun) ObserveJob(plan.JobType, []float64, float64)        {}
func (*cancelOnRun) ObserveTask(plan.JobType, bool, []float64, float64) {}

// TestServerSpanCanceledRunIsAbandoned: a traced ticket whose context is
// canceled once its run has begun (at the run's Champion call; RunContext
// checks the context between events) is abandoned — its tree, holding a
// partial run, never reaches the store — while the next ticket's tree is
// retained whole, with one run span and ids that index its slice.
func TestServerSpanCanceledRunIsAbandoned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config(t)
	cfg.Workers = 1
	cfg.Learner = &cancelOnRun{n: 2, cancel: cancel}
	cfg.Spans = obs.NewSpanStore(0)
	e := newEngine(t, cfg)

	tk, err := e.Submit(ctx, q1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("ticket canceled mid-run: Wait = %v, want context.Canceled", err)
	}
	tk, err = e.Submit(context.Background(), q6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := cfg.Spans.Snapshot()
	if snap.Started != 2 || snap.Finished != 1 || len(snap.Trees) != 1 {
		t.Fatalf("span store started %d finished %d retained %d, want 2 1 1",
			snap.Started, snap.Finished, len(snap.Trees))
	}
	runs := 0
	for i, sp := range snap.Trees[0].Spans {
		if sp.ID != i {
			t.Fatalf("span %d carries id %d; ids must index the slice", i, sp.ID)
		}
		if sp.Kind == obs.SpanKindRun {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("retained tree has %d run spans, want 1", runs)
	}
	if st := e.Stats(); st.Canceled != 1 || st.Completed != 1 {
		t.Errorf("stats canceled %d completed %d, want 1 1", st.Canceled, st.Completed)
	}
}
