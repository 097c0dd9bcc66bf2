package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"saqp/internal/obs"
)

// TestFNV64aMatchesStdlib pins a trace id's prefix to hash/fnv's FNV-64a
// of the cache key. Route slots, trace ids and the golden transcripts all
// hash through sim.FNV64a, so the value for a fixed string is a contract.
func TestFNV64aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "hello", "lineitem", "select 1\x00cat/exact", "l_orderkey:424242"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := obs.TraceID(s, 0)[:16], fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("TraceID(%q) prefix = %s, hash/fnv says %s", s, got, want)
		}
	}
	if got, want := obs.TraceID("hello", 0)[:16], "a430d84680aabd0b"; got != want {
		t.Fatalf("TraceID(hello) prefix = %s, want %s", got, want)
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	a := obs.TraceID("select 1\x00cat-v1", 7)
	b := obs.TraceID("select 1\x00cat-v1", 7)
	if a != b {
		t.Fatalf("same inputs produced different trace ids: %q vs %q", a, b)
	}
	if got := obs.TraceID("select 1\x00cat-v1", 8); got == a {
		t.Fatalf("submission index not reflected in trace id: %q", got)
	}
	if got := obs.TraceID("select 2\x00cat-v1", 7); got == a {
		t.Fatalf("sql not reflected in trace id: %q", got)
	}
	if got := obs.TraceID("select 1\x00cat-v2", 7); got == a {
		t.Fatalf("catalog fingerprint not reflected in trace id: %q", got)
	}
	// Shape: 16 hex chars, dash, 6 decimal digits.
	parts := strings.Split(a, "-")
	if len(parts) != 2 || len(parts[0]) != 16 || len(parts[1]) != 6 {
		t.Fatalf("trace id %q not in <16-hex>-<6-dec> form", a)
	}
	if parts[1] != "000007" {
		t.Fatalf("submission suffix = %q, want 000007", parts[1])
	}
}

// buildRunTree replays a fixed request — cache lookup, admission, one
// clean simulator run, learn feedback — through Observer.Emit, exactly
// as the serving engine drives it.
func buildRunTree() obs.SpanTree {
	q := obs.BeginQuerySpan("abc-000001", "q1", obs.AttrStr("seed", "9"))
	q.Event(obs.SpanKindCache, "plan-cache", obs.AttrBool("hit", false))
	q.Event(obs.SpanKindAdmission, "swrd-admission", obs.AttrFloat("wrd", 42.5))

	q.BeginRun()
	o := &obs.Observer{Spans: q}
	o.Emit(obs.Event{Kind: obs.JobSubmitted, Query: "q1", Job: "j1", JobType: "join"},
		obs.AttrInt("maps", 4), obs.AttrInt("reduces", 2), obs.AttrFloat("init_until_sec", 1.5))
	o.SchedulerDecision(0.5, "SWRD", false, "q1", 0, nil)
	o.Emit(obs.Event{Kind: obs.TaskFinished, At: 3, Start: 1, Query: "q1", Job: "j1", JobType: "join", Node: 2, Slot: 1, Pred: 2})
	o.Emit(obs.Event{Kind: obs.JobFinished, At: 4, Query: "q1", Job: "j1", JobType: "join"})
	q.EndRun(4)

	q.Event(obs.SpanKindFeedback, "learn-feedback", obs.AttrInt("jobs", 1))
	return q.Finish(obs.AttrFloat("sim_sec", 4))
}

func TestQuerySpanMergesRun(t *testing.T) {
	tree := buildRunTree()

	root := tree.Spans[0]
	if root.Kind != obs.SpanKindQuery || root.Parent != -1 || root.ID != 0 {
		t.Fatalf("root span malformed: %+v", root)
	}
	if root.End != 4 {
		t.Fatalf("root end = %g, want the run's 4", root.End)
	}

	// Every non-root span must point at an earlier, existing parent.
	byKind := map[string][]obs.Span{}
	for i, s := range tree.Spans {
		if s.ID != i {
			t.Fatalf("span %d carries id %d; ids must index the slice", i, s.ID)
		}
		if i > 0 && (s.Parent < 0 || s.Parent >= i) {
			t.Fatalf("span %d (%s %q) has invalid parent %d", i, s.Kind, s.Name, s.Parent)
		}
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	for _, kind := range []string{obs.SpanKindCache, obs.SpanKindAdmission,
		obs.SpanKindRun, obs.SpanKindJob, obs.SpanKindTask,
		obs.SpanKindSched, obs.SpanKindFeedback} {
		if len(byKind[kind]) == 0 {
			t.Errorf("tree has no %q span", kind)
		}
	}

	runs := byKind[obs.SpanKindRun]
	if len(runs) != 1 || runs[0].Start != 0 || runs[0].End != 4 || runs[0].Parent != 0 {
		t.Fatalf("run spans = %+v, want one [0,4] under the root", runs)
	}
	jobs := byKind[obs.SpanKindJob]
	if len(jobs) != 1 || jobs[0].Start != 0 || jobs[0].End != 4 || jobs[0].Parent != runs[0].ID {
		t.Fatalf("job spans = %+v, want one [0,4] under the run", jobs)
	}
	// The task parents under its job span, the decision under the run.
	task := byKind[obs.SpanKindTask][0]
	if task.Start != 1 || task.End != 3 || task.Parent != jobs[0].ID {
		t.Errorf("task spans [%g,%g] parent %d, want [1,3] under job span %d", task.Start, task.End, task.Parent, jobs[0].ID)
	}
	if d := byKind[obs.SpanKindSched][0]; d.Parent != runs[0].ID {
		t.Errorf("decision parented on %d, want the run span %d", d.Parent, runs[0].ID)
	}

	// Cache and admission sit at 0; the feedback event lands at the run's end.
	if c := byKind[obs.SpanKindCache][0]; c.Start != 0 || c.Parent != 0 {
		t.Errorf("cache at %g parent %d, want 0 parent 0", c.Start, c.Parent)
	}
	fb := byKind[obs.SpanKindFeedback][0]
	if fb.Start != 4 || fb.Parent != 0 {
		t.Errorf("feedback at %g parent %d, want 4 parent 0", fb.Start, fb.Parent)
	}
}

// TestSpanTreeJSONDeterministic rebuilds the same request twice and
// demands byte-identical serialisation — the contract the seeded replay
// acceptance test relies on.
func TestSpanTreeJSONDeterministic(t *testing.T) {
	a, err := json.MarshalIndent(buildRunTree(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(buildRunTree(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical replays serialised differently")
	}
}

// oneSpanTree builds a minimal finished tree with the given trace id.
func oneSpanTree(id string) obs.SpanTree {
	q := obs.BeginQuerySpan(id, "q")
	q.Event(obs.SpanKindCache, "plan-cache", obs.AttrBool("hit", true))
	return q.Finish()
}

func TestSpanStoreRingEviction(t *testing.T) {
	st := obs.NewSpanStore(2)
	for _, id := range []string{"t1", "t2", "t3"} {
		st.Begin()
		st.Add(oneSpanTree(id))
	}
	snap := st.Snapshot()
	if snap.Started != 3 || snap.Finished != 3 || snap.Evicted != 1 {
		t.Fatalf("counts = %d/%d/%d, want started 3 finished 3 evicted 1", snap.Started, snap.Finished, snap.Evicted)
	}
	trees := snap.Trees
	if len(trees) != 2 || trees[0].TraceID != "t2" || trees[1].TraceID != "t3" {
		ids := make([]string, len(trees))
		for i, tr := range trees {
			ids[i] = tr.TraceID
		}
		t.Fatalf("retained %v, want [t2 t3] oldest first", ids)
	}
	if _, ok := st.Tree("t1"); ok {
		t.Error("evicted tree t1 still resolvable")
	}
	if tr, ok := st.Tree("t3"); !ok || tr.TraceID != "t3" {
		t.Errorf("Tree(t3) = %v %v, want the retained tree", tr.TraceID, ok)
	}
}

func TestSpanStoreWriteJSON(t *testing.T) {
	st := obs.NewSpanStore(4)
	var empty bytes.Buffer
	if err := st.WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	var snap obs.SpanStoreSnapshot
	if err := json.Unmarshal(empty.Bytes(), &snap); err != nil {
		t.Fatalf("empty store wrote invalid JSON: %v\n%s", err, empty.String())
	}
	if snap.Trees == nil || len(snap.Trees) != 0 {
		t.Errorf("empty store trees = %v, want present-and-empty list", snap.Trees)
	}

	st.Begin()
	st.Add(oneSpanTree("t1"))
	var a, b bytes.Buffer
	if err := st.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of an unchanged store serialised differently")
	}
}
