package obs_test

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"saqp/internal/obs"
)

// TestFNV64aMatchesStdlib pins the hand-rolled loop to hash/fnv. Route
// slots, trace ids and the golden transcripts all hash through it, so
// the value for a fixed string is a contract.
func TestFNV64aMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "hello", "lineitem", "select 1\x00cat/exact", "l_orderkey:424242"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := obs.FNV64a(s), h.Sum64(); got != want {
			t.Errorf("FNV64a(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
	}
	if got, want := obs.FNV64a("hello"), uint64(0xa430d84680aabd0b); got != want {
		t.Fatalf("FNV64a(hello) = %#x, want %#x", got, want)
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

// buildTwoAttemptTree replays a fixed two-attempt request — attempt 1
// fails mid-job, attempt 2 completes — through Observer.Emit,
// exactly as the serving engine drives them.
func buildTwoAttemptTree() obs.SpanTree {
	q := obs.BeginQuerySpan("abc-000001", "q1", obs.AttrStr("seed", "9"))
	q.Event(obs.SpanKindCache, "plan-cache", obs.AttrBool("hit", false))
	q.Event(obs.SpanKindAdmission, "swrd-admission", obs.AttrFloat("wrd", 42.5))

	// Attempt 1: the job opens, one task attempt fails, the simulated
	// query aborts — the job span is left open and must clamp at merge.
	j1 := obs.Event{Kind: obs.JobSubmitted, Query: "q1", Job: "j1", JobType: "join"}
	submit := []obs.Attr{obs.AttrInt("maps", 4), obs.AttrInt("reduces", 2), obs.AttrFloat("init_until_sec", 1.5)}
	c1 := obs.NewSpanCollector()
	o1 := &obs.Observer{Spans: c1}
	o1.Emit(j1, submit...)
	o1.SchedulerDecision(0.5, "SWRD", false, "q1", 0, nil)
	o1.Emit(obs.Event{Kind: obs.TaskFailed, At: 2, Start: 1, Query: "q1", Job: "j1", JobType: "join", Node: 3, Slot: 1},
		obs.AttrInt("attempt", 1), obs.AttrFloat("backoff_sec", 0.5))
	o1.Emit(obs.Event{Kind: obs.QueryFailed, At: 2.5, Query: "q1"}, obs.AttrStr("reason", "task attempt cap"))
	q.AddAttempt(c1, 2.5, obs.AttrBool("failed", true))

	// Attempt 2: the retry completes cleanly.
	c2 := obs.NewSpanCollector()
	o2 := &obs.Observer{Spans: c2}
	o2.Emit(j1, submit...)
	o2.Emit(obs.Event{Kind: obs.TaskFinished, At: 3, Start: 1, Query: "q1", Job: "j1", JobType: "join", Node: 2, Slot: 1, Pred: 2})
	o2.Emit(obs.Event{Kind: obs.JobFinished, At: 4, Query: "q1", Job: "j1", JobType: "join"})
	q.AddAttempt(c2, 4, obs.AttrBool("failed", false))

	q.Event(obs.SpanKindFeedback, "learn-feedback", obs.AttrInt("jobs", 1))
	return q.Finish(obs.AttrFloat("sim_sec", 6.5))
}

func TestQuerySpanMergesAttempts(t *testing.T) {
	tree := buildTwoAttemptTree()

	root := tree.Spans[0]
	if root.Kind != obs.SpanKindQuery || root.Parent != -1 || root.ID != 0 {
		t.Fatalf("root span malformed: %+v", root)
	}
	if root.End != 6.5 {
		t.Fatalf("root end = %g, want 6.5 (2.5 + 4 on the merged timeline)", root.End)
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
		obs.SpanKindAttempt, obs.SpanKindJob, obs.SpanKindTask,
		obs.SpanKindSched, obs.SpanKindFault, obs.SpanKindFeedback} {
		if len(byKind[kind]) == 0 {
			t.Errorf("tree has no %q span", kind)
		}
	}

	attempts := byKind[obs.SpanKindAttempt]
	if len(attempts) != 2 {
		t.Fatalf("got %d attempt spans, want 2", len(attempts))
	}
	if attempts[0].Start != 0 || attempts[0].End != 2.5 {
		t.Errorf("attempt 1 spans [%g,%g], want [0,2.5]", attempts[0].Start, attempts[0].End)
	}
	if attempts[1].Start != 2.5 || attempts[1].End != 6.5 {
		t.Errorf("attempt 2 spans [%g,%g], want [2.5,6.5]", attempts[1].Start, attempts[1].End)
	}

	jobs := byKind[obs.SpanKindJob]
	if len(jobs) != 2 {
		t.Fatalf("got %d job spans, want 2", len(jobs))
	}
	// Attempt 1's job was never finished: its end clamps to the attempt.
	if jobs[0].End != 2.5 {
		t.Errorf("open job clamped to %g, want attempt end 2.5", jobs[0].End)
	}
	if jobs[0].Parent != attempts[0].ID {
		t.Errorf("attempt-1 job parented on %d, want attempt span %d", jobs[0].Parent, attempts[0].ID)
	}
	// Attempt 2's job re-bases by the 2.5s the first attempt consumed.
	if jobs[1].Start != 2.5 || jobs[1].End != 6.5 {
		t.Errorf("attempt-2 job spans [%g,%g], want [2.5,6.5]", jobs[1].Start, jobs[1].End)
	}

	// The completed task re-bases and re-parents under its job span.
	task := byKind[obs.SpanKindTask][0]
	if task.Start != 3.5 || task.End != 5.5 {
		t.Errorf("task spans [%g,%g], want [3.5,5.5]", task.Start, task.End)
	}
	if task.Parent != jobs[1].ID {
		t.Errorf("task parented on %d, want job span %d", task.Parent, jobs[1].ID)
	}

	// The feedback event lands at the merged-timeline end.
	fb := byKind[obs.SpanKindFeedback][0]
	if fb.Start != 6.5 || fb.Parent != 0 {
		t.Errorf("feedback at %g parent %d, want 6.5 parent 0", fb.Start, fb.Parent)
	}
}

// TestSpanTreeJSONDeterministic rebuilds the same request twice and
// demands byte-identical serialisation — the contract the seeded replay
// acceptance test relies on.
func TestSpanTreeJSONDeterministic(t *testing.T) {
	a, err := json.MarshalIndent(buildTwoAttemptTree(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(buildTwoAttemptTree(), "", "  ")
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
	c := st.Counts()
	if c.Started != 3 || c.Finished != 3 || c.Evicted != 1 || c.Retained != 2 {
		t.Fatalf("counts = %+v, want started 3 finished 3 evicted 1 retained 2", c)
	}
	trees := st.Trees()
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

// TestSpanStoreChromeExport checks the async-flow export is valid JSON
// with paired begin/end events carrying the same flow id.
func TestSpanStoreChromeExport(t *testing.T) {
	st := obs.NewSpanStore(4)
	st.Begin()
	st.Add(buildTwoAttemptTree())

	var buf bytes.Buffer
	ts := obs.NewTraceSink(&buf)
	st.WriteChromeTrace(ts)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is invalid JSON: %v", err)
	}
	begins, ends := map[string]int{}, map[string]int{}
	for _, ev := range events {
		id, _ := ev["id"].(string)
		switch ev["ph"] {
		case "b":
			begins[id]++
		case "e":
			ends[id]++
		}
	}
	if len(begins) == 0 {
		t.Fatal("export contains no async begin events")
	}
	for id, n := range begins {
		if ends[id] != n {
			t.Errorf("flow %q has %d begins but %d ends", id, n, ends[id])
		}
	}
}
