package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"saqp/internal/obs"
)

// replay drives one fixed event sequence through an observer — a
// miniature two-job query run with a hoarded reduce, a preemption and
// scheduler decisions.
func replay(o *obs.Observer) {
	job := obs.Event{Query: "q1", Job: "q1/J1", JobType: "Join"}
	at := func(kind obs.Kind, at, start float64, reduce bool, node, slot int) obs.Event {
		e := job
		e.Kind, e.At, e.Start, e.Reduce, e.Node, e.Slot = kind, at, start, reduce, node, slot
		return e
	}
	o.RunStarted("SWRD")
	o.ClusterInfo(2, 2, 1, false)
	o.Emit(obs.Event{Kind: obs.QueryArrived, Query: "q1"}, obs.AttrInt("jobs", 2), obs.AttrFloat("input_bytes", 10e9))
	o.Emit(at(obs.JobSubmitted, 0, 0, false, 0, 0), obs.AttrInt("maps", 2), obs.AttrInt("reduces", 1),
		obs.AttrFloat("init_until_sec", 10))
	var ranked []obs.Candidate
	if o != nil && o.Trace != nil {
		ranked = []obs.Candidate{{Job: "q1/J1", Query: "q1", WRD: 42.5, Running: 0, Submit: 0}}
	}
	o.SchedulerDecision(10, "SWRD", false, "q1/J1", 1, ranked)
	o.Emit(at(obs.ReduceHoarded, 10, 0, true, 1, 1))
	o.Emit(at(obs.ReducePreempted, 12, 0, true, 1, 1), obs.AttrFloat("hoarded_sec", 2))
	m0 := at(obs.TaskFinished, 15, 10, false, 0, 0)
	m0.Pred = 5
	o.Emit(m0)
	o.Emit(at(obs.ShuffleReady, 15, 0, false, 0, 0), obs.AttrInt("released_reduces", 1))
	r0 := at(obs.TaskFinished, 24, 16, true, 1, 1)
	r0.Pred = 8
	o.Emit(r0)
	o.Emit(at(obs.JobFinished, 24, 0, false, 0, 0))
	o.SchedulerDecision(24, "SWRD", true, "", 0, nil)
	o.Emit(obs.Event{Kind: obs.QueryFinished, At: 24, Query: "q1"})
}

// TestNilObserverAllocatesNothing is the zero-overhead guarantee for
// uninstrumented runs: every hook on a nil *Observer must return without
// allocating.
func TestNilObserverAllocatesNothing(t *testing.T) {
	var o *obs.Observer
	if avg := testing.AllocsPerRun(100, func() { replay(o) }); avg != 0 {
		t.Fatalf("nil observer hooks allocate %v times per replay, want 0", avg)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("nil observer Close: %v", err)
	}
}

// TestTraceDeterministic: replaying the same event sequence through two
// observers yields byte-identical trace JSON, and the output is a valid
// JSON array of trace events.
func TestTraceDeterministic(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		sink := obs.NewTraceSink(&buf)
		o := obs.New(sink)
		replay(o)
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := emit(), emit()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace output differs between identical replays:\n%s\nvs\n%s", a, b)
	}

	var events []map[string]any
	if err := json.Unmarshal(a, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a)
	}
	if len(events) == 0 {
		t.Fatal("no trace events emitted")
	}
	phases := map[string]int{}
	for _, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event missing %q: %v", key, e)
			}
		}
		phases[e["ph"].(string)]++
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("expected metadata, span and instant events, got %v", phases)
	}
}

// TestTraceQueryJobTaskNesting checks the track layout: the query span
// and its job span share one per-query process, and the task spans live
// on slot tracks of the shared cluster processes.
func TestTraceQueryJobTaskNesting(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewTraceSink(&buf))
	replay(o)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var queryPid, jobPid, mapTaskPid, redTaskPid float64
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		switch e["name"] {
		case "query q1":
			queryPid = e["pid"].(float64)
		case "q1/J1 (Join)":
			jobPid = e["pid"].(float64)
		case "q1/J1 m0":
			mapTaskPid = e["pid"].(float64)
		case "q1/J1 r0":
			redTaskPid = e["pid"].(float64)
		}
	}
	if queryPid == 0 || queryPid != jobPid {
		t.Errorf("query span (pid %v) and job span (pid %v) should share a process", queryPid, jobPid)
	}
	if mapTaskPid != obs.PidMapSlots {
		t.Errorf("map task span on pid %v, want %d", mapTaskPid, obs.PidMapSlots)
	}
	if redTaskPid != obs.PidReduceSlots {
		t.Errorf("reduce task span on pid %v, want %d", redTaskPid, obs.PidReduceSlots)
	}
}

func TestTraceCloseEmpty(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v (%q)", err, buf.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty trace has %d events", len(events))
	}
}

// TestObserverMetrics spot-checks that the replayed lifecycle feeds the
// registry the right counters.
func TestObserverMetrics(t *testing.T) {
	o := obs.New(nil)
	replay(o)
	want := map[string]float64{
		"saqp_cluster_queries_submitted_total":       1,
		"saqp_cluster_queries_completed_total":       1,
		"saqp_cluster_jobs_submitted_total":          1,
		"saqp_cluster_jobs_completed_total":          1,
		"saqp_cluster_map_tasks_completed_total":     1,
		"saqp_cluster_reduce_tasks_completed_total":  1,
		"saqp_cluster_reduce_slowstart_hoards_total": 1,
		"saqp_cluster_reduce_preemptions_total":      1,
		"saqp_sched_decisions_total":                 2,
		"saqp_sched_idle_decisions_total":            1,
	}
	got := o.Metrics.Snapshot().Counters
	if len(got) != len(want) {
		t.Errorf("%d counters written, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

// TestDriftSummary verifies the recorder against hand-computed accuracy
// numbers for a tiny sample set.
func TestDriftSummary(t *testing.T) {
	d := obs.NewDriftRecorder()
	// predictions 9, 22 against actuals 10, 20:
	// rel errors 0.1 and 0.1 → mean 0.1
	d.RecordJob("Join", 9, 10, false)
	d.RecordJob("Join", 22, 20, false)
	d.RecordJob("Extract", 5, 0, false) // zero actual: excluded from MeanRelError
	s := d.Snapshot()
	if len(s.Jobs) != 2 {
		t.Fatalf("categories = %d, want 2", len(s.Jobs))
	}
	if s.Jobs[0].Category != "Extract" || s.Jobs[1].Category != "Join" {
		t.Fatalf("categories not sorted: %v, %v", s.Jobs[0].Category, s.Jobs[1].Category)
	}
	join := s.Jobs[1]
	if math.Abs(join.MeanRelError-0.1) > 1e-12 {
		t.Errorf("Join mean rel err = %v, want 0.1", join.MeanRelError)
	}
	// ssRes = 1+4 = 5; mean = 15; ssTot = (10-15)² + (20-15)² = 50 → R² = 0.9.
	if math.Abs(join.RSquared-0.9) > 1e-9 {
		t.Errorf("Join R² = %v, want 0.9", join.RSquared)
	}
	if ext := s.Jobs[0]; ext.MeanRelError != 0 || ext.N != 1 {
		t.Errorf("Extract summary = %+v, want zero rel error over 1 sample", ext)
	}

	j1, err := d.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := d.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("drift snapshot JSON not stable")
	}
}

// TestSchedulerDecisionArgs: the hand-built candidates JSON must parse.
func TestSchedulerDecisionArgs(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewTraceSink(&buf))
	o.SchedulerDecision(1, "SWRD", false, "a", 2, []obs.Candidate{
		{Job: "a", Query: `q"uote`, WRD: math.Inf(1), Running: 3, Submit: 0.5},
		{Job: "b", Query: "q2", WRD: 7, Running: 0, Submit: 1},
	})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Args struct {
			Candidates []struct {
				Job     string   `json:"job"`
				Query   string   `json:"query"`
				WRD     *float64 `json:"wrd"`
				Running int      `json:"running"`
			} `json:"candidates"`
		} `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("decision event not valid JSON: %v\n%s", err, buf.String())
	}
	cands := events[0].Args.Candidates
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if cands[0].Query != `q"uote` {
		t.Errorf("query not quoted correctly: %q", cands[0].Query)
	}
	if cands[0].WRD != nil {
		t.Errorf("infinite WRD should serialise as null, got %v", *cands[0].WRD)
	}
	if cands[1].WRD == nil || *cands[1].WRD != 7 {
		t.Errorf("finite WRD lost: %v", cands[1].WRD)
	}
}

// TestSchedulerDecisionTruncation: long candidate queues are capped in
// the trace (the winner is always kept) while queue_depth reports the
// uncapped count — this bounds trace size under heavy queueing.
func TestSchedulerDecisionTruncation(t *testing.T) {
	long := make([]obs.Candidate, 40)
	for i := range long {
		long[i] = obs.Candidate{Job: "j" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26)), Query: "q", WRD: float64(i)}
	}
	long[0].Job, long[37].Job = "head", "winner"
	var buf bytes.Buffer
	o := obs.New(obs.NewTraceSink(&buf))
	o.SchedulerDecision(1, "SWRD", false, "winner", len(long), long)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Args struct {
			QueueDepth int `json:"queue_depth"`
			Candidates []struct {
				Job string `json:"job"`
			} `json:"candidates"`
		} `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("decision event not valid JSON: %v\n%s", err, buf.String())
	}
	a := events[0].Args
	if a.QueueDepth != 40 {
		t.Errorf("queue_depth = %d, want 40", a.QueueDepth)
	}
	if len(a.Candidates) != 9 { // cap of 8 plus the out-of-window winner
		t.Fatalf("recorded candidates = %d, want 9", len(a.Candidates))
	}
	if a.Candidates[0].Job != "head" {
		t.Errorf("head of queue dropped: %q", a.Candidates[0].Job)
	}
	if a.Candidates[8].Job != "winner" {
		t.Errorf("winner not retained after truncation: %q", a.Candidates[8].Job)
	}
}
