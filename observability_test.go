package saqp_test

// Facade-level observability tests: SimulateQuery must be deterministic
// and fully instrumented, and a fixed serving scenario must reproduce its
// golden metrics, drift and timelines.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"saqp"
)

// TestSimulateQueryDeterministicTrace: two instrumented SimulateQuery
// runs with the same seed produce byte-identical traces and metrics.
func TestSimulateQueryDeterministicTrace(t *testing.T) {
	run := func() ([]byte, []byte, float64) {
		var traceBuf bytes.Buffer
		o := saqp.NewObserver(saqp.NewTraceSink(&traceBuf))
		fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 2, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		dag, err := fw.Compile(`SELECT c_name, count(*) FROM customer
			JOIN orders ON o_custkey = c_custkey GROUP BY c_name`)
		if err != nil {
			t.Fatal(err)
		}
		est, err := fw.Estimate(dag)
		if err != nil {
			t.Fatal(err)
		}
		secs, err := fw.SimulateQuery("q1", est, saqp.SchedulerSWRD, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		var promBuf bytes.Buffer
		if err := o.Metrics.WritePrometheus(&promBuf); err != nil {
			t.Fatal(err)
		}
		return traceBuf.Bytes(), promBuf.Bytes(), secs
	}
	t1, p1, s1 := run()
	t2, p2, s2 := run()
	if s1 != s2 {
		t.Fatalf("response time differs across seeded runs: %v vs %v", s1, s2)
	}
	if s1 <= 0 {
		t.Fatalf("response time = %v, want positive", s1)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace differs across seeded runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("metrics differ across seeded runs")
	}
	if len(t1) == 0 || !bytes.Contains(t1, []byte(`"cat":"query"`)) {
		t.Error("trace missing query lifecycle events")
	}
	if !bytes.Contains(p1, []byte("saqp_framework_compiles_total 1")) {
		t.Errorf("framework counters missing from exposition:\n%s", p1)
	}
	if !bytes.Contains(p1, []byte("saqp_framework_simulations_total 1")) {
		t.Error("simulation counter missing from exposition")
	}
}

// Golden observability scenario. One observer (metrics + drift + a
// Chrome timeline sink) sees a clean seeded SimulateQuery, a faulty and a
// doomed one under fault plans, and then three single-worker TraceSpans
// servers (online learning; preemptive reduce; a cold learner) fed fixed
// serialized submission sequences, each query served once, fault-free.
// Metrics sample lines and the drift snapshot must match the checked-in
// files byte for byte; the timeline and the span trees are compared as
// skeletons (identity, kind and times exact; attribute keys may only
// grow). Any other file in the directory is an orphan and fails the test.
// Regenerate deliberately with:
//
//	SAQP_UPDATE_GOLDEN=1 go test -run TestGoldenObservability .
const goldenObsDir = "testdata/golden_obs"

// timelineSkel is one Chrome trace event minus its argument values.
type timelineSkel struct {
	Name  string   `json:"name"`
	Ph    string   `json:"ph"`
	Ts    int64    `json:"ts"`
	Dur   int64    `json:"dur,omitempty"`
	Pid   int      `json:"pid"`
	Tid   int      `json:"tid"`
	Cat   string   `json:"cat,omitempty"`
	Label string   `json:"label,omitempty"` // a metadata event's track name
	Keys  []string `json:"keys,omitempty"`  // sorted argument keys
}

// spanSkel is one span-tree node minus its attribute values.
type spanSkel struct {
	Trace  string   `json:"trace"`
	ID     int      `json:"id"`
	Parent int      `json:"parent"`
	Kind   string   `json:"kind"`
	Name   string   `json:"name"`
	Start  float64  `json:"start_sec"`
	End    float64  `json:"end_sec"`
	Keys   []string `json:"keys,omitempty"`
}

type obsSkeleton struct {
	Timeline []timelineSkel `json:"timeline"`
	Spans    []spanSkel     `json:"spans"`
}

// encode serialises the skeleton one event per line, so a drift shows as
// a line diff and the file stays small.
func (s obsSkeleton) encode(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	section := func(name string, n int, at func(int) any) {
		fmt.Fprintf(&b, "%q: [", name)
		for i := 0; i < n; i++ {
			line, err := json.Marshal(at(i))
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString("\n")
			b.Write(line)
		}
		b.WriteString("\n]")
	}
	b.WriteString("{\n")
	section("timeline", len(s.Timeline), func(i int) any { return s.Timeline[i] })
	b.WriteString(",\n")
	section("spans", len(s.Spans), func(i int) any { return s.Spans[i] })
	b.WriteString("\n}\n")
	return b.Bytes()
}

func timelineSkeleton(t *testing.T, trace []byte) []timelineSkel {
	t.Helper()
	var events []struct {
		timelineSkel
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	out := make([]timelineSkel, len(events))
	for i, e := range events {
		out[i] = e.timelineSkel
		if e.Ph == "M" {
			out[i].Label, _ = e.Args["name"].(string)
			continue
		}
		for k := range e.Args {
			out[i].Keys = append(out[i].Keys, k)
		}
		sort.Strings(out[i].Keys)
	}
	return out
}

// keysGrewOnly reports whether every golden key is still present.
func keysGrewOnly(golden, got []string) bool {
	have := map[string]bool{}
	for _, k := range got {
		have[k] = true
	}
	for _, k := range golden {
		if !have[k] {
			return false
		}
	}
	return true
}

func TestGoldenObservability(t *testing.T) {
	a := artifacts(t)
	var timeline bytes.Buffer
	o := saqp.NewObserver(saqp.NewTraceSink(&timeline))
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	fw.JobTime, fw.TaskTime = a.Jobs, a.Tasks
	estimate := func(name string) *saqp.QueryEstimate {
		sql, err := saqp.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		dag, err := fw.Compile(sql)
		if err != nil {
			t.Fatal(err)
		}
		qe, err := fw.Estimate(dag)
		if err != nil {
			t.Fatal(err)
		}
		return qe
	}
	if _, err := fw.SimulateQuery("clean", estimate("q14"), saqp.SchedulerSWRD, 7); err != nil {
		t.Fatal(err)
	}
	harsh := saqp.FaultSpec{Seed: 2, HorizonSec: 150, CrashProb: 0.6, CrashDowntimeSec: 30,
		SlowProb: 0.5, TaskFailProb: 0.15, MaxAttempts: 6, BlacklistAfter: 2}
	cc := saqp.DefaultClusterConfig()
	cc.PreemptiveReduce = true
	cc.Faults = saqp.NewFaultPlan(harsh)
	if _, err := fw.SimulateQueryConfig("faulty", estimate("q3"), saqp.SchedulerHFS, 11, cc); err != nil {
		t.Fatal(err)
	}
	cc.Faults = saqp.NewFaultPlan(saqp.FaultSpec{Seed: 1, TaskFailProb: 1, MaxAttempts: 2})
	if _, err := fw.SimulateQueryConfig("doomed", estimate("q6"), saqp.SchedulerHCS, 3, cc); err == nil {
		t.Fatal("doomed run completed")
	}

	// serveAll runs one single-worker traced server over names, one
	// submission at a time so completion order is the submission order.
	var stores []*saqp.SpanStore
	serveAll := func(opts saqp.ServerOptions, names ...string) {
		opts.Workers, opts.TraceSpans = 1, true
		srv, err := fw.NewServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			sql, err := saqp.TPCHSQL(name)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := srv.Submit(context.Background(), sql, uint64(3+i))
			if err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
			if _, err := tk.Wait(context.Background()); err != nil {
				t.Fatalf("wait %s: %v", name, err)
			}
		}
		if _, err := srv.Submit(context.Background(), "SELECT nothing FROM nowhere", 1); err == nil {
			t.Fatal("unresolvable query admitted")
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, srv.Spans())
	}
	serveAll(saqp.ServerOptions{OnlineLearning: true}, "q1", "q6", "q1", "q17")
	cc.Faults = nil
	serveAll(saqp.ServerOptions{Cluster: cc}, "q14", "q3", "q19", "q14", "q11")
	// A cold learner bootstraps its first champion
	// from feedback: the promotion instant lands on the timeline. An
	// untrained framework seeds no champion.
	cold := &saqp.Framework{}
	serveAll(saqp.ServerOptions{OnlineLearning: true, Learner: cold.NewLearner(
		saqp.LearnerConfig{Observer: o, MinSamples: 3, Window: 4})}, "q1", "q6", "q14", "q3", "q11", "q17", "q19", "q6")
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	var prom bytes.Buffer
	if err := o.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var samples bytes.Buffer
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if !strings.HasPrefix(line, "#") {
			samples.WriteString(line)
		}
	}
	drift, err := o.Drift.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	got := obsSkeleton{Timeline: timelineSkeleton(t, timeline.Bytes())}
	for _, store := range stores {
		for _, tree := range store.Snapshot().Trees {
			for _, sp := range tree.Spans {
				s := spanSkel{Trace: tree.TraceID, ID: sp.ID, Parent: sp.Parent, Kind: sp.Kind,
					Name: sp.Name, Start: sp.Start, End: sp.End}
				for _, at := range sp.Attrs {
					s.Keys = append(s.Keys, at.Key)
				}
				sort.Strings(s.Keys)
				got.Spans = append(got.Spans, s)
			}
		}
	}
	skeleton := got.encode(t)

	exact := map[string][]byte{"metrics.txt": samples.Bytes(), "drift.json": drift}
	entries, err := os.ReadDir(goldenObsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := exact[e.Name()]; !ok && e.Name() != "skeleton.json" {
			t.Errorf("%s/%s is compared and written by nothing: delete it", goldenObsDir, e.Name())
		}
	}
	if os.Getenv("SAQP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(goldenObsDir, 0o755); err != nil {
			t.Fatal(err)
		}
		exact["skeleton.json"] = skeleton
		for name, data := range exact {
			if err := os.WriteFile(filepath.Join(goldenObsDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, data := range exact {
		want, err := os.ReadFile(filepath.Join(goldenObsDir, name))
		if err != nil {
			t.Fatalf("reading golden (regenerate with SAQP_UPDATE_GOLDEN=1): %v", err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s drifted from the golden:\n%s\nwant:\n%s", name, data, want)
		}
	}
	raw, err := os.ReadFile(filepath.Join(goldenObsDir, "skeleton.json"))
	if err != nil {
		t.Fatalf("reading golden (regenerate with SAQP_UPDATE_GOLDEN=1): %v", err)
	}
	var want obsSkeleton
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Errorf("timeline has %d events, golden %d", len(got.Timeline), len(want.Timeline))
	} else {
		for i := range want.Timeline {
			g, w := got.Timeline[i], want.Timeline[i]
			grew := keysGrewOnly(w.Keys, g.Keys)
			g.Keys, w.Keys = nil, nil
			if !reflect.DeepEqual(g, w) || !grew {
				t.Errorf("timeline event %d = %+v keys %v, golden %+v keys %v", i, g, got.Timeline[i].Keys, w, want.Timeline[i].Keys)
			}
		}
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("span trees have %d spans, golden %d", len(got.Spans), len(want.Spans))
	}
	for i := range want.Spans {
		g, w := got.Spans[i], want.Spans[i]
		grew := keysGrewOnly(w.Keys, g.Keys)
		g.Keys, w.Keys = nil, nil
		if !reflect.DeepEqual(g, w) || !grew {
			t.Errorf("span %d = %+v keys %v, golden %+v keys %v", i, g, got.Spans[i].Keys, w, want.Spans[i].Keys)
		}
	}
}
