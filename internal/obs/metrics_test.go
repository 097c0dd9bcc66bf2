package obs_test

import (
	"bytes"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"saqp/internal/obs"
)

// TestHistogramBucketing: every histogram row buckets on the time
// bounds 0.1 … 3600, each bound inclusive, with a +Inf overflow bucket;
// negative and NaN observations are rejected but still mark the row
// written.
func TestHistogramBucketing(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	for _, v := range []float64{
		0,            // below the first bound → first bucket
		0.1,          // exactly on a bound → that bucket (le is inclusive)
		0.3,          // interior → le=0.5
		3600,         // on the last finite bound
		5000,         // above every bound → +Inf overflow bucket
		math.Inf(1),  // +Inf itself lands in the overflow bucket
		-0.5,         // negative rejected
		math.NaN(),   // NaN rejected
		math.Inf(-1), // -Inf rejected
	} {
		o.Observe(obs.MServeAdmittedWRD, v)
	}
	s, ok := o.Metrics.Snapshot().Histograms["saqp_serve_admitted_wrd_seconds"]
	if !ok {
		t.Fatal("observed histogram missing from the snapshot")
	}
	wantUpper := []float64{0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}
	wantCounts := []uint64{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2}
	if len(s.Upper) != len(wantUpper) || len(s.Counts) != len(wantCounts) {
		t.Fatalf("%d bounds and %d counts, want %d and %d", len(s.Upper), len(s.Counts), len(wantUpper), len(wantCounts))
	}
	for i, w := range wantUpper {
		if s.Upper[i] != w {
			t.Errorf("bound %d = %v, want %v", i, s.Upper[i], w)
		}
	}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", s.Rejected)
	}

	rejectedOnly := &obs.Observer{Metrics: obs.NewRegistry()}
	rejectedOnly.Observe(obs.MServeAdmittedWRD, -1)
	if h, ok := rejectedOnly.Metrics.Snapshot().Histograms["saqp_serve_admitted_wrd_seconds"]; !ok || h.Rejected != 1 {
		t.Errorf("a histogram that only rejected = %+v (listed %v), want listed with 1 rejected", h, ok)
	}
}

// TestPrometheusFormat checks the exposition against the text-format
// grammar — # HELP from the metric table, TYPE lines, cumulative
// non-decreasing buckets ending in +Inf, _count consistency — and that
// it lists exactly the written rows, counters then gauges then
// histograms.
func TestPrometheusFormat(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	for i := 0; i < 3; i++ {
		o.Count(obs.MNetCommands)
	}
	o.Set(obs.MServeQueueDepth, -2.5)
	o.Observe(obs.MServeSimResponseSec, 0.5)
	o.Observe(obs.MServeSimResponseSec, 50)

	var buf bytes.Buffer
	if err := o.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP saqp_net_commands_total Wire commands dispatched.\n# TYPE saqp_net_commands_total counter\nsaqp_net_commands_total 3\n",
		"# HELP saqp_serve_queue_depth SWRD admission queue depth.\n# TYPE saqp_serve_queue_depth gauge\nsaqp_serve_queue_depth -2.5\n",
		"# TYPE saqp_serve_sim_response_seconds histogram\n",
		`saqp_serve_sim_response_seconds_bucket{le="0.1"} 0`,
		`saqp_serve_sim_response_seconds_bucket{le="0.5"} 1`,
		`saqp_serve_sim_response_seconds_bucket{le="30"} 1`,
		`saqp_serve_sim_response_seconds_bucket{le="60"} 2`,
		`saqp_serve_sim_response_seconds_bucket{le="+Inf"} 2`,
		"saqp_serve_sim_response_seconds_sum 50.5\n",
		"saqp_serve_sim_response_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	c, g, h := strings.Index(out, "saqp_net_commands_total"), strings.Index(out, "saqp_serve_queue_depth"),
		strings.Index(out, "saqp_serve_sim_response_seconds")
	if !(c < g && g < h) {
		t.Errorf("kinds out of order (counter at %d, gauge at %d, histogram at %d):\n%s", c, g, h, out)
	}
	types := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types++
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Every sample line must be "name{labels} value" or "name value".
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	if types != 3 {
		t.Errorf("%d metrics exported, want the 3 written", types)
	}
}

// TestExpositionDeterministic: two registries fed identically serialise
// byte-identically, whatever order the rows were first written in.
func TestExpositionDeterministic(t *testing.T) {
	fill := func(order []obs.CounterID) string {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		for _, c := range order {
			o.Count(c)
		}
		o.Observe(obs.MJobRuntimeSec, 2)
		var buf bytes.Buffer
		if err := o.Metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := fill([]obs.CounterID{obs.MServeErrors, obs.MCompiles, obs.MNetCommands})
	b := fill([]obs.CounterID{obs.MNetCommands, obs.MServeErrors, obs.MCompiles})
	if a != b {
		t.Fatalf("exposition depends on write order:\n%s\nvs\n%s", a, b)
	}

	o := &obs.Observer{Metrics: obs.NewRegistry()}
	o.Count(obs.MCompiles)
	j1, err := o.Metrics.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := o.Metrics.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("SnapshotJSON not stable across calls")
	}
}

// TestEmptyRegistryOutputs pins the empty-registry contract the admin
// endpoint relies on: Prometheus exposition is empty (not an error) and
// the JSON snapshot is a complete document with empty sections.
func TestEmptyRegistryOutputs(t *testing.T) {
	r := obs.NewRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("empty registry exposition failed: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry wrote %q, want nothing", buf.String())
	}
	b, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}"
	if string(b) != want {
		t.Errorf("empty registry snapshot = %s, want %s", b, want)
	}
}

// TestCounterMonotone: a counter moves only by Count, one at a time.
func TestCounterMonotone(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	for want := 1.0; want <= 3; want++ {
		o.Count(obs.MNetCommands)
		o.Set(obs.MNetConnsActive, -want) // another row's write leaves it alone
		if got := o.Metrics.Snapshot().Counters["saqp_net_commands_total"]; got != want {
			t.Fatalf("counter = %v after %v counts", got, want)
		}
	}
}

// TestRegistryConcurrent: reports from many goroutines while both
// exports read the registry lose nothing (run it under -race).
func TestRegistryConcurrent(t *testing.T) {
	const writers, reports = 8, 500
	o := &obs.Observer{Metrics: obs.NewRegistry()}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := o.Metrics.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			_ = o.Metrics.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				o.Count(obs.MNetCommands)
				o.Set(obs.MServeInflight, float64(i))
				o.Observe(obs.MServeSimResponseSec, 1)
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	s := o.Metrics.Snapshot()
	if got := s.Counters["saqp_net_commands_total"]; got != writers*reports {
		t.Errorf("counter = %v, want %d", got, writers*reports)
	}
	if got := s.Gauges["saqp_serve_inflight_queries"]; got != reports-1 {
		t.Errorf("gauge = %v, want every writer's last value %d", got, reports-1)
	}
	if h := s.Histograms["saqp_serve_sim_response_seconds"]; h.Count != writers*reports || h.Sum != writers*reports {
		t.Errorf("histogram count %d sum %v, want %d each", h.Count, h.Sum, writers*reports)
	}
}

// TestMetricTable enforces what the metric table's comment promises:
// unique names in saqp_<subsystem>_<name> form with a known subsystem,
// counters (and only counters) ending in _total, help text on every
// row, and no dead rows — each metric's M* variable is named by some
// non-test code outside the table itself: the event-kind table or a
// Count, Set or Observe call site.
func TestMetricTable(t *testing.T) {
	subsystem := regexp.MustCompile(`^saqp_(cluster|sched|framework|serve|net|learn)_[a-z0-9_]+$`)
	decl := regexp.MustCompile(`(?m)^\t(M\w+)\s*= (?:counter|gauge|histogram)\("([^"]+)"`)
	const tableFile = "metrictable.go"
	src, err := os.ReadFile(tableFile)
	if err != nil {
		t.Fatal(err)
	}
	ident := map[string]string{} // metric name → its M* variable
	for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
		ident[m[2]] = m[1]
	}

	used := map[string]bool{} // M* identifiers in every non-test Go file of the module but the table
	mIdent := regexp.MustCompile(`\bM[A-Z]\w*`)
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
			strings.HasSuffix(path, "_test.go") || filepath.Base(path) == tableFile {
			return err
		}
		b, err := os.ReadFile(path)
		for _, id := range mIdent.FindAll(b, -1) {
			used[string(id)] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, m := range obs.MetricTable() {
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
		if !subsystem.MatchString(m.Name) {
			t.Errorf("%s is not saqp_<subsystem>_<name> with a known subsystem", m.Name)
		}
		if isCounter, total := m.Kind == "counter", strings.HasSuffix(m.Name, "_total"); isCounter != total {
			t.Errorf("%s is a %s: counters, and only counters, end in _total", m.Name, m.Kind)
		}
		if m.Help == "" {
			t.Errorf("%s has no help text", m.Name)
		}
		id := ident[m.Name]
		if id == "" {
			t.Errorf("%s has no M* variable in %s", m.Name, tableFile)
		} else if !used[id] {
			t.Errorf("%s (%s) is declared but nothing reports it", m.Name, id)
		}
	}
	if len(seen) != len(ident) {
		t.Errorf("%d metrics in MetricTable(), %d declarations in %s", len(seen), len(ident), tableFile)
	}
}

// TestObservabilityDocAgrees keeps docs/OBSERVABILITY.md's metric list
// equal to the metric table: same rows, same order, same type and help.
func TestObservabilityDocAgrees(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `(saqp_[a-z0-9_]+)` \\| (counter|gauge|histogram) \\| (.+) \\|$").
		FindAllStringSubmatch(string(doc), -1)
	table := obs.MetricTable()
	if len(rows) != len(table) {
		t.Fatalf("%d metric rows in docs/OBSERVABILITY.md, %d in the metric table", len(rows), len(table))
	}
	for i, m := range table {
		if got := (obs.MetricSpec{Name: rows[i][1], Kind: rows[i][2], Help: rows[i][3]}); got.Name != m.Name ||
			got.Kind != m.Kind || got.Help != m.Help {
			t.Errorf("row %d: doc has %s | %s | %s, table has %s | %s | %s",
				i, got.Name, got.Kind, got.Help, m.Name, m.Kind, m.Help)
		}
	}
}
