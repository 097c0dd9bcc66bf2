package obs_test

import (
	"bytes"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"saqp/internal/obs"
)

func TestHistogramBucketing(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("saqp_test_values_seconds", []float64{1, 2, 5})

	cases := []struct {
		v      float64
		accept bool
	}{
		{0, true},             // below the first bound → first bucket
		{1, true},             // exactly on a bound → that bucket (le is inclusive)
		{1.5, true},           // interior
		{5, true},             // on the last finite bound
		{100, true},           // above every bound → +Inf overflow bucket
		{math.Inf(1), true},   // +Inf itself lands in the overflow bucket
		{-0.5, false},         // negative rejected
		{math.NaN(), false},   // NaN rejected
		{math.Inf(-1), false}, // -Inf rejected
	}
	for _, c := range cases {
		if got := h.Observe(c.v); got != c.accept {
			t.Errorf("Observe(%v) accepted=%v, want %v", c.v, got, c.accept)
		}
	}

	s := h.Snapshot()
	wantCounts := []uint64{2, 1, 1, 2} // le=1, le=2, le=5, +Inf
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("counts len = %d, want %d", len(s.Counts), len(wantCounts))
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
}

func TestHistogramRejectsBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets should panic")
		}
	}()
	obs.NewRegistry().Histogram("saqp_test_bad_seconds", []float64{2, 1})
}

func TestValidateName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name should panic")
		}
	}()
	obs.NewRegistry().Counter("saqp-bad-name")
}

// TestPrometheusFormat checks the exposition against the text-format
// grammar: TYPE lines, cumulative non-decreasing buckets ending in +Inf,
// and _count consistency.
func TestPrometheusFormat(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("saqp_test_events_total").Add(3)
	r.Counter(obs.MNetCommands).Inc() // a declared metric: its # HELP comes from the metric table
	r.Gauge("saqp_test_depth").Set(-2.5)
	h := r.Histogram("saqp_test_latency_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP saqp_net_commands_total Wire commands dispatched.\n# TYPE saqp_net_commands_total counter\nsaqp_net_commands_total 1\n",
		"# TYPE saqp_test_events_total counter\nsaqp_test_events_total 3\n",
		"# TYPE saqp_test_depth gauge\nsaqp_test_depth -2.5\n",
		"# TYPE saqp_test_latency_seconds histogram\n",
		`saqp_test_latency_seconds_bucket{le="1"} 1`,
		`saqp_test_latency_seconds_bucket{le="10"} 1`,
		`saqp_test_latency_seconds_bucket{le="+Inf"} 2`,
		"saqp_test_latency_seconds_sum 50.5\n",
		"saqp_test_latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every sample line must be "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestExpositionDeterministic: two registries fed identically serialise
// byte-identically (metric creation order must not matter).
func TestExpositionDeterministic(t *testing.T) {
	fill := func(order []string) string {
		r := obs.NewRegistry()
		for _, name := range order {
			r.Counter(name).Inc()
		}
		r.Histogram("saqp_test_h_seconds", nil).Observe(2)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := fill([]string{"saqp_test_b_total", "saqp_test_a_total", "saqp_test_c_total"})
	b := fill([]string{"saqp_test_c_total", "saqp_test_b_total", "saqp_test_a_total"})
	if a != b {
		t.Fatalf("exposition depends on creation order:\n%s\nvs\n%s", a, b)
	}

	r := obs.NewRegistry()
	r.Counter("saqp_test_a_total").Inc()
	j1, err := r.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r.SnapshotJSON()
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

func TestCounterMonotone(t *testing.T) {
	c := obs.NewRegistry().Counter("saqp_test_mono_total")
	c.Add(2)
	c.Add(-5)         // ignored
	c.Add(math.NaN()) // ignored
	if v := c.Value(); v != 2 {
		t.Fatalf("counter = %v, want 2", v)
	}
}

// TestMetricTable enforces what the metric table's comment promises:
// unique names in saqp_<subsystem>_<name> form with a known subsystem,
// counters (and only counters) ending in _total, help text on every
// row, and no dead rows — each metric's M* variable is named by some
// non-test code outside the table itself: the event-kind table, a typed
// Observer method, or a Count call site.
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
