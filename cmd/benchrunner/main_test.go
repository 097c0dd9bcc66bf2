package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenDir holds what `-exp all -queries 60 -seed 2018` writes, one CSV
// (byte for byte) and one BENCH_*.json (wall_seconds zeroed) per row of
// the -exp table: the paper's rows as written before they were moved onto
// one replay driver and one renderer, the ablations as first written by
// their row. A new row's pair is copied out of one observed run rather
// than regenerated, which would also rewrite the older reports.
// Regenerate deliberately with
//
//	SAQP_UPDATE_GOLDEN=1 go test -run TestGoldenQ60 ./cmd/benchrunner
const goldenDir = "testdata/golden_q60"

var wallRE = regexp.MustCompile(`"wall_seconds": [0-9.e+-]+`)

// runQ60 runs one benchrunner invocation at the golden's size into dir
// (CSVs under dir/csv, reports under dir/bench) and returns its stdout.
func runQ60(t *testing.T, exp, dir string, observed bool) []byte {
	t.Helper()
	csvDir, benchDir := filepath.Join(dir, "csv"), ""
	traceOut, promOut := "", ""
	if observed {
		benchDir = filepath.Join(dir, "bench")
		traceOut, promOut = filepath.Join(dir, "runs.trace.json"), filepath.Join(dir, "metrics.prom")
	}
	for _, d := range []string{csvDir, benchDir} {
		if d == "" {
			continue
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := run(&out, exp, 60, 12, 2018, csvDir, traceOut, promOut, benchDir); err != nil {
		t.Fatalf("-exp %s: %v", exp, err)
	}
	return out.Bytes()
}

// goldenRows lists the row names the golden directory pins, from its CSVs.
func goldenRows(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden CSVs under %s (regenerate with SAQP_UPDATE_GOLDEN=1): %v", goldenDir, err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = strings.TrimSuffix(filepath.Base(p), ".csv")
	}
	return names
}

// checkTraceIsJSONArray streams path through a JSON decoder — the file is
// large, so it is never held in memory — and returns the event count. It
// fails unless the whole file is one terminated array of objects.
func checkTraceIsJSONArray(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		t.Fatalf("%s: does not open a JSON array: %v %v", path, tok, err)
	}
	n := 0
	for dec.More() {
		var ev struct {
			Ph string `json:"ph"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("%s: event %d: %v", path, n, err)
		}
		if ev.Ph == "" {
			t.Fatalf("%s: event %d has no phase", path, n)
		}
		n++
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
		t.Fatalf("%s: array not terminated after %d events: %v %v", path, n, tok, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("%s: trailing data after the array: %v", path, err)
	}
	return n
}

// TestGoldenQ60 pins every number the -exp table produces: the CSVs byte
// for byte and the BENCH reports modulo wall_seconds, whether a row runs
// under `all` or alone, plus the trace and metrics side outputs and
// run-to-run stdout determinism. Stdout layout itself is not pinned.
func TestGoldenQ60(t *testing.T) {
	dir := t.TempDir()
	first := runQ60(t, "all", dir, true)

	if os.Getenv("SAQP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, glob := range []string{"csv/*.csv", "bench/BENCH_*.json"} {
			paths, _ := filepath.Glob(filepath.Join(dir, glob))
			for _, p := range paths {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				data = wallRE.ReplaceAll(data, []byte(`"wall_seconds": 0`))
				if err := os.WriteFile(filepath.Join(goldenDir, filepath.Base(p)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("wrote %d %s files to %s", len(paths), glob, goldenDir)
		}
		return
	}

	names := goldenRows(t)
	if len(names) != len(rows) {
		t.Fatalf("golden pins %d rows, the -exp table has %d: %v", len(names), len(rows), names)
	}
	for _, name := range names {
		compareFile(t, filepath.Join(dir, "csv", name+".csv"), name+".csv")
		compareFile(t, filepath.Join(dir, "bench", "BENCH_"+name+".json"), "BENCH_"+name+".json")
	}
	for _, glob := range []string{"csv/*", "bench/*"} {
		if paths, _ := filepath.Glob(filepath.Join(dir, glob)); len(paths) != len(rows) {
			t.Errorf("-exp all wrote %d files matching %s, want %d", len(paths), glob, len(rows))
		}
	}

	if n := checkTraceIsJSONArray(t, filepath.Join(dir, "runs.trace.json")); n == 0 {
		t.Error("trace of -exp all holds no events")
	}
	if prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom")); err != nil || !bytes.Contains(prom, []byte("# TYPE saqp_")) {
		t.Errorf("metrics dump missing or empty: %v", err)
	}

	// Run again, unobserved: the tables print the same bytes, and observing
	// added nothing to stdout but the trailing "Wrote …" lines.
	second := runQ60(t, "all", t.TempDir(), false)
	if !bytes.HasPrefix(first, second) || bytes.Count(first[len(second):], []byte("\nWrote ")) != 2 {
		t.Errorf("a second run printed different tables:\n--- first\n%s\n--- second\n%s", first, second)
	}

	for _, name := range names {
		alone := t.TempDir()
		runQ60(t, name, alone, false)
		compareFile(t, filepath.Join(alone, "csv", name+".csv"), name+".csv")
		if paths, _ := filepath.Glob(filepath.Join(alone, "csv", "*")); len(paths) != 1 {
			t.Errorf("-exp %s wrote %d CSVs, want 1", name, len(paths))
		}
	}
}

// compareFile checks one produced file against its golden twin. Reports
// are compared modulo wall_seconds.
func compareFile(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, golden))
	if err != nil {
		t.Fatalf("reading golden (regenerate with SAQP_UPDATE_GOLDEN=1): %v", err)
	}
	got = wallRE.ReplaceAll(got, []byte(`"wall_seconds": 0`))
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}

// TestUnknownExperimentCreatesNothing: -exp is validated against the row
// table before any output exists, and the error names the valid rows.
func TestUnknownExperimentCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	tracePath, promPath := filepath.Join(dir, "x.json"), filepath.Join(dir, "x.prom")
	var out bytes.Buffer
	err := run(&out, "nope", 60, 12, 2018, dir, tracePath, promPath, dir)
	if err == nil {
		t.Fatal("-exp nope succeeded")
	}
	for _, name := range append(goldenRows(t), "all") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name the valid row %q", err, name)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("-exp nope left %d file(s) behind, first %s", len(entries), entries[0].Name())
	}
}

// TestFailedRowStillTerminatesTrace: a row that fails mid-run (its CSV
// directory does not exist) must not leave a half-written trace behind.
func TestFailedRowStillTerminatesTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "x.json")
	var out bytes.Buffer
	if err := run(&out, "fig2", 60, 12, 2018, filepath.Join(dir, "missing"), tracePath, "", ""); err == nil {
		t.Fatal("writing a CSV into a missing directory succeeded")
	}
	if n := checkTraceIsJSONArray(t, tracePath); n == 0 {
		t.Error("fig2 ran before its CSV failed, yet the trace holds no events")
	}
}
