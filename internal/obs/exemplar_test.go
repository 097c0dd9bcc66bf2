package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"saqp/internal/obs"
)

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

func TestHistogramExemplars(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("saqp_test_exemplar_seconds", []float64{1, 10})

	// Plain Observe records no exemplar.
	h.Observe(0.5)
	if s := h.Snapshot(); s.Exemplars != nil {
		t.Fatalf("Observe recorded an exemplar: %+v", s.Exemplars)
	}

	// The worst sample per bucket wins; ties keep the earlier trace so
	// replays stay deterministic.
	h.ObserveExemplar(0.3, "trace-a")
	h.ObserveExemplar(0.7, "trace-b") // worse → replaces a
	h.ObserveExemplar(0.7, "trace-c") // tie → b stays
	h.ObserveExemplar(5, "trace-d")   // second bucket
	h.ObserveExemplar(100, "")        // +Inf bucket, no trace → no exemplar
	if ok := h.ObserveExemplar(-1, "trace-e"); ok {
		t.Fatal("negative observation accepted")
	}

	s := h.Snapshot()
	if len(s.Exemplars) != 3 {
		t.Fatalf("exemplars = %+v, want one slot per bucket (3)", s.Exemplars)
	}
	if s.Exemplars[0].TraceID != "trace-b" || s.Exemplars[0].Value != 0.7 {
		t.Errorf("bucket 0 exemplar = %+v, want trace-b@0.7", s.Exemplars[0])
	}
	if s.Exemplars[1].TraceID != "trace-d" {
		t.Errorf("bucket 1 exemplar = %+v, want trace-d", s.Exemplars[1])
	}
	if s.Exemplars[2].TraceID != "" {
		t.Errorf("+Inf exemplar = %+v, want empty (no trace supplied)", s.Exemplars[2])
	}

	// Exemplars are JSON-snapshot-only: the 0.0.4 text format has no
	// exemplar syntax, so the exposition must not mention traces.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "trace-") {
		t.Errorf("Prometheus exposition leaked exemplars:\n%s", buf.String())
	}
}

// TestHistogramExemplarDeterminism replays the same seeded observation
// sequence twice and demands byte-identical snapshots.
func TestHistogramExemplarDeterminism(t *testing.T) {
	run := func() []byte {
		r := obs.NewRegistry()
		h := r.Histogram("saqp_test_replay_seconds", nil)
		// A fixed LCG stands in for a seeded replay's latency stream.
		state := uint64(2018)
		for i := 0; i < 500; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			v := float64(state%100000) / 100
			h.ObserveExemplar(v, obs.TraceID("q\x00cat", uint64(i)))
		}
		b, err := r.SnapshotJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("identical observation replays snapshot differently")
	}
}
