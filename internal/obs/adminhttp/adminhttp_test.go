package adminhttp_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"saqp/internal/obs"
	"saqp/internal/obs/adminhttp"
)

// fullConfig builds a Config with every source populated and a little
// deterministic state in each.
func fullConfig() adminhttp.Config {
	o := obs.New(nil)
	for i := 0; i < 3; i++ {
		o.Count(obs.MNetCommands)
	}

	spans := obs.NewSpanStore(8)
	spans.Begin()
	q := obs.BeginQuerySpan("deadbeef00000000-000001", "q1")
	q.Event(obs.SpanKindCache, "plan-cache", obs.AttrBool("hit", true))
	spans.Add(q.Finish())

	return adminhttp.Config{
		Metrics:   o.Metrics,
		Spans:     spans,
		Drift:     o.Drift,
		StatsJSON: func() ([]byte, error) { return []byte(`{"submitted": 1}`), nil },
	}
}

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()
}

func TestHandlerEndpoints(t *testing.T) {
	h := adminhttp.Handler(fullConfig())

	code, ct, body := get(t, h, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("index content-type = %q", ct)
	}

	code, ct, body = get(t, h, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "saqp_net_commands_total 3") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q, want Prometheus 0.0.4", ct)
	}

	code, _, body = get(t, h, "/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans: code %d", code)
	}
	var snap obs.SpanStoreSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/spans invalid JSON: %v", err)
	}
	if snap.Finished != 1 || len(snap.Trees) != 1 {
		t.Errorf("/spans snapshot = %+v, want 1 finished tree", snap)
	}

	code, _, body = get(t, h, "/spans?trace=deadbeef00000000-000001")
	if code != http.StatusOK {
		t.Fatalf("/spans?trace=: code %d body %q", code, body)
	}
	var tree obs.SpanTree
	if err := json.Unmarshal([]byte(body), &tree); err != nil {
		t.Fatalf("single-tree response invalid JSON: %v", err)
	}
	if tree.TraceID != "deadbeef00000000-000001" || len(tree.Spans) != 2 {
		t.Errorf("single tree = %+v", tree)
	}
	if code, _, _ = get(t, h, "/spans?trace=nope"); code != http.StatusNotFound {
		t.Errorf("unknown trace id: code %d, want 404", code)
	}

	if code, _, body = get(t, h, "/drift"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("/drift: code %d valid-json %v", code, json.Valid([]byte(body)))
	}
	if code, _, body = get(t, h, "/statz"); code != http.StatusOK || !strings.Contains(body, "submitted") {
		t.Errorf("/statz: code %d body %q", code, body)
	}
	if code, _, _ = get(t, h, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _, _ = get(t, h, "/no-such-page"); code != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

// TestHandlerUnconfiguredSources checks every optional source answers
// 404 with a hint instead of panicking when unset.
func TestHandlerUnconfiguredSources(t *testing.T) {
	h := adminhttp.Handler(adminhttp.Config{})
	for _, path := range []string{"/metrics", "/spans", "/drift", "/statz"} {
		code, _, body := get(t, h, path)
		if code != http.StatusNotFound {
			t.Errorf("%s: code %d, want 404", path, code)
		}
		if !strings.Contains(body, "no ") {
			t.Errorf("%s: body %q carries no hint", path, body)
		}
	}
}

// TestStartShutdown exercises the real listener: bind :0, serve one
// request, shut down gracefully, and verify the port is released.
func TestStartShutdown(t *testing.T) {
	srv, err := adminhttp.Start("127.0.0.1:0", fullConfig())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "saqp_net_commands_total") {
		t.Errorf("live /metrics: code %d body %q", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get(srv.URL() + "/metrics"); err == nil {
		t.Error("server still answering after Shutdown")
	}
}
