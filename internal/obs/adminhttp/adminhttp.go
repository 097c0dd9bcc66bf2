// Package adminhttp serves the live introspection surface of a running
// saqp server over stdlib net/http: Prometheus metrics, request-scoped
// span trees, prediction drift, engine stats, and net/http/pprof —
// everything needed to answer "why is this query slow right now" against
// a live process instead of a post-mortem dump.
//
// The package deliberately imports only internal/obs and the standard
// library: it reads snapshots through the observability layer's own
// deterministic serialisers and holds no locks of its own, so an admin
// scrape can never perturb serving. All endpoints are read-only GETs.
//
//	/               index of mounted endpoints
//	/metrics        Prometheus text exposition (0.0.4)
//	/spans          span-tree JSON; ?trace=<id> selects one tree
//	/drift          prediction-drift snapshot (live Tables 3-5)
//	/statz          engine stats JSON (when wired)
//	/debug/pprof/   live profiling
package adminhttp

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"saqp/internal/obs"
)

// Config wires the introspection sources. Any nil field unmounts its
// endpoint (it answers 404 with a hint instead).
type Config struct {
	// Metrics backs /metrics.
	Metrics *obs.Registry
	// Spans backs /spans.
	Spans *obs.SpanStore
	// Drift backs /drift.
	Drift *obs.DriftRecorder
	// StatsJSON, when set, backs /statz with an engine-stats document.
	StatsJSON func() ([]byte, error)
}

// indexBody lists the mounted endpoints for humans hitting "/".
const indexBody = `saqp admin endpoints:
  /metrics        Prometheus text exposition
  /spans          request span trees (?trace=<id> for one)
  /drift          prediction drift snapshot
  /statz          serving-engine stats
  /debug/pprof/   live profiling
`

// Handler builds the admin mux for cfg. It is exported separately from
// Start so tests can drive it with net/http/httptest and so callers can
// mount it under their own server.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		send(w, []byte(indexBody))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Metrics == nil {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Metrics.WritePrometheus(w); err != nil {
			// The status line is already committed; the client went away.
			return
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Spans == nil {
			http.Error(w, "no span store configured", http.StatusNotFound)
			return
		}
		if id := r.URL.Query().Get("trace"); id != "" {
			tree, ok := cfg.Spans.Tree(id)
			if !ok {
				http.Error(w, "trace id not retained: "+id, http.StatusNotFound)
				return
			}
			sendJSONValue(w, tree)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := cfg.Spans.WriteJSON(w); err != nil {
			return
		}
	})
	mux.HandleFunc("/drift", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Drift == nil {
			http.Error(w, "no drift recorder configured", http.StatusNotFound)
			return
		}
		b, err := cfg.Drift.SnapshotJSON()
		sendJSON(w, b, err)
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.StatsJSON == nil {
			http.Error(w, "no stats source configured", http.StatusNotFound)
			return
		}
		b, err := cfg.StatsJSON()
		sendJSON(w, b, err)
	})
	// pprof's default registrations go to http.DefaultServeMux; mount
	// explicitly so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// sendJSON writes a marshalled document, mapping a marshal error to 500.
func sendJSON(w http.ResponseWriter, b []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	send(w, b)
	send(w, []byte("\n"))
}

// sendJSONValue marshals one span tree (deterministically — span slices
// are ordered) and writes it.
func sendJSONValue(w http.ResponseWriter, tree obs.SpanTree) {
	b, err := json.MarshalIndent(tree, "", "  ")
	sendJSON(w, b, err)
}

// send writes a fully prepared body; a failed write means the client
// disconnected mid-response and there is no recovery path.
func send(w http.ResponseWriter, b []byte) {
	if _, err := w.Write(b); err != nil {
		return
	}
}

// Server is a running admin endpoint with graceful shutdown.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
	err  error // Serve's exit error; read only after done closes
}

// Start listens on addr (host:port; ":0" picks a free port readable via
// Addr) and serves Handler(cfg) until Shutdown.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	done := s.done
	go func() {
		// Closing done is the join signal Shutdown blocks on.
		defer close(done)
		s.err = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (with ":0" resolved).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's http base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops accepting connections and waits for in-flight requests
// (bounded by ctx), then joins the serve goroutine. The normal
// ErrServerClosed exit is not an error.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err != nil {
		return err
	}
	if s.err != nil && !errors.Is(s.err, http.ErrServerClosed) {
		return s.err
	}
	return nil
}
