package saqp

import (
	"context"
	"encoding/json"
	"time"

	"saqp/internal/learn"
	"saqp/internal/obs"
	"saqp/internal/obs/adminhttp"
	"saqp/internal/serve"
)

// Serving-layer re-exports, so callers stay on the facade.
type (
	// Ticket is a pending Server submission; see Server.Submit.
	Ticket = serve.Ticket
	// ServeResult is one served query's outcome.
	ServeResult = serve.Result
	// ServeStats snapshots a Server's counters.
	ServeStats = serve.Stats
)

// ErrServerClosed is returned by Submit after Close has begun.
var ErrServerClosed = serve.ErrClosed

// ErrQueueFull is returned by Submit when the admission queue already
// holds serve.QueueCap (256) queries waiting for a pool worker.
var ErrQueueFull = serve.ErrQueueFull

// ServerOptions configures a Server. The zero value serves with SWRD
// admission on the paper's default cluster.
type ServerOptions struct {
	// Workers is the simulator pool size. Default 4.
	Workers int
	// CacheSize bounds the plan/estimate cache entry count. Default 256.
	CacheSize int
	// Cluster sizes each pool simulator; the zero value means the
	// paper's 9-node default. Served queries run fault-free: NewServer
	// refuses a Cluster with Faults set (*ClusterConfigError), and
	// SimulateQueryConfig is where a fault plan is replayed.
	Cluster ClusterConfig
	// OnlineLearning enables the model-lifecycle subsystem: the server
	// builds a Learner seeded from the framework's trained models (or
	// cold, if untrained), serves predictions from its champion, and
	// feeds every completed query's observed times back into it.
	OnlineLearning bool
	// Learner, when set, turns online learning on by itself, whatever
	// OnlineLearning says: the server serves from and feeds back into this
	// registry. Nil leaves the choice to OnlineLearning, which builds one
	// via Framework.NewLearner with defaults. Sharing one Learner across
	// servers pools their feedback.
	Learner *Learner
	// TraceSpans records a request-scoped span tree per admitted query:
	// cache lookup → SWRD admission → its simulator run (jobs, tasks,
	// scheduler decisions) → learn feedback, retained in a bounded store
	// (the newest obs.DefaultSpanCapacity trees) readable via Spans and
	// the admin server's /spans endpoint.
	TraceSpans bool
	// AdminAddr, when non-empty, starts the live introspection HTTP
	// server on that address (host:port; ":0" picks a free port) serving
	// /metrics, /spans, /drift, /statz and /debug/pprof. Setting it
	// implies TraceSpans so /spans has substance. The server stops on
	// Close.
	AdminAddr string
}

// Server is the framework's concurrent query-serving engine: submissions
// from any number of goroutines are deduplicated through a single-flight
// plan/estimate cache, ranked by Weighted Resource Demand into an SWRD
// admission queue, and dispatched onto a pool of cluster simulators.
// See internal/serve for the pipeline; Server adds the facade's trained
// models, catalog fingerprinting and admin endpoint.
type Server struct {
	eng     *serve.Engine
	learner *Learner // ServerOptions.Learner, or the registry built for OnlineLearning
	spans   *SpanStore
	admin   *adminhttp.Server
}

// NewServer starts a serving engine over the framework's estimator and
// any trained models (Train/TrainDefault before NewServer to get WRD
// admission ranking and drift accounting; untrained frameworks serve
// FIFO). The engine shares the framework's catalog and models, which are
// read-only after construction, so the framework remains usable
// concurrently.
func (f *Framework) NewServer(opts ServerOptions) (*Server, error) {
	if opts.Learner == nil && opts.OnlineLearning {
		opts.Learner = f.NewLearner(LearnerConfig{})
	}
	// An untyped nil unless a Learner is set: a nil *Learner in the
	// interface would be a non-nil learn.Source and turn learning "on".
	var src learn.Source
	if opts.Learner != nil {
		src = opts.Learner
	}
	// The admin server implies tracing so its /spans endpoint has
	// substance, and needs a metrics registry even when the framework
	// runs unobserved.
	ob := f.Obs
	var spans *SpanStore
	if opts.TraceSpans || opts.AdminAddr != "" {
		spans = obs.NewSpanStore(obs.DefaultSpanCapacity)
	}
	if ob == nil && opts.AdminAddr != "" {
		ob = obs.New(nil)
	}
	eng, err := serve.New(serve.Config{
		Schemas:            f.Schemas,
		Estimator:          f.Estimator,
		CatalogFingerprint: f.statsFingerprint(),
		TaskModel:          f.TaskTime,
		JobModel:           f.JobTime,
		Cluster:            opts.Cluster,
		Workers:            opts.Workers,
		CacheSize:          opts.CacheSize,
		Learner:            src,
		Observer:           ob,
		Spans:              spans,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, learner: opts.Learner, spans: spans}
	if opts.AdminAddr != "" {
		adm, err := adminhttp.Start(opts.AdminAddr, adminhttp.Config{
			Metrics:   ob.Metrics, // ob is never nil here: see above
			Drift:     ob.Drift,
			Spans:     spans,
			StatsJSON: func() ([]byte, error) { return json.MarshalIndent(eng.Stats(), "", "  ") },
		})
		if err != nil {
			_ = eng.Close() //lint:allow saqpvet/errdrop Close never fails; the listen error is the one to surface
			return nil, err
		}
		s.admin = adm
	}
	return s, nil
}

// Learner returns the online model-lifecycle registry this server
// serves from and feeds back into: ServerOptions.Learner, or the one built
// for OnlineLearning. It is nil only when neither was set.
func (s *Server) Learner() *Learner { return s.learner }

// Submit admits one HiveQL query for serving and returns a ticket whose
// Wait delivers the result. ctx governs the submission end to end: cancel
// it and the query is skipped if still queued, aborted if running; a
// deadline on ctx bounds its wall-clock lifetime. seed drives the query's
// hidden ground-truth cost model — a fixed (sql, seed) pair simulates
// identically on every run.
func (s *Server) Submit(ctx context.Context, sql string, seed uint64) (*Ticket, error) {
	return s.eng.Submit(ctx, sql, seed)
}

// Stats snapshots the engine's counters.
func (s *Server) Stats() ServeStats { return s.eng.Stats() }

// Spans returns the request-scoped span store, or nil when tracing is
// off (no TraceSpans option and no admin server).
func (s *Server) Spans() *SpanStore { return s.spans }

// AdminURL returns the admin server's base URL, or "" when no admin
// server is running.
func (s *Server) AdminURL() string {
	if s.admin == nil {
		return ""
	}
	return s.admin.URL()
}

// adminShutdownTimeout bounds how long Close waits for in-flight admin
// requests before tearing the connections down.
const adminShutdownTimeout = 5 * time.Second

// Close stops admissions and drains gracefully: queued and in-flight
// queries complete, the worker pool exits, and the admin server (if
// any) shuts down after its in-flight requests finish.
func (s *Server) Close() error {
	err := s.eng.Close()
	if s.admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), adminShutdownTimeout) //lint:allow saqpvet/ctxleak Close is the facade boundary; the shutdown deadline has no caller context to inherit
		defer cancel()
		if aerr := s.admin.Shutdown(ctx); err == nil {
			err = aerr
		}
		s.admin = nil
	}
	return err
}
