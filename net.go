package saqp

import (
	"bytes"
	"context"
	"fmt"

	"saqp/internal/net"
	"saqp/internal/serve"
)

// Network-frontend re-exports, so callers stay on the facade.
type (
	// NetServer is the TCP query frontend; see Framework.NewNetServer.
	NetServer = net.Server
	// NetClient is the blocking wire client; see DialNet.
	NetClient = net.Client
	// NetServerError is a typed error frame from a NetServer.
	NetServerError = net.ServerError
)

// NetOptions configures a NetServer over an existing Server.
type NetOptions struct {
	// Addr is the TCP listen address (host:port; ":0" picks a free
	// port).
	Addr string
	// MaxConns bounds concurrently served connections (0 means the
	// package default).
	MaxConns int
}

// backend is the facade's one adapter: *Server as a serve.Backend, for
// the TCP frontend. Stats is Server's own;
// Submit exists only because Go's return types are invariant —
// Server.Submit returns the concrete *Ticket its callers use, the seam
// wants a serve.Pending.
type backend struct{ *Server }

// Submit admits one query through the facade server.
func (b backend) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	t, err := b.Server.Submit(ctx, sql, seed)
	if err != nil {
		// Returned as an untyped nil: a nil *Ticket in the interface
		// would read as a non-nil Pending.
		return nil, err
	}
	return t, nil
}

// NewNetServer starts the TCP query frontend over srv: a RESP-style
// protocol speaking SUBMIT / WAIT / STATS / EXPLAIN / METRICS / PING /
// QUIT (see internal/net). EXPLAIN compiles and estimates against this
// framework; METRICS dumps the framework's observer registry. The
// frontend drains via NetServer.Shutdown — close srv only after that
// returns, so in-flight queries keep their engine.
func (f *Framework) NewNetServer(srv *Server, opts NetOptions) (*NetServer, error) {
	return net.Start(net.Config{
		Addr:        opts.Addr,
		Backend:     backend{srv},
		MaxConns:    opts.MaxConns,
		Explain:     func(sql string) ([]string, error) { return f.explainLines(srv, sql) },
		MetricsText: f.metricsText,
		Observer:    f.Obs,
	})
}

// DialNet connects a wire client to a NetServer at addr.
func DialNet(addr string) (*NetClient, error) { return net.Dial(addr) }

// IsNetBusy reports whether err is a NetServer's typed -BUSY
// backpressure refusal.
func IsNetBusy(err error) bool { return net.IsBusy(err) }

// explainLines serves the wire EXPLAIN command: compile + estimate,
// one line per job, then the predicted time and WRD a SUBMIT of the same
// text to srv would be admitted with right now (serve.Engine.Score: srv's
// cluster shape, its learner's champion when there is one) — printed
// exactly when srv has a task model to score with. Floats use fixed
// precision so repeated EXPLAINs are byte-stable.
func (f *Framework) explainLines(srv *Server, sql string) ([]string, error) {
	d, err := f.Compile(sql)
	if err != nil {
		return nil, err
	}
	qe, err := f.Estimate(d)
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(qe.Jobs)+2)
	lines = append(lines, fmt.Sprintf("plan: %d jobs, est input %.0f bytes",
		len(qe.Jobs), qe.TotalInputBytes()))
	for _, je := range qe.Jobs {
		lines = append(lines, fmt.Sprintf(
			"%s %s: maps=%d reduces=%d d_in=%.0f d_med=%.0f d_out=%.0f is=%.3f fs=%.3f p=%.3f",
			je.Job.ID, je.Job.Type, je.NumMaps, je.NumReduces,
			je.InBytes, je.MedBytes, je.OutBytes, je.IS, je.FS, je.P))
	}
	if wrd, pred, _, ok := srv.eng.Score(qe); ok {
		lines = append(lines, fmt.Sprintf("predicted_sec=%.3f wrd=%.3f", pred, wrd))
	}
	return lines, nil
}

// metricsText serves the wire METRICS command with the observer
// registry in Prometheus text exposition format.
func (f *Framework) metricsText() ([]byte, error) {
	if f.Obs == nil || f.Obs.Metrics == nil {
		return []byte("# no observer attached"), nil
	}
	var buf bytes.Buffer
	if err := f.Obs.Metrics.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
