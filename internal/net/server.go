package net

import (
	"bufio"
	"context"
	"errors"
	stdnet "net"
	"strconv"
	"strings"
	"sync"
	"time"

	"saqp/internal/net/proto"
	"saqp/internal/obs"
	"saqp/internal/serve"
)

// Connection-lifecycle bounds: two Config defaults, then two fixed ones.
const (
	DefaultMaxConns    = 64
	DefaultIdleTimeout = 2 * time.Minute
	// MaxPending bounds one connection's submitted-but-unwaited tickets;
	// beyond it SUBMIT earns -BUSY.
	MaxPending = 64
	// writeTimeout bounds flushing one reply.
	writeTimeout = 30 * time.Second
)

// Config configures a Server. Backend is required; every other zero
// field takes the package default.
type Config struct {
	// Addr is the TCP listen address (host:port; ":0" picks a free
	// port).
	Addr string
	// Backend is the serving engine commands dispatch into: the facade
	// passes a saqp.Server behind its one adapter, which only narrows
	// Submit's *Ticket to serve.Pending. Required. The frontend cannot
	// close it: the engine outlives Shutdown so in-flight queries drain.
	Backend serve.Backend
	// MaxConns bounds concurrently served connections; beyond it an
	// accept earns `-BUSY connection limit reached` and an immediate
	// close. Default DefaultMaxConns.
	MaxConns int
	// IdleTimeout is the per-connection read deadline between requests;
	// a client silent for longer is disconnected. Default
	// DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Explain, when set, serves the EXPLAIN command: it returns the
	// compiled plan description of one query, one line per list entry.
	Explain func(sql string) ([]string, error)
	// MetricsText, when set, serves the METRICS command with a textual
	// metrics dump.
	MetricsText func() ([]byte, error)
	// Observer records connection and command metrics; nil disables.
	Observer *obs.Observer
}

// Server is the TCP frontend: an accept loop plus one goroutine per
// connection, each running read → dispatch → reply under deadlines.
type Server struct {
	cfg Config
	ln  stdnet.Listener
	ob  *obs.Observer

	ctx    context.Context // root of every per-connection submission
	cancel context.CancelFunc

	wg sync.WaitGroup // accept loop + connection handlers

	mu       sync.Mutex
	conns    map[stdnet.Conn]struct{}
	draining bool
	closed   bool
}

// Start listens on cfg.Addr and serves until Shutdown or Close.
func Start(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, errors.New("net: Config.Backend is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	ln, err := stdnet.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow saqpvet/ctxleak the listener is the connection root; per-conn submissions have no caller context to inherit
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		ob:     cfg.Observer,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[stdnet.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (resolving ":0" to the picked
// port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains gracefully: the listener closes, idle connections
// are kicked, in-flight commands complete and flush, and new
// connections and submissions are refused. When ctx expires first the
// remaining connections are torn down and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close tears the server down immediately: listener and connections
// close and in-flight submissions are canceled.
func (s *Server) Close() error {
	s.beginDrain()
	s.cancel()
	s.closeConns()
	s.wg.Wait()
	return nil
}

// beginDrain stops the accept loop and kicks connections blocked
// between requests, leaving in-flight commands to finish.
func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.draining = true
	_ = s.ln.Close() //lint:allow saqpvet/errdrop a close race with the accept loop is benign; Accept observes it either way
	past := time.Unix(1, 0)
	for c := range s.conns {
		_ = c.SetReadDeadline(past) //lint:allow saqpvet/errdrop kicking an already-dead connection is the desired outcome
	}
}

// closeConns force-closes every live connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close() //lint:allow saqpvet/errdrop force-close races the handler's own close; either winning is fine
	}
}

// armRead sets c's idle read deadline for the next request; false means
// a drain or close has begun and c should hang up. Check and arm are one
// critical section with beginDrain's kick: armed outside s.mu, the idle
// deadline could overwrite a kick that landed between the two, and a
// quiet client would then hold Shutdown until its ctx expired.
func (s *Server) armRead(c stdnet.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) == nil
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.register(c) {
			s.ob.Count(obs.MNetConnsRejected)
			s.refuse(c)
			continue
		}
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		s.ob.Count(obs.MNetConnsAccepted)
		s.ob.Set(obs.MNetConnsActive, float64(n))
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// register admits c under the connection limit; false refuses it.
func (s *Server) register(c stdnet.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

// unregister removes and closes a served connection.
func (s *Server) unregister(c stdnet.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	n := len(s.conns)
	s.mu.Unlock()
	_ = c.Close() //lint:allow saqpvet/errdrop the handler owns the close; a drain/force-close racing it is benign
	s.ob.Count(obs.MNetConnsClosed)
	s.ob.Set(obs.MNetConnsActive, float64(n))
}

// refuse replies -BUSY to an over-limit connection and closes it.
func (s *Server) refuse(c stdnet.Conn) {
	if err := c.SetWriteDeadline(time.Now().Add(writeTimeout)); err == nil {
		_, _ = c.Write([]byte("-BUSY connection limit reached\r\n")) //lint:allow saqpvet/errdrop the refusal reply is best-effort; the close below is the real outcome
	}
	_ = c.Close() //lint:allow saqpvet/errdrop nothing to do about a close error on a refused connection
}

// serveConn runs one connection's read → dispatch → reply loop: it arms
// the idle deadline before every request and flushes after every reply,
// so a pipelined batch is answered in order, one write per command. One
// decoder and one args slice serve every request of the connection.
func (s *Server) serveConn(c stdnet.Conn) {
	defer s.wg.Done()
	defer s.unregister(c)
	lim := proto.DefaultLimits()
	br := bufio.NewReaderSize(c, lim.MaxLine+2)
	bw := bufio.NewWriter(c)
	enc := proto.NewEncoder(bw)
	dec := proto.NewDecoder(br, lim)
	var args [][]byte
	pending := make(map[string]serve.Pending)
	for {
		if !s.armRead(c) {
			return
		}
		var err error
		if args, err = readRequest(br, dec, lim, args[:0]); err != nil {
			var we *proto.WireError
			if errors.As(err, &we) {
				// Malformed frame: answer, then hang up — resync on a
				// corrupt stream is guesswork.
				s.ob.Count(obs.MNetParseErrors)
				enc.Error("ERR", proto.Sanitize(we.Error()))
				s.flush(c, enc)
			}
			return
		}
		if len(args) == 0 {
			continue // blank inline line
		}
		s.ob.Count(obs.MNetCommands)
		quit := s.dispatch(s.ctx, enc, pending, args)
		if !s.flush(c, enc) || quit {
			return
		}
	}
}

// flush drains the reply buffer under the write deadline; false means
// the connection is beyond saving.
func (s *Server) flush(c stdnet.Conn, enc *proto.Encoder) bool {
	if err := c.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return false
	}
	return enc.Flush() == nil
}

// readRequest reads one request in either wire form, an array of bulk
// strings or an inline CRLF-terminated line, into args. An array's
// arguments alias dec's storage: valid until its next Read.
func readRequest(br *bufio.Reader, dec *proto.Decoder, lim proto.Limits, args [][]byte) ([][]byte, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	switch proto.Kind(first[0]) {
	case proto.KindArray:
		v, err := dec.Read()
		if err != nil {
			return nil, err
		}
		for _, el := range v.Elems {
			switch el.Kind {
			case proto.KindBulk, proto.KindSimple:
				args = append(args, el.Str)
			case proto.KindInt:
				args = append(args, strconv.AppendInt(nil, el.Int, 10))
			default:
				return nil, proto.NewWireError("request array elements must be bulk strings")
			}
		}
		return args, nil
	case proto.KindSimple, proto.KindError, proto.KindInt, proto.KindBulk:
		return nil, proto.NewWireError("request must be an array of bulk strings or an inline line")
	default:
		return proto.ReadInline(br, lim)
	}
}

// dispatch executes one command and encodes its reply; true means the
// client asked to QUIT.
func (s *Server) dispatch(ctx context.Context, enc *proto.Encoder, pending map[string]serve.Pending, args [][]byte) bool {
	switch verb := strings.ToUpper(string(args[0])); verb {
	case "PING":
		enc.Simple("PONG")
	case "QUIT":
		enc.Simple("OK")
		return true
	case "SUBMIT":
		s.cmdSubmit(ctx, enc, pending, args)
	case "WAIT":
		s.cmdWait(ctx, enc, pending, args)
	case "STATS":
		writeStats(enc, s.cfg.Backend.Stats())
	case "EXPLAIN":
		s.cmdExplain(enc, args)
	case "METRICS":
		s.cmdMetrics(enc)
	default:
		s.ob.Count(obs.MNetUnknownCmds)
		enc.Error("ERR", "unknown command '"+proto.Sanitize(verb)+"'")
	}
	return false
}

// cmdSubmit admits one query: -BUSY past the connection's MaxPending, and
// -BUSY when the engine's bounded admission queue refuses it.
func (s *Server) cmdSubmit(ctx context.Context, enc *proto.Encoder, pending map[string]serve.Pending, args [][]byte) {
	if len(args) < 2 || len(args) > 3 {
		enc.Error("ERR", "SUBMIT requires a query and an optional seed")
		return
	}
	var seed uint64
	if len(args) == 3 {
		var err error
		seed, err = strconv.ParseUint(string(args[2]), 10, 64)
		if err != nil {
			enc.Error("ERR", "bad seed '"+proto.Sanitize(string(args[2]))+"'")
			return
		}
	}
	if len(pending) >= MaxPending {
		s.ob.Count(obs.MNetBusyRejections)
		enc.Error("BUSY", "pending ticket limit reached; WAIT on earlier submissions first")
		return
	}
	p, err := s.cfg.Backend.Submit(ctx, string(args[1]), seed)
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		s.ob.Count(obs.MNetBusyRejections)
		enc.Error("BUSY", "admission queue full")
	case errors.Is(err, serve.ErrClosed):
		enc.Error("ERR", "server closing")
	case err != nil:
		enc.Error("ERR", proto.Sanitize(err.Error()))
	default:
		pending[p.ID()] = p
		enc.Simple(p.ID())
	}
}

// cmdWait blocks on one pending ticket and encodes its result.
func (s *Server) cmdWait(ctx context.Context, enc *proto.Encoder, pending map[string]serve.Pending, args [][]byte) {
	if len(args) != 2 {
		enc.Error("ERR", "WAIT requires a ticket id")
		return
	}
	p, ok := pending[string(args[1])]
	if !ok {
		enc.Error("ERR", "unknown ticket '"+proto.Sanitize(string(args[1]))+"'")
		return
	}
	res, err := p.Wait(ctx)
	delete(pending, p.ID())
	if err != nil {
		enc.Error("ERR", proto.Sanitize(err.Error()))
		return
	}
	writeResult(enc, res)
}

// cmdExplain serves the compiled plan description of one query.
func (s *Server) cmdExplain(enc *proto.Encoder, args [][]byte) {
	if s.cfg.Explain == nil {
		enc.Error("ERR", "EXPLAIN not supported by this server")
		return
	}
	if len(args) != 2 {
		enc.Error("ERR", "EXPLAIN requires a query")
		return
	}
	lines, err := s.cfg.Explain(string(args[1]))
	if err != nil {
		enc.Error("ERR", proto.Sanitize(err.Error()))
		return
	}
	enc.Array(len(lines))
	for _, l := range lines {
		enc.BulkString(l)
	}
}

// cmdMetrics dumps the metrics registry, one bulk frame per line.
func (s *Server) cmdMetrics(enc *proto.Encoder) {
	if s.cfg.MetricsText == nil {
		enc.Error("ERR", "METRICS not supported by this server")
		return
	}
	text, err := s.cfg.MetricsText()
	if err != nil {
		enc.Error("ERR", proto.Sanitize(err.Error()))
		return
	}
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	enc.Array(len(lines))
	for _, l := range lines {
		enc.BulkString(l)
	}
}

// resultFloatPrec fixes WAIT's float formatting so equal results
// always serialize to equal bytes (the golden-transcript contract).
const resultFloatPrec = 3

// writeResult encodes one completed query as a flat name/value array.
// The field order is fixed — golden transcripts depend on it.
func writeResult(enc *proto.Encoder, r serve.Result) {
	enc.Array(18)
	enc.BulkString("id")
	enc.BulkString(r.ID)
	enc.BulkString("cache_hit")
	enc.Int(boolInt(r.CacheHit))
	enc.BulkString("wrd")
	enc.BulkFloat(r.WRD, resultFloatPrec)
	enc.BulkString("predicted_sec")
	enc.BulkFloat(r.PredictedSec, resultFloatPrec)
	enc.BulkString("sim_sec")
	enc.BulkFloat(r.SimSec, resultFloatPrec)
	enc.BulkString("jobs")
	enc.Int(int64(r.Jobs))
	enc.BulkString("maps")
	enc.Int(int64(r.Maps))
	enc.BulkString("reduces")
	enc.Int(int64(r.Reduces))
	enc.BulkString("model_version")
	enc.Int(int64(r.ModelVersion))
}

// writeStats encodes the engine counters as a flat name/value array,
// in fixed order.
func writeStats(enc *proto.Encoder, st serve.Stats) {
	enc.Array(24)
	enc.BulkString("submitted")
	enc.Int(int64(st.Submitted))
	enc.BulkString("completed")
	enc.Int(int64(st.Completed))
	enc.BulkString("canceled")
	enc.Int(int64(st.Canceled))
	enc.BulkString("rejected")
	enc.Int(int64(st.Rejected))
	enc.BulkString("errors")
	enc.Int(int64(st.Errors))
	enc.BulkString("cache_hits")
	enc.Int(int64(st.CacheHits))
	enc.BulkString("cache_misses")
	enc.Int(int64(st.CacheMisses))
	enc.BulkString("cache_evictions")
	enc.Int(int64(st.CacheEvictions))
	enc.BulkString("cache_entries")
	enc.Int(int64(st.CacheEntries))
	enc.BulkString("queue_depth")
	enc.Int(int64(st.QueueDepth))
	enc.BulkString("inflight")
	enc.Int(int64(st.Inflight))
	enc.BulkString("workers")
	enc.Int(int64(st.Workers))
}

// boolInt encodes a flag as the wire's 0/1 integer.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
