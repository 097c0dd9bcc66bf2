package net

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"saqp/internal/net/proto"
	"saqp/internal/obs"
	"saqp/internal/serve"
)

// fakePending is a hand-resolved ticket.
type fakePending struct {
	id   string
	done chan struct{}
	res  serve.Result
	err  error
}

func (p *fakePending) ID() string { return p.id }

func (p *fakePending) Wait(ctx context.Context) (serve.Result, error) {
	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		return serve.Result{}, ctx.Err()
	}
}

// fakeBackend is a scriptable Backend: it can auto-resolve
// submissions, hold them for manual release, or fail them.
type fakeBackend struct {
	mu        sync.Mutex
	next      int
	hold      bool  // leave tickets unresolved until release
	submitErr error // returned by Submit when set
	completed uint64
	pending   []*fakePending
}

func (b *fakeBackend) Submit(ctx context.Context, sql string, seed uint64) (serve.Pending, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.submitErr != nil {
		return nil, b.submitErr
	}
	b.next++
	p := &fakePending{
		id:   fmt.Sprintf("q%06d", b.next),
		done: make(chan struct{}),
		res:  serve.Result{SimSec: 1.5, Jobs: 1, Maps: 4, SQL: sql},
	}
	p.res.ID = p.id
	if b.hold {
		b.pending = append(b.pending, p)
	} else {
		b.completed++
		close(p.done)
	}
	return p, nil
}

// release resolves every held ticket.
func (b *fakeBackend) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.pending {
		b.completed++
		close(p.done)
	}
	b.pending = nil
}

func (b *fakeBackend) Stats() serve.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return serve.Stats{Completed: b.completed}
}

// startServer boots a frontend on a free port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, *fakeBackend) {
	t.Helper()
	b, ok := cfg.Backend.(*fakeBackend)
	if cfg.Backend == nil {
		b, ok = &fakeBackend{}, true
		cfg.Backend = b
	}
	if !ok {
		t.Fatal("startServer wants a *fakeBackend")
	}
	cfg.Addr = "127.0.0.1:0"
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, b
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestServerCommands(t *testing.T) {
	s, _ := startServer(t, Config{
		Explain:     func(sql string) ([]string, error) { return []string{"plan for " + sql, "2 jobs"}, nil },
		MetricsText: func() ([]byte, error) { return []byte("a 1\nb 2\n"), nil },
	})
	c := dialT(t, s.Addr())

	if err := c.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}
	id, err := c.Submit("SELECT COUNT(*) FROM lineitem", 7)
	if err != nil {
		t.Fatalf("SUBMIT: %v", err)
	}
	if id != "q000001" {
		t.Fatalf("SUBMIT id = %q", id)
	}
	res, err := c.Wait(id)
	if err != nil {
		t.Fatalf("WAIT: %v", err)
	}
	if res.ID != id || res.SimSec != 1.5 || res.Jobs != 1 || res.Maps != 4 {
		t.Fatalf("WAIT result = %+v", res)
	}
	if _, err := c.Wait(id); err == nil {
		t.Fatal("WAIT on a consumed ticket must fail")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS: %v", err)
	}
	if st["completed"] != 1 {
		t.Fatalf("STATS completed = %d, want 1", st["completed"])
	}
	lines, err := c.Explain("SELECT 1")
	if err != nil || len(lines) != 2 || lines[0] != "plan for SELECT 1" {
		t.Fatalf("EXPLAIN = %v, %v", lines, err)
	}
	metrics, err := c.Metrics()
	if err != nil || len(metrics) != 2 || metrics[1] != "b 2" {
		t.Fatalf("METRICS = %v, %v", metrics, err)
	}
	for _, verb := range []string{"NOSUCH", "CLUSTER"} {
		var se *ServerError
		if _, err := c.roundTrip(verb); !errors.As(err, &se) || se.Code != "ERR" || se.Msg != "unknown command '"+verb+"'" {
			t.Fatalf("%s error = %v, want -ERR unknown command", verb, err)
		}
	}
	if err := c.Quit(); err != nil {
		t.Fatalf("QUIT: %v", err)
	}
}

func TestServerInlineRequests(t *testing.T) {
	s, _ := startServer(t, Config{})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	br := bufio.NewReader(conn)
	send := func(line string) proto.Value {
		t.Helper()
		if _, err := io.WriteString(conn, line+"\r\n"); err != nil {
			t.Fatal(err)
		}
		v, err := proto.ReadValue(br, proto.DefaultLimits())
		if err != nil {
			t.Fatalf("reply to %q: %v", line, err)
		}
		return v
	}
	if v := send("ping"); string(proto.AppendValue(nil, v)) != "+PONG\r\n" {
		t.Fatalf("inline ping reply = %+v", v)
	}
	if v := send("SUBMIT SELECT COUNT(*) FROM orders"); string(proto.AppendValue(nil, v)) != "+q000001\r\n" {
		t.Fatalf("inline SUBMIT reply = %+v", v)
	}
	if v := send("WAIT q000001"); v.Kind != proto.KindArray {
		t.Fatalf("inline WAIT reply kind = %c", v.Kind)
	}
}

func TestServerConnectionLimit(t *testing.T) {
	s, _ := startServer(t, Config{MaxConns: 2})
	c1 := dialT(t, s.Addr())
	c2 := dialT(t, s.Addr())
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	// The third connection is refused with -BUSY and closed.
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	br := bufio.NewReader(conn)
	v, err := proto.ReadValue(br, proto.DefaultLimits())
	if err != nil {
		t.Fatalf("refusal frame: %v", err)
	}
	if v.Kind != proto.KindError || !strings.HasPrefix(string(v.Str), "BUSY") {
		t.Fatalf("refusal = %+v, want -BUSY", v)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("refused connection still open: %v", err)
	}
	// Freeing a slot lets a new connection in.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c4, err := Dial(s.Addr())
		if err == nil {
			if err := c4.Ping(); err == nil {
				_ = c4.Close()
				break
			}
			_ = c4.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("connection slot was never released")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerIdleDisconnect(t *testing.T) {
	s, _ := startServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Stay silent: the server must hang up on its own.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("idle connection read = %v, want EOF disconnect", err)
	}
}

// TestServerBusyBackpressure: the engine's bounded admission queue is the
// one queue-depth refusal; the frontend maps its ErrQueueFull to a typed
// -BUSY, admits nothing, and admits again once the engine does.
func TestServerBusyBackpressure(t *testing.T) {
	ob := obs.New(nil)
	b := &fakeBackend{submitErr: serve.ErrQueueFull}
	s, _ := startServer(t, Config{Backend: b, Observer: ob})
	c := dialT(t, s.Addr())

	_, err := c.Submit("SELECT 1", 0)
	var se *ServerError
	if !IsBusy(err) || !errors.As(err, &se) || se.Msg != "admission queue full" {
		t.Fatalf("Submit with ErrQueueFull = %v, want -BUSY admission queue full", err)
	}
	// Clearing the pressure admits again.
	b.mu.Lock()
	b.submitErr = nil
	b.mu.Unlock()
	if _, err := c.Submit("SELECT 1", 0); err != nil {
		t.Fatalf("Submit after pressure cleared: %v", err)
	}
	if n := ob.Metrics.Snapshot().Counters["saqp_net_busy_rejections_total"]; n != 1 {
		t.Fatalf("busy rejections metric = %v, want 1", n)
	}
}

// TestServerPendingLimit: one connection holds MaxPending unwaited
// tickets; the next SUBMIT earns -BUSY, and a WAIT makes room again.
func TestServerPendingLimit(t *testing.T) {
	b := &fakeBackend{hold: true}
	s, _ := startServer(t, Config{Backend: b})
	defer b.release()
	c := dialT(t, s.Addr())
	var first string
	for i := 0; i < MaxPending; i++ {
		id, err := c.Submit("SELECT 1", uint64(i))
		if err != nil {
			t.Fatalf("pending ticket %d of %d: %v", i+1, MaxPending, err)
		}
		if i == 0 {
			first = id
		}
	}
	if _, err := c.Submit("SELECT 1", MaxPending); !IsBusy(err) {
		t.Fatalf("SUBMIT %d past MaxPending = %v, want -BUSY", MaxPending+1, err)
	}
	b.release()
	if _, err := c.Wait(first); err != nil {
		t.Fatalf("WAIT %s: %v", first, err)
	}
	if _, err := c.Submit("SELECT 1", MaxPending+1); err != nil {
		t.Fatalf("SUBMIT after a WAIT freed a slot: %v", err)
	}
}

func TestServerParseErrorCloses(t *testing.T) {
	ob := obs.New(nil)
	s, _ := startServer(t, Config{Observer: ob})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := io.WriteString(conn, "$nonsense\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	v, err := proto.ReadValue(br, proto.DefaultLimits())
	if err != nil {
		t.Fatalf("error frame: %v", err)
	}
	if v.Kind != proto.KindError || !strings.Contains(string(v.Str), "proto") {
		t.Fatalf("parse-error reply = %+v", v)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection survived a parse error: %v", err)
	}
	if n := ob.Metrics.Snapshot().Counters["saqp_net_parse_errors_total"]; n != 1 {
		t.Fatalf("parse errors metric = %v, want 1", n)
	}
}

// TestServerFrameBudgetCloses: a request frame whose payloads together
// pass the per-frame budget (MaxBulk) is a malformed frame like any
// other — answered with -ERR and hung up on — at the header of the
// payload that would pass it, so the server never holds that payload. The
// client sends a 600 KiB bulk and only the header of a second one.
func TestServerFrameBudgetCloses(t *testing.T) {
	s, _ := startServer(t, Config{})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	const n = 600 << 10
	req := proto.AppendValue([]byte("*3\r\n"), proto.BulkString("SUBMIT"))
	req = proto.AppendValue(req, proto.Bulk(bytes.Repeat([]byte{'x'}, n)))
	req = fmt.Appendf(req, "$%d\r\n", n)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	v, err := proto.ReadValue(br, proto.DefaultLimits())
	if err != nil {
		t.Fatalf("error frame: %v", err)
	}
	if v.Kind != proto.KindError || !strings.HasPrefix(string(v.Str), "ERR proto: frame payload exceeds limit") {
		t.Fatalf("over-budget reply = %q, want -ERR proto: frame payload exceeds limit", v.Str)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection survived an over-budget frame: %v", err)
	}
}

// TestServerFrameElementsClose: a request array claiming 1,024 arrays of
// 1,024 empty arrays is refused at its second header — an array inside
// an array, before that array's element slice is made — with -ERR proto,
// and the connection closes. Only the bytes the server reads up to that
// header's marker are sent, so nothing is left unread.
func TestServerFrameElementsClose(t *testing.T) {
	s, _ := startServer(t, Config{})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	lim := proto.DefaultLimits()
	req := []byte("*1024\r\n*")
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	v, err := proto.ReadValue(br, lim)
	if err != nil {
		t.Fatalf("error frame: %v", err)
	}
	if v.Kind != proto.KindError || string(v.Str) != "ERR proto: array inside an array" {
		t.Fatalf("nested-array reply = %q, want -ERR proto: array inside an array", v.Str)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection survived a nested array: %v", err)
	}
}

// TestServerGracefulDrain is the no-lost-completions contract: a WAIT
// in flight when Shutdown begins still delivers its result before the
// connection closes.
func TestServerGracefulDrain(t *testing.T) {
	b := &fakeBackend{hold: true}
	ob := obs.New(nil)
	s, _ := startServer(t, Config{Backend: b, Observer: ob})
	c := dialT(t, s.Addr())
	id, err := c.Submit("SELECT COUNT(*) FROM lineitem", 1)
	if err != nil {
		t.Fatal(err)
	}

	type waitOut struct {
		res serve.Result
		err error
	}
	waited := make(chan waitOut, 1)
	sent := commands(ob)
	go func() {
		res, err := c.Wait(id)
		waited <- waitOut{res, err}
	}()
	// The server counts a command before dispatching it, so one more
	// means the WAIT is on the server, blocking on its ticket.
	for deadline := time.Now().Add(5 * time.Second); commands(ob) <= sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the WAIT never reached the server")
		}
	}

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdown <- s.Shutdown(ctx)
	}()
	// Shutdown must block on the in-flight WAIT, not abandon it.
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned %v with a WAIT still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	b.release()
	out := <-waited
	if out.err != nil {
		t.Fatalf("in-flight WAIT lost its completion: %v", out.err)
	}
	if out.res.ID != id {
		t.Fatalf("drained WAIT result = %+v", out.res)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Post-drain the server accepts nothing new.
	if _, err := Dial(s.Addr()); err == nil {
		t.Fatal("Dial succeeded after Shutdown")
	}
}

// TestServerDrainWithQuietClients races Shutdown against connections
// that have just been served and are about to wait for their next
// request. Each round opens 32 connections that send one PING and then
// go quiet, and begins the drain once half the PINGs have been counted,
// so some handlers are between their reply and their next read. A kick
// that a handler's re-armed idle deadline overwrote would hold Shutdown
// for the full minute of IdleTimeout; a clean drain must return nil
// well inside the 5 s ctx every round.
func TestServerDrainWithQuietClients(t *testing.T) {
	const (
		rounds = 200
		conns  = 32
	)
	for round := 0; round < rounds; round++ {
		ob := obs.New(nil)
		s, err := Start(Config{Addr: "127.0.0.1:0", Backend: &fakeBackend{}, IdleTimeout: time.Minute, Observer: ob})
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]stdnet.Conn, 0, conns)
		for i := 0; i < conns; i++ {
			c, err := stdnet.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		for _, c := range clients {
			if _, err := io.WriteString(c, "PING\r\n"); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); commands(ob) < conns/2; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: only %v of %d PINGs reached the server", round, commands(ob), conns)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		for _, c := range clients {
			_ = c.Close()
		}
		if err != nil {
			t.Errorf("round %d: Shutdown = %v with every client quiet, want nil", round, err)
		}
	}
}

// TestClientCloseUnblocksWait: a Close from another goroutine ends a
// Wait blocked on a ticket that never completes — neither call may hang
// behind the other.
func TestClientCloseUnblocksWait(t *testing.T) {
	ob := obs.New(nil)
	s, _ := startServer(t, Config{Backend: &fakeBackend{hold: true}, Observer: ob})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit("SELECT 1", 1)
	if err != nil {
		t.Fatal(err)
	}
	sent := commands(ob)
	waited := make(chan error, 1)
	go func() {
		_, err := c.Wait(id)
		waited <- err
	}()
	// One more command counted means the WAIT is on the server and the
	// client is blocked reading its reply.
	for deadline := time.Now().Add(5 * time.Second); commands(ob) <= sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the WAIT never reached the server")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind a pending Wait")
	}
	select {
	case err := <-waited:
		if err == nil {
			t.Fatal("Wait on a closed client returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after Close")
	}
}

func TestServerShutdownDeadline(t *testing.T) {
	b := &fakeBackend{hold: true}
	s, _ := startServer(t, Config{Backend: b})
	c := dialT(t, s.Addr())
	id, err := c.Submit("SELECT 1", 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = c.Wait(id) // torn down by the deadline, error expected
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
	b.release()
}

// TestServerGoroutineLeak mirrors serve_stress_test.go: after serving
// traffic and closing, the accept loop and every connection handler
// must be gone.
func TestServerGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := startServer(t, Config{})
	clients := make([]*Client, 8)
	for i := range clients {
		clients[i] = dialT(t, s.Addr())
		id, err := clients[i].Submit("SELECT 1", uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := clients[i].Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		_ = c.Close()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// commands reads the count of wire commands dispatched so far.
func commands(ob *obs.Observer) float64 {
	return ob.Metrics.Snapshot().Counters["saqp_net_commands_total"]
}
