package saqp_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saqp"
	"saqp/internal/net/proto"
	"saqp/internal/predict"
)

// TestServerNetworkStress hammers the TCP frontend with 64 real client
// connections replaying the TPC-H mix (run under `go test -race` via
// `make stress`). It asserts the wire layer's exactly-once contract:
// every submission a client sees accepted is completed and observed by
// exactly one successful WAIT, the engine's own counters agree with the
// client-side tally, a graceful drain loses nothing, and neither the
// frontend nor the engine leaks goroutines afterwards.
func TestServerNetworkStress(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{Observer: saqp.NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	names := saqp.TPCHNames()
	mix := make([]string, len(names))
	for i, n := range names {
		if mix[i], err = saqp.TPCHSQL(n); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	srv, err := fw.NewServer(saqp.ServerOptions{Workers: 8, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := fw.NewNetServer(srv, saqp.NetOptions{
		Addr:     "127.0.0.1:0",
		MaxConns: 80, // headroom over the 64 stress connections
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		conns   = 64
		perConn = 4
		total   = conns * perConn
	)
	var (
		completed int64 // successful WAITs observed client-side
		cacheHits int64 // results flagged cache_hit on the wire
		wg        sync.WaitGroup
	)
	start := make(chan struct{})
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := saqp.DialNet(ns.Addr())
			if err != nil {
				t.Errorf("conn %d: dial: %v", g, err)
				return
			}
			defer cl.Close()
			<-start
			for i := 0; i < perConn; i++ {
				n := g*perConn + i
				// Seeds cycle with the mix so repeated queries share
				// SQL and ground-truth cost: cache hits are real hits.
				sql := mix[n%len(mix)]
				id, err := cl.Submit(sql, uint64(n%len(mix)))
				if err != nil {
					t.Errorf("conn %d: submit: %v", g, err)
					return
				}
				res, err := cl.Wait(id)
				if err != nil {
					t.Errorf("conn %d: wait %s: %v", g, id, err)
					return
				}
				if res.ID != id {
					t.Errorf("conn %d: WAIT %s returned result for %s", g, id, res.ID)
				}
				atomic.AddInt64(&completed, 1)
				if res.CacheHit {
					atomic.AddInt64(&cacheHits, 1)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	// Engine accounting must match the client-side tally exactly: a
	// submission the wire acknowledged but the engine never completed
	// (or completed twice) is a lost or duplicated result.
	st := srv.Stats()
	if completed != total {
		t.Fatalf("client-observed completions = %d, want %d", completed, total)
	}
	if st.Completed != uint64(completed) {
		t.Fatalf("engine completions = %d, client-observed = %d (lost or duplicated results)",
			st.Completed, completed)
	}
	if st.Submitted != uint64(total) || st.Errors != 0 || st.Rejected != 0 || st.Canceled != 0 {
		t.Fatalf("engine accounting: submitted=%d errors=%d rejected=%d canceled=%d, want %d/0/0/0",
			st.Submitted, st.Errors, st.Rejected, st.Canceled, total)
	}
	if cacheHits == 0 {
		t.Fatalf("no cache hits across %d submissions of %d distinct queries", total, len(mix))
	}

	// A graceful drain with no in-flight work must complete promptly
	// and leave nothing running.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ns.Shutdown(ctx); err != nil {
		t.Fatalf("frontend drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before stress, %d after drain", before, runtime.NumGoroutine())
}

// gateCtx holds the pool worker that serves it: a worker looks at a
// ticket's Done before running it, and this Done returns only once gate is
// closed. Submit does not look at Done when it computes the plan itself (a
// cache miss), so only the worker waits.
type gateCtx struct {
	context.Context
	gate chan struct{}
}

func (c gateCtx) Done() <-chan struct{} {
	<-c.gate
	return c.Context.Done()
}

// holdPool starts a one-worker server and holds its worker on a gated
// first submission of sql; the returned release lets it go, and runs on
// cleanup if the test has not called it.
func holdPool(t *testing.T, fw *saqp.Framework, sql string) (*saqp.Server, func()) {
	t.Helper()
	srv, err := fw.NewServer(saqp.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	if _, err := srv.Submit(gateCtx{context.Background(), gate}, sql, 0); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); srv.Stats().Inflight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pool worker never took the gated submission")
		}
	}
	return srv, release
}

// TestNetShutdownCompletesInflightWait is the frontend's drain contract
// over a real engine: a WAIT in flight when Shutdown begins returns its
// result, not a cancellation, and Shutdown blocks until it has. The one
// pool worker is held until the drain has begun, so the waited query is
// still queued then and the pass is never vacuous.
func TestNetShutdownCompletesInflightWait(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{Observer: saqp.NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := saqp.TPCHSQL("q17")
	if err != nil {
		t.Fatal(err)
	}
	commands := func() float64 { return fw.Obs.Metrics.Snapshot().Counters["saqp_net_commands_total"] }
	eventually := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	srv, release := holdPool(t, fw, sql)
	ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := ns.Addr()
	c, err := saqp.DialNet(addr)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(sql, 1)
	if err != nil {
		t.Fatal(err)
	}
	type waitOut struct {
		res saqp.ServeResult
		err error
	}
	waited := make(chan waitOut, 1)
	sent := commands()
	go func() {
		res, err := c.Wait(id)
		waited <- waitOut{res, err}
	}()
	// The frontend counts a command before dispatching it, so one more
	// means the WAIT is on the server, blocking on its ticket.
	eventually("the WAIT to reach the frontend", func() bool { return commands() > sent })

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown <- ns.Shutdown(ctx)
	}()
	// A drain's first act is closing the listener.
	eventually("the drain to begin", func() bool {
		probe, err := saqp.DialNet(addr)
		if err == nil {
			probe.Close()
		}
		return err != nil
	})
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned %v while the WAIT's query was still queued", err)
	case out := <-waited:
		t.Fatalf("WAIT returned (%+v, %v) before its query could run", out.res, out.err)
	default:
	}
	release()
	out := <-waited
	if out.err != nil || out.res.ID != id {
		t.Fatalf("WAIT = (%+v, %v), want the result of %s", out.res, out.err, id)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerQueueFullIsBusy: the engine's admission queue holds 256
// queries (serve.QueueCap). With the one pool worker held, 256
// submissions queue, the 257th is refused with ErrQueueFull, and a SUBMIT
// over the wire is refused with -BUSY admission queue full; once the
// worker is let go every admitted query completes.
func TestServerQueueFullIsBusy(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := saqp.TPCHSQL("q6")
	if err != nil {
		t.Fatal(err)
	}
	srv, release := holdPool(t, fw, sql)
	ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := saqp.DialNet(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 256; i++ {
		if _, err := srv.Submit(context.Background(), sql, uint64(i)); err != nil {
			t.Fatalf("queued submission %d: %v", i, err)
		}
	}
	if _, err := srv.Submit(context.Background(), sql, 257); !errors.Is(err, saqp.ErrQueueFull) {
		t.Fatalf("257th queued submission = %v, want ErrQueueFull", err)
	}
	_, err = c.Submit(sql, 258)
	var se *saqp.NetServerError
	if !saqp.IsNetBusy(err) || !errors.As(err, &se) || se.Msg != "admission queue full" {
		t.Fatalf("SUBMIT over the wire with the queue full = %v, want -BUSY admission queue full", err)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ns.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != 257 || st.Rejected != 2 {
		t.Fatalf("after the drain: %d completed, %d rejected; want 257 and 2", st.Completed, st.Rejected)
	}
}

// TestServerExplainScoresLikeSubmit holds the wire's EXPLAIN to the
// server behind it: the predicted_sec/wrd line it prints is what a
// SUBMIT of the same text is admitted with — on that server's cluster
// shape, from its learner's champion when it has one — not what the
// framework's static model says about the default cluster.
func TestServerExplainScoresLikeSubmit(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{ScaleFactor: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.TrainDefault(); err != nil {
		t.Fatal(err)
	}
	sql, err := saqp.TPCHSQL("q3")
	if err != nil {
		t.Fatal(err)
	}
	// A champion no static model agrees with: every map task twice as slow.
	slow := *fw.TaskTime
	slow.Map.PerOp = nil
	slow.Map.Pooled = &predict.Model{Theta: append([]float64(nil), fw.TaskTime.Map.Pooled.Theta...)}
	for i := range slow.Map.Pooled.Theta {
		slow.Map.Pooled.Theta[i] *= 2
	}
	for _, tc := range []struct {
		name string
		opts saqp.ServerOptions
	}{
		{"cluster shape", saqp.ServerOptions{Cluster: saqp.ClusterConfig{Nodes: 3}}},
		{"champion", saqp.ServerOptions{Learner: fw.NewLearner(
			saqp.LearnerConfig{Champion: fw.JobTime, ChampionTasks: &slow})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := fw.NewServer(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer ns.Close()
			cl, err := saqp.DialNet(ns.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			lines, err := cl.Explain(sql)
			if err != nil {
				t.Fatal(err)
			}
			id, err := cl.Submit(sql, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("predicted_sec=%.3f wrd=%.3f", res.PredictedSec, res.WRD)
			if got := lines[len(lines)-1]; got != want {
				t.Fatalf("EXPLAIN says %q, the same text was admitted with %q", got, want)
			}
			static, err := fw.PredictQuerySeconds(mustEstimate(t, fw, sql))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%.3f", static) == fmt.Sprintf("%.3f", res.PredictedSec) {
				t.Fatalf("the case does not discriminate: static default-cluster score %.3f equals the server's", static)
			}
		})
	}
}

// lineitemSelfJoin is a COUNT over lineitem joined to itself on
// l_orderkey n−1 times: each level multiplies the estimated rows about
// twentyfold, so its task count passes any bound at a small n.
func lineitemSelfJoin(n int) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM lineitem l0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, " JOIN lineitem l%d ON l%d.l_orderkey = l%d.l_orderkey", i, i-1, i)
	}
	return b.String()
}

// TestServerTaskBoundOverWire: a SUBMIT whose plan needs more simulated
// tasks than cluster.MaxQueryTasks (a 16- or 32-way lineitem self-join,
// about 4·10⁹ and 8·10¹⁸ tasks) gets -ERR naming the bound instead of
// sizing a task slab past memory, and the connection serves the next
// SUBMIT. The refusal is cached, so a repeat is a hit; EXPLAIN still
// explains the text, and SimulateQuery refuses it with the typed error.
func TestServerTaskBoundOverWire(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fw.NewServer(saqp.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	cl, err := saqp.DialNet(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q6, err := saqp.TPCHSQL("q6")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 32} {
		sql := lineitemSelfJoin(n)
		for try := 0; try < 2; try++ {
			_, err := cl.Submit(sql, 1)
			var se *saqp.NetServerError
			if !errors.As(err, &se) || se.Code != "ERR" || !strings.Contains(se.Msg, "task bound") {
				t.Fatalf("%d-way self-join, SUBMIT %d: err = %v, want -ERR naming the task bound", n, try+1, err)
			}
			id, err := cl.Submit(q6, uint64(n+try))
			if err != nil {
				t.Fatalf("SUBMIT after the refusal: %v", err)
			}
			if _, err := cl.Wait(id); err != nil {
				t.Fatalf("WAIT after the refusal: %v", err)
			}
		}
		if _, err := cl.Explain(sql); err != nil {
			t.Errorf("EXPLAIN of the %d-way self-join: %v", n, err)
		}
		var tb *saqp.TaskBoundError
		if _, err := fw.SimulateQuery("deep", mustEstimate(t, fw, sql), saqp.SchedulerSWRD, 1); !errors.As(err, &tb) {
			t.Errorf("SimulateQuery of the %d-way self-join: err = %v, want a *TaskBoundError", n, err)
		}
	}
	// Per text: the first SUBMIT misses and is refused, the second hits
	// the cached refusal; q6 misses once, then hits three times.
	if st := srv.Stats(); st.Errors != 4 || st.Completed != 4 || st.CacheMisses != 3 || st.CacheHits != 5 {
		t.Errorf("stats: %d errors, %d completed, %d misses, %d hits; want 4 4 3 5",
			st.Errors, st.Completed, st.CacheMisses, st.CacheHits)
	}
}

// mustEstimate compiles and estimates one query on the framework.
func mustEstimate(t *testing.T, fw *saqp.Framework, sql string) *saqp.QueryEstimate {
	t.Helper()
	d, err := fw.Compile(sql)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := fw.Estimate(d)
	if err != nil {
		t.Fatal(err)
	}
	return qe
}

// TestNetHalfReadBatch: a client pipelines SUBMIT/WAIT pairs over a real
// engine in one write, reads a few replies and hangs up. Every admitted
// query still runs to completion — the engine's Inflight and queue depth
// return to 0 — the connection's handler goes, and Shutdown finds
// nothing left to wait for.
func TestNetHalfReadBatch(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{Observer: saqp.NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := saqp.TPCHSQL("q6")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	srv, err := fw.NewServer(saqp.ServerOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := fw.NewNetServer(srv, saqp.NetOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	const pairs, read = 32, 5
	var reqs []byte
	for i := 1; i <= pairs; i++ {
		reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("SUBMIT"), proto.BulkString(sql)))
		reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("WAIT"), proto.BulkString(fmt.Sprintf("q%06d", i))))
	}
	conn, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < read; i++ {
		if _, err := proto.ReadValue(br, proto.DefaultLimits()); err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	settled := func() bool {
		st := srv.Stats()
		active := fw.Obs.Metrics.Snapshot().Gauges["saqp_net_connections_active"]
		return st.Inflight == 0 && st.QueueDepth == 0 && st.Completed == st.Submitted && active == 0
	}
	for deadline := time.Now().Add(30 * time.Second); !settled(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after the client hung up: stats %+v", srv.Stats())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ns.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
