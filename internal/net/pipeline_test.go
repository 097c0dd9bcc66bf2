package net

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"strings"
	"testing"
	"time"

	"saqp/internal/net/proto"
	"saqp/internal/serve"
)

// stubPending is a resolved ticket that can be handed out again and
// again, so a backend built on it allocates nothing per submission.
type stubPending struct{ res serve.Result }

func (p *stubPending) ID() string { return p.res.ID }

func (p *stubPending) Wait(context.Context) (serve.Result, error) { return p.res, nil }

// stubBackend admits every submission as its one reusable ticket.
type stubBackend struct{ p stubPending }

func (b *stubBackend) Submit(context.Context, string, uint64) (serve.Pending, error) {
	return &b.p, nil
}

func (b *stubBackend) Stats() serve.Stats { return serve.Stats{} }

// TestWirePairAllocBudget bounds what one SUBMIT + WAIT pair allocates
// across both ends of a loopback connection: a real Server over a stub
// backend that allocates nothing, and a real Client. Measured at 2: the
// server's SQL string (Backend.Submit's argument) and the client's ticket
// id string. Fresh decoding storage per frame costs an element slice
// and a slab per frame: 4 more on the server, 3 more on the client, so
// the budget of measured + 1 fails on either end. (Decoding per frame on
// both ends, with an args slice per request, a seed string and an id
// copy, a pair took 12.)
func TestWirePairAllocBudget(t *testing.T) {
	b := &stubBackend{p: stubPending{res: serve.Result{
		ID: "q000042", CacheHit: true, WRD: 12.5, PredictedSec: 3.25, SimSec: 3.5,
		Jobs: 2, Maps: 24, Reduces: 6, ModelVersion: 1,
	}}}
	s, err := Start(Config{Addr: "127.0.0.1:0", Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	c := dialT(t, s.Addr())
	const sql = "SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag"
	pair := func() {
		id, err := c.Submit(sql, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Wait(id)
		if err != nil || res.ID != id || res.Maps != 24 {
			t.Fatalf("WAIT = %+v, %v", res, err)
		}
	}
	for i := 0; i < 10; i++ { // warm both decoders and the pending map
		pair()
	}
	const budget = 2 + 1
	if n := testing.AllocsPerRun(200, pair); n > budget {
		t.Errorf("a SUBMIT + WAIT pair allocates %.1f times over loopback, budget %d", n, budget)
	}
}

// TestClientErrorIsSticky: a reply that does not decode leaves the
// stream out of step — here a STATS reply whose array header is past
// MaxArray, followed by bytes that look like a reply of their own. Every
// later call must return the same error instead of reading the leftover
// `+PONG` as the answer to a PING.
func TestClientErrorIsSticky(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := proto.ReadValue(br, proto.DefaultLimits()); err != nil {
			served <- err
			return
		}
		if _, err := io.WriteString(conn, "*1025\r\n+PONG\r\n"); err != nil {
			served <- err
			return
		}
		_, err = io.Copy(io.Discard, br) // until the client hangs up
		served <- err
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, first := c.Stats()
	var we *proto.WireError
	if !errors.As(first, &we) || !strings.Contains(first.Error(), "array length 1025 exceeds limit 1024") {
		t.Fatalf("Stats on a 1025-element reply = %v, want the decode error", first)
	}
	if err := c.Ping(); err != first {
		t.Fatalf("Ping after a broken reply = %v, want the sticky %v", err, first)
	}
	if _, err := c.Submit("SELECT 1", 1); err != first {
		t.Fatalf("Submit after a broken reply = %v, want the sticky %v", err, first)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// pipelined writes reqs to a fresh connection in one Write and returns
// the connection and a reader for its replies.
func pipelined(t *testing.T, addr string, reqs []byte) (stdnet.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := stdnet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// TestServerPipelinedSubmitFlood: MaxPending+8 SUBMITs in one write, none
// waited. Exactly MaxPending tickets come back, in submission order, then
// a typed -BUSY for each of the rest.
func TestServerPipelinedSubmitFlood(t *testing.T) {
	b := &fakeBackend{hold: true}
	s, _ := startServer(t, Config{Backend: b})
	defer b.release()
	const extra = 8
	var reqs []byte
	for i := 0; i < MaxPending+extra; i++ {
		reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("SUBMIT"), proto.BulkString("SELECT 1")))
	}
	_, br := pipelined(t, s.Addr(), reqs)
	for i := 0; i < MaxPending+extra; i++ {
		v, err := proto.ReadValue(br, proto.DefaultLimits())
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		want := proto.Simple(fmt.Sprintf("q%06d", i+1))
		if i >= MaxPending {
			want = proto.ErrorValue("BUSY", "pending ticket limit reached; WAIT on earlier submissions first")
		}
		if !v.Equal(want) {
			t.Fatalf("reply %d = %s %q, want %s %q", i+1, string(v.Kind), v.Str, string(want.Kind), want.Str)
		}
	}
}

// TestServerSlowWaitInBatch: a batch whose last request straddles the
// server's read buffer (MaxLine+2 bytes), behind a WAIT held three times
// IdleTimeout. The idle deadline bounds the wait for a request, not the
// time spent answering one: the straddling SUBMIT, read from the socket
// after the WAIT returns, must still be answered.
func TestServerSlowWaitInBatch(t *testing.T) {
	const idle = 100 * time.Millisecond
	b := &fakeBackend{hold: true}
	s, _ := startServer(t, Config{Backend: b, IdleTimeout: idle})
	defer b.release()
	big := "SELECT 1 /* " + strings.Repeat("x", proto.DefaultLimits().MaxLine*2) + " */"
	var reqs []byte
	reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("SUBMIT"), proto.BulkString("SELECT 1")))
	reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("WAIT"), proto.BulkString("q000001")))
	reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("SUBMIT"), proto.BulkString(big)))
	reqs = proto.AppendValue(reqs, proto.Array(proto.BulkString("PING")))
	release := time.AfterFunc(3*idle, b.release)
	defer release.Stop()
	_, br := pipelined(t, s.Addr(), reqs)
	for i, want := range []proto.Kind{proto.KindSimple, proto.KindArray, proto.KindSimple, proto.KindSimple} {
		v, err := proto.ReadValue(br, proto.DefaultLimits())
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		if v.Kind != want {
			t.Fatalf("reply %d = %s %q, want kind %s", i+1, string(v.Kind), v.Str, string(want))
		}
	}
}
