package saqp

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saqp/internal/obs"
)

// clusterStressRun drives one full failover scenario: a 4-shard
// cluster under a deterministic plan that crashes shard 0's primary,
// with concurrent submitters racing a sentinel ticker that advances
// exactly ticks heartbeats. Returns the event log and the accounting
// needed for the exactly-once check.
func clusterStressRun(t *testing.T, fw *Framework, queries, submitters, ticks int) (events []byte, clientDone int64, st ServeStats) {
	t.Helper()
	plan := NewFaultPlan(FaultSpec{
		Seed: 11, Nodes: 1, HorizonSec: 40, CrashProb: 1, CrashDowntimeSec: 15,
	})
	cs, err := fw.NewClusterServer(ClusterOptions{
		Shards:        4,
		Workers:       1,
		CacheSize:     16,
		FaultPlan:     plan,
		MissThreshold: 2,
		SentinelSeed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}

	names := TPCHNames()
	mix := make([]string, len(names))
	for i, n := range names {
		sql, err := TPCHSQL(n)
		if err != nil {
			t.Fatal(err)
		}
		mix[i] = sql
	}

	// The sentinel advances exactly `ticks` heartbeats, concurrently
	// with the submitters — the event log must come out identical across
	// runs regardless of how the two interleave.
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for i := 0; i < ticks; i++ {
			cs.Tick()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var done, errs int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < queries; i += submitters {
				sql := mix[i%len(mix)]
				p, err := cs.Submit(ctx, sql, uint64(i))
				if err != nil {
					atomic.AddInt64(&errs, 1)
					continue
				}
				if _, err := p.Wait(ctx); err != nil {
					atomic.AddInt64(&errs, 1)
					continue
				}
				atomic.AddInt64(&done, 1)
			}
		}(w)
	}
	wg.Wait()
	tickWG.Wait()
	if errs != 0 {
		t.Fatalf("%d submissions errored during failover", errs)
	}
	events = cs.EventsJSON()
	st = cs.Stats()
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return events, atomic.LoadInt64(&done), st
}

// TestShardClusterFailoverStress crashes one of four shards mid-run
// while concurrent submitters drive the cluster, and checks the
// tentpole's two contracts: every accepted query completes exactly
// once (client waits == engine completions, nothing lost), and two
// same-seed runs produce byte-identical failover event logs even
// though query traffic races the sentinel.
func TestShardClusterFailoverStress(t *testing.T) {
	fw, err := NewFramework(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		queries    = 160
		submitters = 8
		ticks      = 80
	)
	eventsA, doneA, stA := clusterStressRun(t, fw, queries, submitters, ticks)
	eventsB, doneB, stB := clusterStressRun(t, fw, queries, submitters, ticks)

	// Exactly-once: every client-observed completion is an engine
	// completion and vice versa, with nothing lost to the crash.
	for run, chk := range []struct {
		done int64
		st   ServeStats
	}{{doneA, stA}, {doneB, stB}} {
		if chk.done != int64(queries) {
			t.Fatalf("run %d: %d/%d client completions", run, chk.done, queries)
		}
		if uint64(chk.done) != chk.st.Completed || chk.st.Submitted != chk.st.Completed {
			t.Fatalf("run %d: completion accounting mismatch: client=%d submitted=%d completed=%d",
				run, chk.done, chk.st.Submitted, chk.st.Completed)
		}
		if chk.st.Errors != 0 || chk.st.Canceled != 0 {
			t.Fatalf("run %d: engine errors=%d canceled=%d", run, chk.st.Errors, chk.st.Canceled)
		}
	}

	// The plan must actually have produced a failover, or the test
	// proves nothing.
	if !bytes.Contains(eventsA, []byte(`"kind":"failover"`)) {
		t.Fatalf("no failover in event log:\n%s", eventsA)
	}
	if doneB != doneA {
		t.Fatalf("replays completed different counts: %d vs %d", doneA, doneB)
	}

	// Deterministic replay: the failover history is a pure function of
	// (plan, sentinel config, tick count) — byte-identical across runs.
	if !bytes.Equal(eventsA, eventsB) {
		t.Fatalf("same-seed failover event logs diverged:\n--- run A ---\n%s--- run B ---\n%s", eventsA, eventsB)
	}
}

// TestClusterShutdownCompletesInflightWait is the cluster's drain
// contract: a WAIT in flight on an instance's socket when Shutdown
// begins returns its result, not a cancellation, and Shutdown blocks
// until it has. The waited query sits last in a one-worker queue behind
// a backlog of equals; the backlog grows until the WAIT is observed
// still pending after the drain has begun, so a pass is never vacuous.
func TestClusterShutdownCompletesInflightWait(t *testing.T) {
	fw, err := NewFramework(Options{Observer: NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := TPCHSQL("q17")
	if err != nil {
		t.Fatal(err)
	}
	commands := fw.Obs.Metrics.Counter(obs.MNetCommands)
	eventually := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for backlog := 1000; ; backlog *= 4 {
		if backlog > 64000 {
			t.Fatal("no backlog kept the WAIT in flight until the drain began")
		}
		cs, err := fw.NewClusterServer(ClusterOptions{Shards: 1, Workers: 1, Listen: true})
		if err != nil {
			t.Fatal(err)
		}
		addr := cs.NetAddr(0, ClusterPrimary)
		c, err := DialNet(addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < backlog; i++ {
			if _, err := cs.Submit(context.Background(), sql, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		id, err := c.Submit(sql, 1)
		if err != nil {
			t.Fatal(err)
		}
		type waitOut struct {
			res ServeResult
			err error
		}
		waited := make(chan waitOut, 1)
		sent := commands.Value()
		go func() {
			res, err := c.Wait(id)
			waited <- waitOut{res, err}
		}()
		// The frontend counts a command before dispatching it, so one more
		// means the WAIT is on the server, blocking on its ticket.
		eventually("the WAIT to reach the frontend", func() bool { return commands.Value() > sent })

		shutdown := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			shutdown <- cs.Shutdown(ctx)
		}()
		// A drain's first act is closing the listener.
		eventually("the drain to begin", func() bool {
			probe, err := DialNet(addr)
			if err == nil {
				probe.Close()
			}
			return err != nil
		})
		inflight := true
		select {
		case err := <-shutdown:
			// The backlog drained before the probe dial failed. Shutdown
			// has returned, so the WAIT's reply is written and its client
			// delivers it now or in a moment — with both channels ready
			// select picks at random. That is "not in flight": grow the
			// backlog. Only a reply that never comes is the defect.
			select {
			case out := <-waited:
				waited <- out
			case <-time.After(30 * time.Second):
				t.Fatalf("Shutdown returned %v before the in-flight WAIT", err)
			}
			shutdown <- err
			inflight = false
		case out := <-waited:
			waited <- out
			inflight = false
		default:
		}
		out := <-waited
		if out.err != nil || out.res.ID != id {
			t.Fatalf("WAIT = (%+v, %v), want the result of %s", out.res, out.err, id)
		}
		if err := <-shutdown; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		c.Close()
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		if inflight {
			return
		}
	}
}
