package saqp_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saqp"
)

// TestServerStress hammers one saqp.Server from 64 goroutines replaying
// the TPC-H mix (run under `go test -race` in CI). It asserts the
// serving layer's core invariants: no completion is lost or duplicated,
// repeated queries actually hit the plan/estimate cache, and canceled
// contexts never leak a pool worker.
func TestServerStress(t *testing.T) {
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

	const (
		submitters   = 64
		perSubmitter = 4
		total        = submitters * perSubmitter
	)
	var (
		completions int64 // successful Wait returns observed by submitters
		cancels     int64 // cancellations observed by submitters
		wg          sync.WaitGroup
	)
	start := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perSubmitter; i++ {
				n := g*perSubmitter + i
				ctx := context.Background()
				// Every 16th submission races a pre-canceled context
				// through the pipeline: it must be counted as canceled
				// (or complete), never lost, and never leak a worker.
				canceled := n%16 == 0
				if canceled {
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx = c
				}
				tk, err := srv.Submit(ctx, mix[n%len(mix)], uint64(n%len(mix)))
				if err != nil {
					if canceled && errors.Is(err, context.Canceled) {
						atomic.AddInt64(&cancels, 1)
						continue
					}
					t.Errorf("submission %d failed: %v", n, err)
					continue
				}
				if _, err := tk.Wait(context.Background()); err != nil {
					if errors.Is(err, context.Canceled) {
						atomic.AddInt64(&cancels, 1)
						continue
					}
					t.Errorf("wait %d failed: %v", n, err)
					continue
				}
				atomic.AddInt64(&completions, 1)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	st := srv.Stats()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Exactly-once completion accounting: every one of the 256
	// submissions was observed by its submitter as completed or
	// canceled, and the engine's own counters agree.
	if got := completions + cancels; got != total {
		t.Errorf("lost submissions: observed %d of %d", got, total)
	}
	if st.Completed != uint64(completions) {
		t.Errorf("engine counted %d completions, submitters observed %d", st.Completed, completions)
	}
	if st.Rejected != 0 || st.Errors != 0 {
		t.Errorf("unexpected rejections/errors: %+v", st)
	}

	// The mix repeats 7 queries across 256 submissions; the single-flight
	// cache must absorb nearly all of them.
	if hr := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses); hr <= 0.5 {
		t.Errorf("cache hit-rate %.2f under stress, want > 0.5 (%+v)", hr, st)
	}

	// No leaked goroutines: the pool, and any timeout watchers, must be
	// gone after Close. Allow the runtime a few scheduling rounds to
	// retire exiting goroutines.
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

// TestServerQueryTimeout exercises the wall-clock bound a caller puts on
// Submit's ctx: a submission whose deadline has passed must resolve as
// canceled, not hang a pool worker.
func TestServerQueryTimeout(t *testing.T) {
	fw, err := saqp.NewFramework(saqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fw.NewServer(saqp.ServerOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sql, err := saqp.TPCHSQL("q6")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	tk, err := srv.Submit(ctx, sql, 1)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return // expired while joining the cache flight: fine
		}
		t.Fatalf("Submit: %v", err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		// A nanosecond deadline can occasionally lose the race against a
		// fast simulation; accept completion but not other errors.
		if err != nil {
			t.Fatalf("want DeadlineExceeded or success, got %v", err)
		}
	}
	if n := srv.Stats().Inflight; n != 0 {
		t.Fatalf("%d queries still hold a pool worker after Wait returned", n)
	}
}
