package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// visits is TestForCallsEachIndexOnce's body: each index's visit count.
type visits struct{ seen []int32 }

func (c *visits) Run(i int) { c.seen[i]++ }

// TestForCallsEachIndexOnce runs For inline and on several workers: every
// index is visited exactly once (under -race, two calls on one index are
// a reported race).
func TestForCallsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 8} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := &visits{seen: make([]int32, n)}
				For(n, c)
				for i, v := range c.seen {
					if v != 1 {
						t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, v)
					}
				}
			}()
		}
	}
}

// maxProcs is the largest GOMAXPROCS any test in this package runs For at,
// so the most helpers the package's tests can start.
const maxProcs = 8

// fillOut is the allocation test's body, a pointer to a context on the
// heap as a kept scratch would be.
type fillOut struct{ out [64]int }

func (c *fillOut) Run(i int) { c.out[i] = i }

var sinkCtx = new(fillOut)

// TestForAllocatesNothing: after one warm call, a parallel For whose body
// is a pointer to a heap-resident context allocates nothing — no
// goroutine, no task, no box for the body.
// testing.AllocsPerRun pins GOMAXPROCS to 1, where For runs inline, so
// the count is taken as AllocsPerRun takes it — the mallocs of 100 calls,
// divided by 100 — at the GOMAXPROCS under test. The runtime itself
// allocates now and then (under -race, once in about one batch of 100
// calls in ten), which the division leaves out as AllocsPerRun does.
func TestForAllocatesNothing(t *testing.T) {
	const runs = 100
	for _, procs := range []int{2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			For(len(sinkCtx.out), sinkCtx)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				For(len(sinkCtx.out), sinkCtx)
			}
			runtime.ReadMemStats(&after)
			if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
				t.Errorf("GOMAXPROCS %d: a warm For allocates %d times per call, want 0", procs, n)
			}
			for i, v := range sinkCtx.out {
				if v != i {
					t.Fatalf("GOMAXPROCS %d: index %d holds %d", procs, i, v)
				}
			}
		}()
	}
}

// TestForNestedAndConcurrent runs, at GOMAXPROCS 4, eight goroutines that
// each call For with a body that itself calls For. Every inner index runs
// exactly once, and the whole run ends within a deadline: a nested call
// must not wait for helpers its own caller holds. Afterwards no more
// goroutines are alive than before plus the helpers For may keep, one per
// GOMAXPROCS of the largest it has seen.
func TestForNestedAndConcurrent(t *testing.T) {
	const callers = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before, helpersBefore := runtime.NumGoroutine(), helperCount()
	var seen [callers]nested
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(callers)
		for c := range callers {
			go func() {
				defer wg.Done()
				For(outer, &seen[c])
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("nested and concurrent For calls did not finish in 30 s:\n%s", buf[:runtime.Stack(buf, true)])
	}
	for c := range seen {
		for i := range seen[c].rows {
			for j := range seen[c].rows[i].hits {
				if n := seen[c].rows[i].hits[j].Load(); n != 1 {
					t.Errorf("caller %d, index %d.%d ran %d times", c, i, j, n)
				}
			}
		}
	}
	if h := helperCount(); h > maxProcs {
		t.Errorf("%d helpers alive, want at most %d", h, maxProcs)
	}
	// The callers have returned but may not have exited yet: give them a
	// moment before counting.
	bound := before - helpersBefore + maxProcs
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > bound && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > bound {
		t.Errorf("%d goroutines alive after the calls returned, want at most %d (%d before, %d of them helpers)", n, bound, before, helpersBefore)
	}
}

// nested is one caller's context in TestForNestedAndConcurrent: an inner
// context per outer index, each counting its inner indices' runs.
type nested struct{ rows [outer]innerRow }

type innerRow struct{ hits [inner]atomic.Int32 }

// outer and inner are TestForNestedAndConcurrent's index counts.
const outer, inner = 16, 32

// Run is the outer body: it runs an inner For over its own row.
func (c *nested) Run(i int) { For(len(c.rows[i].hits), &c.rows[i]) }

// Run is the inner body.
func (c *innerRow) Run(j int) { c.hits[j].Add(1) }

// helperCount counts the goroutines parked in or running a helper's loop.
func helperCount() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "par.(*helper).loop(")
}
