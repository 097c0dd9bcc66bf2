package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCallsEachIndexOnce runs For inline and on several workers: every
// index is visited exactly once, no more states exist than workers, and
// the states' visit counts add up to n — each worker kept its own state
// from call to call (under -race, a shared one is a reported race).
func TestForCallsEachIndexOnce(t *testing.T) {
	type state struct{ visits int }
	for _, procs := range []int{1, 8} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				seen := make([]int32, n)
				var mu sync.Mutex
				var states []*state
				For(n, func(w *state, i int) {
					seen[i]++
					if w.visits == 0 {
						mu.Lock()
						states = append(states, w)
						mu.Unlock()
					}
					w.visits++
				})
				for i, c := range seen {
					if c != 1 {
						t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
					}
				}
				visits := 0
				for _, s := range states {
					visits += s.visits
				}
				if visits != n || len(states) > procs {
					t.Errorf("GOMAXPROCS %d, n %d: %d states with %d visits", procs, n, len(states), visits)
				}
			}()
		}
	}
}

// maxProcs is the largest GOMAXPROCS any test in this package runs For at,
// so the most helpers the package's tests can start.
const maxProcs = 8

// parSink is what the allocation test's non-capturing body writes.
var parSink [64]int

// TestForAllocatesNothing: after one warm call, a parallel For with a
// body that captures nothing allocates nothing — no goroutine, no
// closure, no counter. testing.AllocsPerRun pins GOMAXPROCS to 1, where
// For runs inline, so the count is taken as AllocsPerRun takes it — the
// mallocs of 100 calls, divided by 100 — at the GOMAXPROCS under test.
// The runtime itself allocates now and then (under -race, once in about
// one batch of 100 calls in ten), which the division leaves out as
// AllocsPerRun does.
func TestForAllocatesNothing(t *testing.T) {
	const runs = 100
	body := func(_ *struct{}, i int) { parSink[i] = i }
	for _, procs := range []int{2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			For(len(parSink), body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				For(len(parSink), body)
			}
			runtime.ReadMemStats(&after)
			if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
				t.Errorf("GOMAXPROCS %d: a warm For allocates %d times per call, want 0", procs, n)
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
	const callers, outer, inner = 8, 16, 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before, helpersBefore := runtime.NumGoroutine(), helperCount()
	var seen [callers][outer][inner]atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(callers)
		for c := range callers {
			go func() {
				defer wg.Done()
				For(outer, func(_ *struct{}, i int) {
					For(inner, func(_ *struct{}, j int) { seen[c][i][j].Add(1) })
				})
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
		for i := range seen[c] {
			for j := range seen[c][i] {
				if n := seen[c][i][j].Load(); n != 1 {
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

// helperCount counts the goroutines parked in or running a helper's loop.
func helperCount() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "par.(*helper).loop(")
}
