package par

import (
	"runtime"
	"sync"
	"testing"
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
