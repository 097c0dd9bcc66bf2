package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls body(w, i) once for every i in [0, n) on up to GOMAXPROCS
// workers and returns when every call has. Each worker owns one zero S and
// passes it to every call it makes — scratch such as a simulator that one
// worker resets from index to index — and takes its next index from a
// shared counter, so uneven iterations balance themselves. With one
// worker, or fewer than two indices, the calls run inline, in index order.
//
// body must write only what belongs to index i (and to w); anything else
// two calls share must be read-only.
func For[S any](n int, body func(w *S, i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		var w S
		for i := range n {
			body(&w, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			var w S
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				body(&w, i)
			}
		}()
	}
	wg.Wait()
}
