package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Body is a parallel loop: Run(i) does index i's work. A body is usually
// a pointer to the loop's context — what every index reads and the
// result each fills — with Run as its method.
type Body interface{ Run(i int) }

// For calls b.Run(i) once for every i in [0, n) on up to GOMAXPROCS
// workers and returns when every call has. Each worker takes its next
// index from a shared counter, so uneven iterations balance themselves.
// With one worker, or fewer than two indices, the calls run inline, in
// index order.
//
// For hands b to the pool, so a b that is a pointer to a context kept
// on the heap — a field of a scratch its owner keeps — costs nothing: a
// pointer converts to an interface without allocating, and a warm call
// allocates nothing of its own. A context on the caller's stack escapes
// to the heap, one allocation a call.
//
// The workers are the package's helpers, which outlive the call: For
// hands the whole range to the idle ones and waits. When fewer than two
// are idle — a For inside another's body, or several at once — the
// caller takes indices beside them, so a nested For never waits for a
// busy helper.
//
// Run must write only what belongs to index i; anything else two calls
// share must be read-only.
func For(n int, b Body) {
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, n)
	if workers <= 1 {
		for i := range n {
			b.Run(i)
		}
		return
	}
	helpers.run(b, n, workers, procs)
}

// task is one For call's shared state. Tasks are kept on the pool's free
// list between calls, so a call allocates none.
type task struct {
	body Body
	n    int64
	next atomic.Int64 // the next index to take
	wg   sync.WaitGroup
	hs   []*helper // the helpers this call took, handed the task after the pool's lock is released
}

// run takes t's indices until none are left.
func (t *task) run() {
	for i := t.next.Add(1) - 1; i < t.n; i = t.next.Add(1) - 1 {
		t.body.Run(int(i))
	}
}

// helper is one long-lived worker. It waits on its own channel, which
// holds at most the one task a caller hands it while it is idle: a
// helper is idle from when its last task is done, even before it is back
// at its receive, so that send never blocks.
type helper struct{ ch chan *task }

// pool owns every helper. There are at most as many helpers as the
// largest GOMAXPROCS a parallel For has seen; they are started as calls
// first need them and never exit.
type pool struct {
	mu      sync.Mutex
	idle    []*helper
	free    []*task
	started int
}

var helpers pool

// run hands [0, n) to up to workers idle helpers, starting new ones while
// the pool holds fewer than procs, and returns when every index has run.
func (p *pool) run(b Body, n, workers, procs int) {
	p.mu.Lock()
	var t *task
	if k := len(p.free); k > 0 {
		t, p.free = p.free[k-1], p.free[:k-1]
	} else {
		t = new(task)
	}
	k := min(workers, len(p.idle))
	t.hs = append(t.hs[:0], p.idle[len(p.idle)-k:]...)
	p.idle = p.idle[:len(p.idle)-k]
	for ; k < workers && p.started < procs; k++ {
		h := &helper{ch: make(chan *task, 1)}
		p.started++
		go h.loop()
		t.hs = append(t.hs, h)
	}
	p.mu.Unlock()

	t.body, t.n = b, int64(n)
	t.next.Store(0)
	t.wg.Add(len(t.hs))
	for _, h := range t.hs {
		h.ch <- t
	}
	if len(t.hs) < 2 {
		t.run()
	}
	t.wg.Wait()

	t.body = nil
	p.mu.Lock()
	p.idle = append(p.idle, t.hs...)
	p.free = append(p.free, t)
	p.mu.Unlock()
}

// loop runs every task handed to h. The caller puts h back on the idle
// list once the task is done, so a helper takes no lock.
func (h *helper) loop() {
	for t := range h.ch {
		t.run()
		t.wg.Done()
	}
}
