package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls body(c, w, i) once for every i in [0, n) on up to GOMAXPROCS
// workers and returns when every call has. c is the loop's context, the
// one pointer every call shares: what the body reads and the result it
// fills. Each worker owns one zero S and passes it to every call it makes
// — scratch such as a simulator that one worker resets from index to
// index — and takes its next index from a shared counter, so uneven
// iterations balance themselves. With one worker, or fewer than two
// indices, the calls run inline, in index order.
//
// body should be a function declared at top level, which captures
// nothing, so its func value is static, and c should be long-lived — a
// field of a scratch its owner keeps — rather than a variable on the
// caller's stack. For hands both to the pool, so a capturing closure or
// a stack context escapes to the heap: one allocation a call. With a
// static body and a long-lived context, a warm call allocates nothing of
// its own; each worker's S is new to the call, so an S with fields is one
// allocation per worker.
//
// The workers are the package's helpers, which outlive the call: For
// hands the whole range to the idle ones and waits. When fewer than two
// are idle — a For inside another's body, or several at once — the
// caller takes indices beside them, so a nested For never waits for a
// busy helper.
//
// body must write only what belongs to index i (and to w); anything else
// two calls share must be read-only.
func For[C, S any](n int, c *C, body func(c *C, w *S, i int)) {
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, n)
	if workers <= 1 {
		var w S
		for i := range n {
			body(c, &w, i)
		}
		return
	}
	helpers.run(c, forBody[C, S](body), n, workers, procs)
}

// forBody is For's body behind a method, so a task can carry it as a
// runner: a func value and a pointer each convert to an interface
// without allocating, where a struct of the two would be boxed. A
// generic function's value taken inside For would not be static either:
// it closes over For's type dictionary.
type forBody[C, S any] func(c *C, w *S, i int)

// runner is a task's typed body: run takes the task's indices until none
// are left, with the task's context and one zero S of its own.
type runner interface{ run(t *task) }

func (b forBody[C, S]) run(t *task) {
	c := t.c.(*C)
	var w S
	for i := t.next.Add(1) - 1; i < t.n; i = t.next.Add(1) - 1 {
		b(c, &w, int(i))
	}
}

// task is one For call's shared state. Tasks are kept on the pool's free
// list between calls, so a call allocates none.
type task struct {
	c    any // the call's *C
	body runner
	n    int64
	next atomic.Int64 // the next index to take
	wg   sync.WaitGroup
	hs   []*helper // the helpers this call took, handed the task after the pool's lock is released
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
func (p *pool) run(c any, body runner, n, workers, procs int) {
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

	t.c, t.body, t.n = c, body, int64(n)
	t.next.Store(0)
	t.wg.Add(len(t.hs))
	for _, h := range t.hs {
		h.ch <- t
	}
	if len(t.hs) < 2 {
		body.run(t)
	}
	t.wg.Wait()

	t.c, t.body = nil, nil
	p.mu.Lock()
	p.idle = append(p.idle, t.hs...)
	p.free = append(p.free, t)
	p.mu.Unlock()
}

// loop runs every task handed to h. The caller puts h back on the idle
// list once the task is done, so a helper takes no lock.
func (h *helper) loop() {
	for t := range h.ch {
		t.body.run(t)
		t.wg.Done()
	}
}
