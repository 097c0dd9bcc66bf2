// Fixture for the lockcheck analyzer: writes to mutex-guarded fields
// from functions that never take the lock must be flagged; locked
// writes, never-guarded fields and local construction must not.
package a

import "sync"

type counter struct {
	mu   sync.Mutex
	n    int
	name string
}

// inc establishes that counter.n is guarded by counter.mu.
func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) reset() {
	c.n = 0 // want `write to counter.n without holding`
}

// name is never written under the lock, so it is not considered guarded.
func (c *counter) setName(s string) {
	c.name = s
}

// Construction before the value escapes is not flagged.
func newCounter() *counter {
	c := &counter{}
	c.n = 7
	return c
}

// Embedded mutexes and the promoted Lock method are recognised.
type gauge struct {
	sync.RWMutex
	v float64
}

func (g *gauge) set(x float64) {
	g.Lock()
	g.v = x
	g.Unlock()
}

func (g *gauge) snapshot() float64 {
	g.RLock()
	defer g.RUnlock()
	return g.v
}

func (g *gauge) bump() {
	g.v++ // want `write to gauge.v without holding`
}

// A reviewed suppression silences the finding.
func (g *gauge) install(x float64) {
	g.v = x //lint:allow saqpvet/lockcheck single-goroutine setup phase
}

// A write inside a guarded field — through a nested struct, a map or
// slice element, or a pointer — is a write to that field.
type stats struct{ retries, failures int }

type engine struct {
	mu    sync.Mutex
	st    stats
	byKey map[string]int
	hist  []stats
	last  *stats
}

// record establishes that st, byKey, hist and last are guarded by mu.
func (e *engine) record(k string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st.retries++
	e.byKey[k] = 1
	e.hist[0].failures = 2
	e.last.retries = 3
}

func (e *engine) retry() {
	e.st.retries++ // want `write to engine.st without holding`
}

func (e *engine) put(k string) {
	e.byKey[k]++ // want `write to engine.byKey without holding`
}

func (e *engine) fail(i int) {
	(e.hist[i]).failures = 1 // want `write to engine.hist without holding`
	(*e.last).retries = 0    // want `write to engine.last without holding`
}

// The nearest mutex struct owns the write: e.inner's own lock guards
// inner.n, whatever the outer struct's mutex is doing.
type outer struct {
	mu    sync.Mutex
	inner *counter
	seen  int
}

func (o *outer) touch() {
	o.mu.Lock()
	o.seen++
	o.mu.Unlock()
	o.inner.mu.Lock()
	o.inner.n++
	o.inner.mu.Unlock()
}

func (o *outer) poke() {
	o.inner.n = 1 // want `write to counter.n without holding`
}
