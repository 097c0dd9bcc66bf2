package obs

// Request-scoped tracing: deterministic span trees that tie one served
// submission's full causal chain together — plan-cache lookup, SWRD
// admission, its one simulator run (jobs, tasks, scheduler decisions),
// and the learn feedback.
//
// Determinism contract: trace ids derive from the query fingerprint and
// the engine submission index, timestamps are the run's virtual simulator
// seconds, and attributes are ordered slices — so a seeded serialized
// replay serialises byte-identically.
//
// The pieces compose as
//
//	SpanCollector  per simulator run, fed by Observer.Emit
//	QuerySpan      per submission, merges the run's collector under one root
//	SpanStore      bounded ring of finished trees, JSON + Chrome export

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Span kinds, from root to leaf of a request tree.
const (
	// SpanKindQuery is the root span of one served submission.
	SpanKindQuery = "query"
	// SpanKindCache marks the plan/estimate cache lookup.
	SpanKindCache = "cache"
	// SpanKindAdmission marks SWRD admission-queue entry.
	SpanKindAdmission = "admission"
	// SpanKindRun is the submission's one pool-simulator run.
	SpanKindRun = "run"
	// SpanKindJob is one MapReduce job inside the run.
	SpanKindJob = "job"
	// SpanKindTask is one task attempt.
	SpanKindTask = "task"
	// SpanKindSched is a scheduler PickJob decision.
	SpanKindSched = "sched"
	// SpanKindFeedback marks the learn-registry feedback of observed times.
	SpanKindFeedback = "feedback"
)

// Span is one node of a request-scoped trace tree. IDs index the tree's
// flat span slice; Parent is -1 for the root. Times are virtual seconds
// on the request's merged timeline.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_sec"`
	End    float64 `json:"end_sec"`
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// SpanTree is one submission's complete span record.
type SpanTree struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// TraceID derives the deterministic request trace id: the FNV-64a hash
// of the plan-cache key (serve.CacheKey), joined with the engine-assigned
// submission index. The same query text resubmitted gets a new suffix
// but keeps its fingerprint prefix, so related requests group textually.
func TraceID(cacheKey string, submission uint64) string {
	return fmt.Sprintf("%016x-%06d", FNV64a(cacheKey), submission)
}

// FNV64a returns the 64-bit FNV-1a hash of s — hash/fnv's New64a without
// the hash.Hash64 allocation or the []byte(s) copy. TraceID takes it
// over serve.CacheKey, so one value identifies a query in traces and in
// the plan cache.
//
//saqp:hotpath
func FNV64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// maxSpanDecisions caps scheduler-decision spans recorded per run;
// under heavy queueing PickJob fires per free slot per event and would
// dominate tree size. The uncapped count still reaches the run span
// as the sched_decisions attribute.
const maxSpanDecisions = 8

// SpanCollector accumulates one simulator run's spans from the events
// Observer.Emit hands it. It is single-goroutine by construction (one
// collector per pool simulator, which is single-threaded) and therefore
// unlocked. Parent -1 marks spans that parent onto the run span when
// QuerySpan.AddRun merges them.
type SpanCollector struct {
	spans     []Span
	jobs      map[string]int // job id → open job span index
	decisions int            // uncapped PickJob count
}

// NewSpanCollector returns an empty per-run collector.
func NewSpanCollector() *SpanCollector {
	return &SpanCollector{jobs: map[string]int{}}
}

// add records one event as the span its kind's spec describes: a point
// or a range under the run or under the event's job, or the opening or
// closing edge of that job's own span. Scheduler decisions past
// maxSpanDecisions are counted, not stored.
func (c *SpanCollector) add(s *kindSpec, e *Event, attrs []Attr) {
	if e.Kind == SchedDecision {
		c.decisions++
		if c.decisions > maxSpanDecisions {
			return
		}
	}
	job, open := c.jobs[e.Job]
	if s.form == fClose {
		if open {
			c.spans[job].End = e.At
		}
		return
	}
	sp := Span{ID: len(c.spans), Parent: -1, Kind: s.span, Name: e.name(s),
		Start: e.At, End: e.At, Attrs: rendered(attrs)}
	if s.underJob && open {
		sp.Parent = job
	}
	switch s.form {
	case fRange:
		sp.Start = e.Start
	case fOpen:
		sp.End = -1
		c.jobs[e.Job] = sp.ID
	}
	c.spans = append(c.spans, sp)
}

// QuerySpan builds one submission's tree: a root span, zero-width
// pipeline events (cache, admission, feedback), and one run span with
// the simulator run's collected spans under it. It is confined to the
// goroutine serving the submission.
type QuerySpan struct {
	tree SpanTree
	end  float64 // the run's duration once merged; 0 before
}

// BeginQuerySpan opens a request tree rooted at a SpanKindQuery span.
func BeginQuerySpan(traceID, name string, attrs ...Attr) *QuerySpan {
	q := &QuerySpan{tree: SpanTree{TraceID: traceID}}
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: 0, Parent: -1, Kind: SpanKindQuery, Name: name, Attrs: rendered(attrs),
	})
	return q
}

// Event appends a zero-width child of the root: at 0 before the run is
// merged (cache lookup, admission), at the run's end after (feedback).
func (q *QuerySpan) Event(kind, name string, attrs ...Attr) {
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: len(q.tree.Spans), Parent: 0, Kind: kind, Name: name,
		Start: q.end, End: q.end, Attrs: rendered(attrs),
	})
}

// AddRun merges the run's collector under a run span [0, durSec]:
// collector span ids shift past the run's and its top-level spans parent
// onto it. Call it once per tree; the collector must not be reused
// afterwards.
func (q *QuerySpan) AddRun(c *SpanCollector, durSec float64) {
	runID := len(q.tree.Spans)
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: runID, Parent: 0, Kind: SpanKindRun, Name: "run", End: durSec,
		Attrs: rendered([]Attr{AttrInt("sched_decisions", c.decisions)}),
	})
	base := runID + 1
	for _, s := range c.spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = runID
		} else {
			s.Parent += base
		}
		q.tree.Spans = append(q.tree.Spans, s)
	}
	q.end = durSec
}

// Finish closes the root at the run's end, appends the outcome
// attributes, and returns the completed tree.
func (q *QuerySpan) Finish(attrs ...Attr) SpanTree {
	q.tree.Spans[0].End = q.end
	q.tree.Spans[0].Attrs = append(q.tree.Spans[0].Attrs, rendered(attrs)...)
	return q.tree
}

// DefaultSpanCapacity bounds SpanStore retention when the configured
// capacity is zero or negative.
const DefaultSpanCapacity = 512

// SpanCounts is a SpanStore's lifecycle counters.
type SpanCounts struct {
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	Evicted  uint64 `json:"evicted"`
	Retained int    `json:"retained"`
}

// SpanStore retains finished span trees in a bounded ring (oldest
// evicted first) behind a mutex; the serving engine's pool workers add
// concurrently and the admin endpoint snapshots concurrently.
type SpanStore struct {
	mu       sync.Mutex
	capacity int
	trees    []SpanTree // ring buffer, len == capacity once full
	head     int        // index of the oldest tree
	n        int        // live tree count
	started  uint64
	finished uint64
	evicted  uint64
}

// NewSpanStore returns a store retaining at most capacity trees
// (DefaultSpanCapacity when capacity <= 0).
func NewSpanStore(capacity int) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanStore{capacity: capacity}
}

// Begin counts a request tree opened (admitted submission).
func (s *SpanStore) Begin() {
	s.mu.Lock()
	s.started++
	s.mu.Unlock()
}

// Add retains a finished tree, evicting the oldest at capacity.
func (s *SpanStore) Add(t SpanTree) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished++
	if s.trees == nil {
		s.trees = make([]SpanTree, s.capacity)
	}
	if s.n == s.capacity {
		s.trees[s.head] = t
		s.head = (s.head + 1) % s.capacity
		s.evicted++
		return
	}
	s.trees[(s.head+s.n)%s.capacity] = t
	s.n++
}

// Counts snapshots the lifecycle counters.
func (s *SpanStore) Counts() SpanCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanCounts{Started: s.started, Finished: s.finished, Evicted: s.evicted, Retained: s.n}
}

// Trees returns the retained trees, oldest first.
func (s *SpanStore) Trees() []SpanTree {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.treesLocked()
}

// treesLocked copies the ring in insertion order.
func (s *SpanStore) treesLocked() []SpanTree {
	out := make([]SpanTree, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.trees[(s.head+i)%s.capacity])
	}
	return out
}

// Tree returns the newest retained tree with the given trace id.
func (s *SpanStore) Tree(traceID string) (SpanTree, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := s.n - 1; i >= 0; i-- {
		t := s.trees[(s.head+i)%s.capacity]
		if t.TraceID == traceID {
			return t, true
		}
	}
	return SpanTree{}, false
}

// SpanStoreSnapshot is the JSON form of a store: counters plus every
// retained tree, oldest first.
type SpanStoreSnapshot struct {
	Started  uint64     `json:"started"`
	Finished uint64     `json:"finished"`
	Evicted  uint64     `json:"evicted"`
	Trees    []SpanTree `json:"trees"`
}

// Snapshot copies the store state.
func (s *SpanStore) Snapshot() SpanStoreSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanStoreSnapshot{
		Started: s.started, Finished: s.finished, Evicted: s.evicted,
		Trees: s.treesLocked(),
	}
}

// WriteJSON serialises the snapshot as deterministic indented JSON.
func (s *SpanStore) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteChromeTrace exports every retained tree through the timeline
// renderer as async spans ("b"/"e" pairs keyed by span id), one trace
// process per tree, so overlapping sibling spans render side by side in
// Perfetto. The caller owns the sink lifecycle (Close).
func (s *SpanStore) WriteChromeTrace(ts *TraceSink) {
	for i, tree := range s.Trees() {
		pid := pidSpanBase + i
		ts.meta("process_name", pid, 0, "trace "+tree.TraceID)
		for _, sp := range tree.Spans {
			r := rec{name: sp.Name, cat: sp.Kind, ph: "b", pid: pid, at: sp.Start,
				id: tree.TraceID + ":" + itoa(sp.ID)}
			ts.write(r, append([]Attr{AttrInt("span_id", sp.ID), AttrInt("parent", sp.Parent)}, sp.Attrs...))
			r.ph, r.at = "e", sp.End
			ts.write(r, nil)
		}
	}
}
