package obs

// Request-scoped tracing: deterministic span trees that tie one served
// submission's full causal chain together — plan-cache lookup, SWRD
// admission, every simulator attempt (jobs, tasks, fault retries,
// scheduler decisions), and the learn feedback.
//
// Determinism contract: trace ids derive from the query fingerprint and
// the engine submission index, timestamps are virtual simulator seconds
// re-based onto a single per-request timeline (attempt k starts where
// attempt k-1 ended), and attributes are ordered slices — so a seeded
// serialized replay serialises byte-identically.
//
// The pieces compose as
//
//	SpanCollector  per simulator attempt, fed by Observer.Emit
//	QuerySpan      per submission, merges collectors under one root
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
	// SpanKindAttempt is one pool-simulator run (1 + fault retries).
	SpanKindAttempt = "attempt"
	// SpanKindJob is one MapReduce job inside an attempt.
	SpanKindJob = "job"
	// SpanKindTask is one task attempt.
	SpanKindTask = "task"
	// SpanKindSched is a scheduler PickJob decision.
	SpanKindSched = "sched"
	// SpanKindFault is an injected fault or recovery event.
	SpanKindFault = "fault"
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

// maxSpanDecisions caps scheduler-decision spans recorded per attempt;
// under heavy queueing PickJob fires per free slot per event and would
// dominate tree size. The uncapped count still reaches the attempt span
// as the sched_decisions attribute.
const maxSpanDecisions = 8

// SpanCollector accumulates one simulator attempt's spans from the
// events Observer.Emit hands it. It is single-goroutine by construction
// (one collector per pool simulator, which is single-threaded) and
// therefore unlocked. Span times are attempt-local until
// QuerySpan.AddAttempt re-bases them onto the request timeline; Parent -1
// marks spans that re-parent onto the attempt span at merge.
type SpanCollector struct {
	spans     []Span
	jobs      map[string]int // job id → open job span index
	decisions int            // uncapped PickJob count
	maxT      float64        // latest event time seen (failed-run duration)
}

// NewSpanCollector returns an empty per-attempt collector.
func NewSpanCollector() *SpanCollector {
	return &SpanCollector{jobs: map[string]int{}}
}

// LastEventSec returns the latest virtual time any span-bearing event
// reported — the attempt's effective duration when the simulated query
// failed and has no response time.
func (c *SpanCollector) LastEventSec() float64 { return c.maxT }

// add records one event as the span its kind's spec describes: a point
// or a range under the attempt or under the event's job, or the opening
// or closing edge of that job's own span (left open — clamped at merge —
// when the run fails mid-job). Scheduler decisions past
// maxSpanDecisions are counted, not stored.
func (c *SpanCollector) add(s *kindSpec, e *Event, attrs []Attr) {
	if e.At > c.maxT {
		c.maxT = e.At
	}
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
	sp := Span{ID: len(c.spans), Parent: -1, Kind: s.span, Name: s.onTree,
		Start: e.At, End: e.At, Attrs: rendered(attrs)}
	if sp.Name == "" {
		sp.Name = e.name(s)
	}
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
// pipeline events (cache, admission, feedback), and one attempt span
// per simulator run with the collector's spans re-based under it.
// It is confined to the goroutine serving the submission.
type QuerySpan struct {
	tree     SpanTree
	offset   float64 // request-timeline position: sum of prior attempt durations
	attempts int
}

// BeginQuerySpan opens a request tree rooted at a SpanKindQuery span.
func BeginQuerySpan(traceID, name string, attrs ...Attr) *QuerySpan {
	q := &QuerySpan{tree: SpanTree{TraceID: traceID}}
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: 0, Parent: -1, Kind: SpanKindQuery, Name: name, Attrs: rendered(attrs),
	})
	return q
}

// Event appends a zero-width child of the root at the current timeline
// position (pipeline stages like cache lookup and admission).
func (q *QuerySpan) Event(kind, name string, attrs ...Attr) {
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: len(q.tree.Spans), Parent: 0, Kind: kind, Name: name,
		Start: q.offset, End: q.offset, Attrs: rendered(attrs),
	})
}

// AddAttempt merges one collector under a new attempt span spanning
// durSec on the request timeline: collector span ids shift past the
// attempt's, roots re-parent onto it, times shift by the timeline
// offset, and still-open job spans clamp to the attempt end (the run
// failed mid-job). The collector must not be reused afterwards.
func (q *QuerySpan) AddAttempt(c *SpanCollector, durSec float64, attrs ...Attr) {
	q.attempts++
	attemptID := len(q.tree.Spans)
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: attemptID, Parent: 0, Kind: SpanKindAttempt,
		Name:  "attempt " + itoa(q.attempts),
		Start: q.offset, End: q.offset + durSec,
		Attrs: rendered(append(attrs, AttrInt("sched_decisions", c.decisions))),
	})
	base := attemptID + 1
	for _, s := range c.spans {
		if s.End < s.Start {
			s.End = durSec // job left open by a failed run
		}
		s.ID += base
		if s.Parent < 0 {
			s.Parent = attemptID
		} else {
			s.Parent += base
		}
		s.Start += q.offset
		s.End += q.offset
		q.tree.Spans = append(q.tree.Spans, s)
	}
	q.offset += durSec
}

// Finish closes the root at the current timeline position, appends the
// outcome attributes, and returns the completed tree.
func (q *QuerySpan) Finish(attrs ...Attr) SpanTree {
	q.tree.Spans[0].End = q.offset
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
