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
//	QuerySpan  per submission: one tree, its run's spans appended in place
//	           by Observer.Emit
//	SpanStore  bounded ring of finished trees, JSON export

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"saqp/internal/sim"
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
	return fmt.Sprintf("%016x-%06d", sim.FNV64a(cacheKey), submission)
}

// maxSpanDecisions caps scheduler-decision spans recorded per run;
// under heavy queueing PickJob fires per free slot per event and would
// dominate tree size. The uncapped count still reaches the run span
// as the sched_decisions attribute.
const maxSpanDecisions = 8

// QuerySpan builds one submission's tree in place: a root span,
// zero-width pipeline events (cache, admission, feedback), and one run
// span whose jobs, tasks and scheduler decisions Observer.Emit appends
// with their final ids and parents. It is confined to the goroutine
// serving the submission (the pool simulator is single-threaded).
type QuerySpan struct {
	tree      SpanTree
	run       int            // the run span's id; 0 before BeginRun
	jobs      map[string]int // job id → open job span id
	decisions int            // uncapped PickJob count
	end       float64        // the run's duration once ended; 0 before
}

// BeginQuerySpan opens a request tree rooted at a SpanKindQuery span.
func BeginQuerySpan(traceID, name string, attrs ...Attr) *QuerySpan {
	q := &QuerySpan{tree: SpanTree{TraceID: traceID}}
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: 0, Parent: -1, Kind: SpanKindQuery, Name: name, Attrs: rendered(attrs),
	})
	return q
}

// Event appends a zero-width child of the root: at 0 before the run has
// ended (cache lookup, admission), at the run's end after (feedback).
func (q *QuerySpan) Event(kind, name string, attrs ...Attr) {
	q.tree.Spans = append(q.tree.Spans, Span{
		ID: len(q.tree.Spans), Parent: 0, Kind: kind, Name: name,
		Start: q.end, End: q.end, Attrs: rendered(attrs),
	})
}

// BeginRun appends the run span under the root; the spans Observer.Emit
// appends next parent onto it or onto their job. Call it once per tree.
func (q *QuerySpan) BeginRun() {
	q.run = len(q.tree.Spans)
	q.jobs = map[string]int{}
	q.tree.Spans = append(q.tree.Spans, Span{ID: q.run, Parent: 0, Kind: SpanKindRun, Name: "run"})
}

// add records one event as the span its kind's spec describes: a point
// or a range under the run or under the event's job, or the opening or
// closing edge of that job's own span. Scheduler decisions past
// maxSpanDecisions are counted, not stored.
func (q *QuerySpan) add(s *kindSpec, e *Event, attrs []Attr) {
	if e.Kind == SchedDecision {
		q.decisions++
		if q.decisions > maxSpanDecisions {
			return
		}
	}
	job, open := q.jobs[e.Job]
	if s.form == fClose {
		if open {
			q.tree.Spans[job].End = e.At
		}
		return
	}
	sp := Span{ID: len(q.tree.Spans), Parent: q.run, Kind: s.span, Name: e.name(s),
		Start: e.At, End: e.At, Attrs: rendered(attrs)}
	if s.underJob && open {
		sp.Parent = job
	}
	switch s.form {
	case fRange:
		sp.Start = e.Start
	case fOpen:
		sp.End = -1
		q.jobs[e.Job] = sp.ID
	}
	q.tree.Spans = append(q.tree.Spans, sp)
}

// EndRun closes the run span at durSec with its uncapped decision count.
func (q *QuerySpan) EndRun(durSec float64) {
	r := &q.tree.Spans[q.run]
	r.End = durSec
	r.Attrs = rendered([]Attr{AttrInt("sched_decisions", q.decisions)})
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

// Snapshot copies the store state, retained trees oldest first.
func (s *SpanStore) Snapshot() SpanStoreSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SpanStoreSnapshot{Started: s.started, Finished: s.finished, Evicted: s.evicted,
		Trees: make([]SpanTree, 0, s.n)}
	for i := 0; i < s.n; i++ {
		snap.Trees = append(snap.Trees, s.trees[(s.head+i)%s.capacity])
	}
	return snap
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
