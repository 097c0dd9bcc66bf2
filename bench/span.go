package main

import (
	"cmp"
	"slices"
	"time"
)

// maxSpans caps what one traced run retains and writes; requests are
// sampled (workload.traceEvery) so the cap is not reached at nominal
// speed, and once it is, later requests go unrecorded.
const maxSpans = 200_000

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the causing span's ID (0 for a root).
type span struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	// Round is the timed round the span was recorded in; its calibration
	// scale applies to the span.
	Round int `json:"round"`
	// Seg is "loaded" or "unloaded" on serving workloads, "pass" on
	// batch_tpch.
	Seg string `json:"seg"`
	// Attr is "hit" or "miss" on a request span (the plan-cache outcome).
	Attr string `json:"attr,omitempty"`
}

// dur returns the span's duration in nanoseconds.
func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps one client goroutine's spans in memory; recorders are
// merged when the run ends. It is not safe for concurrent use.
type recorder struct {
	epoch time.Time
	spans []span
	next  uint64
	limit int
}

// newRecorder returns a recorder whose span IDs start at base+1 and
// whose timestamps count from epoch.
func newRecorder(epoch time.Time, base uint64, limit int) *recorder {
	return &recorder{epoch: epoch, next: base, limit: limit, spans: make([]span, 0, limit)}
}

// full reports whether the recorder has reached its cap.
func (r *recorder) full() bool { return len(r.spans) >= r.limit }

// reserve allocates an ID for a span whose children are recorded before
// it ends.
func (r *recorder) reserve() uint64 {
	r.next++
	return r.next
}

// add records a finished span. s.ID is either reserved or 0 (allocate
// one); StartNs/EndNs are filled from start and end. It returns the ID.
func (r *recorder) add(s span, start, end time.Time) uint64 {
	if s.ID == 0 {
		s.ID = r.reserve()
	}
	if !r.full() {
		s.StartNs, s.EndNs = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
		r.spans = append(r.spans, s)
	}
	return s.ID
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once; a child's part outside the parent is ignored).
func selfTimes(spans []span) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := int64(0), s.StartNs
		for _, c := range ivs {
			lo, hi := max(c.lo, reach), min(c.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
