package slab

import "unsafe"

// RetainBytes bounds the scratch a long-lived owner keeps between uses: a
// slab that grew past it for one outsized request is dropped when that
// request finishes, and the next grows its own. A pooled estimator walk
// keeps at most this much of each of its slabs — 16 histograms of 1,024
// buckets, which the corpus's oracle estimates fit — a pooled corpus
// arena this much synthesized statistics, and a serving lane this much
// simulator layout, about 2,700 tasks (internal/serve).
const RetainBytes = 256 << 10

// Slab is one element type's request-scoped storage. The zero Slab is
// ready to use.
type Slab[T any] struct {
	// buf is the buffer cuts come from: its length is what was cut from
	// it, and every element past that length is zero.
	buf  []T
	used int // elements cut since the last Reset, across buffers
}

// Cut returns n zeroed elements, with length and capacity n, valid until
// the next Reset. A cut that does not fit starts a new buffer of
// max(n, twice the old one's capacity) rather than growing the old one,
// so every slice cut before stays where it is.
//
//saqp:hotpath
func (s *Slab[T]) Cut(n int) []T {
	start := len(s.buf)
	if cap(s.buf)-start < n {
		s.buf, start = make([]T, 0, max(n, 2*cap(s.buf))), 0 //lint:allow saqpvet/allocfree grows only while a slab warms up; TestHotPathAllocs proves a warm Cut allocates nothing
	}
	s.used += n
	s.buf = s.buf[:start+n]
	return s.buf[start : start+n : start+n]
}

// Bytes is the storage s keeps across its next Reset: the larger of what
// was cut since the last one and the current buffer. An owner compares it
// with its bound before resetting, and drops s instead if it is over.
func (s *Slab[T]) Bytes() int64 {
	var zero T
	return int64(max(s.used, cap(s.buf))) * int64(unsafe.Sizeof(zero))
}

// Reset makes s's storage reusable, invalidating every slice cut from it.
// What was cut is zeroed, so nothing it pointed to is kept alive and the
// next cuts come zeroed; if the request spilled past the buffer, the
// buffer is replaced by one that holds everything it cut.
func (s *Slab[T]) Reset() {
	if s.used > cap(s.buf) {
		s.buf = make([]T, 0, s.used)
	}
	clear(s.buf)
	s.buf, s.used = s.buf[:0], 0
}
