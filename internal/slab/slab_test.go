package slab

import (
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"saqp/internal/sim"
)

// elem carries a pointer, so a cut that is not zeroed also keeps garbage
// alive.
type elem struct {
	s string
	v int64
}

var hotSinkInt int

// TestHotPathAllocs is the runtime half of Cut's //saqp:hotpath contract:
// a warm slab cuts without allocating.
func TestHotPathAllocs(t *testing.T) {
	var s Slab[elem]
	s.Cut(64) // a warm slab: its buffer has grown once
	if n := testing.AllocsPerRun(100, func() { s.Reset(); hotSinkInt = len(s.Cut(48)) + len(s.Cut(16)) }); n != 0 {
		t.Errorf("a warm Slab.Cut allocates %.0f times per call; //saqp:hotpath functions must not allocate", n)
	}
}

// TestPropertyCutEqualsMake: over random requests of random cuts, every
// cut is what make returns — n zeroed elements, len == cap == n — and
// stays put: each is filled with values no other cut holds, and every
// one still holds them when its request ends, so no cut aliases another
// and a cut that spills to a new buffer moves none cut before. A spilled
// cut starts a buffer of max(n, 2·cap) holding nothing of the old one.
// Each request ends with Reset, which keeps what Bytes reported, sizes
// the buffer to the whole request and zeroes it.
func TestPropertyCutEqualsMake(t *testing.T) {
	r := sim.New(48)
	var s Slab[elem]
	for req := 0; req < 500; req++ {
		var cuts, want [][]elem
		total := 0
		for k := r.Intn(12); k >= 0; k-- {
			n := r.Intn(40)
			if r.Intn(8) == 0 {
				n = r.Intn(600)
			}
			before := cap(s.buf)
			c := s.Cut(n)
			if len(c) != n || cap(c) != n {
				t.Fatalf("request %d: Cut(%d) has len %d, cap %d", req, n, len(c), cap(c))
			}
			if !slices.Equal(c, make([]elem, n)) {
				t.Fatalf("request %d: Cut(%d) is not zeroed: %v", req, n, c)
			}
			if cap(s.buf) != before && (cap(s.buf) != max(n, 2*before) || len(s.buf) != n) {
				t.Fatalf("request %d: Cut(%d) spilled a %d-element buffer into one of len %d, cap %d; want len %d, cap %d",
					req, n, before, len(s.buf), cap(s.buf), n, max(n, 2*before))
			}
			w := make([]elem, n)
			for i := range c {
				c[i] = elem{strconv.Itoa(req), int64(len(cuts))<<32 | int64(i)}
				w[i] = c[i]
			}
			cuts, want = append(cuts, c), append(want, w)
			total += n
		}
		for i := range cuts {
			if !slices.Equal(cuts[i], want[i]) {
				t.Fatalf("request %d: cut %d of %d no longer holds what was written to it", req, i, len(cuts))
			}
		}
		kept := s.Bytes()
		if wantKept := int64(max(total, cap(s.buf))) * int64(unsafe.Sizeof(elem{})); kept != wantKept {
			t.Fatalf("request %d: Bytes() = %d after %d elements cut into a %d-element buffer, want %d", req, kept, total, cap(s.buf), wantKept)
		}
		s.Reset()
		if s.Bytes() != kept || cap(s.buf) < total || len(s.buf) != 0 {
			t.Fatalf("request %d: Reset kept %d bytes (len %d, cap %d) after %d elements, Bytes() said %d",
				req, s.Bytes(), len(s.buf), cap(s.buf), total, kept)
		}
		if !slices.Equal(s.buf[:cap(s.buf)], make([]elem, cap(s.buf))) {
			t.Fatalf("request %d: Reset left the buffer dirty", req)
		}
	}
}

// TestResetSizesToRequest walks the growth rule by hand: a request that
// spilled is kept whole, in one buffer, and one that fits keeps its
// buffer; Reset zeroes what was cut either way.
func TestResetSizesToRequest(t *testing.T) {
	var s Slab[int64]
	if s.Bytes() != 0 || len(s.Cut(0)) != 0 {
		t.Fatal("the zero Slab is not empty")
	}
	steps := []struct {
		cuts          []int
		before, after int64 // Bytes() before and after Reset
	}{
		{[]int{3, 4}, 7 * 8, 7 * 8},      // 3, then a buffer of 6 holding 4: 7 cut, kept in one of 7
		{[]int{7}, 7 * 8, 7 * 8},         // fits exactly
		{[]int{7, 1}, 14 * 8, 14 * 8},    // spills into a buffer of 14, which holds all 8 next time
		{[]int{2, 2, 2}, 14 * 8, 14 * 8}, // a smaller request keeps the buffer
		{[]int{20}, 28 * 8, 28 * 8},      // one cut over a 14-element buffer: max(20, 2·14)
	}
	for i, st := range steps {
		for _, n := range st.cuts {
			c := s.Cut(n)
			for j := range c {
				if c[j] != 0 {
					t.Fatalf("step %d: Cut(%d)[%d] = %d, want 0", i, n, j, c[j])
				}
				c[j] = int64(j + 1)
			}
		}
		if got := s.Bytes(); got != st.before {
			t.Errorf("step %d: Bytes() = %d before Reset, want %d", i, got, st.before)
		}
		s.Reset()
		if got := s.Bytes(); got != st.after {
			t.Errorf("step %d: Bytes() = %d after Reset, want %d", i, got, st.after)
		}
	}
}
