package histogram

import (
	"testing"

	"saqp/internal/query"
)

var (
	hotSinkFloat float64
	hotSinkInt   int
	hotSinkHist  *Histogram
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the selectivity kernel: zero heap allocations per call.
func TestHotPathAllocs(t *testing.T) {
	h := Build([]float64{1, 2, 3, 42, 42, 99}, 0, 100, 8)
	conds := []Cond{{query.OpGE, 2}, {query.OpLT, 60}, {query.OpNE, 42}}
	var arena Arena
	arena.New(0, 100, 8) // a warm arena: its slabs have grown once
	cases := []struct {
		name string
		fn   func()
	}{
		{"bucketOf", func() { hotSinkInt = h.bucketOf(42) }},
		{"width", func() { hotSinkFloat = h.width() }},
		{"Rows", func() { hotSinkFloat = h.Rows() }},
		{"DistinctTotal", func() { hotSinkFloat = h.DistinctTotal() }},
		{"SelectivityEQ", func() { hotSinkFloat = h.SelectivityEQ(42) }},
		{"YaoDistinct", func() { hotSinkFloat = YaoDistinct(40, 1000, 0.3) }},
		{"Arena.New", func() { arena.Reset(1 << 10); hotSinkHist = arena.New(0, 100, 8) }},
		{"NarrowedTotals", func() { hotSinkFloat, hotSinkFloat = h.NarrowedTotals(conds, 0.4) }},
		{"NarrowedTotals/stack-conds", func() {
			var buf [4]Cond
			cs := append(buf[:0], Cond{query.OpGT, 1}, Cond{query.OpLE, 99})
			hotSinkFloat, hotSinkFloat = h.NarrowedTotals(cs, 1)
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}
