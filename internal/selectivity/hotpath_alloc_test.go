package selectivity

import (
	"testing"

	"saqp/internal/histogram"
	"saqp/internal/query"
)

var hotSinkFloat float64

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for predicate-selectivity estimation: zero heap allocations per call.
func TestHotPathAllocs(t *testing.T) {
	h := histogram.Build([]float64{1, 2, 3, 42, 42, 99}, 0, 100, 8)
	numCol := &ColStat{Hist: h, Distinct: 5}
	strCol := &ColStat{Distinct: 5}
	slt := query.Predicate{Op: query.OpLT, Lit: query.StrLit("x")}
	in := query.Predicate{Op: query.OpIN, Set: []query.Literal{query.NumLit(1), query.NumLit(42)}}
	seq := query.Predicate{Op: query.OpEQ, Lit: query.StrLit("x")}
	// One scan's worth of conjuncts: a range pair and an IN list on one
	// column, a string equality on another, evaluated into caller-owned
	// scratch as the walk does.
	tbl := &table{name: "t", cols: []ColStat{*numCol, *strCol}, index: map[string]int{"n": 0, "s": 1}}
	onN, onS := query.ColumnRef{Table: "t", Column: "n"}, query.ColumnRef{Table: "t", Column: "s"}
	preds := []query.Predicate{
		{Left: onN, Op: query.OpGE, Lit: query.NumLit(2)}, {Left: onS, Op: query.OpEQ, Lit: query.StrLit("x")},
		{Left: onN, Op: query.OpLT, Lit: query.NumLit(60)}, {Left: onN, Op: query.OpIN, Set: in.Set},
	}
	pcBuf, condBuf := make([]predCol, 0, 4), make([]histogram.Cond, 0, 4)
	pcs, _ := scanConjunction(tbl, preds, pcBuf, condBuf)
	cases := []struct {
		name string
		fn   func()
	}{
		{"PredSelectivity/in", func() { hotSinkFloat = PredSelectivity(numCol, in) }},
		{"PredSelectivity/string", func() { hotSinkFloat = PredSelectivity(numCol, slt) }},
		{"inSelectivity", func() { hotSinkFloat = inSelectivity(numCol, in) }},
		{"stringPredSelectivity", func() { hotSinkFloat = stringPredSelectivity(strCol, seq) }},
		{"scanConjunction", func() { _, hotSinkFloat = scanConjunction(tbl, preds, pcBuf, condBuf) }},
		{"narrowColumn/scalars", func() { hotSinkFloat = narrowColumn(nil, numCol, need{ref: onN}, pcs, 3).Distinct }},
		{"narrowColumn/string", func() { hotSinkFloat = narrowColumn(nil, strCol, need{ref: onS, hist: true}, pcs, 3).Distinct }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}
