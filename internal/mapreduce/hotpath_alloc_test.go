package mapreduce

import (
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/query"
)

// hotSinkBool defeats dead-code elimination inside AllocsPerRun closures.
var hotSinkBool bool

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract:
// the allocfree analyzer proves statically that these functions contain
// no allocating constructs, and this guard proves the compiled code
// actually performs zero heap allocations per call.
func TestHotPathAllocs(t *testing.T) {
	numRow := dataset.Float(3.5)
	strRow := dataset.Str("x")
	numPred := query.Predicate{Op: query.OpLT, Lit: query.NumLit(10)}
	strPred := query.Predicate{Op: query.OpEQ, Lit: query.StrLit("x")}
	inPred := query.Predicate{Op: query.OpIN, Set: []query.Literal{query.NumLit(1), query.NumLit(3.5)}}
	a, b := newAggState(query.AggSum), newAggState(query.AggSum)
	b.add(2)
	cases := []struct {
		name string
		fn   func()
	}{
		{"evalPred/numeric", func() { hotSinkBool = evalPred(numRow, numPred) }},
		{"evalPred/string", func() { hotSinkBool = evalPred(strRow, strPred) }},
		{"evalPred/in", func() { hotSinkBool = evalPred(numRow, inPred) }},
		{"cmpFloats", func() { hotSinkBool = cmpFloats(1, 2, query.OpLE) }},
		{"cmpStrings", func() { hotSinkBool = cmpStrings("a", "b", query.OpGT) }},
		{"aggState.add", func() { a.add(1.5) }},
		{"aggState.addCount", func() { a.addCount(2) }},
		{"aggState.merge", func() { a.merge(b) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}
