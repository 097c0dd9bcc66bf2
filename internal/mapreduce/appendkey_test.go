package mapreduce

import (
	"math"
	"testing"

	"saqp/internal/dataset"
)

// TestAppendKeyEqualsValueString holds the engine's key rendering to
// dataset.Value.String, which its doc comment says it agrees with: every
// row of every TPC-H and TPC-DS column at SF 0.002, and hand-picked
// floats and integers where 'f' and 'g' formats or int and float paths
// part ways.
func TestAppendKeyEqualsValueString(t *testing.T) {
	vecs := []dataset.Vector{
		dataset.FloatVector([]float64{0.1, 1e21, 1e-7, math.Copysign(0, -1), 0, -2.5, 123456789.125,
			math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}),
		dataset.IntVector(dataset.KindInt, []int64{0, -1, math.MinInt64, math.MaxInt64, -1 << 53}),
		dataset.IntVector(dataset.KindDate, []int64{0, -719162, 2_932_896}),
		dataset.StringVector([]string{"", "a b", "ÿ\x00"}),
	}
	for _, s := range append(dataset.TPCH(), dataset.TPCDS()...) {
		vecs = append(vecs, dataset.Generate(s, 0.002, 1).Cols...)
	}
	var b []byte
	for c, v := range vecs {
		for i := 0; i < v.Len(); i++ {
			b = appendKey(b[:0], v, int32(i))
			if want := v.At(i).String(); string(b) != want {
				t.Fatalf("vector %d (%s) row %d: appendKey %q, Value.String %q", c, v.Kind(), i, b, want)
			}
		}
	}
}
