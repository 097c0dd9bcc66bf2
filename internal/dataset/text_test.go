package dataset

import (
	"math"
	"strconv"
	"testing"
)

// TestAppendTextEqualsValueString holds Vector.AppendText, the batch
// engine's group-key rendering, and Value.String to one text — decimal
// integers, shortest %g floats, the string itself — over every row of
// every TPC-H and TPC-DS column at SF 0.002, and hand-picked floats and
// integers where 'f' and 'g' formats or int and float paths part ways.
func TestAppendTextEqualsValueString(t *testing.T) {
	vecs := []Vector{
		FloatVector([]float64{0.1, 1e21, 1e-7, math.Copysign(0, -1), 0, -2.5, 123456789.125,
			math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}),
		IntVector(KindInt, []int64{0, -1, math.MinInt64, math.MaxInt64, -1 << 53}),
		IntVector(KindDate, []int64{0, -719162, 2_932_896}),
		StringVector([]string{"", "a b", "ÿ\x00"}),
	}
	for _, s := range Schemas() {
		vecs = append(vecs, Generate(s, 0.002, 1).Cols...)
	}
	var b []byte
	for c, v := range vecs {
		for i := 0; i < v.Len(); i++ {
			val := v.At(i)
			want := strconv.FormatInt(val.I, 10)
			switch val.K {
			case KindFloat:
				want = strconv.FormatFloat(val.F, 'g', -1, 64)
			case KindString:
				want = val.S
			}
			b = v.AppendText(b[:0], i)
			if string(b) != want || val.String() != want {
				t.Fatalf("vector %d (%s) row %d: AppendText %q, Value.String %q, want %q", c, v.Kind(), i, b, val.String(), want)
			}
		}
	}
}
