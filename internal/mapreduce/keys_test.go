package mapreduce

import (
	"math"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/sim"
)

// TestPartitionHashesValueText holds the shuffle to its contract: a row
// goes to bucket sim.FNV32a(v.String()) % r, where v is the value the join
// compares. That is the row's own value for integer, date and string keys,
// and the float for a float key or for an integer joined to a float one
// (the widened value). The buckets decide the row order of every join
// output, so TestEngineDigestPinned holds the same contract through the
// engine's answers; this holds it row by row, over the float keys whose
// text is easy to get wrong.
func TestPartitionHashesValueText(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ints := dataset.IntVector(dataset.KindInt, []int64{0, 1, -7, 42, 1 << 40, 1<<53 + 1, math.MinInt64, math.MaxInt64})
	dates := dataset.IntVector(dataset.KindDate, []int64{0, 9131, 10592, -1})
	strs := dataset.StringVector([]string{"", "a", "lineitem", "BUILDING", "\xff\x00"})
	floats := dataset.FloatVector([]float64{0.1, 1e21, negZero, 0, math.NaN(), math.Inf(1), math.Inf(-1), 2.5, 1e-7, 123456789.125})
	asFloat := func(v dataset.Vector, i int) dataset.Value {
		if v.Kind() == dataset.KindFloat {
			return v.At(i)
		}
		return dataset.Float(float64(v.Ints()[i]))
	}
	cases := []struct {
		name    string
		a, b    dataset.Vector
		compare func(v dataset.Vector, i int) dataset.Value // the value the join compares
	}{
		{"int", ints, ints, dataset.Vector.At},
		{"date", dates, dates, dataset.Vector.At},
		{"string", strs, strs, dataset.Vector.At},
		{"float", floats, floats, asFloat},
		{"int against float", ints, floats, asFloat},
	}
	for _, c := range cases {
		var s scratch
		ak, bk, err := joinKeys(&s, c.a, c.b, "a", "b")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, side := range []struct {
			v   dataset.Vector
			key joinKey
		}{{c.a, ak}, {c.b, bk}} {
			rows := make([]int32, side.v.Len())
			for i := range rows {
				rows[i] = int32(i)
			}
			for _, r := range []int{1, 3, 7} {
				seen := 0
				for p, bucket := range partition(&s, side.key, rows, r) {
					for j, i := range bucket {
						v := c.compare(side.v, int(i))
						if want := int(sim.FNV32a(v.String()) % uint32(r)); p != want {
							t.Errorf("%s, %s row %d (%s) in bucket %d of %d, want %d", c.name, side.v.Kind(), i, v, p, r, want)
						}
						if j > 0 && bucket[j-1] >= i {
							t.Errorf("%s, bucket %d of %d: row %d after row %d, want input order", c.name, p, r, i, bucket[j-1])
						}
					}
					seen += len(bucket)
				}
				if seen != len(rows) {
					t.Errorf("%s, %d buckets: %d rows placed, want %d", c.name, r, seen, len(rows))
				}
			}
		}
	}
}
