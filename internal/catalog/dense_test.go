package catalog

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"saqp/internal/dataset"
)

// TestDenseCountEqualsMapCount holds the code count of an integer column
// (countCodes: one slot per value when the range is dense, one bit per
// value and a map of the repeated ones up to 128 × rows, a map sized to
// the rows beyond) to the map count of its values: every ColumnStats
// field, histogram buckets included, is the same whichever path counted,
// and the slots are taken exactly when the range is at most 4 × rows.
// Beyond ±2^53 collectColumn counts values, so the cases there hold it to
// itself.
func TestDenseCountEqualsMapCount(t *testing.T) {
	const big = 1 << 53
	for _, tc := range []struct {
		name  string
		ints  []int64
		dense bool
	}{
		{"empty", []int64{}, false},
		{"one row", []int64{7}, true},
		{"all equal", []int64{5, 5, 5, 5, 5}, true},
		{"negative lo", []int64{-10, -3, -7, -10, 0}, true},
		{"range 4 × rows", []int64{0, 19, 3, 3, 10}, true},
		{"range 4 × rows + 1", []int64{0, 20, 3, 3, 10}, false},
		{"bits: range 128 × rows", []int64{0, 639, 5, 5, 639}, false},
		{"map: range 128 × rows + 1", []int64{0, 640, 5, 5, 640}, false},
		{"map, negative", []int64{-1 << 40, 7, 7, 1 << 40, 7}, false},
		{"beyond +2^53", []int64{big, big + 1, big + 2, big + 3, big + 1, big + 5}, true},
		{"beyond −2^53", []int64{-big - 3, -big - 2, -big - 1, -big, -big + 1}, true},
		{"int64 edges", []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 5}, true},
		{"int64 floor", []int64{math.MinInt64, math.MinInt64 + 3, math.MinInt64}, true},
		{"full range", []int64{math.MinInt64, 0, math.MaxInt64}, false},
	} {
		lo, hi := bounds(tc.ints)
		if got := denseRange(lo, hi, len(tc.ints)); got != tc.dense {
			t.Errorf("%s: denseRange = %v, want %v", tc.name, got, tc.dense)
		}
		if msg := compareCounts(tc.ints); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
	// Random vectors: offsets below 256 from a base of any magnitude, many
	// beyond ±2^53; up to 63 rows the range can be counted in bits.
	prop := func(offs []uint8, base int64, shift uint8) bool {
		base >>= shift % 64
		ints := make([]int64, len(offs))
		for i, o := range offs {
			ints[i] = base + int64(o)
		}
		if msg := compareCounts(ints); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// compareCounts summarises ints as collectColumn does and through the map
// count of their values; it describes the first difference, or returns "".
func compareCounts(ints []int64) string {
	col := &dataset.Column{Name: "c", Kind: dataset.KindInt}
	vec := dataset.IntVector(dataset.KindInt, ints)
	vals, c := byValue(vec)
	for _, n := range []int{4, DefaultBuckets} {
		if got, want := collectColumn(vec, nil, col, n), summarize(vec, col, n, vals, c); !reflect.DeepEqual(got, want) {
			return describe("collectColumn", n, got, want)
		}
	}
	return ""
}

// byValue counts vec in a map of its values (integers as themselves,
// floats by their bits, strings by the string), the reference the code
// count is held to, and returns the values summarize buckets.
func byValue(vec dataset.Vector) ([]float64, counts) {
	switch vec.Kind() {
	case dataset.KindString:
		return nil, countValues(vec.Strings(), func(s string) string { return s }, nil)
	case dataset.KindFloat:
		return vec.Floats(), countValues(vec.Floats(), math.Float64bits, floatValues)
	}
	ints := vec.Ints()
	vals := make([]float64, len(ints))
	for i, v := range ints {
		vals[i] = float64(v)
	}
	return vals, countValues(ints, func(v int64) int64 { return v }, intValues)
}

// TestCollectKeysEqualValues holds the code count of every generated
// column to the map count of its values: a float or string column counted
// through the domain keys Generate kept, an int or date column through its
// values, whether their range takes slots or the presized map. Every TPC-H
// and TPC-DS column at three scale factors, two seeds and two resolutions
// gives the same ColumnStats, histogram buckets included, either way. The
// key count is right only while a column's value mapping is injective; a
// string column whose cardinality exceeds 36^width, or a float kernel that
// maps two keys to one value, fails here.
func TestCollectKeysEqualValues(t *testing.T) {
	for _, sf := range []float64{0.002, 0.01, 0.05} {
		for _, seed := range []uint64{1, 42} {
			for _, s := range dataset.Schemas() {
				rel := dataset.Generate(s, sf, seed)
				for j := range s.Columns {
					col := &s.Columns[j]
					keyed := col.Kind == dataset.KindFloat || col.Kind == dataset.KindString
					if keyed != (rel.Keys(j) != nil) {
						t.Fatalf("sf %g seed %d %s.%s (%v): keys kept = %v", sf, seed, s.Name, col.Name, col.Kind, !keyed)
					}
					vals, c := byValue(rel.Cols[j])
					for _, n := range []int{8, 64} {
						got, want := collectColumn(rel.Cols[j], rel.Keys(j), col, n), summarize(rel.Cols[j], col, n, vals, c)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("sf %g seed %d %s.%s: %s", sf, seed, s.Name, col.Name, describe("code count", n, got, want))
						}
					}
				}
			}
		}
	}
}

func describe(path string, n int, got, want *ColumnStats) string {
	return fmt.Sprintf("%s at %d buckets: %+v %+v, map count gives %+v %+v", path, n, *got, got.Hist, *want, want.Hist)
}
