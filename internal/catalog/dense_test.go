package catalog

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"saqp/internal/dataset"
)

// TestDenseCountEqualsMapCount holds the dense count of an integer column
// to the map count it replaces: every ColumnStats field, histogram buckets
// included, is the same whichever path counted, and collectColumn takes
// the dense path exactly when the range is at most 4 × rows.
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
	// beyond ±2^53; compareCounts runs the dense count on every one.
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

// compareCounts summarises ints as collectColumn does, through the map
// count, and — where the range is small enough to allocate — through the
// dense count whichever path collectColumn would pick; it describes the
// first difference, or returns "".
func compareCounts(ints []int64) string {
	col := &dataset.Column{Name: "c", Kind: dataset.KindInt}
	vec := dataset.IntVector(dataset.KindInt, ints)
	vals := make([]float64, len(ints))
	for i, v := range ints {
		vals[i] = float64(v)
	}
	for _, n := range []int{4, DefaultBuckets} {
		want := summarize(vec, col, n, vals, countValues(ints, func(v int64) int64 { return v }, intValues))
		if got := collectColumn(vec, col, n); !reflect.DeepEqual(got, want) {
			return describe("collectColumn", n, got, want)
		}
		lo, hi := bounds(ints)
		if len(ints) > 0 && uint64(hi)-uint64(lo) < 1<<16 {
			if got := summarize(vec, col, n, vals, countDense(ints, lo, hi)); !reflect.DeepEqual(got, want) {
				return describe("dense count", n, got, want)
			}
		}
	}
	return ""
}

func bounds(ints []int64) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, v := range ints {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

func describe(path string, n int, got, want *ColumnStats) string {
	return fmt.Sprintf("%s at %d buckets: %+v %+v, map count gives %+v %+v", path, n, *got, got.Hist, *want, want.Hist)
}
