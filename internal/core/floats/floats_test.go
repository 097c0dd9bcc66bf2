package floats_test

import (
	"math"
	"testing"

	"saqp/internal/core/floats"
)

// The exhaustive table (NaN, infinities, denormals, symmetry) is
// TestApproxEqual in internal/core/approx_test.go; these are the leaf
// package's own spot checks, one per branch.
func TestApproxEqualLeaf(t *testing.T) {
	if !floats.ApproxEqual(1, 1+1e-12, 1e-9) {
		t.Error("relative tolerance should accept 1 vs 1+1e-12 at eps=1e-9")
	}
	if floats.ApproxEqual(math.NaN(), math.NaN(), math.Inf(1)) {
		t.Error("NaN must not compare equal to anything")
	}
	if !floats.ApproxEqual(math.Inf(-1), math.Inf(-1), 0) {
		t.Error("same-sign infinities are equal")
	}
	if floats.ApproxEqual(0, 1e-9, 1e-12) {
		t.Error("absolute tolerance must reject 0 vs 1e-9 at eps=1e-12")
	}
}

// TestClamp01 checks that only values outside [0, 1] move: the sign of a
// zero and a NaN survive, as the estimate digests downstream rely on.
func TestClamp01(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct{ in, want float64 }{
		{-0.5, 0}, {1.5, 1}, {0.25, 0.25}, {0, 0}, {1, 1}, {math.Inf(-1), 0}, {math.Inf(1), 1},
	} {
		if got := floats.Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := floats.Clamp01(negZero); got != 0 || !math.Signbit(got) {
		t.Errorf("Clamp01(-0) = %v, want -0", got)
	}
	if got := floats.Clamp01(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Clamp01(NaN) = %v, want NaN", got)
	}
}

var hotSinkFloat float64

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract:
// zero heap allocations per call.
func TestHotPathAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { hotSinkFloat = floats.Clamp01(1.5) }); n != 0 {
		t.Errorf("Clamp01 allocates %.0f times per call; //saqp:hotpath functions must not allocate", n)
	}
}
