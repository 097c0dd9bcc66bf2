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
