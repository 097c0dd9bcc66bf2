package core_test

import (
	"math"
	"testing"

	"saqp/internal/core/floats"
)

// TestApproxEqual is the exhaustive table for floats.ApproxEqual, the
// comparison the floatcmp analyzer sends the estimator and predictor
// packages to.
func TestApproxEqual(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	denorm := math.SmallestNonzeroFloat64 // 4.9e-324, subnormal
	cases := []struct {
		name string
		a, b float64
		eps  float64
		want bool
	}{
		// Exact and near-exact.
		{"identical", 1.5, 1.5, 0, true},
		{"pos-neg-zero", 0.0, math.Copysign(0, -1), 0, true},
		{"eps0-exact-only", 1.0, 1.0 + 1e-16, 0, true}, // 1+1e-16 rounds to 1
		{"eps0-differs", 1.0, 1.0000001, 0, false},

		// Absolute tolerance near zero.
		{"abs-within", 1e-12, 3e-12, 1e-9, true},
		{"abs-outside", 0, 2e-9, 1e-9, false},

		// Relative tolerance at magnitude.
		{"rel-within", 1e9, 1e9 * (1 + 1e-10), 1e-9, true},
		{"rel-outside", 1e9, 1e9 * (1 + 1e-8), 1e-9, false},
		{"rel-negative", -1e9, -1e9 * (1 + 1e-10), 1e-9, true},

		// NaN is equal to nothing, not even itself.
		{"nan-nan", nan, nan, 1e9, false},
		{"nan-left", nan, 1, 1e9, false},
		{"nan-right", 1, nan, 1e9, false},
		{"nan-vs-inf", nan, inf, 1e9, false},

		// Infinities: same sign only, regardless of eps.
		{"inf-inf", inf, inf, 0, true},
		{"neginf-neginf", -inf, -inf, 0, true},
		{"inf-neginf", inf, -inf, 1e300, false},
		{"inf-finite", inf, math.MaxFloat64, 1e300, false},

		// Denormals: the absolute branch must see subnormal differences.
		{"denorm-zero-within", denorm, 0, 1e-300, true},
		{"denorm-zero-eps0", denorm, 0, 0, false},
		{"denorm-pair", denorm, 2 * denorm, 1e-320, true},
		{"denorm-sign", denorm, -denorm, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := floats.ApproxEqual(c.a, c.b, c.eps); got != c.want {
				t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.eps, got, c.want)
			}
			// Approximate equality is symmetric by construction.
			if got := floats.ApproxEqual(c.b, c.a, c.eps); got != c.want {
				t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v (symmetry)", c.b, c.a, c.eps, got, c.want)
			}
		})
	}
}
