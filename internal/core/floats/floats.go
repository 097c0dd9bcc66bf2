package floats

import "math"

// ApproxEqual reports whether a and b are equal within eps, combining
// an absolute and a relative tolerance:
//
//	|a-b| <= eps                      (absolute, for values near zero)
//	|a-b| <= eps * max(|a|, |b|)      (relative, for large magnitudes)
//
// Special cases follow comparison semantics rather than IEEE
// arithmetic: NaN is approximately equal to nothing (not even itself);
// infinities are approximately equal only to the same infinity; and
// eps = 0 degenerates to exact equality (with ±0 equal, as in Go).
// Denormal (subnormal) differences are handled by the absolute branch.
func ApproxEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	return diff <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// Clamp01 clips a probability or selectivity estimate into [0, 1]. Only
// values outside the interval move: −0 and NaN pass through unchanged
// (min(max(v, 0), 1) would turn −0 into +0).
//
//saqp:hotpath
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
