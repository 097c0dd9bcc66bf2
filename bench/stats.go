package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs
// by the rule of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so a spread computed here is the spread the acceptance
// procedure computes. Fewer than two values have no spread: all three
// results are then the single value (or 0).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0…4 at the ends: Python extrapolates, so do we
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrSpread is the distance between the quartiles as a share of the
// median — the run-to-run spread figure every bound is compared with.
func iqrSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// fullSpread is (max − min) ÷ median.
func fullSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / math.Abs(med)
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// percentileNs returns the p-quantile (0 < p ≤ 1) of ascending-sorted
// durations by nearest rank, and how many samples lie beyond it.
func percentileNs(sortedNs []int64, p float64) (v int64, beyond int) {
	n := len(sortedNs)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = min(max(idx, 0), n-1)
	return sortedNs[idx], n - 1 - idx
}

// medianNs returns the median of ascending-sorted durations.
func medianNs(sortedNs []int64) float64 {
	n := len(sortedNs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sortedNs[n/2])
	}
	return float64(sortedNs[n/2-1]+sortedNs[n/2]) / 2
}
