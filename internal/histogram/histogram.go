package histogram

import (
	"errors"
	"math"
	"slices"

	"saqp/internal/core/floats"
	"saqp/internal/query"
	"saqp/internal/slab"
)

// Bucket is one equi-width cell: the row mass falling in it and the number
// of distinct values that mass carries.
type Bucket struct {
	Count    float64 `json:"count"`
	Distinct float64 `json:"distinct"`
}

// Histogram is an equi-width histogram over a numeric domain [Lo, Hi).
// The zero value is not usable; construct with Build, Synthesize or New.
// No bucket holds more distinct values than rows: every producer here
// keeps that, so Scale(1) of a histogram equals it.
type Histogram struct {
	Lo      float64  `json:"lo"`
	Hi      float64  `json:"hi"`
	Buckets []Bucket `json:"buckets"`
}

// New returns an empty histogram with n buckets over [lo, hi).
// It panics if n <= 0 or hi <= lo.
func New(lo, hi float64, n int) *Histogram {
	var a *Arena
	return a.New(lo, hi, n)
}

// Arena is reusable storage for working histograms: a slab of headers and
// a slab of buckets that Scale, Filter, Join and Rebucket cut their results
// from, so a caller deriving many short-lived histograms per request (the
// estimator, once per plan-cache miss) allocates nothing once the slabs
// have grown to fit one request. A histogram cut from an arena is valid
// until the arena's next Reset. The zero Arena is ready to use; a nil
// *Arena allocates every histogram on its own.
type Arena struct {
	hists   slab.Slab[Histogram]
	buckets slab.Slab[Bucket]
}

// New returns an empty histogram with n buckets over [lo, hi), cut from a;
// no histogram cut before it moves. It panics if n <= 0 or hi <= lo.
//
//saqp:hotpath
func (a *Arena) New(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("histogram: bucket count must be positive")
	}
	if hi <= lo {
		panic("histogram: hi must exceed lo")
	}
	if a == nil {
		return &Histogram{Lo: lo, Hi: hi, Buckets: make([]Bucket, n)} //lint:allow saqpvet/allocfree a nil arena allocates by contract; the estimator always passes one
	}
	h := &a.hists.Cut(1)[0]
	*h = Histogram{Lo: lo, Hi: hi, Buckets: a.buckets.Cut(n)}
	return h
}

// Reset makes a's storage reusable, invalidating every histogram cut from
// it. If its slabs would keep more than keep bytes, a drops them instead,
// so one outsized request does not pin them for the owner's life.
func (a *Arena) Reset(keep int) {
	if a.hists.Bytes()+a.buckets.Bytes() > int64(keep) {
		*a = Arena{}
		return
	}
	a.hists.Reset()
	a.buckets.Reset()
}

// Build constructs an n-bucket equi-width histogram from a value sample.
// Values outside [lo, hi) are clamped into the boundary buckets, matching
// how offline statistics tolerate slightly stale domain bounds.
func Build(values []float64, lo, hi float64, n int) *Histogram {
	return BuildDistinct(values, distinct(values), lo, hi, n)
}

// BuildDistinct is Build for a caller that has already counted the
// sample: uniq holds each distinct value of values once, under float64
// equality (+0 and −0 are one value, every NaN is its own). Equal values
// share a bucket, so each bucket's distinct count is how many of uniq
// fall in it. values may be an integer column's own []int64: each value
// is bucketed as its float64, so the caller makes no float64 copy.
func BuildDistinct[T int64 | float64](values []T, uniq []float64, lo, hi float64, n int) *Histogram {
	h := New(lo, hi, n)
	for _, v := range values {
		h.Buckets[h.bucketOf(float64(v))].Count++
	}
	for _, v := range uniq {
		h.Buckets[h.bucketOf(v)].Distinct++
	}
	return h
}

// distinct returns each distinct value of values once, under float64
// equality, from one pass over a sorted copy: Compact's == merges −0 into
// +0 and keeps every NaN.
func distinct(values []float64) []float64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	return slices.Compact(sorted)
}

// Synthesize constructs a histogram analytically — without scanning rows —
// for a column with `rows` rows spread over `card` distinct values in
// [lo, lo+card), card >= 1. This is how statistics are produced for
// experiment scales too large to materialise. The histogram is cut from a.
//
// weights, if non-nil, gives the relative row mass of each bucket and must
// have length n; distinct values are still spread evenly across buckets.
func Synthesize(a *Arena, rows, card int64, lo float64, n int, weights []float64) *Histogram {
	h := a.New(lo, lo+float64(card), n)
	if weights != nil && len(weights) != n {
		panic("histogram: weights length must equal bucket count")
	}
	var wsum float64
	if weights != nil {
		for _, w := range weights {
			wsum += w
		}
	}
	perBucketCard := float64(card) / float64(n)
	for i := 0; i < n; i++ {
		share := 1 / float64(n)
		if weights != nil && wsum > 0 {
			share = weights[i] / wsum
		}
		cnt := float64(rows) * share
		crd := perBucketCard
		if crd > cnt {
			crd = cnt
		}
		if crd < 1 && cnt >= 1 {
			crd = 1
		}
		h.Buckets[i] = Bucket{Count: cnt, Distinct: crd}
	}
	return h
}

// bucketOf returns the bucket index covering v, clamped to the edges.
//
//saqp:hotpath
func (h *Histogram) bucketOf(v float64) int {
	n := len(h.Buckets)
	if v < h.Lo {
		return 0
	}
	if v >= h.Hi {
		return n - 1
	}
	i := int(float64(n) * (v - h.Lo) / (h.Hi - h.Lo))
	if i >= n {
		i = n - 1
	}
	return i
}

// width returns one bucket's domain width.
//
//saqp:hotpath
func (h *Histogram) width() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Buckets))
}

// Rows returns the total row mass in the histogram.
//
//saqp:hotpath
func (h *Histogram) Rows() float64 {
	var t float64
	for _, b := range h.Buckets {
		t += b.Count
	}
	return t
}

// DistinctTotal returns the summed per-bucket distinct counts — an upper
// bound on (and for integer-keyed equi-width buckets, exactly) the column's
// distinct cardinality.
//
//saqp:hotpath
func (h *Histogram) DistinctTotal() float64 {
	var t float64
	for _, b := range h.Buckets {
		t += b.Distinct
	}
	return t
}

// SelectivityEQ estimates the fraction of rows equal to x: the covering
// bucket's count split evenly over its distinct values. It prices the
// members of an IN list (selectivity.inSelectivity), once per member on
// every plan-cache miss, so it may not allocate; every other numeric
// comparison is answered by the bucket walk, NarrowedTotals.
//
//saqp:hotpath
func (h *Histogram) SelectivityEQ(x float64) float64 {
	total := h.Rows()
	if total == 0 || x < h.Lo || x >= h.Hi { //lint:allow saqpvet/floatcmp zero row mass means an empty histogram, an exact state
		return 0
	}
	b := h.Buckets[h.bucketOf(x)]
	if b.Count == 0 || b.Distinct == 0 { //lint:allow saqpvet/floatcmp exact empty-bucket state, never a rounding artifact
		return 0
	}
	return floats.Clamp01(b.Count / b.Distinct / total)
}

// ErrMisaligned is returned when two histograms cannot be combined
// bucket-by-bucket.
var ErrMisaligned = errors.New("histogram: domains or bucket counts differ")

// alignEps tolerates rounding drift in domain bounds that were derived
// through different arithmetic paths (e.g. scaled vs. rebucketed).
const alignEps = 1e-12

// Aligned reports whether h and o share domain bounds and bucket count, the
// precondition for the bucket-wise join estimate.
func (h *Histogram) Aligned(o *Histogram) bool {
	return len(h.Buckets) == len(o.Buckets) &&
		floats.ApproxEqual(h.Lo, o.Lo, alignEps) &&
		floats.ApproxEqual(h.Hi, o.Hi, alignEps)
}

// JoinSize estimates |T1 ⋈ T2| on this attribute via the paper's Eq. 5:
//
//	|T1 ⋈ T2| = Σ_i |T1i| × |T2i| / max(T1i.d, T2i.d)
//
// under the piece-wise uniform assumption. Both histograms must be aligned.
func (h *Histogram) JoinSize(o *Histogram) (float64, error) {
	if !h.Aligned(o) {
		return 0, ErrMisaligned
	}
	var total float64
	for i := range h.Buckets {
		a, b := h.Buckets[i], o.Buckets[i]
		d := math.Max(a.Distinct, b.Distinct)
		if d < 1 {
			if a.Count == 0 || b.Count == 0 { //lint:allow saqpvet/floatcmp exact empty-bucket state, never a rounding artifact
				continue
			}
			d = 1
		}
		total += a.Count * b.Count / d
	}
	return total, nil
}

// Join returns the estimated histogram of the join result on the join key:
// per bucket, count_i = |T1i|·|T2i|/max(d) and, per the paper's identity
// (T1i ⋈ T2i).d = min(T1i.d, T2i.d), distinct_i = min(d1, d2). The result
// feeds shared-key joins over three or more tables; it is cut from a.
func (h *Histogram) Join(a *Arena, o *Histogram) (*Histogram, error) {
	if !h.Aligned(o) {
		return nil, ErrMisaligned
	}
	out := a.New(h.Lo, h.Hi, len(h.Buckets))
	for i := range h.Buckets {
		l, r := h.Buckets[i], o.Buckets[i]
		d := math.Max(l.Distinct, r.Distinct)
		if d < 1 {
			if l.Count == 0 || r.Count == 0 { //lint:allow saqpvet/floatcmp exact empty-bucket state, never a rounding artifact
				continue
			}
			d = 1
		}
		out.Buckets[i] = Bucket{
			Count:    l.Count * r.Count / d,
			Distinct: math.Min(l.Distinct, r.Distinct),
		}
	}
	return out, nil
}

// Scale returns a copy with all row masses multiplied by f. Distinct
// counts follow the Cardenas/Yao estimate when f < 1 — keeping a fraction
// f of the rows retains d·(1−(1−f)^(count/d)) of the d values, which stays
// near d while every value still has surviving rows — and are unchanged
// when f >= 1 (repeating rows adds no new values). The copy is cut from a.
func (h *Histogram) Scale(a *Arena, f float64) *Histogram {
	if f < 0 {
		f = 0
	}
	out := a.New(h.Lo, h.Hi, len(h.Buckets))
	for i, b := range h.Buckets {
		if i > 0 && sameBits(b, h.Buckets[i-1]) {
			out.Buckets[i] = out.Buckets[i-1]
			continue
		}
		out.Buckets[i] = scaleBucket(b, f)
	}
	return out
}

// sameBits reports whether a and b hold the same bits, so that a pure
// per-bucket step maps them to the same result: a synthesized uniform
// histogram is one bucket repeated, and its scaled copy is computed from
// the first. Unlike ==, it tells +0 from −0, which scale to zeros of
// different signs.
func sameBits(a, b Bucket) bool {
	return math.Float64bits(a.Count) == math.Float64bits(b.Count) &&
		math.Float64bits(a.Distinct) == math.Float64bits(b.Distinct)
}

// scaleBucket is Scale's per-bucket step, for f >= 0.
func scaleBucket(b Bucket, f float64) Bucket {
	c := b.Count * f
	d := b.Distinct
	if f < 1 {
		d = YaoDistinct(b.Distinct, b.Count, f)
	}
	if d > c {
		d = c
	}
	return Bucket{Count: c, Distinct: d}
}

// YaoDistinct estimates how many of d distinct values survive keeping a
// uniform fraction f of `rows` rows (Cardenas/Yao):
//
//	E[d'] = d · (1 − (1 − f)^(rows/d))
func YaoDistinct(d, rows, f float64) float64 {
	if d <= 0 || rows <= 0 {
		return 0
	}
	if f >= 1 {
		return d
	}
	if f <= 0 {
		return 0
	}
	return d * (1 - math.Pow(1-f, rows/d))
}

// Cond is one comparison against a constant, (value Op X): the restriction
// Filter applies. Op is one of the six orderings; OpIN keeps every row.
type Cond struct {
	Op query.CmpOp
	X  float64
}

// Filter returns the histogram restricted to rows whose value satisfies
// (value op x), assuming uniform spread within buckets. Unlike Scale, this
// reshapes the distribution: a filter on the column itself zeroes buckets
// outside the range — essential when the filtered column is later used as
// a join key. The result is cut from a.
func (h *Histogram) Filter(a *Arena, op query.CmpOp, x float64) *Histogram {
	out := a.New(h.Lo, h.Hi, len(h.Buckets))
	w := h.width()
	for i, b := range h.Buckets {
		bLo := h.Lo + float64(i)*w
		out.Buckets[i] = filterBucket(Cond{op, x}, bLo, bLo+w, b)
	}
	return out
}

// filterBucket is Filter's per-bucket step over the bucket [bLo, bHi).
func filterBucket(c Cond, bLo, bHi float64, b Bucket) Bucket {
	frac := overlapFraction(c.Op, c.X, bLo, bHi, b)
	n := b.Count * frac
	d := b.Distinct * frac
	if c.Op == query.OpEQ && frac > 0 {
		d = math.Min(b.Distinct, 1)
	}
	if d > n {
		d = n
	}
	return Bucket{Count: n, Distinct: d}
}

// NarrowedTotals returns Rows() of the histogram after Filter by each of
// conds in order, and DistinctTotal() of that histogram after Scale(f),
// materialising neither: every bucket's (count, distinct) pair is threaded
// through the same steps in the same order, and a filtered bucket equal to
// the one before reuses its scaled distinct count as Scale does, so both
// sums equal the materialised ones to the bit — for a caller that reads
// only the scalars.
//
//saqp:hotpath
func (h *Histogram) NarrowedTotals(conds []Cond, f float64) (rows, distinct float64) {
	if f < 0 {
		f = 0
	}
	w := h.width()
	var last Bucket        // the previous bucket, filtered
	var lastScaled float64 // its distinct count after Scale(f)
	for i, b := range h.Buckets {
		bLo := h.Lo + float64(i)*w
		for _, c := range conds {
			b = filterBucket(c, bLo, bLo+w, b)
		}
		rows += b.Count
		if i == 0 || !sameBits(b, last) {
			last, lastScaled = b, scaleBucket(b, f).Distinct
		}
		distinct += lastScaled
	}
	return rows, distinct
}

// overlapFraction computes the fraction of bucket [bLo,bHi) passing op-x.
func overlapFraction(op query.CmpOp, x, bLo, bHi float64, b Bucket) float64 {
	span := bHi - bLo
	ltFrac := 0.0
	switch {
	case x <= bLo:
		ltFrac = 0
	case x >= bHi:
		ltFrac = 1
	default:
		ltFrac = (x - bLo) / span
	}
	eqFrac := 0.0
	if x >= bLo && x < bHi && b.Distinct >= 1 {
		eqFrac = 1 / b.Distinct
	}
	switch op {
	case query.OpLT:
		return ltFrac
	case query.OpLE:
		return floats.Clamp01(ltFrac + eqFrac)
	case query.OpGE:
		return floats.Clamp01(1 - ltFrac)
	case query.OpGT:
		return floats.Clamp01(1 - ltFrac - eqFrac)
	case query.OpEQ:
		return eqFrac
	case query.OpNE:
		return floats.Clamp01(1 - eqFrac)
	}
	return 1
}

// Rebucket redistributes the histogram onto a new aligned grid with n
// buckets over [lo, hi), assuming uniform spread within each old bucket.
// It allows joining attributes whose offline histograms were built with
// different granularities. The result is cut from a.
func (h *Histogram) Rebucket(a *Arena, lo, hi float64, n int) *Histogram {
	out := a.New(lo, hi, n)
	ow := h.width()
	w := out.width()
	for i, b := range h.Buckets {
		if b.Count == 0 && b.Distinct == 0 { //lint:allow saqpvet/floatcmp exact empty-bucket state, never a rounding artifact
			continue
		}
		bLo := h.Lo + float64(i)*ow
		bHi := bLo + ow
		for j := range out.Buckets {
			oLo := out.Lo + float64(j)*w
			oHi := oLo + w
			overlap := math.Min(bHi, oHi) - math.Max(bLo, oLo)
			if overlap <= 0 {
				continue
			}
			frac := overlap / (bHi - bLo)
			out.Buckets[j].Count += b.Count * frac
			out.Buckets[j].Distinct += b.Distinct * frac
		}
	}
	// Mass falling outside [lo,hi) is clamped to the edge buckets.
	if h.Lo < lo || h.Hi > hi {
		clampInto(out, h, lo, hi)
	}
	for j := range out.Buckets {
		if out.Buckets[j].Distinct > out.Buckets[j].Count {
			out.Buckets[j].Distinct = out.Buckets[j].Count
		}
	}
	return out
}

// clampInto adds the mass of h outside [lo,hi) into out's edge buckets.
func clampInto(out, h *Histogram, lo, hi float64) {
	ow := h.width()
	for i, b := range h.Buckets {
		bLo := h.Lo + float64(i)*ow
		bHi := bLo + ow
		if bHi <= lo {
			out.Buckets[0].Count += b.Count
			out.Buckets[0].Distinct += b.Distinct
		} else if bLo < lo && bHi > lo {
			frac := (lo - bLo) / (bHi - bLo)
			out.Buckets[0].Count += b.Count * frac
			out.Buckets[0].Distinct += b.Distinct * frac
		}
		last := len(out.Buckets) - 1
		if bLo >= hi {
			out.Buckets[last].Count += b.Count
			out.Buckets[last].Distinct += b.Distinct
		} else if bHi > hi && bLo < hi {
			frac := (bHi - hi) / (bHi - bLo)
			out.Buckets[last].Count += b.Count * frac
			out.Buckets[last].Distinct += b.Distinct * frac
		}
	}
}
