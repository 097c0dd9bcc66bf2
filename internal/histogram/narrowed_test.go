package histogram

import (
	"math"
	"math/rand"
	"testing"

	"saqp/internal/query"
)

// randomHist draws a histogram with the irregularities real statistics
// have: empty buckets, fractional masses, buckets with fewer than one
// distinct value, a distinct count above the row mass (only a decoded
// catalog can carry one; Scale and Filter clamp it), runs of equal buckets
// (a synthesized uniform histogram is one run), and now and then no rows
// at all.
func randomHist(r *rand.Rand) *Histogram {
	lo := math.Floor(r.Float64()*200 - 100)
	h := New(lo, lo+1+math.Floor(r.Float64()*500), 1+r.Intn(40))
	if r.Intn(12) == 0 {
		return h
	}
	for i := range h.Buckets {
		if i > 0 && r.Intn(3) == 0 { // continue a run
			h.Buckets[i] = h.Buckets[i-1]
			continue
		}
		switch r.Intn(6) {
		case 0: // empty
		case 1:
			h.Buckets[i] = Bucket{Count: r.Float64(), Distinct: r.Float64() * 0.9}
		case 2:
			c := r.Float64() * 100
			h.Buckets[i] = Bucket{Count: c, Distinct: c * (1 + r.Float64())}
		default:
			c := math.Floor(r.Float64() * 1e5)
			h.Buckets[i] = Bucket{Count: c, Distinct: math.Floor(r.Float64() * (c + 1))}
		}
	}
	return h
}

// randomConds draws 0–4 restrictions over all six operators, with
// constants on bucket boundaries, inside buckets and outside the domain.
func randomConds(r *rand.Rand, h *Histogram) []Cond {
	conds := make([]Cond, r.Intn(5))
	w := h.width()
	for i := range conds {
		var x float64
		switch r.Intn(4) {
		case 0:
			x = h.Lo + float64(r.Intn(len(h.Buckets)+1))*w // a boundary cut
		case 1:
			x = h.Lo + (r.Float64()*1.4-0.2)*(h.Hi-h.Lo) // maybe outside
		default:
			x = math.Floor(h.Lo + r.Float64()*(h.Hi-h.Lo))
		}
		conds[i] = Cond{Op: query.CmpOp(r.Intn(6)), X: x}
	}
	return conds
}

// TestNarrowedTotalsEqualsMaterialised: the scalar walk is Filter applied
// in sequence, then Rows(), and then Scale(f).DistinctTotal() — to the
// bit, not to a tolerance, because the estimator's pinned digest rests on
// the two forms being interchangeable.
func TestNarrowedTotalsEqualsMaterialised(t *testing.T) {
	r := rand.New(rand.NewSource(0x5a9b))
	factors := []float64{1, 0, -0.5, 0.5, 1e-9, 0.999999, 1.5, 40}
	for trial := 0; trial < 4000; trial++ {
		h := randomHist(r)
		conds := randomConds(r, h)
		f := factors[r.Intn(len(factors))]
		if r.Intn(3) == 0 {
			f = r.Float64()
		}
		m := h
		for _, c := range conds {
			m = m.Filter(nil, c.Op, c.X)
		}
		wantRows, wantDistinct := m.Rows(), m.Scale(nil, f).DistinctTotal()
		gotRows, gotDistinct := h.NarrowedTotals(conds, f)
		if math.Float64bits(gotRows) != math.Float64bits(wantRows) {
			t.Fatalf("trial %d: rows %v (%#x) != materialised %v (%#x); conds %+v", trial,
				gotRows, math.Float64bits(gotRows), wantRows, math.Float64bits(wantRows), conds)
		}
		if math.Float64bits(gotDistinct) != math.Float64bits(wantDistinct) {
			t.Fatalf("trial %d: distinct %v (%#x) != materialised %v (%#x); conds %+v f %v", trial,
				gotDistinct, math.Float64bits(gotDistinct), wantDistinct, math.Float64bits(wantDistinct), conds, f)
		}
	}
}

// TestScaleRunsEqualBucketwise: Scale and NarrowedTotals compute a run of
// equal buckets' scaled form once; each must equal scaleBucket applied to
// every bucket on its own, to the bit, on runs of the buckets where reuse
// could go wrong — +0 beside −0 (equal under ==, scaled to zeros of
// different signs), NaN (equal to nothing, its bits to themselves),
// Distinct > Count (clamped) — and across the factors where the Yao step
// switches on and off. NarrowedTotals reuses after its filters, so it runs
// with and without conds; the reference filters each bucket first too.
func TestScaleRunsEqualBucketwise(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	kinds := []Bucket{
		{}, {Count: negZero}, {Count: negZero, Distinct: negZero}, {Distinct: negZero},
		{Count: nan, Distinct: 3}, {Count: 5, Distinct: nan}, {Count: nan, Distinct: nan},
		{Count: 2, Distinct: 9}, {Count: 0.5, Distinct: 0.25},
		{Count: 1000, Distinct: 40}, {Count: 1e6, Distinct: 1e6},
	}
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 2000; trial++ {
		h := New(0, 100, 1+r.Intn(32))
		for i := range h.Buckets {
			if i > 0 && r.Intn(2) == 0 {
				h.Buckets[i] = h.Buckets[i-1]
			} else {
				h.Buckets[i] = kinds[r.Intn(len(kinds))]
			}
		}
		conds := randomConds(r, h)
		for _, f := range []float64{0, 0.3, 1, 2} {
			scaled := h.Scale(nil, f)
			var rows, distinct, narrowedRows, narrowedDistinct float64
			for i, b := range h.Buckets {
				want, got := scaleBucket(b, f), scaled.Buckets[i]
				if math.Float64bits(got.Count) != math.Float64bits(want.Count) || math.Float64bits(got.Distinct) != math.Float64bits(want.Distinct) {
					t.Fatalf("trial %d f %v: bucket %d %+v scales to %+v, on its own to %+v", trial, f, i, b, got, want)
				}
				rows += want.Count
				distinct += want.Distinct
				bLo := h.Lo + float64(i)*h.width()
				for _, c := range conds {
					b = filterBucket(c, bLo, bLo+h.width(), b)
				}
				narrowedRows += b.Count
				narrowedDistinct += scaleBucket(b, f).Distinct
			}
			if got := scaled.DistinctTotal(); math.Float64bits(got) != math.Float64bits(distinct) {
				t.Fatalf("trial %d f %v: Scale(f).DistinctTotal() = %v, bucketwise %v", trial, f, got, distinct)
			}
			if got := scaled.Rows(); math.Float64bits(got) != math.Float64bits(rows) {
				t.Fatalf("trial %d f %v: Scale(f).Rows() = %v, bucketwise %v", trial, f, got, rows)
			}
			for _, cs := range [][]Cond{nil, conds} {
				wantRows, wantDistinct := h.Rows(), distinct
				if cs != nil {
					wantRows, wantDistinct = narrowedRows, narrowedDistinct
				}
				gotRows, gotDistinct := h.NarrowedTotals(cs, f)
				if math.Float64bits(gotRows) != math.Float64bits(wantRows) || math.Float64bits(gotDistinct) != math.Float64bits(wantDistinct) {
					t.Fatalf("trial %d f %v conds %+v: NarrowedTotals = (%v, %v), bucketwise (%v, %v)",
						trial, f, cs, gotRows, gotDistinct, wantRows, wantDistinct)
				}
			}
		}
	}
}
