package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// randomHist draws a histogram with the irregularities real statistics
// have: empty buckets, fractional masses, buckets with fewer than one
// distinct value, a distinct count above the row mass (only a decoded
// catalog can carry one; Scale and Filter clamp it), and now and then no
// rows at all.
func randomHist(r *rand.Rand) *Histogram {
	lo := math.Floor(r.Float64()*200 - 100)
	h := New(lo, lo+1+math.Floor(r.Float64()*500), 1+r.Intn(40))
	if r.Intn(12) == 0 {
		return h
	}
	for i := range h.Buckets {
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
		conds[i] = Cond{Op: CmpOp(r.Intn(6)), X: x}
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
