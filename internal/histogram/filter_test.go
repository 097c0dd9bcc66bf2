package histogram

import (
	"math"
	"testing"

	"saqp/internal/query"
)

func uniformHist(n int, lo, hi float64, buckets int, seed uint64) *Histogram {
	return Build(uniformSample(n, lo, hi, seed), lo, hi, buckets)
}

func TestFilterRangeOps(t *testing.T) {
	h := uniformHist(100000, 0, 100, 50, 21)
	total := h.Rows()
	cases := []struct {
		op   query.CmpOp
		x    float64
		want float64 // expected surviving fraction
	}{
		{query.OpLT, 30, 0.30},
		{query.OpLE, 30, 0.30},
		{query.OpGE, 80, 0.20},
		{query.OpGT, 80, 0.20},
		{query.OpNE, 50, 1.0},
	}
	for _, tc := range cases {
		f := h.Filter(nil, tc.op, tc.x)
		got := f.Rows() / total
		if math.Abs(got-tc.want) > 0.02 {
			t.Errorf("Filter(%v, %v) kept %.3f, want ~%.3f", tc.op, tc.x, got, tc.want)
		}
		// Distinct never exceeds count in any bucket.
		for i, b := range f.Buckets {
			if b.Distinct > b.Count+1e-9 {
				t.Fatalf("bucket %d distinct %v > count %v", i, b.Distinct, b.Count)
			}
		}
	}
}

func TestFilterEQKeepsOneValue(t *testing.T) {
	// Integer data: EQ keeps roughly count/distinct of the covering bucket.
	vals := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		vals = append(vals, float64(i%100))
	}
	h := Build(vals, 0, 100, 10)
	f := h.Filter(nil, query.OpEQ, 42)
	if math.Abs(f.Rows()-100) > 1 {
		t.Fatalf("EQ filter kept %v rows, want ~100", f.Rows())
	}
	// Only the covering bucket survives.
	for i, b := range f.Buckets {
		if i == 4 {
			if b.Distinct > 1+1e-9 {
				t.Fatalf("EQ bucket distinct = %v, want <= 1", b.Distinct)
			}
			continue
		}
		if b.Count != 0 {
			t.Fatalf("bucket %d should be empty after EQ, has %v", i, b.Count)
		}
	}
}

func TestFilterOutOfDomain(t *testing.T) {
	h := uniformHist(1000, 0, 10, 5, 22)
	if f := h.Filter(nil, query.OpLT, -5); f.Rows() != 0 {
		t.Fatalf("LT below domain kept %v rows", f.Rows())
	}
	if f := h.Filter(nil, query.OpGE, 100); f.Rows() != 0 {
		t.Fatalf("GE above domain kept %v rows", f.Rows())
	}
	if f := h.Filter(nil, query.OpLT, 100); f.Rows() != h.Rows() {
		t.Fatalf("LT above domain dropped rows")
	}
}

func TestFilterChainEquivalence(t *testing.T) {
	// Filter(GE a) then Filter(LT b) == the mass below b less the mass below a.
	h := uniformHist(50000, 0, 100, 40, 23)
	f := h.Filter(nil, query.OpGE, 20).Filter(nil, query.OpLT, 60)
	got := f.Rows() / h.Rows()
	want := passing(h, Cond{query.OpLT, 60}) - passing(h, Cond{query.OpLT, 20})
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("chained filters keep %.3f, the one-sided masses say %.3f", got, want)
	}
}

func TestRebucketNarrowerClampsEdges(t *testing.T) {
	// Rebucketing onto a narrower domain must clamp outside mass into the
	// edge buckets rather than lose it.
	h := uniformHist(10000, 0, 100, 20, 24)
	r := h.Rebucket(nil, 25, 75, 10)
	if math.Abs(r.Rows()-h.Rows()) > 1e-6*h.Rows() {
		t.Fatalf("narrow Rebucket lost rows: %v -> %v", h.Rows(), r.Rows())
	}
	// Each edge bucket holds its own span (~5%) plus a clamped 25% tail.
	frac0 := r.Buckets[0].Count / r.Rows()
	if frac0 < 0.25 {
		t.Fatalf("left edge holds %.3f of mass, want >= 0.25 (clamped tail)", frac0)
	}
}

func TestYaoDistinctProperties(t *testing.T) {
	// Bounds and monotonicity.
	if got := YaoDistinct(100, 1000, 1.5); got != 100 {
		t.Fatalf("f>=1 should return d, got %v", got)
	}
	if got := YaoDistinct(100, 1000, 0); got != 0 {
		t.Fatalf("f=0 should return 0, got %v", got)
	}
	if got := YaoDistinct(0, 1000, 0.5); got != 0 {
		t.Fatalf("d=0 should return 0, got %v", got)
	}
	if got := YaoDistinct(100, 0, 0.5); got != 0 {
		t.Fatalf("rows=0 should return 0, got %v", got)
	}
	// Low-cardinality column survives small samples almost intact.
	if got := YaoDistinct(50, 60000, 0.05); got < 49.9 {
		t.Fatalf("50-value column should survive a 5%% sample, got %v", got)
	}
	// Unique column scales linearly.
	if got := YaoDistinct(1000, 1000, 0.3); math.Abs(got-300) > 1 {
		t.Fatalf("unique column: got %v, want ~300", got)
	}
	// Monotone in f.
	prev := 0.0
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		got := YaoDistinct(200, 5000, f)
		if got < prev {
			t.Fatalf("YaoDistinct not monotone at f=%v", f)
		}
		prev = got
	}
}
