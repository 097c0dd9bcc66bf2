package histogram

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"saqp/internal/query"
	"saqp/internal/sim"
)

func uniformSample(n int, lo, hi float64, seed uint64) []float64 {
	r := sim.New(seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.Range(lo, hi)
	}
	return vals
}

// TestBuildDistinctEqualsPerBucketSets holds Build's per-bucket distinct
// counts to one map[float64] per bucket, the way they were first counted:
// +0 and −0 are one value, duplicates and clamped outliers count once.
func TestBuildDistinctEqualsPerBucketSets(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, vals := range [][]float64{
		{0, negZero, 0, negZero, 1, 1, 2.5, 99, 99.5, 150, -3, -3, 1e300},
		append(uniformSample(5000, 0, 100, 3), uniformSample(5000, 0, 100, 3)...),
		{7},
	} {
		got := Build(vals, 0, 100, 8)
		want := New(0, 100, 8)
		sets := make([]map[float64]struct{}, 8)
		for i := range sets {
			sets[i] = make(map[float64]struct{})
		}
		for _, v := range vals {
			b := want.bucketOf(v)
			want.Buckets[b].Count++
			sets[b][v] = struct{}{}
		}
		for i := range want.Buckets {
			want.Buckets[i].Distinct = float64(len(sets[i]))
		}
		for i := range want.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Errorf("bucket %d = %+v, per-bucket sets give %+v", i, got.Buckets[i], want.Buckets[i])
			}
		}
	}
}

func TestBuildCountsConserved(t *testing.T) {
	vals := uniformSample(10000, 0, 100, 1)
	h := Build(vals, 0, 100, 32)
	if h.Rows() != 10000 {
		t.Fatalf("Rows() = %v, want 10000", h.Rows())
	}
}

func TestBuildClampsOutliers(t *testing.T) {
	h := Build([]float64{-5, 50, 500}, 0, 100, 10)
	if h.Rows() != 3 {
		t.Fatalf("outliers dropped: rows = %v", h.Rows())
	}
	if h.Buckets[0].Count != 1 || h.Buckets[9].Count != 1 {
		t.Fatal("outliers not clamped to edge buckets")
	}
}

// passing is the fraction of h's rows that pass every cond, by the bucket
// walk production prices a numeric comparison with (NarrowedTotals over
// Rows, as selectivity.scanConjunction computes it).
func passing(h *Histogram, conds ...Cond) float64 {
	rows, _ := h.NarrowedTotals(conds, 1)
	return rows / h.Rows()
}

func TestSelectivityLTUniform(t *testing.T) {
	vals := uniformSample(100000, 0, 100, 2)
	h := Build(vals, 0, 100, 50)
	for _, x := range []float64{10, 25, 50, 90} {
		got := passing(h, Cond{query.OpLT, x})
		want := x / 100
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("fraction < %v = %v, want ~%v", x, got, want)
		}
	}
}

func TestSelectivityBounds(t *testing.T) {
	vals := uniformSample(1000, 0, 10, 3)
	h := Build(vals, 0, 10, 8)
	if passing(h, Cond{query.OpLT, -1}) != 0 || passing(h, Cond{query.OpLT, 11}) != 1 {
		t.Fatal("LT out-of-domain bounds wrong")
	}
	if passing(h, Cond{query.OpGE, -1}) != 1 || passing(h, Cond{query.OpGE, 11}) != 0 {
		t.Fatal("GE out-of-domain bounds wrong")
	}
	if h.SelectivityEQ(-1) != 0 || h.SelectivityEQ(11) != 0 {
		t.Fatal("EQ out-of-domain should be 0")
	}
}

func TestSelectivityMonotoneProperty(t *testing.T) {
	vals := uniformSample(5000, 0, 1000, 4)
	h := Build(vals, 0, 1000, 40)
	f := func(aRaw, bRaw uint16) bool {
		a, b := float64(aRaw%1000), float64(bRaw%1000)
		if a > b {
			a, b = b, a
		}
		return passing(h, Cond{query.OpLT, a}) <= passing(h, Cond{query.OpLT, b})+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivityBetweenWiderIsLarger(t *testing.T) {
	vals := uniformSample(5000, 0, 100, 5)
	h := Build(vals, 0, 100, 20)
	between := func(lo, hi float64) float64 { return passing(h, Cond{query.OpGE, lo}, Cond{query.OpLT, hi}) }
	if between(20, 40) > between(20, 60) {
		t.Fatal("wider range has smaller selectivity")
	}
	if between(40, 20) != 0 {
		t.Fatal("inverted range should give 0")
	}
}

func TestSelectivityEQ(t *testing.T) {
	// 1000 rows over 100 distinct integers: EQ should be ~1/100.
	r := sim.New(6)
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(r.Int63n(100))
	}
	h := Build(vals, 0, 100, 10)
	got := h.SelectivityEQ(42)
	if math.Abs(got-0.01) > 0.004 {
		t.Fatalf("SelectivityEQ = %v, want ~0.01", got)
	}
	if ne := passing(h, Cond{query.OpNE, 42}); math.Abs(ne-(1-got)) > 1e-12 {
		t.Fatalf("NE != 1-EQ: %v vs %v", ne, 1-got)
	}
}

func TestJoinSizeUniformMatchesClassicFormula(t *testing.T) {
	// Uniform keys: Eq. 5 must agree with |T1|·|T2|/max(d1,d2).
	r := sim.New(7)
	const card = 1000
	mk := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Int63n(card))
		}
		return vals
	}
	h1 := Build(mk(20000), 0, card, 50)
	h2 := Build(mk(5000), 0, card, 50)
	est, err := h1.JoinSize(h2)
	if err != nil {
		t.Fatal(err)
	}
	classic := 20000.0 * 5000.0 / card
	if math.Abs(est-classic)/classic > 0.1 {
		t.Fatalf("JoinSize = %v, classic uniform = %v", est, classic)
	}
}

func TestJoinSizeSymmetric(t *testing.T) {
	r := sim.New(8)
	mk := func(n int, seed uint64) *Histogram {
		rr := sim.New(seed)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rr.Int63n(500))
		}
		return Build(vals, 0, 500, 25)
	}
	_ = r
	a, b := mk(3000, 1), mk(7000, 2)
	ab, _ := a.JoinSize(b)
	ba, _ := b.JoinSize(a)
	if ab != ba {
		t.Fatalf("JoinSize not symmetric: %v vs %v", ab, ba)
	}
}

func TestJoinSizeSkewExceedsUniformFormula(t *testing.T) {
	// With skew, the naive uniform formula underestimates; Eq. 5 must be
	// closer to the true join size.
	r := sim.New(9)
	const card = 200
	mkSkew := func(n int) []float64 {
		z := sim.NewZipf(r, 1.6, 1, card)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(z.Uint64())
		}
		return vals
	}
	v1, v2 := mkSkew(20000), mkSkew(20000)
	h1 := Build(v1, 0, card, 40)
	h2 := Build(v2, 0, card, 40)
	est, _ := h1.JoinSize(h2)

	// Ground truth by brute force.
	c1 := map[float64]int64{}
	c2 := map[float64]int64{}
	for _, v := range v1 {
		c1[v]++
	}
	for _, v := range v2 {
		c2[v]++
	}
	var truth int64
	for k, n1 := range c1 {
		truth += n1 * c2[k]
	}
	naive := 20000.0 * 20000.0 / card
	errEq5 := math.Abs(est-float64(truth)) / float64(truth)
	errNaive := math.Abs(naive-float64(truth)) / float64(truth)
	if errEq5 >= errNaive {
		t.Fatalf("Eq.5 no better than naive under skew: eq5 err %.3f vs naive err %.3f (est=%v naive=%v truth=%d)",
			errEq5, errNaive, est, naive, truth)
	}
}

func TestJoinMisaligned(t *testing.T) {
	a := New(0, 10, 5)
	b := New(0, 20, 5)
	if _, err := a.JoinSize(b); err != ErrMisaligned {
		t.Fatalf("want ErrMisaligned, got %v", err)
	}
	if _, err := a.Join(nil, b); err != ErrMisaligned {
		t.Fatalf("want ErrMisaligned, got %v", err)
	}
}

func TestJoinResultDistinct(t *testing.T) {
	a := New(0, 10, 2)
	b := New(0, 10, 2)
	a.Buckets[0] = Bucket{Count: 100, Distinct: 10}
	b.Buckets[0] = Bucket{Count: 50, Distinct: 5}
	out, err := a.Join(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Buckets[0].Distinct != 5 {
		t.Fatalf("join distinct = %v, want min(10,5)=5", out.Buckets[0].Distinct)
	}
	if out.Buckets[0].Count != 500 {
		t.Fatalf("join count = %v, want 100*50/10=500", out.Buckets[0].Count)
	}
}

func TestScale(t *testing.T) {
	h := New(0, 10, 2)
	h.Buckets[0] = Bucket{Count: 100, Distinct: 20}
	h.Buckets[1] = Bucket{Count: 60, Distinct: 60}
	s := h.Scale(nil, 0.5)
	if s.Buckets[0].Count != 50 {
		t.Fatalf("scaled count = %v, want 50", s.Buckets[0].Count)
	}
	if s.Buckets[0].Distinct > s.Buckets[0].Count {
		t.Fatal("distinct exceeds count after scale")
	}
	if s.Buckets[1].Distinct > 30 {
		t.Fatalf("distinct should shrink with rows: %v", s.Buckets[1].Distinct)
	}
	if z := h.Scale(nil, 0); z.Rows() != 0 {
		t.Fatal("Scale(0) should empty the histogram")
	}
	if n := h.Scale(nil, -3); n.Rows() != 0 {
		t.Fatal("negative scale should clamp to 0")
	}
}

func TestRebucketConservesRows(t *testing.T) {
	vals := uniformSample(12345, 0, 100, 10)
	h := Build(vals, 0, 100, 16)
	r := h.Rebucket(nil, 0, 100, 64)
	if math.Abs(r.Rows()-h.Rows()) > 1e-6 {
		t.Fatalf("Rebucket lost rows: %v -> %v", h.Rows(), r.Rows())
	}
	r2 := h.Rebucket(nil, 0, 100, 7)
	if math.Abs(r2.Rows()-h.Rows()) > 1e-6 {
		t.Fatalf("coarser Rebucket lost rows: %v -> %v", h.Rows(), r2.Rows())
	}
}

func TestRebucketPreservesShape(t *testing.T) {
	vals := uniformSample(50000, 0, 100, 11)
	h := Build(vals, 0, 100, 20)
	r := h.Rebucket(nil, 0, 100, 10)
	if lt := (Cond{query.OpLT, 30}); math.Abs(passing(r, lt)-passing(h, lt)) > 0.03 {
		t.Fatalf("Rebucket distorted distribution: %v vs %v", passing(r, lt), passing(h, lt))
	}
}

func TestSynthesizeUniform(t *testing.T) {
	h := Synthesize(nil, 10000, 500, 0, 20, nil)
	if h.Rows() != 10000 {
		t.Fatalf("Synthesize rows = %v", h.Rows())
	}
	if d := h.DistinctTotal(); d != 500 {
		t.Fatalf("Synthesize distinct = %v, want 500", d)
	}
	if s := passing(h, Cond{query.OpLT, 250}); math.Abs(s-0.5) > 0.03 {
		t.Fatalf("synthesized LT(mid) = %v", s)
	}
}

func TestSynthesizeWeighted(t *testing.T) {
	w := []float64{9, 1}
	h := Synthesize(nil, 1000, 100, 0, 2, w)
	if h.Rows() != 1000 {
		t.Fatalf("rows = %v", h.Rows())
	}
	if h.Buckets[0].Count != 900 {
		t.Fatalf("weighted bucket 0 = %v, want 900", h.Buckets[0].Count)
	}
}

func TestSynthesizeSmallCardinality(t *testing.T) {
	// Cardinality smaller than bucket count must not create phantom
	// distinct values.
	h := Synthesize(nil, 1000, 3, 0, 10, nil)
	if h.Rows() != 1000 {
		t.Fatalf("rows = %v", h.Rows())
	}
	if d := h.DistinctTotal(); d < 3 || d > 10 {
		t.Fatalf("distinct total = %v for card 3", d)
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 10, 0) },
		func() { New(10, 10, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("New did not panic on invalid args")
				}
			}()
			fn()
		}()
	}
}

func TestSelectivityEmptyHistogram(t *testing.T) {
	h := New(0, 10, 4)
	if rows, _ := h.NarrowedTotals([]Cond{{query.OpLT, 5}}, 1); rows != 0 || h.SelectivityEQ(5) != 0 {
		t.Fatal("empty histogram should have zero selectivity")
	}
}

// TestArenaEqualsFresh: Scale, Filter, Join and Rebucket cut from a reused
// arena give the histograms a nil arena allocates, bucket for bucket; a
// histogram cut before a slab ran out stays intact after it; Reset sizes
// the bucket slab to the whole request, and drops the storage once a
// request takes more than its bound.
func TestArenaEqualsFresh(t *testing.T) {
	a := Build([]float64{1, 2, 3, 42, 42, 99, 7, 7, 7}, 0, 100, 8)
	b := Build([]float64{3, 5, 42, 60, 61, 62}, 0, 100, 8)
	derive := func(ar *Arena) []*Histogram {
		j, err := a.Join(ar, b)
		if err != nil {
			t.Fatal(err)
		}
		return []*Histogram{a.Scale(ar, 0.3), a.Filter(ar, query.OpGE, 40), j, b.Rebucket(ar, -10, 130, 5), j.Scale(ar, 2)}
	}
	want := derive(nil)
	var ar Arena
	for round := 0; round < 3; round++ {
		got := derive(&ar)
		for i := range want {
			if got[i].Lo != want[i].Lo || got[i].Hi != want[i].Hi || !slices.Equal(got[i].Buckets, want[i].Buckets) {
				t.Errorf("round %d, histogram %d: arena %+v, fresh %+v", round, i, *got[i], *want[i])
			}
		}
		ar.Reset(4 << 10)
		if n := ar.buckets.Bytes() / int64(unsafe.Sizeof(Bucket{})); n != 37 {
			t.Errorf("round %d: Reset left a %d-bucket slab, want the request's 37", round, n)
		}
	}
	ar.New(0, 1, 300)
	if ar.Reset(4 << 10); ar.buckets.Bytes() != 0 || ar.hists.Bytes() != 0 {
		t.Errorf("Reset(4 KiB) after 300 buckets kept %d bytes of buckets and %d of headers", ar.buckets.Bytes(), ar.hists.Bytes())
	}
}
