package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("independent streams collided %d/100 times", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork()
	c2 := parent.Fork()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("forked children produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered %d values, want 7", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nUnbiased(t *testing.T) {
	// Chi-squared style sanity check across 10 cells.
	r := New(6)
	const cells, n = 10, 100000
	counts := make([]int, cells)
	for i := 0; i < n; i++ {
		counts[r.Int63n(cells)]++
	}
	expect := float64(n) / cells
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("cell %d count %d deviates from %v", i, c, expect)
		}
	}
}

// TestFillInt63nEqualsInt63n holds the bounded fill to a loop of Int63n
// calls, value for value, with the generator left in the same state. The
// bounds cover 1, powers of two, small odd bounds, and 2^62+1, where almost
// half the draws are rejected.
func TestFillInt63nEqualsInt63n(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 7, 1 << 40, 1<<62 + 1, math.MaxInt64} {
		for _, length := range []int{0, 1, 1000} {
			for _, seed := range []uint64{1, 99} {
				got, ref := New(seed), New(seed)
				keys := make([]int64, length)
				got.FillInt63n(keys, n)
				for i, k := range keys {
					if want := ref.Int63n(n); k != want {
						t.Fatalf("n %d seed %d: key %d = %d, Int63n gives %d", n, seed, i, k, want)
					}
				}
				if got.Uint64() != ref.Uint64() {
					t.Fatalf("n %d length %d seed %d: generator state differs after the fill", n, length, seed)
				}
			}
		}
	}
}

func TestFillInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillInt63n(keys, 0) did not panic")
		}
	}()
	New(1).FillInt63n(make([]int64, 1), 0)
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(0.5) // mean 2
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~2", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(13)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements, sum = %d", sum)
	}
}

func TestRangeProperty(t *testing.T) {
	r := New(14)
	f := func(a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		v := r.Range(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(15)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", p)
	}
}
