package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(New(1), 1.2, 1, 1000)
	for i := 0; i < 10000; i++ {
		if v := z.Uint64(); v >= 1000 {
			t.Fatalf("Zipf value %d out of [0,1000)", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Higher exponent concentrates more mass on small values.
	countZero := func(s float64) int {
		z := NewZipf(New(2), s, 1, 10000)
		zeros := 0
		for i := 0; i < 20000; i++ {
			if z.Uint64() == 0 {
				zeros++
			}
		}
		return zeros
	}
	mild, steep := countZero(1.1), countZero(2.5)
	if steep <= mild {
		t.Fatalf("steeper Zipf not more skewed: s=1.1 zeros=%d, s=2.5 zeros=%d", mild, steep)
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	z := NewZipf(New(3), 1.5, 1, 64)
	counts := make([]int, 64)
	for i := 0; i < 300000; i++ {
		counts[z.Uint64()]++
	}
	// Rank-frequency must be broadly decreasing; compare rank 0 vs 4 vs 16.
	if !(counts[0] > counts[4] && counts[4] > counts[16]) {
		t.Fatalf("frequencies not decreasing: c0=%d c4=%d c16=%d", counts[0], counts[4], counts[16])
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct {
		s, v float64
		n    uint64
	}{{1.0, 1, 10}, {2, 0.5, 10}, {2, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%v,%v,%d) did not panic", tc.s, tc.v, tc.n)
				}
			}()
			NewZipf(New(1), tc.s, tc.v, tc.n)
		}()
	}
}

func TestClusteredKeysProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint16, cardRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		card := int64(cardRaw)%500 + 1
		keys := make([]int64, n)
		ClusteredKeys(New(seed), keys, card)
		for _, k := range keys {
			if k < 0 || k >= card {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// appendedClusteredKeys is ClusteredKeys as it was when it returned a
// slice it grew by append: the reference the caller-slice fill is held to.
func appendedClusteredKeys(rng *RNG, n int, cardinality int64) []int64 {
	keys := make([]int64, 0, n)
	avgRun := max(1, 2*n/int(min(cardinality, int64(max(n, 1)))))
	for len(keys) < n {
		k := rng.Int63n(cardinality)
		run := 1 + rng.Intn(avgRun)
		for j := 0; j < run && len(keys) < n; j++ {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestClusteredKeysEqualsAppended holds the fill of a caller's slice to the
// appending version, value for value, over TestClusteredKeysProperties'
// cases, and checks that the rng is left in the same state.
func TestClusteredKeysEqualsAppended(t *testing.T) {
	f := func(seed uint64, nRaw uint16, cardRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		card := int64(cardRaw)%500 + 1
		got, ref := New(seed), New(seed)
		keys := make([]int64, n)
		ClusteredKeys(got, keys, card)
		return slices.Equal(keys, appendedClusteredKeys(ref, n, card)) && got.Uint64() == ref.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredKeysAreClustered(t *testing.T) {
	// With clustering, the number of adjacent-equal pairs greatly exceeds
	// that of a random arrangement with the same cardinality.
	const n, card = 10000, 100
	adj := func(keys []int64) int {
		runs := 0
		for i := 1; i < len(keys); i++ {
			if keys[i] == keys[i-1] {
				runs++
			}
		}
		return runs
	}
	rng, uniform := New(4), make([]int64, n)
	for i := range uniform {
		uniform[i] = rng.Int63n(card)
	}
	keys := make([]int64, n)
	ClusteredKeys(New(4), keys, card)
	clustered, random := adj(keys), adj(uniform)
	if clustered <= 3*random {
		t.Fatalf("clustered keys not clustered: clustered-adj=%d random-adj=%d", clustered, random)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipf(b *testing.B) {
	z := NewZipf(New(1), 1.3, 1, 1<<20)
	for i := 0; i < b.N; i++ {
		_ = z.Uint64()
	}
}
