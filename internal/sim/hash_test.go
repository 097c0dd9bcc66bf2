package sim

import (
	"hash/fnv"
	"testing"
)

// TestFNVMatchesStdlib pins both FNV-1a widths, over a string and over
// bytes, to hash/fnv. Shuffle buckets, HCS queues, trace ids, table
// fragmentation, column seeds and fault draws all hash through them, so
// the value for a fixed input is a contract.
func TestFNVMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "hello", "lineitem", "select 1\x00cat/exact", "l_orderkey:424242", "\xff\x00\x80"} {
		h32, h64 := fnv.New32a(), fnv.New64a()
		h32.Write([]byte(s))
		h64.Write([]byte(s))
		if got, want := FNV32a(s), h32.Sum32(); got != want {
			t.Errorf("FNV32a(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
		if got, want := FNV32a([]byte(s)), h32.Sum32(); got != want {
			t.Errorf("FNV32a([]byte(%q)) = %#x, hash/fnv says %#x", s, got, want)
		}
		if got, want := FNV64a(s), h64.Sum64(); got != want {
			t.Errorf("FNV64a(%q) = %#x, hash/fnv says %#x", s, got, want)
		}
		if got, want := FNV64a([]byte(s)), h64.Sum64(); got != want {
			t.Errorf("FNV64a([]byte(%q)) = %#x, hash/fnv says %#x", s, got, want)
		}
	}
	if got, want := FNV64a("hello"), uint64(0xa430d84680aabd0b); got != want {
		t.Fatalf("FNV64a(hello) = %#x, want %#x", got, want)
	}
	if got, want := FNV32a("hello"), uint32(0x4f9f2cab); got != want {
		t.Fatalf("FNV32a(hello) = %#x, want %#x", got, want)
	}
}

// TestMix64IsTheStream holds RNG to Mix64: the k-th draw of New(seed) is
// Mix64 of seed + k·Gamma, so the fault plan's stateless mixer and every
// seeded stream are one function. SplitMix64's published first output
// from seed 0 pins the function itself.
func TestMix64IsTheStream(t *testing.T) {
	if got, want := Mix64(0), uint64(0xe220a8397b1dcdaf); got != want {
		t.Fatalf("Mix64(0) = %#x, want SplitMix64's %#x", got, want)
	}
	for _, seed := range []uint64{0, 1, 42, 2018, 1<<63 + 7, ^uint64(0)} {
		r, x := New(seed), seed
		for k := 0; k < 1000; k++ {
			if got, want := r.Uint64(), Mix64(x); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, Mix64 of the state %#x", seed, k, got, want)
			}
			x += Gamma
		}
	}
}

var (
	hotSinkU32 uint32
	hotSinkU64 uint64
)

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract:
// neither hash allocates, over a string or over bytes, and neither does
// one mixing step.
func TestHotPathAllocs(t *testing.T) {
	s, b := "lineitem.l_orderkey", []byte("424242")
	cases := []struct {
		name string
		fn   func()
	}{
		{"FNV32a/string", func() { hotSinkU32 = FNV32a(s) }},
		{"FNV32a/bytes", func() { hotSinkU32 = FNV32a(b) }},
		{"FNV64a/string", func() { hotSinkU64 = FNV64a(s) }},
		{"FNV64a/bytes", func() { hotSinkU64 = FNV64a(b) }},
		{"Mix64", func() { hotSinkU64 = Mix64(hotSinkU64) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
}
