package dataset

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// hashValue folds one value into h: kind byte, then the payload (the
// integer, the float's bits, or the length-prefixed string).
func hashValue(h hash.Hash64, v Value) {
	var buf [9]byte
	buf[0] = byte(v.K)
	switch v.K {
	case KindInt, KindDate:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
	case KindFloat:
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
	case KindString:
		binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.S)))
	}
	h.Write(buf[:])
	if v.K == KindString {
		h.Write([]byte(v.S))
	}
}

// TestGenerateDigestPinned pins every generated value: FNV-64a over kind +
// payload, row-major, of the 13 schemas at SF 0.01. The constants were
// captured at the row-storage generator (fe528cc) and are read through the
// view accessor only, so a change of storage layout that moves one of them
// changed the data, not just its shape.
func TestGenerateDigestPinned(t *testing.T) {
	if n := len(TPCH()) + len(TPCDS()); n != 13 {
		t.Fatalf("%d schemas, want 13", n)
	}
	for _, tc := range []struct {
		seed uint64
		want uint64
	}{
		{1, 0x30ec4f1ae807ed4d},
		{42, 0x6b09bbffe7f94510},
	} {
		if got := valueDigest(tc.seed); got != tc.want {
			t.Errorf("seed %d: digest %#x, pinned %#x", tc.seed, got, tc.want)
		}
	}
}

// TestGenerateScheduleIndependent generates every schema with the columns
// run inline (GOMAXPROCS 1) and spread over eight workers: the values are
// the same. make stress runs it under -race.
func TestGenerateScheduleIndependent(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		var digests [2]uint64
		for i, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			digests[i] = valueDigest(seed)
			runtime.GOMAXPROCS(prev)
		}
		if digests[0] != digests[1] {
			t.Errorf("seed %d: digest %#x at GOMAXPROCS 1, %#x at 8", seed, digests[0], digests[1])
		}
	}
}

// valueDigest generates the 13 schemas at SF 0.01 from seed and hashes
// every value, row-major, with the table names between tables.
func valueDigest(seed uint64) uint64 {
	h := fnv.New64a()
	for _, s := range append(TPCH(), TPCDS()...) {
		rel := Generate(s, 0.01, seed)
		h.Write([]byte(s.Name))
		n := int(rel.NumRows())
		for i := 0; i < n; i++ {
			for j := range s.Columns {
				hashValue(h, rel.Cols[j].At(i))
			}
		}
	}
	return h.Sum64()
}
