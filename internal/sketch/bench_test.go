package sketch

import (
	"fmt"
	"testing"
)

// The BenchmarkMicro* family is the bench-micro surface: benchstat-
// comparable names, gated in CI against testdata/bench_baseline/
// BENCH_micro.json by cmd/benchrunner -micro-in. Allocations are a hard
// gate (must stay at the baseline's zero); ns/op is recorded, not gated.

var (
	benchSinkU64  uint64
	benchSinkF64  float64
	benchSinkBool bool
)

// benchHashes is a fixed pool of pre-hashed keys so the loop measures
// sketch updates, not key formatting.
func benchHashes(n int) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = Hash64String(fmt.Sprintf("bench-key-%d", i))
	}
	return hs
}

func BenchmarkMicroSketchHLLAdd(b *testing.B) {
	h := NewHLL(DefaultHLLPrecision)
	hs := benchHashes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(hs[i&1023])
	}
}

func BenchmarkMicroSketchHLLEstimate(b *testing.B) {
	h := NewHLL(DefaultHLLPrecision)
	for _, x := range benchHashes(100_000) {
		h.Add(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkF64 = h.Estimate()
	}
}

func BenchmarkMicroSketchBloomAdd(b *testing.B) {
	f := NewBloom(100_000, DefaultBloomFPRate)
	hs := benchHashes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddHash(hs[i&1023])
	}
}

func BenchmarkMicroSketchBloomContains(b *testing.B) {
	f := NewBloom(100_000, DefaultBloomFPRate)
	hs := benchHashes(1024)
	for _, x := range hs[:512] {
		f.AddHash(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkBool = f.ContainsHash(hs[i&1023])
	}
}

func BenchmarkMicroSketchCMSAdd(b *testing.B) {
	c := NewCMS(DefaultCMSDepth, DefaultCMSWidth)
	hs := benchHashes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(hs[i&1023])
	}
}

func BenchmarkMicroSketchCMSCount(b *testing.B) {
	c := NewCMS(DefaultCMSDepth, DefaultCMSWidth)
	hs := benchHashes(1024)
	for _, x := range hs {
		c.Add(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkU64 = c.Count(hs[i&1023])
	}
}

func BenchmarkMicroSketchHash64(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkU64 = Hash64String(keys[i&1023])
	}
}
