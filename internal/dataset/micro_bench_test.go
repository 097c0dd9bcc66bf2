package dataset

import "testing"

// sinkRel keeps the compiler from dropping the measured call.
var sinkRel *Relation

// generateTPCH generates the 8 TPC-H tables at SF 0.01, seed 1: bench's
// batch_tpch set-up.
func generateTPCH() {
	for _, s := range TPCH() {
		sinkRel = Generate(s, 0.01, 1)
	}
}

// BenchmarkMicroGenerateTPCH times Generate of the 8 TPC-H tables at SF
// 0.01: dataset.generate_s of batch_tpch's set-up.
func BenchmarkMicroGenerateTPCH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		generateTPCH()
	}
}
