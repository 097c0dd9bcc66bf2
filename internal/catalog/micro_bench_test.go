package catalog

import (
	"testing"

	"saqp/internal/dataset"
)

// tpchRelations generates the 8 TPC-H tables at SF 0.01, seed 1: what
// bench's batch_tpch collects its catalog from.
func tpchRelations() []*dataset.Relation {
	var rels []*dataset.Relation
	for _, s := range dataset.TPCH() {
		rels = append(rels, dataset.Generate(s, 0.01, 1))
	}
	return rels
}

// sinkStats keeps the compiler from dropping the measured call.
var sinkStats *TableStats

// BenchmarkMicroCollectTPCH times Collect alone over the 8 TPC-H tables at
// SF 0.01, generated once: catalog.collect_s of batch_tpch's set-up.
func BenchmarkMicroCollectTPCH(b *testing.B) {
	rels := tpchRelations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rel := range rels {
			sinkStats = Collect(rel, 0)
		}
	}
}
