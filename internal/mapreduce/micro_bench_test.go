package mapreduce

import (
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
)

// BenchmarkMicro* cover the engine's stages: map-side filtering, the
// shuffle join, the combine-heavy group-by reduce, and a group-by whose map
// phase runs a folded broadcast join.

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e := New(Config{BlockSize: 64 << 10, NumReducers: 4})
	for _, rel := range fixtureRelations() {
		e.Register(rel)
	}
	return e
}

func benchCompile(b *testing.B, src string) *plan.DAG {
	b.Helper()
	q, err := query.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		b.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchRun(b *testing.B, src string) {
	b.Helper()
	e := benchEngine(b)
	d := benchCompile(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunQuery(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroEngineMapFilter(b *testing.B) {
	benchRun(b, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 11`)
}

func BenchmarkMicroEngineShuffleJoin(b *testing.B) {
	benchRun(b, `SELECT l_orderkey, o_orderdate FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice < 2000`)
}

func BenchmarkMicroEngineGroupbyReduce(b *testing.B) {
	benchRun(b, `SELECT l_orderkey, sum(l_quantity) FROM lineitem GROUP BY l_orderkey`)
}

// BenchmarkMicroEngineMapJoin is q14's shape: part broadcast into the
// lineitem group-by's map phase (plan.Job.MapJoins), whose probe selection
// is the identity.
func BenchmarkMicroEngineMapJoin(b *testing.B) {
	benchRun(b, `SELECT /*+ MAPJOIN(part) */ p_type, sum(l_extendedprice)
		FROM part JOIN lineitem ON l_partkey = p_partkey
		WHERE l_shipdate >= 8962 AND l_shipdate < 8993 GROUP BY p_type`)
}
