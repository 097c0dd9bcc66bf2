package serve

import (
	"fmt"
	"testing"
)

// BenchmarkMicroServeCacheHit measures the steady-state path of every
// repeated submission: a warm text-tier lookup, lock included. The hit
// path is //saqp:hotpath; TestHotPathAllocs holds it at zero
// allocations and TestServerHitAllocBudget bounds the whole hit.
func BenchmarkMicroServeCacheHit(b *testing.B) {
	c := newPlanCache(256)
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("select l_orderkey from lineitem where l_quantity < %d", i)
		e, owner, _ := c.lookup(texts[i]+"\x00fp/exact", texts[i])
		if !owner {
			b.Fatal("fresh key already cached")
		}
		c.publish(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.lookupText(texts[i&63]) == nil {
			b.Fatal("warm text missed")
		}
	}
}
