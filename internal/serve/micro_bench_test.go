package serve

import (
	"fmt"
	"testing"
)

// BenchmarkMicroServeCacheHit measures the steady-state path of every
// repeated submission: a warm plan-cache lookup. The hit path is
// //saqp:hotpath; TestHotPathAllocs holds it at zero allocations.
func BenchmarkMicroServeCacheHit(b *testing.B) {
	c := newPlanCache(256)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("select l_orderkey from lineitem where l_quantity < %d\x00fp/exact", i)
		e, owner, _ := c.lookup(keys[i])
		if !owner {
			b.Fatal("fresh key already cached")
		}
		c.publish(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.mu.Lock()
		if _, ok := c.hit(keys[i&63]); !ok {
			c.mu.Unlock()
			b.Fatal("warm key missed")
		}
		c.mu.Unlock()
	}
}
