package dataset

import (
	"math"
	"runtime"
	"testing"
)

// TestGenerateAllocBudget bounds what Generate of the 8 TPC-H tables at SF
// 0.01 allocates at GOMAXPROCS 4: the least of three passes, each
// measured + 10 %. Cutting each string column's values from one buffer
// (stringColumn) measured 305 to 308 mallocs and 17 394 KB since
// internal/par's helpers outlive a call (352 to 357 and 17 396 KB while
// each call started one goroutine per worker), nearly all of it the keys
// and values of every column. One heap string per built value measured 57 803
// mallocs and 18 945 KB, which the malloc budget fails.
func TestGenerateAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got, kb := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		generateTPCH()
		runtime.ReadMemStats(&after)
		got, kb = min(got, after.Mallocs-before.Mallocs), min(kb, (after.TotalAlloc-before.TotalAlloc)>>10)
	}
	const measured, measuredKB = 306, 17394
	t.Logf("Generate of the 8 TPC-H tables: %d mallocs, %d KB", got, kb)
	if got > measured+measured/10 {
		t.Errorf("Generate of the 8 TPC-H tables allocates %d times, budget %d + 10%%", got, measured)
	}
	if kb > measuredKB+measuredKB/10 {
		t.Errorf("Generate of the 8 TPC-H tables allocates %d KB, budget %d KB + 10%%", kb, measuredKB)
	}
}
