package catalog

import (
	"math"
	"runtime"
	"testing"
)

// TestCollectAllocBudget bounds what Collect of the 8 TPC-H tables at SF
// 0.01 (bench's batch_tpch set-up) allocates at GOMAXPROCS 4: the least
// of three passes, each measured + 10 %. Counting each column through the
// generator's keys or its own integer values (countCodes), with an int or
// date column bucketed as its own []int64, measured 292 mallocs and
// 2 256 KB since internal/par's helpers outlive a call (339 to 344 and
// 2 258 KB while each call started one goroutine per worker). A float64 copy of each int and date column for summarize to
// bucket measured 362 to 371 mallocs and 6 292 KB, and counting every
// float and string column in a map of its values that grew from empty
// 1 571 to 1 585 mallocs and 16 169 to 16 381 KB; this budget fails both.
func TestCollectAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rels := tpchRelations()
	got, kb := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, rel := range rels {
			sinkStats = Collect(rel, 0)
		}
		runtime.ReadMemStats(&after)
		got, kb = min(got, after.Mallocs-before.Mallocs), min(kb, (after.TotalAlloc-before.TotalAlloc)>>10)
	}
	const measured, measuredKB = 292, 2256
	t.Logf("Collect of the 8 TPC-H tables: %d mallocs, %d KB", got, kb)
	if got > measured+measured/10 {
		t.Errorf("Collect of the 8 TPC-H tables allocates %d times, budget %d + 10%%", got, measured)
	}
	if kb > measuredKB+measuredKB/10 {
		t.Errorf("Collect of the 8 TPC-H tables allocates %d KB, budget %d KB + 10%%", kb, measuredKB)
	}
}
