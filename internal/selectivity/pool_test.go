package selectivity_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/selectivity"
	"saqp/internal/workload"
)

// TestEstimateAllocBudget bounds one warm EstimateQuery per plan shape:
// the walk, its stages, edge columns and every histogram it filters,
// scales, joins or rebuckets come from a pooled walk, so what is left is
// what the estimate keeps: the QueryEstimate, its Jobs slice, its ByID
// map (header and one group), and one slab each of job estimates and task
// groups — 6 whatever the shape. The four-table chain adds one: a stage
// whose need set outgrows its six-slot array. The collected catalog's
// join-key histograms are misaligned, so that row rebuckets too. Budgets
// are the measured counts + 2.
func TestEstimateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop walks at random")
	}
	q14, err := workload.TPCHSQL("q14")
	if err != nil {
		t.Fatal(err)
	}
	schemas := sortedSchemas()
	analytic := selectivity.NewEstimator(catalog.FromSchemas(schemas, 1, catalog.DefaultBuckets), selectivity.Config{})
	collected := selectivity.NewEstimator(catalog.CollectAll(schemas, 0.01, 7, 0), selectivity.Config{})
	for _, shape := range []struct {
		name, sql string
		est       *selectivity.Estimator
		measured  float64
	}{
		{"scan-only", `SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 9000 AND l_quantity >= 10`, analytic, 6},
		{"join → group-by", `SELECT c_nationkey, sum(o_totalprice) FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_orderdate < 9000 GROUP BY c_nationkey`, analytic, 6},
		{"three-job chain", `SELECT ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey JOIN partsupp ON ps_suppkey = s_suppkey WHERE n_name <> 'CHINA' GROUP BY ps_partkey`, analytic, 6},
		{"q14 (MAPJOIN)", q14, analytic, 6},
		{"four-table chain, rebucketed", `SELECT p_brand, sum(l_extendedprice) FROM part JOIN lineitem ON l_partkey = p_partkey JOIN orders ON o_orderkey = l_orderkey JOIN customer ON c_custkey = o_custkey WHERE p_container = 'p_contai#3' AND l_quantity < 12 AND o_orderkey < 100000 GROUP BY p_brand`, collected, 7},
	} {
		d := compileSQL(t, shape.sql)
		estimate := func() {
			if _, err := shape.est.EstimateQuery(d); err != nil {
				t.Fatal(err)
			}
		}
		estimate() // grow a pooled walk's slabs to this shape
		n := testing.AllocsPerRun(100, estimate)
		t.Logf("%s (%d jobs): %.0f allocations", shape.name, len(d.Jobs), n)
		if n > shape.measured+2 {
			t.Errorf("%s: EstimateQuery allocates %.0f times, budget %.0f+2", shape.name, n, shape.measured)
		}
	}
}

// filteredSelfJoin is the n-way lineitem self-join on l_orderkey with a
// range predicate on every side's key, so every scan filters and scales a
// histogram and every join joins and rescales one.
func filteredSelfJoin(n int) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM lineitem l0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, " JOIN lineitem l%d ON l%d.l_orderkey = l%d.l_orderkey", i, i-1, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " %s l%d.l_orderkey > %d", map[bool]string{true: "WHERE", false: "AND"}[i == 0], i, 1000*(i+1))
	}
	return b.String()
}

// TestPropertyEstimatePoolConcurrent: the pooled walks carry nothing from
// one estimate into the next. Run under -race (make stress), 8 goroutines
// interleave estimates of the digest DAGs and a filtered 12-way self-join
// over a 64-bucket and a 1,024-bucket catalog, so a walk's arena grows on
// one, is reused by the other and — the self-join's, at 1,024 buckets —
// is dropped past slab.RetainBytes; every digest must equal the one
// a single goroutine computed first.
func TestPropertyEstimatePoolConcurrent(t *testing.T) {
	const workers, perWorker = 8, 1000
	dags := append(digestDAGs(t), compileSQL(t, filteredSelfJoin(12)))
	schemas := sortedSchemas()
	ests := []*selectivity.Estimator{
		selectivity.NewEstimator(catalog.FromSchemas(schemas, 1, catalog.DefaultBuckets), selectivity.Config{}),
		selectivity.NewEstimator(catalog.FromSchemas(schemas, 100, 1024), selectivity.Config{}),
	}
	want := make([][]uint64, len(ests))
	for k, est := range ests {
		for _, d := range dags {
			want[k] = append(want[k], estimateDigest(t, est, d))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i, c := (g*733+k*(2*g+1))%len(dags), (g+k)%len(ests)
				if k%8 == g%8 {
					// The self-join, on each catalog in turn: its arena is
					// dropped at 1,024 buckets.
					i, c = len(dags)-1, k/8%len(ests)
				}
				qe, err := ests[c].EstimateQuery(dags[i])
				if err != nil {
					t.Errorf("worker %d: estimate %d: %v", g, i, err)
					return
				}
				h := fnv.New64a()
				addEstimate(h, qe)
				if got := h.Sum64(); got != want[c][i] {
					t.Errorf("worker %d: catalog %d, DAG %d digest %#x, single-threaded %#x", g, c, i, got, want[c][i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
