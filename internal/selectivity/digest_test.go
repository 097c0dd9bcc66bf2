package selectivity_test

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
	"saqp/internal/workload"
)

// This file pins the estimator bit for bit. It lives in the external test
// package because the pool recipe needs internal/workload, which imports
// selectivity.

// poolTexts is how many distinct generated texts bench/ops.go's pool holds.
const poolTexts = 4096

// handShapes are plan shapes the generated pool under-samples.
var handShapes = []string{
	// Broadcast joins: folded into a consumer, chained, and left standing
	// as a map-only sink.
	`SELECT /*+ MAPJOIN(part) */ p_type, sum(l_extendedprice) FROM part JOIN lineitem ON l_partkey = p_partkey WHERE l_shipdate < 9000 GROUP BY p_type`,
	`SELECT /*+ MAPJOIN(n) */ ps_partkey, sum(ps_supplycost) FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_nationkey < 5 JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey GROUP BY ps_partkey`,
	`SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey WHERE n_name <> 'CHINA'`,
	`SELECT /*+ MAPJOIN(part) */ p_brand FROM part JOIN lineitem ON l_partkey = p_partkey WHERE p_size IN (1, 5, 10, 15) AND l_quantity < 12 ORDER BY p_brand LIMIT 20`,
	// LIMIT, with and without a sort, after a scan, a join and a group-by.
	`SELECT l_orderkey FROM lineitem LIMIT 10`,
	`SELECT l_orderkey FROM lineitem WHERE l_quantity < 30 ORDER BY l_orderkey LIMIT 5`,
	`SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_totalprice > 5000 LIMIT 100`,
	`SELECT l_returnflag, sum(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY sum(l_quantity) DESC LIMIT 3`,
	// HAVING.
	`SELECT l_orderkey, sum(l_quantity) FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 300`,
	`SELECT o_custkey, count(*) FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY o_custkey HAVING count(*) >= 5 AND count(*) < 50`,
	// The paper's three-table walkthrough and a four-table chain.
	`SELECT ps_partkey, sum(ps_supplycost*ps_availqty) FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'CHINA' JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey GROUP BY ps_partkey`,
	`SELECT p_brand, sum(l_extendedprice) FROM part JOIN lineitem ON l_partkey = p_partkey JOIN orders ON o_orderkey = l_orderkey JOIN customer ON c_custkey = o_custkey WHERE p_container = 'p_contai#3' AND l_quantity < 12 AND o_orderkey < 100000 GROUP BY p_brand`,
	// Same-column range pairs, on plain columns and on join keys.
	`SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN 8500 AND 9000 AND l_quantity >= 10 AND l_quantity < 20`,
	`SELECT o_orderkey, l_extendedprice FROM orders JOIN lineitem ON l_orderkey = o_orderkey WHERE o_orderkey BETWEEN 1000 AND 500000 AND l_orderkey > 2000 AND l_shipdate <= 9100`,
	`SELECT c_custkey, count(*) FROM customer JOIN orders ON o_custkey = c_custkey WHERE c_custkey >= 100 AND c_custkey <= 9000 AND c_custkey <> 500 AND o_totalprice > 1000 GROUP BY c_custkey`,
	`SELECT l_partkey FROM lineitem WHERE l_quantity > 10 AND l_quantity > 20 AND l_quantity <= 45 AND l_quantity <> 30 AND l_quantity >= 21`,
	// IN lists: numeric, on a join key, over strings, beside other conjuncts.
	`SELECT l_orderkey FROM lineitem WHERE l_quantity IN (1, 2, 3, 4, 5)`,
	`SELECT p_brand, sum(l_extendedprice) FROM part JOIN lineitem ON l_partkey = p_partkey WHERE l_partkey IN (1, 5, 10, 15, 20000) AND p_size < 20 GROUP BY p_brand`,
	`SELECT n_name FROM nation WHERE n_name IN ('CHINA', 'FRANCE', 'PERU')`,
	`SELECT l_orderkey FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL') AND l_quantity IN (10, 20) AND l_discount < 0.05`,
	// String equality and inequalities.
	`SELECT s_name FROM supplier JOIN nation ON s_nationkey = n_nationkey WHERE n_name = 'CHINA'`,
	`SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT' AND o_orderstatus <> 'F' AND o_comment < 'm'`,
	// Group keys that are join keys, from either side, and several keys.
	`SELECT o_custkey, count(*) FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY o_custkey`,
	`SELECT c_custkey, c_nationkey, count(*) FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_orderdate < 9000 GROUP BY c_custkey, c_nationkey`,
	`SELECT l_orderkey, l_partkey, l_suppkey, sum(l_quantity) FROM lineitem WHERE l_tax < 0.04 GROUP BY l_orderkey, l_partkey, l_suppkey`,
	// A self-join: both inputs carry both keys.
	`SELECT a.o_orderkey FROM orders a JOIN orders b ON a.o_custkey = b.o_custkey WHERE a.o_totalprice > 100000`,
	// Global aggregates and column-free scans.
	`SELECT count(*) FROM orders`,
	`SELECT count(*) FROM customer JOIN orders ON o_custkey = c_custkey WHERE c_acctbal > 0`,
	// Zipf-skewed TPC-DS keys: dimension-fact and fact-fact.
	`SELECT i_brand, sum(ss_sales_price) FROM item JOIN store_sales ON ss_item_sk = i_item_sk WHERE i_current_price > 10 GROUP BY i_brand`,
	`SELECT ss_quantity FROM store_sales JOIN web_sales ON ws_item_sk = ss_item_sk WHERE ss_quantity < 50`,
	`SELECT ss_item_sk, count(*) FROM store_sales WHERE ss_sold_date_sk > 100 GROUP BY ss_item_sk ORDER BY count(*) DESC LIMIT 10`,
}

func compileSQL(tb testing.TB, sql string) *plan.DAG {
	tb.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		tb.Fatalf("parse %q: %v", sql, err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		tb.Fatalf("resolve %q: %v", sql, err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		tb.Fatalf("compile %q: %v", sql, err)
	}
	return d
}

func sortedSchemas() []*dataset.Schema {
	all := dataset.AllSchemas()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	list := make([]*dataset.Schema, 0, len(names))
	for _, n := range names {
		list = append(list, all[n])
	}
	return list
}

var pool struct {
	once sync.Once
	dags []*plan.DAG
}

// poolDAGs rebuilds bench/ops.go's generatedTexts(poolSeed = 1, 4096):
// distinct normalized texts from workload.NewGenerator(1) that compile and
// estimate over the default framework's catalog (analytic, SF 1, 64 buckets).
func poolDAGs(tb testing.TB) []*plan.DAG {
	tb.Helper()
	pool.once.Do(func() {
		est := selectivity.NewEstimator(catalog.FromSchemas(sortedSchemas(), 1, catalog.DefaultBuckets), selectivity.Config{})
		g := workload.NewGenerator(1)
		seen := make(map[string]bool, poolTexts)
		for tries := 0; len(pool.dags) < poolTexts && tries < 64*poolTexts; tries++ {
			q, _, err := g.RandomQuery()
			if err != nil {
				continue
			}
			sql := q.String()
			if seen[sql] {
				continue
			}
			seen[sql] = true
			// As Framework.Compile does: from the text, not from q.
			pq, err := query.Parse(sql)
			if err != nil {
				continue
			}
			if err := query.Resolve(pq, dataset.AllSchemas()); err != nil {
				continue
			}
			d, err := plan.Compile(pq)
			if err != nil {
				continue
			}
			if _, err := est.EstimateQuery(d); err != nil {
				continue
			}
			pool.dags = append(pool.dags, d)
		}
	})
	if len(pool.dags) != poolTexts {
		tb.Fatalf("pool has %d texts, want %d", len(pool.dags), poolTexts)
	}
	return pool.dags
}

// digestDAGs is the pool, the 7 TPC-H texts and the hand-written shapes.
func digestDAGs(tb testing.TB) []*plan.DAG {
	dags := append([]*plan.DAG(nil), poolDAGs(tb)...)
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			tb.Fatal(err)
		}
		dags = append(dags, compileSQL(tb, sql))
	}
	for _, sql := range handShapes {
		dags = append(dags, compileSQL(tb, sql))
	}
	return dags
}

// addEstimate folds every number a JobEstimate exposes into h, in DAG order.
func addEstimate(h hash.Hash64, qe *selectivity.QueryEstimate) {
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	n := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	groups := func(gs []selectivity.TaskGroup) {
		n(len(gs))
		for _, g := range gs {
			n(g.Count)
			f(g.InBytes)
			f(g.OutBytes)
		}
	}
	n(len(qe.Jobs))
	for _, je := range qe.Jobs {
		f(je.InBytes)
		f(je.MedBytes)
		f(je.OutBytes)
		f(je.InRows)
		f(je.MedRows)
		f(je.OutRows)
		f(je.IS)
		f(je.FS)
		f(je.P)
		n(je.NumMaps)
		n(je.NumReduces)
		groups(je.MapGroups)
		groups(je.ReduceGroups)
	}
	f(qe.TotalInputBytes())
}

func estimateDigest(tb testing.TB, est *selectivity.Estimator, d *plan.DAG) uint64 {
	tb.Helper()
	qe, err := est.EstimateQuery(d)
	if err != nil {
		tb.Fatalf("estimate %s: %v", d.Query, err)
	}
	h := fnv.New64a()
	addEstimate(h, qe)
	return h.Sum64()
}

// TestEstimateDigestPinned holds every number the estimator produces to
// the bit, over three catalogs: the analytic SF-1 catalog the serving
// workloads use, the same at SF 100 (several reducers per join, so the
// hot-partition split is live), and one collected from generated rows at
// SF 0.01 (real TopShare, string columns without histograms, per-column
// domains that make join-key histograms misaligned, so Rebucket runs).
// The constants were recorded at the commit before the estimator's
// representation changed and must not move with it: pruned statistics are
// invisible.
func TestEstimateDigestPinned(t *testing.T) {
	dags := digestDAGs(t)
	schemas := sortedSchemas()
	cats := []struct {
		name         string
		cat          *catalog.Catalog
		want, noSkew uint64
	}{
		{name: "analytic-sf1", cat: catalog.FromSchemas(schemas, 1, catalog.DefaultBuckets),
			want: 0xe0d94337706ec7b9, noSkew: 0xe0d94337706ec7b9},
		{name: "analytic-sf100", cat: catalog.FromSchemas(schemas, 100, catalog.DefaultBuckets),
			want: 0x22780cb2612b11d4, noSkew: 0x2d34303925f596b1},
		{name: "collected-sf0.01", cat: catalog.CollectAll(schemas, 0.01, 7, 0),
			want: 0xcb1f83ed02d2c6aa, noSkew: 0xcb1f83ed02d2c6aa},
	}
	for _, c := range cats {
		enc, err := c.cat.Encode()
		if err != nil {
			t.Fatal(err)
		}
		before := sha256.Sum256(enc)
		for _, cfg := range []struct {
			name string
			cfg  selectivity.Config
			want uint64
		}{
			{"default", selectivity.Config{}, c.want},
			{"no-reduce-skew", selectivity.Config{DisableReduceSkew: true}, c.noSkew},
		} {
			est := selectivity.NewEstimator(c.cat, cfg.cfg)
			h := fnv.New64a()
			for _, d := range dags {
				qe, err := est.EstimateQuery(d)
				if err != nil {
					t.Fatalf("%s/%s: estimate %s: %v", c.name, cfg.name, d.Query, err)
				}
				addEstimate(h, qe)
			}
			if got := h.Sum64(); got != cfg.want {
				t.Errorf("%s/%s: digest over %d DAGs = %#016x, pinned %#016x", c.name, cfg.name, len(dags), got, cfg.want)
			}
		}
		enc, err = c.cat.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if after := sha256.Sum256(enc); after != before {
			t.Errorf("%s: estimating changed the catalog's encoding", c.name)
		}
	}
}

// BenchmarkMicroEstimatePool measures estimation over the 4,096-text pool
// serve_cold cycles and net_mixed draws from (2.00 jobs, 1.91 scans, 0.82
// joins, 0.81 group-bys per query) — the estimator's share of a plan-cache
// miss. BenchmarkMicroEstimateQuery is one three-job chain; this is the mix.
func BenchmarkMicroEstimatePool(b *testing.B) {
	dags := poolDAGs(b)
	est := selectivity.NewEstimator(catalog.FromSchemas(sortedSchemas(), 1, catalog.DefaultBuckets), selectivity.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.EstimateQuery(dags[i%len(dags)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPropertyEstimatorSharedStatsImmutable: one Estimator serves many
// goroutines without a lock because nothing it prepared is written again —
// copy-on-narrow never writes through a shared *Histogram or a prepared
// ColStat. Run under -race (make stress), 8 goroutines × 2,000 estimates of
// interleaved pool DAGs must each equal the single-threaded result, and
// leave the catalog's bytes and fingerprint as they were.
func TestPropertyEstimatorSharedStatsImmutable(t *testing.T) {
	const workers, perWorker = 8, 2000
	dags := poolDAGs(t)
	cat := catalog.FromSchemas(sortedSchemas(), 1, catalog.DefaultBuckets)
	enc, err := cat.Encode()
	if err != nil {
		t.Fatal(err)
	}
	before, fingerprint := sha256.Sum256(enc), cat.Fingerprint()
	est := selectivity.NewEstimator(cat, selectivity.Config{})
	want := make([]uint64, len(dags))
	for i, d := range dags {
		want[i] = estimateDigest(t, est, d)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				// Strides co-prime with the pool size interleave the workers'
				// walks so neighbours estimate the same DAGs at different times.
				i := (g*511 + k*(2*g+1)) % len(dags)
				qe, err := est.EstimateQuery(dags[i])
				if err != nil {
					t.Errorf("worker %d: estimate %d: %v", g, i, err)
					return
				}
				h := fnv.New64a()
				addEstimate(h, qe)
				if got := h.Sum64(); got != want[i] {
					t.Errorf("worker %d: DAG %d digest %#x, single-threaded %#x", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if enc, err = cat.Encode(); err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(enc) != before || cat.Fingerprint() != fingerprint {
		t.Error("estimating changed the shared catalog")
	}
}
