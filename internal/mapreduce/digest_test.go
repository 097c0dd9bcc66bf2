package mapreduce

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/workload"
)

// digestShapes are the hand-written plans the digest covers beside the
// TPC-H texts and the generated pool: every shape the package's other
// tests execute (folded and standing MAPJOIN, a broadcast with a
// build-side filter, HAVING, ORDER BY with and without LIMIT, the Zipf
// TPC-DS join, Q11) plus the key kinds the typed kernels branch on — float,
// date, string and composite group keys, a float join key, string and IN
// predicates, and plans whose filter keeps nothing.
var digestShapes = []string{
	`SELECT l_orderkey FROM lineitem WHERE l_quantity < 11`,
	`SELECT l_orderkey FROM lineitem WHERE l_quantity < 11 AND l_discount < 0.05`,
	`SELECT l_orderkey FROM lineitem WHERE l_extendedprice >= 3000`,
	`SELECT l_orderkey FROM lineitem WHERE l_quantity IN (1, 5, 9, 13)`,
	`SELECT l_orderkey FROM lineitem WHERE l_quantity BETWEEN 10 AND 20`,
	`SELECT l_orderkey, l_shipmode FROM lineitem WHERE l_shipmode IN ('0', '3') AND l_returnflag <> '1'`,
	`SELECT l_orderkey FROM lineitem WHERE l_discount = 0.05`,
	`SELECT l_orderkey FROM lineitem WHERE l_quantity > 50`,
	`SELECT l_quantity, sum(l_extendedprice), count(*), min(l_extendedprice), max(l_extendedprice), avg(l_extendedprice)
		FROM lineitem GROUP BY l_quantity`,
	`SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity`,
	`SELECT l_orderkey, count(*) FROM lineitem GROUP BY l_orderkey`,
	`SELECT l_partkey, count(*) FROM lineitem GROUP BY l_partkey`,
	`SELECT l_quantity, sum(l_extendedprice) FROM lineitem WHERE l_shipdate < 9500 GROUP BY l_quantity`,
	`SELECT l_discount, sum(l_quantity), count(*) FROM lineitem GROUP BY l_discount`,
	`SELECT l_shipdate, count(*) FROM lineitem WHERE l_shipdate < 8200 GROUP BY l_shipdate`,
	`SELECT l_returnflag, l_linestatus, l_tax, sum(l_extendedprice*l_discount), avg(l_quantity)
		FROM lineitem GROUP BY l_returnflag, l_linestatus, l_tax`,
	`SELECT l_quantity, count(*) FROM lineitem WHERE l_quantity > 50 GROUP BY l_quantity`,
	`SELECT count(*), sum(l_extendedprice/l_quantity), sum(l_extendedprice-l_tax), sum(l_quantity+l_tax) FROM lineitem WHERE l_discount >= 0.05`,
	`SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity HAVING count(*) > 1200`,
	`SELECT l_shipmode, count(*) FROM lineitem GROUP BY l_shipmode HAVING sum(l_extendedprice) > 1000000`,
	`SELECT l_shipmode, count(*) FROM lineitem GROUP BY l_shipmode HAVING count(*) > 10 AND avg(l_quantity) >= 5`,
	`SELECT l_shipmode, sum(l_extendedprice) FROM lineitem GROUP BY l_shipmode ORDER BY sum(l_extendedprice) DESC LIMIT 3`,
	`SELECT s_suppkey, s_acctbal FROM supplier ORDER BY s_acctbal DESC LIMIT 7`,
	`SELECT s_suppkey FROM supplier ORDER BY s_suppkey LIMIT 50`,
	`SELECT o_orderkey FROM orders ORDER BY o_orderkey`,
	`SELECT o_orderpriority, o_orderdate, o_orderkey FROM orders WHERE o_totalprice < 5000 ORDER BY o_orderpriority DESC, o_orderdate`,
	`SELECT s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`,
	`SELECT s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey AND n_nationkey < 5`,
	`SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey`,
	`SELECT c_name, count(*) FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY c_name`,
	`SELECT l_orderkey, o_orderdate FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_totalprice < 2000`,
	`SELECT p_name, ps_availqty FROM part JOIN partsupp ON p_retailprice = ps_supplycost`,
	`SELECT o_orderkey, l_orderkey FROM orders JOIN lineitem ON o_orderstatus = l_returnflag WHERE o_totalprice < 900 AND l_quantity > 49`,
	`SELECT o_orderkey, l_orderkey FROM orders JOIN lineitem ON o_orderdate = l_shipdate WHERE o_totalprice < 1500 AND l_quantity > 45`,
	`SELECT i_brand FROM item JOIN store_sales ON ss_item_sk = i_item_sk`,
	`SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`,
	`SELECT /*+ MAPJOIN(nation) */ s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey AND n_nationkey < 20`,
	`SELECT /*+ MAPJOIN(supplier) */ s_name, n_name FROM nation JOIN supplier ON s_nationkey = n_nationkey AND s_acctbal > 0`,
	`SELECT /*+ MAPJOIN(nation) */ ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey
		JOIN partsupp ON ps_suppkey = s_suppkey GROUP BY ps_partkey`,
	`SELECT ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey
		JOIN partsupp ON ps_suppkey = s_suppkey GROUP BY ps_partkey`,
	`SELECT /*+ MAPJOIN(part) */ p_type, sum(l_extendedprice)
		FROM part JOIN lineitem ON l_partkey = p_partkey
		WHERE l_quantity < 30 GROUP BY p_type`,
	`SELECT p_type, sum(l_extendedprice)
		FROM part JOIN lineitem ON l_partkey = p_partkey
		WHERE l_quantity < 30 GROUP BY p_type`,
	`SELECT /*+ MAPJOIN(n) */ ps_partkey, count(*)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_nationkey < 5
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`,
	`SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'n_name#b~~~~'
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`,
}

// tpchPlans compiles the 7 TPC-H texts, in workload.TPCHNames' order.
func tpchPlans(t *testing.T) (names []string, dags []*plan.DAG) {
	t.Helper()
	for _, name := range workload.TPCHNames() {
		q, err := workload.TPCHQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, dags = append(names, name), append(dags, d)
	}
	return names, dags
}

// digestPlans compiles everything the digest executes, in a fixed order:
// the 7 TPC-H texts, the first 200 queries of workload.NewGenerator(99),
// then digestShapes.
func digestPlans(t *testing.T) (names []string, dags []*plan.DAG) {
	t.Helper()
	add := func(name string, d *plan.DAG, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, dags = append(names, name), append(dags, d)
	}
	names, dags = tpchPlans(t)
	gen := workload.NewGenerator(99)
	for i := 0; i < 200; i++ {
		q, shape, err := gen.RandomQuery()
		if err != nil {
			t.Fatalf("generated %d: %v", i, err)
		}
		d, err := plan.Compile(q)
		add(fmt.Sprintf("gen%d/%s", i, shape), d, err)
	}
	for i, src := range digestShapes {
		names, dags = append(names, fmt.Sprintf("shape%d", i)), append(dags, compile(t, src))
	}
	return names, dags
}

// digestValue folds one result value into h: kind, then payload.
func digestValue(h hash.Hash64, v dataset.Value) {
	var buf [9]byte
	buf[0] = byte(v.K)
	switch v.K {
	case dataset.KindInt, dataset.KindDate:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
	case dataset.KindFloat:
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.F))
	case dataset.KindString:
		binary.LittleEndian.PutUint64(buf[1:], uint64(len(v.S)))
	}
	h.Write(buf[:])
	if v.K == dataset.KindString {
		h.Write([]byte(v.S))
	}
}

// digestResult hashes one executed DAG: per job in DAG order the seven
// JobStats integers, then the final frame's column names and every value
// in row order.
func digestResult(d *plan.DAG, res *QueryResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, job := range d.Jobs {
		st := res.Stats[job.ID]
		h.Write([]byte(job.ID))
		for _, v := range []int64{st.InBytes, st.MedBytes, st.OutBytes, st.InRows, st.MedRows, st.OutRows, int64(st.NumMaps)} {
			num(v)
		}
	}
	f := res.Final
	for _, c := range f.Cols {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	n := int(f.NumRows())
	num(int64(n))
	for i := 0; i < n; i++ {
		for j := range f.Cols {
			digestValue(h, f.At(i, j))
		}
	}
	return h.Sum64()
}

var (
	digestRelOnce sync.Once
	digestRels    []*dataset.Relation
)

// digestRelations is the bench's data: every schema at SF 0.01, seed 1.
func digestRelations() []*dataset.Relation {
	digestRelOnce.Do(func() {
		for _, s := range dataset.Schemas() {
			digestRels = append(digestRels, dataset.Generate(s, 0.01, 1))
		}
	})
	return digestRels
}

// TestEngineDigestPinned pins the engine's whole observable output — the
// measured |In|/|Med|/|Out| the estimator is validated against and every
// result value, in order — on the bench's configuration and on one with
// small blocks and an odd reducer count, each with the tasks run inline
// (GOMAXPROCS 1) and spread over eight workers. Row
// order is part of the answer: a downstream group-by combines per
// contiguous split of its upstream frame, so shuffle partitioning, build
// and probe order, group output order and the order partial float sums
// merge in all reach MedRows and the sums' low bits. The constants were
// captured at the row engine (fe528cc).
func TestEngineDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the engine digest in -short mode")
	}
	names, dags := digestPlans(t)
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"bench", Config{}, 0xc47889e59a829381},
		{"small-blocks", Config{BlockSize: 64 << 10, NumReducers: 3}, 0x5656dabcfa4f1d51},
	} {
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			e := New(tc.cfg)
			for _, rel := range digestRelations() {
				e.Register(rel)
			}
			total := fnv.New64a()
			per := make([]uint64, len(dags))
			for i, d := range dags {
				res, err := e.RunQuery(d)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("%s/procs%d: %s: %v", tc.name, procs, names[i], err)
				}
				per[i] = digestResult(d, res)
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], per[i])
				total.Write(buf[:])
			}
			runtime.GOMAXPROCS(prev)
			if got := total.Sum64(); got != tc.want {
				t.Errorf("%s/procs%d: digest %#x, pinned %#x", tc.name, procs, got, tc.want)
				for i, p := range per {
					t.Logf("%s/procs%d %s %#x", tc.name, procs, names[i], p)
				}
			}
		}
	}
}
