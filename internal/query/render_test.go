package query_test

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"saqp/internal/query"
	"saqp/internal/workload"
)

// renderShapes are clauses the generator's pool under-samples.
var renderShapes = []string{
	`SELECT /*+ MAPJOIN(part, nation) */ p_type, sum(l_extendedprice*l_discount), count(*), avg(l_tax), min(l_quantity), max(l_quantity) FROM part JOIN lineitem ON l_partkey = p_partkey AND l_quantity BETWEEN 1 AND 9 WHERE l_shipdate < 19940101 AND p_container = 'it''s' AND p_size IN (1, 2.5, 1e21, -3) AND p_brand IN ('a', 'b''c') GROUP BY p_type, p_brand HAVING sum(l_extendedprice*l_discount) > 1e-7 AND count(*) >= 5 ORDER BY sum(l_extendedprice*l_discount) DESC, count(*), p_type DESC LIMIT 10`,
	`SELECT a.o_orderkey FROM orders a JOIN orders b ON a.o_custkey = b.o_custkey WHERE a.o_totalprice <> 100000.5 AND b.o_orderkey <= 7 AND b.o_orderkey >= -0.000001 AND a.o_comment > ''`,
	`SELECT count(*) FROM orders LIMIT 0`,
	`SELECT l_orderkey FROM lineitem ORDER BY l_orderkey`,
}

// TestRenderDigestPinned pins Query.String() — the plan-cache key — byte
// for byte over the generator's first 4,096 distinct texts, the TPC-H
// texts and the shapes above, and Literal.String() over numbers whose
// shortest form needs an exponent. The constants were recorded with the
// fmt-based renderer, before the append-based one replaced it.
func TestRenderDigestPinned(t *testing.T) {
	h := fnv.New64a()
	add := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	g := workload.NewGenerator(1)
	seen := make(map[string]bool, 4096)
	for tries := 0; len(seen) < 4096; tries++ {
		if tries > 1<<18 {
			t.Fatalf("generator yielded only %d distinct texts", len(seen))
		}
		q, _, err := g.RandomQuery()
		if err != nil {
			continue
		}
		if sql := q.String(); !seen[sql] {
			seen[sql] = true
			add(sql)
		}
	}
	texts := append([]string(nil), renderShapes...)
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, sql)
	}
	for _, sql := range texts {
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		add(q.String())
		for _, j := range q.Joins {
			for _, p := range j.On {
				add(p.String())
			}
		}
		for _, s := range q.Select {
			add(s.String())
		}
		for _, hv := range q.Having {
			add(hv.String())
		}
		for _, o := range q.OrderBy {
			add(o.String())
		}
	}
	if got, want := h.Sum64(), uint64(0x567bac233f9ffc95); got != want {
		t.Errorf("rendering digest = %#016x, pinned %#016x", got, want)
	}

	h = fnv.New64a()
	for _, f := range []float64{0, 1, -1, 0.05, 19940101, 1e20, 1e21, 1e-4, 1e-5, 123456789012345680000, 1.5e300, 5e-324,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3, -2.5e-10, 100000.5} {
		add(query.NumLit(f).String())
		add(strconv.Quote(query.StrLit(strconv.FormatFloat(f, 'g', -1, 64) + "'").String()))
	}
	if got, want := h.Sum64(), uint64(0x2b3a8e4c07d1dcad); got != want {
		t.Errorf("literal digest = %#016x, pinned %#016x", got, want)
	}
}
