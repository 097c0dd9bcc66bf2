package mapreduce

import (
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
	"saqp/internal/workload"
)

// catalogT aliases the catalog type for test helper brevity.
type catalogT = catalog.Catalog

func TestHavingFiltersGroups(t *testing.T) {
	e := newTestEngine(t)
	all := run(t, e, `SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity`)
	filtered := run(t, e, `SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity HAVING count(*) > 1200`)
	if filtered.Final.NumRows() >= all.Final.NumRows() {
		t.Fatalf("HAVING did not filter: %d vs %d groups", filtered.Final.NumRows(), all.Final.NumRows())
	}
	// Every surviving group satisfies the condition; brute-force check.
	ci := filtered.Final.Col(ref("J1.agg0"))
	for i := 0; i < int(filtered.Final.NumRows()); i++ {
		if n := filtered.Final.At(i, ci).I; n <= 1200 {
			t.Fatalf("group with count %d survived HAVING count(*) > 1200", n)
		}
	}
	// And the set of surviving groups matches filtering the full result.
	want := 0
	ai := all.Final.Col(ref("J1.agg0"))
	for i := 0; i < int(all.Final.NumRows()); i++ {
		if all.Final.At(i, ai).I > 1200 {
			want++
		}
	}
	if int(filtered.Final.NumRows()) != want {
		t.Fatalf("HAVING kept %d groups, brute force says %d", filtered.Final.NumRows(), want)
	}
}

func TestHavingOnSumDistinctFromSelect(t *testing.T) {
	// The HAVING aggregate need not appear in the SELECT list.
	e := newTestEngine(t)
	res := run(t, e, `SELECT l_shipmode, count(*) FROM lineitem GROUP BY l_shipmode HAVING sum(l_extendedprice) > 1000000`)
	if res.Final.NumRows() == 0 {
		t.Fatal("no groups survived a generous sum threshold")
	}
	if res.Final.NumRows() > 7 {
		t.Fatalf("more groups than l_shipmode cardinality: %d", res.Final.NumRows())
	}
}

func TestHavingParseResolveRoundTrip(t *testing.T) {
	q, err := query.Parse(`SELECT l_shipmode, count(*) FROM lineitem GROUP BY l_shipmode HAVING count(*) > 10 AND sum(l_quantity) >= 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Having) != 2 {
		t.Fatalf("having conjuncts = %d", len(q.Having))
	}
	if !q.Having[0].Star || q.Having[0].Op != query.OpGT {
		t.Fatalf("having[0] = %+v", q.Having[0])
	}
	if q.Having[1].Agg != query.AggSum {
		t.Fatalf("having[1] = %+v", q.Having[1])
	}
	if _, err := query.Parse(q.String()); err != nil {
		t.Fatalf("HAVING does not reparse: %v\n%s", err, q)
	}
}

func TestHavingParseErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT a, count(*) FROM t GROUP BY a HAVING b > 1`,         // not an aggregate
		`SELECT a, count(*) FROM t GROUP BY a HAVING count(*) >`,    // missing literal
		`SELECT a, count(*) FROM t GROUP BY a HAVING count( > 1`,    // malformed
		`SELECT a, count(*) FROM t GROUP BY a HAVING sum(x) LIKE 1`, // bad operator
	} {
		if _, err := query.Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

func TestHavingEstimateShrinksOutput(t *testing.T) {
	dPlain := compile(t, `SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity`)
	dHaving := compile(t, `SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity HAVING count(*) > 1200`)
	cat := fixtureCatalog()
	est := newEstimator(t, cat)
	a, err := est.EstimateQuery(dPlain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.EstimateQuery(dHaving)
	if err != nil {
		t.Fatal(err)
	}
	if b.ByID["J1"].OutRows >= a.ByID["J1"].OutRows {
		t.Fatalf("HAVING estimate did not shrink output: %v vs %v",
			b.ByID["J1"].OutRows, a.ByID["J1"].OutRows)
	}
}

// newEstimator builds an estimator matching the test engine's block size.
func newEstimator(t *testing.T, cat *catalogT) *selectivity.Estimator {
	t.Helper()
	return selectivity.NewEstimator(cat, selectivity.Config{BlockSize: 64 << 10})
}

func TestOrderByAggregateTopK(t *testing.T) {
	// TPC-H Q3 idiom: top groups by aggregate value, descending.
	e := newTestEngine(t)
	res := run(t, e, `SELECT l_shipmode, sum(l_extendedprice)
		FROM lineitem GROUP BY l_shipmode ORDER BY sum(l_extendedprice) DESC LIMIT 3`)
	if res.Final.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Final.NumRows())
	}
	// Descending by the aggregate column.
	for i := 1; i < int(res.Final.NumRows()); i++ {
		if res.Final.At(i, 1).F > res.Final.At(i-1, 1).F {
			t.Fatal("not sorted by aggregate desc")
		}
	}
	// The top value matches the max over the unsorted aggregation.
	full := run(t, e, `SELECT l_shipmode, sum(l_extendedprice) FROM lineitem GROUP BY l_shipmode`)
	max := 0.0
	for i := 0; i < int(full.Final.NumRows()); i++ {
		if v := full.Final.At(i, 1).F; v > max {
			max = v
		}
	}
	if res.Final.At(0, 1).F != max {
		t.Fatalf("top-1 %v != true max %v", res.Final.At(0, 1).F, max)
	}
}

func TestOrderByAggregateErrors(t *testing.T) {
	// Aggregate order key without GROUP BY, or not in SELECT, must fail to
	// compile.
	for _, src := range []string{
		`SELECT l_orderkey FROM lineitem ORDER BY sum(l_quantity)`,
		`SELECT l_shipmode, count(*) FROM lineitem GROUP BY l_shipmode ORDER BY sum(l_quantity)`,
	} {
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
			t.Fatalf("resolve %q: %v", src, err)
		}
		if _, err := plan.Compile(q); err == nil {
			t.Fatalf("Compile(%q) should fail", src)
		}
	}
}

func TestQ3CanonicalRuns(t *testing.T) {
	e := newTestEngine(t)
	q, err := workload.TPCHQuery("q3")
	if err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunQuery(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.NumRows() > 10 {
		t.Fatalf("q3 returned %d rows, limit is 10", res.Final.NumRows())
	}
}
