package mapreduce

import (
	"math"
	"strings"
	"sync"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
)

const sf = 0.01

// testRelations caches the generated fixture relations across tests; the
// engine never mutates registered relations, so sharing is safe.
var (
	testRelOnce sync.Once
	testRels    []*dataset.Relation
)

func fixtureRelations() []*dataset.Relation {
	testRelOnce.Do(func() {
		for _, s := range dataset.Schemas() {
			testRels = append(testRels, dataset.Generate(s, sf, 42))
		}
	})
	return testRels
}

// newTestEngine registers all schemas at laptop scale with small blocks so
// multi-map behaviour is exercised.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{BlockSize: 64 << 10, NumReducers: 4})
	for _, rel := range fixtureRelations() {
		e.Register(rel)
	}
	return e
}

// ref is the reference a column name spells: "table.column", qualified.
func ref(name string) query.ColumnRef {
	if t, c, ok := strings.Cut(name, "."); ok {
		return query.ColumnRef{Table: t, Column: c}
	}
	return query.ColumnRef{Column: name}
}

func compile(t *testing.T, src string) *plan.DAG {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d
}

func run(t *testing.T, e *Engine, src string) *QueryResult {
	t.Helper()
	res, err := e.RunQuery(compile(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFilterMatchesBruteForce(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 11`)
	// Brute force over the same generated data.
	rel := dataset.Generate(dataset.LineItem(), sf, 42)
	qi := rel.Schema.ColumnIndex("l_quantity")
	var want int64
	for i := 0; i < int(rel.NumRows()); i++ {
		if rel.Cols[qi].At(i).I < 11 {
			want++
		}
	}
	if res.Final.NumRows() != want {
		t.Fatalf("filter rows = %d, brute force = %d", res.Final.NumRows(), want)
	}
}

func TestConjunctiveFilter(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 11 AND l_discount < 0.05`)
	rel := dataset.Generate(dataset.LineItem(), sf, 42)
	qi := rel.Schema.ColumnIndex("l_quantity")
	di := rel.Schema.ColumnIndex("l_discount")
	var want int64
	for i := 0; i < int(rel.NumRows()); i++ {
		if rel.Cols[qi].At(i).I < 11 && rel.Cols[di].At(i).F < 0.05 {
			want++
		}
	}
	if res.Final.NumRows() != want {
		t.Fatalf("conjunctive filter rows = %d, want %d", res.Final.NumRows(), want)
	}
}

func TestGroupbyAggregatesMatchBruteForce(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT l_quantity, sum(l_extendedprice), count(*), min(l_extendedprice), max(l_extendedprice), avg(l_extendedprice)
		FROM lineitem GROUP BY l_quantity`)
	rel := dataset.Generate(dataset.LineItem(), sf, 42)
	qi := rel.Schema.ColumnIndex("l_quantity")
	pi := rel.Schema.ColumnIndex("l_extendedprice")
	type agg struct {
		sum, min, max float64
		n             int64
	}
	want := map[int64]*agg{}
	for i := 0; i < int(rel.NumRows()); i++ {
		q := rel.Cols[qi].At(i).I
		a := want[q]
		if a == nil {
			a = &agg{min: math.Inf(1), max: math.Inf(-1)}
			want[q] = a
		}
		v := rel.Cols[pi].At(i).F
		a.sum += v
		a.n++
		a.min = math.Min(a.min, v)
		a.max = math.Max(a.max, v)
	}
	if int(res.Final.NumRows()) != len(want) {
		t.Fatalf("groups = %d, want %d", res.Final.NumRows(), len(want))
	}
	kc := res.Final.Col(ref("lineitem.l_quantity"))
	for i := 0; i < int(res.Final.NumRows()); i++ {
		row := res.Final.Row(i)
		a := want[row[kc].I]
		if a == nil {
			t.Fatalf("phantom group %v", row[kc])
		}
		if math.Abs(row[1].F-a.sum) > 1e-6*math.Abs(a.sum) {
			t.Fatalf("sum mismatch for key %v: %v vs %v", row[kc], row[1].F, a.sum)
		}
		if row[2].I != a.n {
			t.Fatalf("count mismatch: %v vs %v", row[2].I, a.n)
		}
		if row[3].F != a.min || row[4].F != a.max {
			t.Fatalf("min/max mismatch")
		}
		if math.Abs(row[5].F-a.sum/float64(a.n)) > 1e-9 {
			t.Fatalf("avg mismatch")
		}
	}
}

func TestGroupbyCombineReducesShuffle(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT l_quantity, count(*) FROM lineitem GROUP BY l_quantity`)
	st := res.Stats["J1"]
	if st.NumMaps < 2 {
		t.Fatalf("want multiple maps, got %d", st.NumMaps)
	}
	// Combine: each map emits at most 50 records (the key cardinality),
	// far less than its input rows.
	if st.MedRows > int64(st.NumMaps)*50 {
		t.Fatalf("combine ineffective: %d med rows from %d maps", st.MedRows, st.NumMaps)
	}
	if st.MedRows < st.OutRows {
		t.Fatalf("med rows %d below group count %d", st.MedRows, st.OutRows)
	}
}

func TestJoinMatchesNestedLoop(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey`)
	// PK-FK with referential integrity: every supplier matches exactly once.
	want := dataset.Supplier().RowsAt(sf)
	if res.Final.NumRows() != want {
		t.Fatalf("join rows = %d, want %d", res.Final.NumRows(), want)
	}
}

func TestJoinWithLocalPredicate(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT s_name FROM nation JOIN supplier ON s_nationkey = n_nationkey AND n_nationkey < 5`)
	sup := dataset.Generate(dataset.Supplier(), sf, 42)
	ni := sup.Schema.ColumnIndex("s_nationkey")
	var want int64
	for i := 0; i < int(sup.NumRows()); i++ {
		if sup.Cols[ni].At(i).I < 5 {
			want++
		}
	}
	if res.Final.NumRows() != want {
		t.Fatalf("filtered join rows = %d, want %d", res.Final.NumRows(), want)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT s_suppkey, s_acctbal FROM supplier ORDER BY s_acctbal DESC LIMIT 7`)
	if res.Final.NumRows() != 7 {
		t.Fatalf("limit rows = %d", res.Final.NumRows())
	}
	bi := res.Final.Col(ref("supplier.s_acctbal"))
	for i := 1; i < int(res.Final.NumRows()); i++ {
		if res.Final.At(i, bi).F > res.Final.At(i-1, bi).F {
			t.Fatal("descending order violated")
		}
	}
	// Top row must be the true maximum.
	rel := dataset.Generate(dataset.Supplier(), sf, 42)
	ci := rel.Schema.ColumnIndex("s_acctbal")
	max := math.Inf(-1)
	for i := 0; i < int(rel.NumRows()); i++ {
		max = math.Max(max, rel.Cols[ci].At(i).F)
	}
	if res.Final.At(0, bi).F != max {
		t.Fatalf("top-1 = %v, true max = %v", res.Final.At(0, bi).F, max)
	}
}

func TestOrderByAscendingStable(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT o_orderkey FROM orders ORDER BY o_orderkey`)
	oi := res.Final.Col(ref("orders.o_orderkey"))
	for i := 1; i < int(res.Final.NumRows()); i++ {
		if res.Final.At(i, oi).I < res.Final.At(i-1, oi).I {
			t.Fatal("ascending order violated")
		}
	}
}

func TestQ11Pipeline(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
		FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'n_name#b~~~~'
		JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
		GROUP BY ps_partkey`)
	if len(res.Stats) != 3 {
		t.Fatalf("stats for %d jobs", len(res.Stats))
	}
	// The groupby output cardinality equals the number of distinct
	// ps_partkey values that survive the joins.
	if res.Final.NumRows() == 0 || res.Final.NumRows() > dataset.PartSupp().RowsAt(sf) {
		t.Fatalf("suspicious output rows %d", res.Final.NumRows())
	}
	// Aggregate column present and numeric.
	ai := res.Final.Col(ref("J3.agg0"))
	if ai < 0 {
		t.Fatalf("missing aggregate column: %v", res.Final.Cols)
	}
	if res.Final.At(0, ai).F == 0 {
		t.Fatal("aggregate value suspiciously zero")
	}
}

func TestStatsConsistency(t *testing.T) {
	e := newTestEngine(t)
	res := run(t, e, `SELECT c_name, count(*) FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY c_name`)
	for id, st := range res.Stats {
		if st.InBytes <= 0 || st.InRows <= 0 {
			t.Fatalf("%s: empty input", id)
		}
		if st.IS() < 0 || st.FS() < 0 {
			t.Fatalf("%s: negative selectivity", id)
		}
		if st.MedBytes > st.InBytes {
			t.Fatalf("%s: med %d > in %d (projection should shrink)", id, st.MedBytes, st.InBytes)
		}
		if st.NumMaps < 1 {
			t.Fatalf("%s: no maps", id)
		}
	}
}

func TestJoinZipfSkewGroundTruth(t *testing.T) {
	// The Zipf-skewed fact table join: output exactly |store_sales| rows
	// (PK-FK referential integrity) regardless of skew.
	e := newTestEngine(t)
	res := run(t, e, `SELECT i_brand FROM item JOIN store_sales ON ss_item_sk = i_item_sk`)
	if res.Final.NumRows() != dataset.StoreSales().RowsAt(sf) {
		t.Fatalf("skewed join rows = %d, want %d", res.Final.NumRows(), dataset.StoreSales().RowsAt(sf))
	}
}

func TestUnregisteredTable(t *testing.T) {
	e := New(Config{})
	_, err := e.RunQuery(compile(t, `SELECT n_name FROM nation`))
	if err == nil {
		t.Fatal("unregistered table should fail")
	}
}

// TestRegisterKeepsNoKeys holds Register to a keyless view: Generate's
// relation carries the domain keys of its float and string columns for
// catalog.Collect, the relation the engine stores carries none, and it
// shares the generated relation's columns, so none is copied.
func TestRegisterKeepsNoKeys(t *testing.T) {
	e := New(Config{})
	for _, rel := range fixtureRelations() {
		e.Register(rel)
		kept := e.tables[rel.Schema.Name]
		if len(kept.Cols) != len(rel.Cols) || &kept.Cols[0] != &rel.Cols[0] {
			t.Errorf("%s: the engine's columns are not the generated relation's", rel.Schema.Name)
		}
		for j, c := range rel.Schema.Columns {
			keyed := c.Kind == dataset.KindFloat || c.Kind == dataset.KindString
			if keyed != (rel.Keys(j) != nil) {
				t.Errorf("%s.%s (%v): Generate kept keys = %v", rel.Schema.Name, c.Name, c.Kind, !keyed)
			}
			if kept.Keys(j) != nil {
				t.Errorf("%s.%s: the engine keeps the column's keys", rel.Schema.Name, c.Name)
			}
		}
	}
}

func TestFrameBasics(t *testing.T) {
	a, b := dataset.IntVector(dataset.KindInt, []int64{1}), dataset.StringVector([]string{"xy"})
	f := NewFrame(1, []string{"a", "t.b"}, []dataset.Vector{a, b})
	for name, want := range map[string]int{"a": 0, "t.b": 1, "b": -1, "zz": -1, "t.a": -1, "tt.b": -1, "t.bb": -1, "u.b": -1} {
		if got := f.Col(ref(name)); got != want {
			t.Errorf("Col(%s) = %d, want %d", name, got, want)
		}
	}
	if f.Col(query.ColumnRef{Column: "t.b"}) != 1 {
		t.Error("an unqualified reference does not find the column its name spells")
	}
	if f.Bytes() != 10 {
		t.Fatalf("frame bytes = %d", f.Bytes())
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if row := f.Row(0); len(row) != 2 || row[0] != dataset.Int(1) || row[1] != dataset.Str("xy") || row[1] != f.At(0, 1) {
		t.Fatalf("row view = %v", row)
	}
	ragged := NewFrame(2, f.Cols, []dataset.Vector{dataset.IntVector(dataset.KindInt, []int64{1, 2}), b})
	if err := ragged.Validate(); err == nil {
		t.Fatal("Validate accepted ragged column")
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := newTestEngine(t)
	b := newTestEngine(t)
	src := `SELECT c_name, count(*) FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY c_name`
	r1 := run(t, a, src)
	r2 := run(t, b, src)
	if r1.Final.NumRows() != r2.Final.NumRows() {
		t.Fatal("row counts differ across runs")
	}
	for i := 0; i < int(r1.Final.NumRows()); i++ {
		for j := range r1.Final.Cols {
			if r1.Final.At(i, j) != r2.Final.At(i, j) {
				t.Fatalf("row %d differs across identical runs", i)
			}
		}
	}
}

func BenchmarkEngineGroupby(b *testing.B) {
	e := New(Config{BlockSize: 64 << 10})
	e.Register(dataset.Generate(dataset.LineItem(), 0.005, 1))
	q, _ := query.Parse(`SELECT l_quantity, sum(l_extendedprice) FROM lineitem GROUP BY l_quantity`)
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		b.Fatal(err)
	}
	d, _ := plan.Compile(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunQuery(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineJoin(b *testing.B) {
	e := New(Config{BlockSize: 64 << 10})
	e.Register(dataset.Generate(dataset.Customer(), 0.005, 1))
	e.Register(dataset.Generate(dataset.Orders(), 0.005, 1))
	q, _ := query.Parse(`SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey`)
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		b.Fatal(err)
	}
	d, _ := plan.Compile(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunQuery(d); err != nil {
			b.Fatal(err)
		}
	}
}
