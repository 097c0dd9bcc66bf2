package dataset

import (
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Supplier(), 0.01, 7)
	b := Generate(Supplier(), 0.01, 7)
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	for i := 0; i < int(a.NumRows()); i++ {
		for j := range a.Cols {
			if a.Cols[j].At(i) != b.Cols[j].At(i) {
				t.Fatalf("row %d col %d differ: %v vs %v", i, j, a.Cols[j].At(i), b.Cols[j].At(i))
			}
		}
	}
}

// TestRelationViewAgrees checks the value view against the column storage:
// every value has its column's kind, every vector one value per row, and the
// widths sum to the size fixed when the vectors were built.
func TestRelationViewAgrees(t *testing.T) {
	rel := Generate(Orders(), 0.001, 7)
	if len(rel.Cols) != len(rel.Schema.Columns) {
		t.Fatalf("%d vectors for %d columns", len(rel.Cols), len(rel.Schema.Columns))
	}
	var bytes int64
	for j := range rel.Cols {
		if rel.Cols[j].Len() != int(rel.NumRows()) {
			t.Fatalf("column %d has %d values for %d rows", j, rel.Cols[j].Len(), rel.NumRows())
		}
		for i := 0; i < int(rel.NumRows()); i++ {
			v := rel.Cols[j].At(i)
			if v.K != rel.Schema.Columns[j].Kind {
				t.Fatalf("row %d col %d: kind %v, schema says %v", i, j, v.K, rel.Schema.Columns[j].Kind)
			}
			if v.K == KindString {
				bytes += int64(len(v.S))
			} else {
				bytes += 8
			}
		}
	}
	if bytes != rel.Bytes() {
		t.Fatalf("value widths sum to %d, Bytes() = %d", bytes, rel.Bytes())
	}
}

func TestGenerateSeedSensitive(t *testing.T) {
	a := Generate(Supplier(), 0.01, 1)
	b := Generate(Supplier(), 0.01, 2)
	diff := false
	for i := 0; i < int(a.NumRows()); i++ {
		// s_nationkey (index 2) is random; sequential cols will match.
		if a.Cols[2].At(i) != b.Cols[2].At(i) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical random columns")
	}
}

func TestRowCountsMatchSchema(t *testing.T) {
	for _, s := range TPCH() {
		rel := Generate(s, 0.001, 3)
		if rel.NumRows() != s.RowsAt(0.001) {
			t.Fatalf("%s: got %d rows, schema says %d", s.Name, rel.NumRows(), s.RowsAt(0.001))
		}
	}
}

func TestFixedTablesIgnoreScale(t *testing.T) {
	if Nation().RowsAt(100) != 25 || Region().RowsAt(100) != 5 {
		t.Fatal("fixed tables scaled with sf")
	}
	if DateDim().RowsAt(50) != 73_049 {
		t.Fatal("date_dim scaled with sf")
	}
}

func TestScaledMonotone(t *testing.T) {
	li := LineItem()
	if li.RowsAt(1) != 6_000_000 {
		t.Fatalf("lineitem at sf=1: %d", li.RowsAt(1))
	}
	if li.RowsAt(0.5) >= li.RowsAt(1) {
		t.Fatal("RowsAt not monotone in sf")
	}
	if li.RowsAt(1e-9) < 1 {
		t.Fatal("RowsAt dropped below 1 row")
	}
}

func TestCardinalityRespected(t *testing.T) {
	rel := Generate(LineItem(), 0.002, 11)
	idx := rel.Schema.ColumnIndex("l_quantity")
	distinct := map[string]bool{}
	for i := 0; i < int(rel.NumRows()); i++ {
		distinct[rel.Cols[idx].At(i).String()] = true
	}
	if len(distinct) > 50 {
		t.Fatalf("l_quantity has %d distinct values, cap is 50", len(distinct))
	}
	if len(distinct) < 40 {
		t.Fatalf("l_quantity has only %d distinct values at %d rows", len(distinct), rel.NumRows())
	}
}

func TestDomainBounds(t *testing.T) {
	rel := Generate(LineItem(), 0.002, 13)
	qidx := rel.Schema.ColumnIndex("l_quantity")
	didx := rel.Schema.ColumnIndex("l_shipdate")
	for i := 0; i < int(rel.NumRows()); i++ {
		q := rel.Cols[qidx].At(i).I
		if q < 1 || q > 50 {
			t.Fatalf("l_quantity %d out of [1,50]", q)
		}
		d := rel.Cols[didx].At(i).I
		if d < dateEpochDays || d >= dateEpochDays+2_526 {
			t.Fatalf("l_shipdate %d out of domain", d)
		}
	}
}

func TestReferentialIntegrity(t *testing.T) {
	// FK values of lineitem.l_orderkey must all exist in orders.o_orderkey
	// at the same scale factor.
	const sf = 0.002
	orders := Generate(Orders(), sf, 5)
	li := Generate(LineItem(), sf, 5)
	pk := map[int64]bool{}
	oidx := orders.Schema.ColumnIndex("o_orderkey")
	for i := 0; i < int(orders.NumRows()); i++ {
		pk[orders.Cols[oidx].At(i).I] = true
	}
	lidx := li.Schema.ColumnIndex("l_orderkey")
	for i := 0; i < int(li.NumRows()); i++ {
		if k := li.Cols[lidx].At(i).I; !pk[k] {
			t.Fatalf("dangling FK l_orderkey=%d", k)
		}
	}
}

func TestClusteredColumnIsClustered(t *testing.T) {
	rel := Generate(LineItem(), 0.002, 9)
	idx := rel.Schema.ColumnIndex("l_orderkey")
	adjacent := 0
	n := int(rel.NumRows())
	for i := 1; i < n; i++ {
		if rel.Cols[idx].At(i).I == rel.Cols[idx].At(i-1).I {
			adjacent++
		}
	}
	if adjacent < n/4 {
		t.Fatalf("l_orderkey shows only %d adjacent-equal pairs over %d rows", adjacent, n)
	}
}

func TestStringWidths(t *testing.T) {
	rel := Generate(Customer(), 0.005, 21)
	idx := rel.Schema.ColumnIndex("c_mktsegment")
	for i := 0; i < int(rel.NumRows()); i++ {
		if s := rel.Cols[idx].At(i).S; len(s) != 10 {
			t.Fatalf("c_mktsegment width %d, want 10", len(s))
		}
	}
}

func TestAvgTupleWidth(t *testing.T) {
	s := Nation()
	// 8 (key) + 12 (name) + 8 (regionkey) + 70 (comment)
	if w := s.AvgTupleWidth(); w != 98 {
		t.Fatalf("nation avg tuple width = %d, want 98", w)
	}
	rel := Generate(s, 1, 2)
	avg := float64(rel.Bytes()) / float64(rel.NumRows())
	if avg != 98 {
		t.Fatalf("materialised avg width = %v, want 98", avg)
	}
}

func TestBytesAtScalesLinearly(t *testing.T) {
	li := LineItem()
	if li.BytesAt(2) != 2*li.BytesAt(1) {
		t.Fatalf("BytesAt not linear: %d vs %d", li.BytesAt(2), 2*li.BytesAt(1))
	}
}

func TestSchemaLookup(t *testing.T) {
	s := Orders()
	if s.Column("o_orderdate") == nil {
		t.Fatal("Column lookup failed")
	}
	if s.Column("nope") != nil {
		t.Fatal("Column lookup returned ghost column")
	}
	if s.ColumnIndex("o_custkey") != 1 {
		t.Fatalf("ColumnIndex(o_custkey) = %d", s.ColumnIndex("o_custkey"))
	}
	if s.ColumnIndex("nope") != -1 {
		t.Fatal("ColumnIndex for missing column should be -1")
	}
}

func TestAllSchemasComplete(t *testing.T) {
	m := AllSchemas()
	for _, name := range []string{"region", "nation", "supplier", "customer",
		"part", "partsupp", "orders", "lineitem",
		"item", "date_dim", "store", "store_sales", "web_sales"} {
		if m[name] == nil {
			t.Fatalf("missing schema %q", name)
		}
	}
	if len(m) != 13 {
		t.Fatalf("AllSchemas has %d entries, want 13", len(m))
	}
}

func TestValueOps(t *testing.T) {
	if IntVector(KindDate, []int64{1, 2}).Bytes() != 16 || FloatVector([]float64{1}).Bytes() != 8 ||
		StringVector([]string{"abc", "", "de"}).Bytes() != 5 {
		t.Fatal("Vector.Bytes broken")
	}
	if v := IntVector(KindDate, []int64{7}); v.At(0) != Date(7) || v.Len() != 1 {
		t.Fatalf("date vector view = %v", v.At(0))
	}
	got := Row{Int(1), Str("xy"), Float(2.5)}
	if got[0].String() != "1" || got[1].String() != "xy" || got[2].String() != "2.5" {
		t.Fatalf("row renders as %v", got)
	}
}

func TestValueKeyUniqueProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return (a == b) == (Int(a).String() == Int(b).String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestColumnDomain pins how keys become values: Lo + k for int and date
// columns, Lo + k·0.01 for float columns, and each domain's width.
func TestColumnDomain(t *testing.T) {
	q := LineItem().Column("l_quantity").Domain(1)
	if q.Card != 50 || q.Value(10) != 11 || q.Width() != 50 {
		t.Fatalf("l_quantity domain %+v: key 10 = %v, width %v; want card 50, 11, 50", q, q.Value(10), q.Width())
	}
	p := Part().Column("p_retailprice").Domain(1)
	if p.Value(1234) != 900+float64(1234)*0.01 || p.Width() != float64(110_000)*0.01 {
		t.Fatalf("p_retailprice domain %+v: key 1234 = %v, width %v", p, p.Value(1234), p.Width())
	}
	if d := Orders().Column("o_comment").Domain(0.01); d.Card != 15_000 {
		t.Fatalf("o_comment keys at SF 0.01 = %d, want 15000", d.Card)
	}
}

// TestSchemaDomainsNeedNoRepair holds every shipped schema to what the
// generator and the analytic catalog take on trust: each column has at
// least one key at every scale factor, and each Zipf column an exponent
// above 1 (sim.NewZipf panics otherwise).
func TestSchemaDomainsNeedNoRepair(t *testing.T) {
	for _, s := range append(TPCH(), TPCDS()...) {
		for i := range s.Columns {
			c := &s.Columns[i]
			for _, sf := range []float64{1e-4, 0.01, 1, 1000} {
				if card := c.Card(sf); card < 1 {
					t.Errorf("%s.%s: Card(%g) = %d, want >= 1", s.Name, c.Name, sf, card)
				}
			}
			if c.Dist == DistZipf && !(c.Skew > 1) {
				t.Errorf("%s.%s: Zipf exponent %g, want > 1", s.Name, c.Name, c.Skew)
			}
		}
	}
}

func TestMakeStringTruncates(t *testing.T) {
	s := makeString("very_long_column_name", 123456789, 8)
	if len(s) != 8 {
		t.Fatalf("truncated string has width %d", len(s))
	}
}

func TestMakeStringInjective(t *testing.T) {
	// The key->string mapping must stay injective at every width the
	// schemas use, up to each width's representable cardinality.
	for _, width := range []int{1, 2, 7, 10, 12, 20} {
		limit := int64(2000)
		seen := map[string]int64{}
		for k := int64(0); k < limit; k++ {
			if width == 1 && k >= 36 {
				break
			}
			if width == 2 && k >= 36*36 {
				break
			}
			s := makeString("l_shipmode", k, width)
			if len(s) != width {
				t.Fatalf("width %d: len(%q) = %d", width, s, len(s))
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("width %d: keys %d and %d collide on %q", width, prev, k, s)
			}
			seen[s] = k
		}
	}
}

func TestLowWidthStringColumnsDistinct(t *testing.T) {
	// Regression: l_returnflag (width 1, card 3) must have 3 values, not 1.
	rel := Generate(LineItem(), 0.002, 31)
	idx := rel.Schema.ColumnIndex("l_returnflag")
	seen := map[string]bool{}
	for i := 0; i < int(rel.NumRows()); i++ {
		seen[rel.Cols[idx].At(i).S] = true
	}
	if len(seen) != 3 {
		t.Fatalf("l_returnflag distinct = %d, want 3", len(seen))
	}
	mi := rel.Schema.ColumnIndex("l_shipmode")
	seenM := map[string]bool{}
	for i := 0; i < int(rel.NumRows()); i++ {
		seenM[rel.Cols[mi].At(i).S] = true
	}
	if len(seenM) != 7 {
		t.Fatalf("l_shipmode distinct = %d, want 7", len(seenM))
	}
}
