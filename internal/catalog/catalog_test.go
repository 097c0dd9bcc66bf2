package catalog

import (
	"math"
	"strings"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/histogram"
)

func TestCollectBasics(t *testing.T) {
	rel := dataset.Generate(dataset.Nation(), 1, 1)
	ts := Collect(rel, 16)
	if ts.Rows != 25 {
		t.Fatalf("rows = %d, want 25", ts.Rows)
	}
	if ts.AvgTupleWidth != 98 {
		t.Fatalf("avg tuple width = %v, want 98", ts.AvgTupleWidth)
	}
	nk := ts.Columns["n_nationkey"]
	if nk == nil || nk.Distinct != 25 {
		t.Fatalf("n_nationkey stats wrong: %+v", nk)
	}
	if nk.Hist == nil {
		t.Fatal("numeric column missing histogram")
	}
	if name := ts.Columns["n_name"]; name == nil || name.Hist != nil {
		t.Fatal("string column should have no histogram")
	}
}

// TestCollectHistogramEqualsBuild holds a collected histogram, whose
// per-bucket distinct counts come from the column's value counts, to
// histogram.Build of the same values where float64 equality differs from
// the count's: integers beyond ±2^53 that round to one float64, and −0
// beside +0.
func TestCollectHistogramEqualsBuild(t *testing.T) {
	const big = 1 << 53
	ints := []int64{big, big + 1, big + 2, big + 3, -big - 1, -big, -big + 1, 5, 5, 7, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64}
	negZero := math.Copysign(0, -1)
	for _, vec := range []dataset.Vector{
		dataset.IntVector(dataset.KindInt, ints),
		dataset.FloatVector([]float64{0, negZero, 0, negZero, 1.5, 1.5, -2, 3}),
		dataset.FloatVector([]float64{negZero, negZero, 4}),
	} {
		cs := collectColumn(vec, nil, &dataset.Column{Name: "c", Kind: vec.Kind()}, 4)
		vals := vec.Floats()
		if vals == nil {
			for _, v := range vec.Ints() {
				vals = append(vals, float64(v))
			}
		}
		want := histogram.Build(vals, cs.Hist.Lo, cs.Hist.Hi, len(cs.Hist.Buckets))
		for i := range want.Buckets {
			if cs.Hist.Buckets[i] != want.Buckets[i] {
				t.Errorf("%v: bucket %d = %+v, Build gives %+v", vec.Kind(), i, cs.Hist.Buckets[i], want.Buckets[i])
			}
		}
	}
}

func TestCollectDistinctCounts(t *testing.T) {
	rel := dataset.Generate(dataset.LineItem(), 0.002, 2)
	ts := Collect(rel, 32)
	q := ts.Columns["l_quantity"]
	if q.Distinct < 40 || q.Distinct > 50 {
		t.Fatalf("l_quantity distinct = %d, expected near 50", q.Distinct)
	}
	if q.Min < 1 || q.Max > 50 {
		t.Fatalf("l_quantity bounds [%v,%v]", q.Min, q.Max)
	}
}

func TestCollectClusteredDetection(t *testing.T) {
	rel := dataset.Generate(dataset.LineItem(), 0.002, 3)
	ts := Collect(rel, 32)
	if !ts.Columns["l_orderkey"].Clustered {
		t.Fatal("l_orderkey should be detected as clustered")
	}
	if ts.Columns["l_partkey"].Clustered {
		t.Fatal("l_partkey should not be detected as clustered")
	}
}

func TestCollectRefPropagated(t *testing.T) {
	rel := dataset.Generate(dataset.LineItem(), 0.001, 3)
	ts := Collect(rel, 8)
	if ref := ts.Columns["l_orderkey"].Ref; ref != "orders.o_orderkey" {
		t.Fatalf("ref = %q", ref)
	}
}

func TestFromSchemaMatchesCollect(t *testing.T) {
	// Analytic stats must approximate scanned stats at the same sf.
	const sf = 0.005
	s := dataset.Orders()
	scanned := Collect(dataset.Generate(s, sf, 4), 32)
	synth := FromSchema(s, sf, 32)

	if synth.Rows != scanned.Rows {
		t.Fatalf("rows: synth %d vs scanned %d", synth.Rows, scanned.Rows)
	}
	if math.Abs(synth.AvgTupleWidth-scanned.AvgTupleWidth) > 1 {
		t.Fatalf("avg width: synth %v vs scanned %v", synth.AvgTupleWidth, scanned.AvgTupleWidth)
	}
	// Histogram shape agreement on a uniform date column.
	sc, sy := scanned.Columns["o_orderdate"], synth.Columns["o_orderdate"]
	mid := (sc.Min + sc.Max) / 2
	if d := math.Abs(fractionBelow(sc.Hist, mid) - fractionBelow(sy.Hist, mid)); d > 0.05 {
		t.Fatalf("histogram shapes diverge at mid: %v", d)
	}
}

// fractionBelow is the share of h's rows with value < x, by the bucket
// walk the estimator prices a comparison with.
func fractionBelow(h *histogram.Histogram, x float64) float64 {
	rows, _ := h.NarrowedTotals([]histogram.Cond{{Op: histogram.CmpLT, X: x}}, 1)
	return rows / h.Rows()
}

func TestFromSchemaZipfSkewPreserved(t *testing.T) {
	// ss_item_sk is Zipf; the first bucket should hold far more than 1/n of
	// the rows in both scanned and synthesized stats.
	const sf = 0.01
	s := dataset.StoreSales()
	scanned := Collect(dataset.Generate(s, sf, 5), 32)
	synth := FromSchema(s, sf, 32)
	scHot := float64(scanned.Columns["ss_item_sk"].Hist.Buckets[0].Count) / float64(scanned.Rows)
	syHot := float64(synth.Columns["ss_item_sk"].Hist.Buckets[0].Count) / float64(synth.Rows)
	if scHot < 0.1 || syHot < 0.1 {
		t.Fatalf("zipf hot bucket too light: scanned %v synth %v", scHot, syHot)
	}
	if math.Abs(scHot-syHot) > 0.15 {
		t.Fatalf("zipf skew mismatch: scanned %v synth %v", scHot, syHot)
	}
}

func TestFromSchemaCardinalityCappedByRows(t *testing.T) {
	ts := FromSchema(dataset.Supplier(), 0.0001, 8) // 1 row
	for _, cs := range ts.Columns {
		if cs.Distinct > ts.Rows {
			t.Fatalf("column %s distinct %d > rows %d", cs.Name, cs.Distinct, ts.Rows)
		}
	}
}

func TestFromSchemaClusteredFlag(t *testing.T) {
	ts := FromSchema(dataset.LineItem(), 0.01, 8)
	if !ts.Columns["l_orderkey"].Clustered {
		t.Fatal("l_orderkey should be clustered in synthetic stats")
	}
	if ts.Columns["l_partkey"].Clustered {
		t.Fatal("l_partkey should not be clustered")
	}
}

func TestCatalogLookup(t *testing.T) {
	c := New()
	c.Put(FromSchema(dataset.Nation(), 1, 4))
	if _, err := c.Table("nation"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("ghost"); err == nil {
		t.Fatal("lookup of missing table should error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := FromSchemas([]*dataset.Schema{dataset.Nation(), dataset.Region()}, 1, 8)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c2.Table("nation")
	if err != nil {
		t.Fatal(err)
	}
	if n.Rows != 25 {
		t.Fatalf("decoded rows = %d", n.Rows)
	}
	if n.Columns["n_nationkey"].Hist == nil {
		t.Fatal("decoded histogram missing")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("]")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
	c, err := Decode([]byte("{}"))
	if err != nil || c.Tables == nil {
		t.Fatal("Decode of empty object should give usable catalog")
	}
}

// TestDecodeRejectsNull: statistics files are outside input, and a JSON
// null table or column decodes to a nil pointer that Fingerprint and the
// estimator would dereference.
func TestDecodeRejectsNull(t *testing.T) {
	for _, tc := range []struct{ name, json string }{
		{"null table", `{"tables":{"t":null}}`},
		{"null column", `{"tables":{"t":{"name":"t","rows":1,"columns":{"c":null}}}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Decode([]byte(tc.json))
			if err == nil {
				t.Fatalf("Decode accepted %s; Fingerprint() = %q", tc.json, c.Fingerprint())
			}
			if !strings.HasPrefix(err.Error(), "catalog: decode:") {
				t.Fatalf("error %q lacks the catalog: decode: prefix", err)
			}
		})
	}
}

func TestCollectAllAndFromSchemas(t *testing.T) {
	schemas := []*dataset.Schema{dataset.Nation(), dataset.Region(), dataset.Supplier()}
	cg := CollectAll(schemas, 0.01, 6, 16)
	cs := FromSchemas(schemas, 0.01, 16)
	for _, name := range []string{"nation", "region", "supplier"} {
		g, err := cg.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cs.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Rows != s.Rows {
			t.Fatalf("%s: scanned %d rows vs synth %d", name, g.Rows, s.Rows)
		}
	}
}

func TestFloatDomainHistogram(t *testing.T) {
	// Float histograms must cover the actual generated float domain.
	const sf = 0.01
	rel := dataset.Generate(dataset.Supplier(), sf, 7)
	scanned := Collect(rel, 16)
	synth := FromSchema(dataset.Supplier(), sf, 16)
	sc, sy := scanned.Columns["s_acctbal"], synth.Columns["s_acctbal"]
	if sy.Hist.Lo > sc.Min+1 || sy.Hist.Hi < sc.Max-1 {
		t.Fatalf("synthetic float domain [%v,%v) does not cover scanned [%v,%v]",
			sy.Hist.Lo, sy.Hist.Hi, sc.Min, sc.Max)
	}
	q := (sc.Min + sc.Max) / 2
	if d := math.Abs(fractionBelow(sc.Hist, q) - fractionBelow(sy.Hist, q)); d > 0.06 {
		t.Fatalf("float histogram shapes diverge: %v", d)
	}
}
