package selectivity

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"saqp/internal/catalog"
	"saqp/internal/core/floats"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
)

// estimateSQL parses, resolves, compiles and estimates a query against an
// analytic catalog at the given scale factor.
func estimateSQL(t *testing.T, src string, sf float64) *QueryEstimate {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	schemas := dataset.AllSchemas()
	if err := query.Resolve(q, schemas); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var list []*dataset.Schema
	for _, s := range schemas {
		list = append(list, s)
	}
	cat := catalog.FromSchemas(list, sf, catalog.DefaultBuckets)
	qe, err := NewEstimator(cat, Config{}).EstimateQuery(d)
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	return qe
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

const q11 = `SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'CHINA'
JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
GROUP BY ps_partkey`

// TestQ11PaperWalkthrough reproduces the paper's Section 3.2/Figure 5
// numbers: a 96% predicate selectivity on nation relayed along the chain,
// and a groupby output cardinality of ~200,000 (the ps_partkey domain).
func TestQ11PaperWalkthrough(t *testing.T) {
	qe := estimateSQL(t, q11, 1)
	j1, j2, j3 := qe.ByID["J1"], qe.ByID["J2"], qe.ByID["J3"]

	// J1 joins nation (25 rows, 96% pass) with supplier (10,000 rows,
	// PK-FK): output ≈ 9,600 tuples.
	if e := relErr(j1.OutRows, 9600); e > 0.05 {
		t.Fatalf("J1 out rows = %v, want ~9600 (err %.2f)", j1.OutRows, e)
	}
	// J2 joins that with partsupp (800,000 rows): ≈ 768,000 tuples.
	if e := relErr(j2.OutRows, 768000); e > 0.08 {
		t.Fatalf("J2 out rows = %v, want ~768000 (err %.2f)", j2.OutRows, e)
	}
	// J3 groups by ps_partkey: cardinality ≈ 200,000 per the paper.
	if e := relErr(j3.OutRows, 200000); e > 0.08 {
		t.Fatalf("J3 out rows = %v, want ~200000 (err %.2f)", j3.OutRows, e)
	}
}

func TestExtractSelectivity(t *testing.T) {
	// l_quantity uniform over [1,50]; < 11 passes ~20% of rows.
	qe := estimateSQL(t, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 11`, 0.1)
	j := qe.Jobs[0]
	// S_proj: 2 of 14 columns; both 8-byte of a ~134-byte tuple.
	liWidth := float64(dataset.LineItem().AvgTupleWidth())
	wantIS := 0.2 * (16 / liWidth)
	if e := relErr(j.IS, wantIS); e > 0.10 {
		t.Fatalf("Extract IS = %v, want ~%v", j.IS, wantIS)
	}
	wantRows := 0.2 * float64(dataset.LineItem().RowsAt(0.1))
	if e := relErr(j.OutRows, wantRows); e > 0.10 {
		t.Fatalf("Extract out rows = %v, want ~%v", j.OutRows, wantRows)
	}
	if j.P != 0 {
		t.Fatalf("non-join job has P = %v", j.P)
	}
}

func TestMapOnlyJobHasNoReduces(t *testing.T) {
	qe := estimateSQL(t, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 11`, 0.1)
	j := qe.Jobs[0]
	if !j.Job.MapOnly {
		t.Fatal("expected map-only job")
	}
	if j.NumReduces != 0 {
		t.Fatalf("map-only job has %d reduces", j.NumReduces)
	}
}

func TestLimitCapsOutput(t *testing.T) {
	qe := estimateSQL(t, `SELECT l_orderkey FROM lineitem LIMIT 10`, 0.1)
	j := qe.Jobs[0]
	if j.OutRows != 10 {
		t.Fatalf("limit out rows = %v", j.OutRows)
	}
	if j.FS <= 0 || j.FS >= 1e-3 {
		t.Fatalf("limit FS = %v, should be tiny but positive", j.FS)
	}
}

func TestOrderByKeepsAllRows(t *testing.T) {
	qe := estimateSQL(t, `SELECT l_orderkey FROM lineitem ORDER BY l_orderkey`, 0.01)
	j := qe.Jobs[0]
	rows := float64(dataset.LineItem().RowsAt(0.01))
	if e := relErr(j.OutRows, rows); e > 0.01 {
		t.Fatalf("sort dropped rows: %v of %v", j.OutRows, rows)
	}
}

func TestGroupbyClusteredVsRandom(t *testing.T) {
	// l_orderkey is clustered, l_partkey is not. With identical cardinality
	// ratios, the random case must combine less effectively (bigger IS)
	// whenever multiple blocks are scanned.
	clustered := estimateSQL(t, `SELECT l_orderkey, count(*) FROM lineitem GROUP BY l_orderkey`, 1)
	random := estimateSQL(t, `SELECT l_partkey, count(*) FROM lineitem GROUP BY l_partkey`, 1)
	cj, rj := clustered.Jobs[0], random.Jobs[0]
	if cj.NumMaps < 2 {
		t.Fatalf("need multi-block input for this test, got %d maps", cj.NumMaps)
	}
	// Clustered (Eq. 2, first case): S_comb = d/|T| = 1.5e6/6e6 = 0.25.
	dClu := 1.5e6 / 6e6
	if got := cj.MedRows / cj.InRows; relErr(got, dClu) > 0.05 {
		t.Fatalf("clustered S_comb = %v, want ~%v", got, dClu)
	}
	// Random (Eq. 2, second case): S_comb = min(1, d/(|T|/Nmaps)) — an
	// Nmaps-fold penalty over what clustering would have given this key.
	nMaps := float64(rj.NumMaps)
	dRand := math.Min(1, 2e5/(6e6/nMaps))
	if got := rj.MedRows / rj.InRows; relErr(got, dRand) > 0.05 {
		t.Fatalf("random S_comb = %v, want ~%v", got, dRand)
	}
	if ifClustered := 2e5 / 6e6; relErr(dRand, nMaps*ifClustered) > 1e-9 {
		t.Fatalf("random-case penalty is not Nmaps-fold: %v vs %v", dRand, nMaps*ifClustered)
	}
}

func TestGroupbyOutputCardinality(t *testing.T) {
	qe := estimateSQL(t, `SELECT l_quantity, sum(l_extendedprice) FROM lineitem GROUP BY l_quantity`, 0.1)
	j := qe.Jobs[0]
	if j.OutRows != 50 {
		t.Fatalf("groupby out rows = %v, want 50 (key cardinality)", j.OutRows)
	}
}

func TestGroupbyPredicateCapsCardinality(t *testing.T) {
	// After a very selective filter, |Out| = |T|·S_pred < d_key.
	qe := estimateSQL(t, `SELECT l_orderkey, count(*) FROM lineitem WHERE l_quantity = 1 GROUP BY l_orderkey`, 0.01)
	j := qe.Jobs[0]
	rows := float64(dataset.LineItem().RowsAt(0.01))
	want := rows * 0.02 // 1/50
	if e := relErr(j.OutRows, want); e > 0.2 {
		t.Fatalf("filtered groupby out rows = %v, want ~%v", j.OutRows, want)
	}
}

func TestGlobalAggregateSingleRow(t *testing.T) {
	qe := estimateSQL(t, `SELECT count(*) FROM orders`, 0.1)
	j := qe.Jobs[0]
	if j.OutRows != 1 {
		t.Fatalf("global aggregate out rows = %v, want 1", j.OutRows)
	}
}

func TestJoinPKFKCardinality(t *testing.T) {
	// customer ⋈ orders on custkey: PK-FK, output ≈ |orders|.
	qe := estimateSQL(t, `SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey`, 0.1)
	j := qe.Jobs[0]
	want := float64(dataset.Orders().RowsAt(0.1))
	if e := relErr(j.OutRows, want); e > 0.25 {
		t.Fatalf("PK-FK join rows = %v, want ~%v (err %.2f)", j.OutRows, want, e)
	}
}

func TestJoinBalanceRatio(t *testing.T) {
	qe := estimateSQL(t, `SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey`, 0.1)
	j := qe.Jobs[0]
	// customer 15k rows vs orders 150k rows: P = 150/(165) ≈ 0.909.
	if e := relErr(j.P, 150.0/165.0); e > 0.02 {
		t.Fatalf("P = %v, want ~0.909", j.P)
	}
	pf := j.PFactor()
	if pf <= 0 || pf > 0.25 {
		t.Fatalf("P(1-P) = %v outside (0, 1/4]", pf)
	}
}

func TestJoinISMixesInputs(t *testing.T) {
	// Eq. 3: with no predicates, IS is the byte-weighted S_proj mix.
	qe := estimateSQL(t, `SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey`, 0.1)
	j := qe.Jobs[0]
	cust, ord := dataset.Customer(), dataset.Orders()
	bc, bo := float64(cust.BytesAt(0.1)), float64(ord.BytesAt(0.1))
	// customer scan needs c_name(18)+c_custkey(8); orders needs o_custkey(8).
	sProjC := 26.0 / float64(cust.AvgTupleWidth())
	sProjO := 8.0 / float64(ord.AvgTupleWidth())
	want := (bc*sProjC + bo*sProjO) / (bc + bo)
	if e := relErr(j.IS, want); e > 0.02 {
		t.Fatalf("join IS = %v, want ~%v", j.IS, want)
	}
}

func TestTaskCounts(t *testing.T) {
	qe := estimateSQL(t, `SELECT l_orderkey FROM lineitem ORDER BY l_orderkey`, 1)
	j := qe.Jobs[0]
	liBytes := float64(dataset.LineItem().BytesAt(1))
	wantMaps := int(math.Ceil(liBytes / (float64(256<<20) * dataset.FragFactor("lineitem"))))
	if j.NumMaps != wantMaps {
		t.Fatalf("maps = %d, want %d", j.NumMaps, wantMaps)
	}
	if len(j.MapGroups) != 1 || j.MapGroups[0].Count != wantMaps {
		t.Fatalf("map groups wrong: %+v", j.MapGroups)
	}
	if got := j.MapGroups[0].InBytes * float64(wantMaps); math.Abs(got-liBytes) > 1 {
		t.Fatalf("group input bytes %v do not sum to %v", got, liBytes)
	}
	if j.NumReduces < 1 {
		t.Fatalf("reduces = %d", j.NumReduces)
	}
}

// TestTaskCountsSaturate: a 40-way lineitem self-join multiplies its
// estimated volume about twentyfold per level, far past int range in
// blocks. Each job's maps read the job before it, at least one map per
// block of its output, so a count past int range must saturate at
// maxTaskCount instead of wrapping to a small or negative one.
func TestTaskCountsSaturate(t *testing.T) {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM lineitem l0")
	for i := 1; i < 40; i++ {
		fmt.Fprintf(&b, " JOIN lineitem l%d ON l%d.l_orderkey = l%d.l_orderkey", i, i-1, i)
	}
	qe := estimateSQL(t, b.String(), 1)
	block := float64(defaultBlockSize)
	for f, je := range qe.Jobs {
		for _, g := range append(je.MapGroups, je.ReduceGroups...) {
			if g.Count < 1 || g.Count > maxTaskCount {
				t.Fatalf("%s: a task group of %d tasks, want 1..%d", je.Job.ID, g.Count, maxTaskCount)
			}
		}
		if f == 0 {
			continue
		}
		if want := math.Min(math.Floor(qe.Jobs[f-1].OutBytes/block), maxTaskCount); float64(je.NumMaps) < want {
			t.Fatalf("%s: %d maps read %.4g blocks: a count wrapped", je.Job.ID, je.NumMaps, want)
		}
	}
	if last := qe.Jobs[len(qe.Jobs)-1]; last.NumMaps != maxTaskCount {
		t.Errorf("%s: %d maps, want the saturated %d", last.Job.ID, last.NumMaps, maxTaskCount)
	}
}

// TestMaxReducesCap: a group-by whose estimated shuffle needs more than
// maxReduces reducers of bytesPerReducer each gets exactly maxReduces, and
// one whose shuffle fits under the cap keeps ⌈shuffle / bytesPerReducer⌉.
func TestMaxReducesCap(t *testing.T) {
	const src = `SELECT l_comment, sum(l_extendedprice) FROM lineitem GROUP BY l_comment`
	over := estimateSQL(t, src, 100).Jobs[0]
	if over.MedBytes <= maxReduces*bytesPerReducer {
		t.Fatalf("shuffle %.4g B does not exceed %d reducers × %d B: the cap is not reached", over.MedBytes, maxReduces, bytesPerReducer)
	}
	if over.NumReduces != maxReduces {
		t.Fatalf("%.4g B of shuffle got %d reducers, want the cap %d", over.MedBytes, over.NumReduces, maxReduces)
	}
	under := estimateSQL(t, src, 10).Jobs[0]
	if want := int(math.Ceil(under.MedBytes / bytesPerReducer)); want >= maxReduces || under.NumReduces != want {
		t.Fatalf("%.4g B of shuffle got %d reducers, want %d under the cap", under.MedBytes, under.NumReduces, want)
	}
}

func TestSelectivityInvariants(t *testing.T) {
	queries := []string{
		q11,
		`SELECT l_orderkey FROM lineitem WHERE l_quantity < 30 ORDER BY l_orderkey LIMIT 5`,
		`SELECT c_name, count(*) FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_totalprice > 5000 GROUP BY c_name`,
		`SELECT i_brand, sum(ss_sales_price) FROM item JOIN store_sales ON ss_item_sk = i_item_sk GROUP BY i_brand`,
	}
	for _, src := range queries {
		qe := estimateSQL(t, src, 0.5)
		for _, j := range qe.Jobs {
			if j.IS < 0 || j.IS > 1 {
				t.Fatalf("%s: IS = %v outside [0,1] for %s", src, j.IS, j.Job.ID)
			}
			if j.FS < 0 {
				t.Fatalf("%s: FS = %v negative for %s", src, j.FS, j.Job.ID)
			}
			if j.MedBytes > j.InBytes {
				t.Fatalf("%s: D_med %v > D_in %v for %s", src, j.MedBytes, j.InBytes, j.Job.ID)
			}
			if j.NumMaps < 1 {
				t.Fatalf("%s: no maps for %s", src, j.Job.ID)
			}
			if pf := j.PFactor(); pf < 0 || pf > 0.25 {
				t.Fatalf("%s: P(1-P) = %v for %s", src, pf, j.Job.ID)
			}
			if j.OutRows < 0 || j.OutBytes < 0 {
				t.Fatalf("%s: bad output volume for %s", src, j.Job.ID)
			}
		}
	}
}

func TestZipfJoinBeatsUniformFormula(t *testing.T) {
	// store_sales.ss_item_sk is Zipf-skewed; Eq. 5 must predict more output
	// than the naive uniform formula (skew inflates join sizes).
	qe := estimateSQL(t, `SELECT i_brand FROM item JOIN store_sales ON ss_item_sk = i_item_sk`, 0.2)
	j := qe.Jobs[0]
	item, ss := dataset.Item(), dataset.StoreSales()
	naive := float64(ss.RowsAt(0.2)) * float64(item.RowsAt(0.2)) / float64(item.RowsAt(0.2))
	// PK-FK with referential integrity: truth is |store_sales| = naive here,
	// so Eq. 5 should stay within a factor ~2 of it despite skew.
	if j.OutRows < naive*0.5 || j.OutRows > naive*2 {
		t.Fatalf("skewed PK-FK join estimate %v too far from %v", j.OutRows, naive)
	}
}

// naturalJoinTable is one table of a PK–FK natural-join chain with its
// local predicate selectivity.
type naturalJoinTable struct {
	rows, sPred float64
}

// naturalJoinChainRows is the paper's Eq. 6, the reference the estimator's
// join chains are held to: when every join matches one table's primary key
// with another's foreign key under referential integrity, predicate
// selectivities accumulate along the chain and scale the largest table,
//
//	|T1.pred1 ⋈ ... ⋈ Tn.predn| = S_pred1 · S_pred2 · ... · S_predn × max(|T1|, ..., |Tn|)
func naturalJoinChainRows(tables []naturalJoinTable) float64 {
	if len(tables) == 0 {
		return 0
	}
	prod, maxRows := 1.0, 0.0
	for _, t := range tables {
		prod *= floats.Clamp01(t.sPred)
		maxRows = math.Max(maxRows, t.rows)
	}
	return prod * maxRows
}

func TestNaturalJoinChainRows(t *testing.T) {
	// Eq. 6: three tables with predicates.
	got := naturalJoinChainRows([]naturalJoinTable{{25, 0.96}, {10000, 1}, {800000, 1}})
	if got != 0.96*800000 {
		t.Fatalf("Eq.6 rows = %v, want %v", got, 0.96*800000)
	}
	if naturalJoinChainRows(nil) != 0 {
		t.Fatal("empty chain should be 0")
	}
}

// TestEstimatorJoinChainsFollowEq6 holds the output rows of the last join
// of a PK–FK chain at SF 1 to Eq. 6 within 1 %. The estimator never
// evaluates Eq. 6: it estimates each join with Eq. 5 and relays the
// predicates' selectivity down the chain, and on a natural-join chain
// those estimates must compose to Eq. 6's count. The predicate
// selectivities are the schemas' exact fractions.
func TestEstimatorJoinChainsFollowEq6(t *testing.T) {
	rows := func(s *dataset.Schema) float64 { return float64(s.RowsAt(1)) }
	for _, tc := range []struct {
		name, sql string
		chain     []naturalJoinTable
	}{
		{"nation⋈supplier⋈partsupp (Fig. 5)", q11, []naturalJoinTable{
			{rows(dataset.Nation()), 24.0 / 25}, // n_name <> 'CHINA': 24 of 25 names
			{rows(dataset.Supplier()), 1},
			{rows(dataset.PartSupp()), 1},
		}},
		{"orders⋈customer", `SELECT o_orderkey FROM orders JOIN customer ON o_custkey = c_custkey WHERE c_nationkey < 5`,
			[]naturalJoinTable{
				{rows(dataset.Customer()), 5.0 / 25}, // 5 of 25 uniform nation keys
				{rows(dataset.Orders()), 1},
			}},
		{"lineitem⋈orders⋈customer", `SELECT l_orderkey FROM lineitem JOIN orders ON l_orderkey = o_orderkey
			JOIN customer ON o_custkey = c_custkey WHERE c_nationkey < 5 AND o_totalprice < 8300`,
			[]naturalJoinTable{
				{rows(dataset.Customer()), 5.0 / 25},
				// o_totalprice: 1.5 M uniform keys 0.01 apart from 800.
				{rows(dataset.Orders()), (8300 - 800) / (0.01 * 1_500_000)},
				{rows(dataset.LineItem()), 1},
			}},
	} {
		qe := estimateSQL(t, tc.sql, 1)
		var last *JobEstimate
		for _, je := range qe.Jobs {
			if je.Job.Type == plan.Join {
				last = je
			}
		}
		if last == nil {
			t.Fatalf("%s: no join job", tc.name)
		}
		want := naturalJoinChainRows(tc.chain)
		t.Logf("%s: %s out rows %.0f, Eq. 6 %.0f", tc.name, last.Job.ID, last.OutRows, want)
		if e := relErr(last.OutRows, want); e > 0.01 {
			t.Errorf("%s: %s out rows %.0f, Eq. 6 %.0f (err %.4f)", tc.name, last.Job.ID, last.OutRows, want, e)
		}
	}
}

func TestTotalInputBytes(t *testing.T) {
	qe := estimateSQL(t, q11, 1)
	want := float64(dataset.Nation().BytesAt(1) + dataset.Supplier().BytesAt(1) + dataset.PartSupp().BytesAt(1))
	if e := relErr(qe.TotalInputBytes(), want); e > 1e-9 {
		t.Fatalf("TotalInputBytes = %v, want %v", qe.TotalInputBytes(), want)
	}
}

// passing is S_pred of a scan of t under the given conjuncts — the route
// production prices a predicate by (numeric comparisons on a
// histogram-backed column go through the bucket walk).
func passing(t *table, preds ...query.Predicate) float64 {
	_, s := scanConjunction(t, preds, nil, nil)
	return s
}

func TestPredSelectivityOperators(t *testing.T) {
	cat := catalog.New()
	cat.Put(catalog.FromSchema(dataset.LineItem(), 0.1, 64))
	li := NewEstimator(cat, Config{}).tables["lineitem"]
	mk := func(op query.CmpOp, v float64) query.Predicate {
		return query.Predicate{Left: query.ColumnRef{Table: "lineitem", Column: "l_quantity"}, Op: op, Lit: query.NumLit(v)}
	}
	lt := passing(li, mk(query.OpLT, 26))
	le := passing(li, mk(query.OpLE, 26))
	gt := passing(li, mk(query.OpGT, 26))
	ge := passing(li, mk(query.OpGE, 26))
	eq := passing(li, mk(query.OpEQ, 26))
	ne := passing(li, mk(query.OpNE, 26))
	if math.Abs(lt+eq-le) > 1e-9 {
		t.Fatalf("LE != LT+EQ: %v + %v vs %v", lt, eq, le)
	}
	if math.Abs(ge-eq-gt) > 1e-9 {
		t.Fatalf("GT != GE-EQ")
	}
	if math.Abs(lt+ge-1) > 1e-9 {
		t.Fatalf("LT+GE != 1: %v", lt+ge)
	}
	if math.Abs(eq+ne-1) > 1e-9 {
		t.Fatalf("EQ+NE != 1")
	}
	if e := relErr(eq, 0.02); e > 0.2 {
		t.Fatalf("EQ = %v, want ~1/50", eq)
	}
}

func TestPredSelectivityStringAndNil(t *testing.T) {
	cs := &ColStat{Distinct: 25, Width: 12}
	eq := query.Predicate{Op: query.OpEQ, Lit: query.StrLit("x")}
	ne := query.Predicate{Op: query.OpNE, Lit: query.StrLit("x")}
	lt := query.Predicate{Op: query.OpLT, Lit: query.StrLit("x")}
	if got := PredSelectivity(cs, eq); got != 0.04 {
		t.Fatalf("string EQ = %v", got)
	}
	if got := PredSelectivity(cs, ne); got != 0.96 {
		t.Fatalf("string NE = %v", got)
	}
	if got := PredSelectivity(cs, lt); got != defaultIneqSel {
		t.Fatalf("string LT = %v", got)
	}
	if got := PredSelectivity(nil, eq); got != defaultIneqSel {
		t.Fatalf("nil stats = %v", got)
	}
}

func TestConjunctionIndependence(t *testing.T) {
	cat := catalog.New()
	cat.Put(catalog.FromSchema(dataset.LineItem(), 0.1, 64))
	li := NewEstimator(cat, Config{}).tables["lineitem"]
	qty := query.ColumnRef{Table: "lineitem", Column: "l_quantity"}
	disc := query.ColumnRef{Table: "lineitem", Column: "l_discount"}
	p1 := query.Predicate{Left: qty, Op: query.OpLT, Lit: query.NumLit(26)}
	p2 := query.Predicate{Left: disc, Op: query.OpLT, Lit: query.NumLit(0.05)}
	s1, s2, both := passing(li, p1), passing(li, p2), passing(li, p1, p2)
	if math.Abs(both-s1*s2) > 1e-12 {
		t.Fatalf("conjunction %v != %v * %v", both, s1, s2)
	}
}
