package query

import (
	"strings"
	"testing"

	"saqp/internal/dataset"
)

// q11 is the paper's modified TPC-H Q11 (Section 3.2, Figure 5).
const q11 = `SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
FROM nation n JOIN supplier s ON
  s.s_nationkey = n.n_nationkey AND n.n_name <> 'CHINA'
JOIN partsupp ps ON
  ps.ps_suppkey = s.s_suppkey
GROUP BY ps_partkey;`

func TestParseQ11(t *testing.T) {
	q, err := Parse(q11)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 {
		t.Fatalf("select items = %d", len(q.Select))
	}
	if q.Select[1].Agg != AggSum || q.Select[1].Expr.Binop == nil {
		t.Fatalf("second item should be sum(binop): %+v", q.Select[1])
	}
	if q.From.Name != "nation" || q.From.Alias != "n" {
		t.Fatalf("from = %+v", q.From)
	}
	if len(q.Joins) != 2 {
		t.Fatalf("joins = %d", len(q.Joins))
	}
	if len(q.Joins[0].On) != 2 {
		t.Fatalf("first join conjuncts = %d", len(q.Joins[0].On))
	}
	if !q.Joins[0].On[0].IsJoin() || q.Joins[0].On[1].IsJoin() {
		t.Fatal("join conjunct classification wrong")
	}
	if q.Joins[0].On[1].Op != OpNE || q.Joins[0].On[1].Lit.S != "CHINA" {
		t.Fatalf("NE predicate wrong: %+v", q.Joins[0].On[1])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "ps_partkey" {
		t.Fatalf("groupby = %+v", q.GroupBy)
	}
	if q.Limit != -1 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseWhereOrderLimit(t *testing.T) {
	q, err := Parse(`SELECT l_orderkey, l_quantity FROM lineitem
		WHERE l_quantity >= 25 AND l_shipdate < 9000
		ORDER BY l_quantity DESC, l_orderkey LIMIT 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where = %d", len(q.Where))
	}
	if q.Where[0].Op != OpGE || q.Where[0].Lit.F != 25 {
		t.Fatalf("where[0] = %+v", q.Where[0])
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatalf("orderby = %+v", q.OrderBy)
	}
	if q.Limit != 100 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse(`SELECT count(*) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Select[0].Star || q.Select[0].Agg != AggCount {
		t.Fatalf("count(*) = %+v", q.Select[0])
	}
	if !q.HasAggregates() {
		t.Fatal("HasAggregates false for count(*)")
	}
}

func TestParseAllAggregates(t *testing.T) {
	q, err := Parse(`SELECT sum(a), count(b), avg(c), min(d), max(e) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	want := []AggFunc{AggSum, AggCount, AggAvg, AggMin, AggMax}
	for i, w := range want {
		if q.Select[i].Agg != w {
			t.Fatalf("item %d agg = %v, want %v", i, q.Select[i].Agg, w)
		}
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("SELECT a FROM t -- trailing comment\nWHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Fatal("comment swallowed the WHERE clause")
	}
}

func TestParseStringEscape(t *testing.T) {
	q, err := Parse(`SELECT a FROM t WHERE a = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Lit.S != "it's" {
		t.Fatalf("escaped string = %q", q.Where[0].Lit.S)
	}
}

// TestParseFoldsIdentifierCase covers what the TPC-H case variants in
// the root routing-identity test cannot: aliases, qualified columns and
// MAPJOIN hint tables fold to lower case; string constants do not.
func TestParseFoldsIdentifierCase(t *testing.T) {
	upper, err := Parse(`SELECT /*+ MAPJOIN(N) */ N.N_Name FROM NATION N JOIN Supplier S ON S.S_NATIONKEY = N.N_NATIONKEY WHERE N.N_NAME = 'FRANCE'`)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := Parse(`select /*+ mapjoin(n) */ n.n_name from nation n join supplier s on s.s_nationkey = n.n_nationkey where n.n_name = 'FRANCE'`)
	if err != nil {
		t.Fatal(err)
	}
	if upper.String() != lower.String() {
		t.Errorf("identifier case changes the normalized text:\n%s\n%s", upper, lower)
	}
	if upper.Where[0].Lit.S != "FRANCE" {
		t.Errorf("string constant folded: %q", upper.Where[0].Lit.S)
	}
}

func TestParseNegativeNumber(t *testing.T) {
	q, err := Parse(`SELECT a FROM t WHERE a > -42.5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Lit.F != -42.5 {
		t.Fatalf("literal = %v", q.Where[0].Lit.F)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"FROM t", "expected SELECT"},
		{"SELECT a", "expected FROM"},
		{"SELECT a FROM t JOIN u", "expected ON"},
		{"SELECT a FROM t JOIN u ON a = 1", "no column-to-column"},
		{"SELECT a FROM t WHERE", "expected column reference"},
		{"SELECT a FROM t WHERE a ~ 1", "unexpected character"},
		{"SELECT a FROM t LIMIT x", "expected number"},
		{"SELECT a FROM t GROUP a", "expected BY"},
		{"SELECT a FROM t ORDER a", "expected BY"},
		{"SELECT a FROM t WHERE a = 'oops", "unterminated string"},
		{"SELECT a FROM t extra junk here", "unexpected trailing input"},
		{"SELECT sum(a FROM t", `expected ")"`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.wantSub)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Parse(%q) error %q does not contain %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	q, err := Parse(q11)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("rendered SQL does not reparse: %v\nSQL: %s", err, q.String())
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip unstable:\n%s\n%s", q.String(), q2.String())
	}
}

func TestResolveQ11(t *testing.T) {
	q, err := Parse(q11)
	if err != nil {
		t.Fatal(err)
	}
	if err := Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	// Unqualified ps_partkey must now be qualified.
	if q.GroupBy[0].Table != "partsupp" {
		t.Fatalf("groupby resolved to %q", q.GroupBy[0].Table)
	}
	// Alias s must be rewritten to base name supplier.
	if q.Joins[0].On[0].Left.Table != "supplier" {
		t.Fatalf("join left resolved to %q", q.Joins[0].On[0].Left.Table)
	}
	if q.From.Alias != "" {
		t.Fatal("alias not erased after resolve")
	}
}

func TestResolveErrors(t *testing.T) {
	schemas := dataset.AllSchemas()
	cases := []struct {
		src, wantSub string
	}{
		{"SELECT x FROM ghost", "unknown table"},
		{"SELECT ghostcol FROM nation", `unknown column "ghostcol"`},
		{"SELECT nation.ghost FROM nation", "no column"},
		{"SELECT z.n_name FROM nation", `unknown table label "z"`},
		{"SELECT n_nationkey FROM nation JOIN supplier ON s_nationkey = n_nationkey JOIN nation ON n_regionkey = n_regionkey", "duplicate table label"},
		{"SELECT orders.o_orderkey FROM lineitem", "not in FROM clause"},
	}
	for _, tc := range cases {
		q, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.src, err)
		}
		err = Resolve(q, schemas)
		if err == nil {
			t.Fatalf("Resolve(%q) succeeded, want error with %q", tc.src, tc.wantSub)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Resolve(%q) error %q missing %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestResolveAmbiguous(t *testing.T) {
	// c_comment exists only in customer; n_comment only in nation; but
	// "s_comment" vs... need a genuinely ambiguous name: both partsupp and
	// orders have no shared columns in our schemas, so construct schemas
	// sharing a column name.
	a := &dataset.Schema{Name: "ta", RowsAt: func(float64) int64 { return 1 },
		Columns: []dataset.Column{{Name: "shared", Kind: dataset.KindInt, Card: func(float64) int64 { return 1 }},
			{Name: "ka", Kind: dataset.KindInt, Card: func(float64) int64 { return 1 }}}}
	b := &dataset.Schema{Name: "tb", RowsAt: func(float64) int64 { return 1 },
		Columns: []dataset.Column{{Name: "shared", Kind: dataset.KindInt, Card: func(float64) int64 { return 1 }},
			{Name: "kb", Kind: dataset.KindInt, Card: func(float64) int64 { return 1 }}}}
	schemas := map[string]*dataset.Schema{"ta": a, "tb": b}
	q, err := Parse("SELECT shared FROM ta JOIN tb ON ka = kb")
	if err != nil {
		t.Fatal(err)
	}
	if err := Resolve(q, schemas); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
}

func TestTablesAndLabel(t *testing.T) {
	q, _ := Parse(q11)
	ts := q.Tables()
	if len(ts) != 3 || ts[0].Label() != "n" || ts[2].Label() != "ps" {
		t.Fatalf("tables = %+v", ts)
	}
}

func TestPredicateAndLiteralString(t *testing.T) {
	p := Predicate{Left: ColumnRef{Table: "t", Column: "c"}, Op: OpLE, Lit: NumLit(3.5)}
	if p.String() != "t.c <= 3.5" {
		t.Fatalf("predicate string = %q", p.String())
	}
	r := ColumnRef{Table: "u", Column: "d"}
	p2 := Predicate{Left: ColumnRef{Column: "c"}, Op: OpEQ, Right: &r}
	if p2.String() != "c = u.d" {
		t.Fatalf("join predicate string = %q", p2.String())
	}
	if StrLit("x").String() != "'x'" {
		t.Fatal("string literal rendering")
	}
}

func TestOpAndAggStrings(t *testing.T) {
	ops := map[CmpOp]string{OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}
	for op, s := range ops {
		if op.String() != s {
			t.Fatalf("op %d string = %q", op, op.String())
		}
	}
	if AggSum.String() != "sum" || AggNone.String() != "" {
		t.Fatal("agg strings")
	}
}
