package plan

import (
	"strings"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/query"
)

func mustCompile(t *testing.T, src string) *DAG {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	d, err := Compile(q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return d
}

const q11 = `SELECT ps_partkey, sum(ps_supplycost*ps_availqty)
FROM nation n JOIN supplier s ON s.s_nationkey = n.n_nationkey AND n.n_name <> 'CHINA'
JOIN partsupp ps ON ps.ps_suppkey = s.s_suppkey
GROUP BY ps_partkey`

func TestCompileQ11Shape(t *testing.T) {
	d := mustCompile(t, q11)
	// Paper Section 3.2: two join jobs and one groupby job.
	if len(d.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3\n%s", len(d.Jobs), d)
	}
	if d.Jobs[0].Type != Join || d.Jobs[1].Type != Join || d.Jobs[2].Type != Groupby {
		t.Fatalf("job types wrong:\n%s", d)
	}
	// J1 scans nation+supplier; J2 reads J1 and scans partsupp.
	if len(d.Jobs[0].Scans) != 2 || d.Jobs[0].Up != nil {
		t.Fatalf("J1 structure wrong: %+v", d.Jobs[0])
	}
	if len(d.Jobs[1].Scans) != 1 || d.Jobs[1].Scans[0].Table != "partsupp" ||
		d.Jobs[1].Up != d.Jobs[0] {
		t.Fatalf("J2 structure wrong: %+v", d.Jobs[1])
	}
	if d.Jobs[2].Up != d.Jobs[1] {
		t.Fatalf("J3 does not read J2")
	}
	if len(d.Jobs[2].GroupKeys) != 1 || d.Jobs[2].GroupKeys[0].Column != "ps_partkey" {
		t.Fatalf("group keys = %+v", d.Jobs[2].GroupKeys)
	}
}

func TestCompilePushdown(t *testing.T) {
	d := mustCompile(t, q11)
	var nationScan *TableScan
	for i := range d.Jobs[0].Scans {
		if d.Jobs[0].Scans[i].Table == "nation" {
			nationScan = &d.Jobs[0].Scans[i]
		}
	}
	if nationScan == nil {
		t.Fatal("J1 does not scan nation")
	}
	if len(nationScan.Preds) != 1 || nationScan.Preds[0].Op != query.OpNE {
		t.Fatalf("nation predicate not pushed: %+v", nationScan.Preds)
	}
}

func TestCompileColumnPruning(t *testing.T) {
	d := mustCompile(t, q11)
	for _, s := range d.Jobs[0].Scans {
		if s.Table == "nation" {
			// nation contributes n_nationkey (join key) and n_name (filter).
			want := "n_name,n_nationkey"
			if got := strings.Join(s.Columns, ","); got != want {
				t.Fatalf("nation pruned columns = %q, want %q", got, want)
			}
		}
	}
}

func TestCompileAggThenSort(t *testing.T) {
	// Q14-ish: aggregate then sort — the two-job chain of the paper's QA/QC.
	d := mustCompile(t, `SELECT l_orderkey, sum(l_extendedprice)
		FROM lineitem WHERE l_shipdate < 9000
		GROUP BY l_orderkey ORDER BY l_orderkey`)
	if len(d.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2\n%s", len(d.Jobs), d)
	}
	if d.Jobs[0].Type != Groupby || d.Jobs[1].Type != Extract {
		t.Fatalf("types = %v,%v", d.Jobs[0].Type, d.Jobs[1].Type)
	}
	if len(d.Jobs[1].OrderKeys) != 1 {
		t.Fatal("sort job missing order keys")
	}
	if d.Jobs[0].Scans[0].Table != "lineitem" || len(d.Jobs[0].Scans[0].Preds) != 1 {
		t.Fatalf("groupby scan wrong: %+v", d.Jobs[0].Scans[0])
	}
}

func TestCompileMapOnly(t *testing.T) {
	d := mustCompile(t, `SELECT l_orderkey FROM lineitem WHERE l_quantity < 10`)
	if len(d.Jobs) != 1 || !d.Jobs[0].MapOnly || d.Jobs[0].Type != Extract {
		t.Fatalf("map-only plan wrong:\n%s", d)
	}
}

func TestCompileLimitOnly(t *testing.T) {
	d := mustCompile(t, `SELECT l_orderkey FROM lineitem LIMIT 10`)
	if len(d.Jobs) != 1 || d.Jobs[0].MapOnly {
		t.Fatalf("limit plan wrong:\n%s", d)
	}
	if d.Jobs[0].Limit != 10 {
		t.Fatalf("limit = %d", d.Jobs[0].Limit)
	}
}

func TestCompileGlobalAggregate(t *testing.T) {
	d := mustCompile(t, `SELECT count(*) FROM orders`)
	if len(d.Jobs) != 1 || d.Jobs[0].Type != Groupby {
		t.Fatalf("global agg plan wrong:\n%s", d)
	}
	if len(d.Jobs[0].GroupKeys) != 0 || len(d.Jobs[0].Aggs) != 1 {
		t.Fatalf("global agg semantics wrong: %+v", d.Jobs[0])
	}
}

func TestCompileJoinOrientation(t *testing.T) {
	// Condition written both ways must orient Right to the new table.
	for _, src := range []string{
		`SELECT c_name FROM customer JOIN orders ON o_custkey = c_custkey`,
		`SELECT c_name FROM customer JOIN orders ON c_custkey = o_custkey`,
	} {
		d := mustCompile(t, src)
		j := d.Jobs[0]
		if j.JoinRight.Table != "orders" || j.JoinLeft.Table != "customer" {
			t.Fatalf("orientation wrong for %q: left=%v right=%v", src, j.JoinLeft, j.JoinRight)
		}
	}
}

func TestCompileFourJobChain(t *testing.T) {
	// Q17-ish: 3 joins + group by = 4 jobs, the paper's QB shape.
	d := mustCompile(t, `SELECT sum(l_extendedprice)
		FROM part JOIN lineitem ON l_partkey = p_partkey
		JOIN orders ON o_orderkey = l_orderkey
		JOIN customer ON c_custkey = o_custkey
		GROUP BY p_brand`)
	if len(d.Jobs) != 4 {
		t.Fatalf("jobs = %d, want 4\n%s", len(d.Jobs), d)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := mustCompile(t, q11)
	// Swapped jobs break the chain.
	d.Jobs[0], d.Jobs[2] = d.Jobs[2], d.Jobs[0]
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-order DAG")
	}
	d = mustCompile(t, q11)
	d.Jobs[1].ID = d.Jobs[0].ID
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate IDs")
	}
	d = mustCompile(t, q11)
	ghost := &Job{ID: "ghost"}
	d.Jobs[2].Up = ghost
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted a job reading one outside the DAG")
	}
}

func TestSink(t *testing.T) {
	d := mustCompile(t, q11)
	if d.Sink().ID != "J3" {
		t.Fatalf("sink = %s", d.Sink().ID)
	}
}

func TestCompileErrors(t *testing.T) {
	q := &query.Query{Limit: -1}
	if _, err := Compile(q); err == nil {
		t.Fatal("Compile accepted projection-less query")
	}
}

func TestJobLabelAndTypeString(t *testing.T) {
	d := mustCompile(t, q11)
	if got := d.Jobs[1].Label(); got != "J2:Join(partsupp,J1)" {
		t.Fatalf("label = %q", got)
	}
	if Extract.String() != "Extract" || Groupby.String() != "Groupby" || Join.String() != "Join" {
		t.Fatal("type strings")
	}
	if JobType(99).String() == "" {
		t.Fatal("unknown type should still render")
	}
}
