package plan_test

import (
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/workload"
)

// TestCompileAllocBudget bounds plan.Compile per plan shape, so that a
// regression fails here rather than only in the whole miss. A DAG is the
// DAG, its jobs, the []*Job job list, the scans,
// the pruned column names, the pushed predicates, and per kind present
// the Groupby job's aggregates, the sort keys and the folded map-joins.
// Budgets are the measured counts + 2.
func TestCompileAllocBudget(t *testing.T) {
	q14, err := workload.TPCHSQL("q14")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name, sql string
		measured  float64
	}{
		{"scan-only", `SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 9000 AND l_quantity >= 10`, 6},
		{"join → group-by", `SELECT c_nationkey, sum(o_totalprice) FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_orderdate < 9000 GROUP BY c_nationkey`, 7},
		{"three-job chain", `SELECT ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey JOIN partsupp ON ps_suppkey = s_suppkey WHERE n_name <> 'CHINA' GROUP BY ps_partkey`, 7},
		{"q14 (MAPJOIN)", q14, 9},
	} {
		q, err := query.Parse(shape.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := plan.Compile(q); err != nil {
				t.Fatal(err)
			}
		})
		if n > shape.measured+2 {
			t.Errorf("%s: Compile allocates %.0f times, budget %.0f+2", shape.name, n, shape.measured)
		}
	}
}

var aliasSink any

// TestParsedAndPlannedSlicesDoNotAlias appends to every slice Parse and
// Compile hand out and checks that neither the query's rendering nor the
// DAG moved: slabs are shared between neighbours, so each slice must be
// cut to its own capacity.
func TestParsedAndPlannedSlicesDoNotAlias(t *testing.T) {
	const sql = `SELECT /*+ MAPJOIN(part) */ s_nationkey, sum(ps_supplycost), count(*) FROM nation JOIN supplier ON s_nationkey = n_nationkey AND n_regionkey < 3 JOIN partsupp ON ps_suppkey = s_suppkey AND ps_availqty IN (1, 2) JOIN part ON p_partkey = ps_partkey AND p_size < 10 WHERE s_acctbal > 0 AND ps_supplycost BETWEEN 1 AND 500 GROUP BY s_nationkey HAVING count(*) > 1 ORDER BY sum(ps_supplycost) DESC, s_nationkey`
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		t.Fatal(err)
	}
	d, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Jobs) != 4 || len(d.Jobs[2].MapJoins) != 1 || len(d.Sink().OrderKeys) != 2 {
		t.Fatalf("want a folded MAPJOIN and a sort, got\n%s", d)
	}
	text, digest := q.String(), dagDigest(d)
	check := func(what string) {
		t.Helper()
		if got := q.String(); got != text {
			t.Errorf("appending to %s changed the query:\n%s\n%s", what, got, text)
		}
		if dagDigest(d) != digest {
			t.Errorf("appending to %s changed the DAG", what)
		}
	}
	col := query.ColumnRef{Table: "alias", Column: "probe"}
	pred := query.Predicate{Left: col, Op: query.OpGT, Lit: query.NumLit(-1)}
	aliasSink = append(q.Select, query.SelectItem{Expr: query.Expr{Col: col}})
	check("Select")
	aliasSink = append(q.Where, pred)
	check("Where")
	for i := range q.Joins {
		aliasSink = append(q.Joins[i].On, pred)
		check("Join.On")
	}
	aliasSink = append(q.GroupBy, col)
	check("GroupBy")
	aliasSink = append(q.Having, query.HavingPred{Star: true, Op: query.OpLT, Lit: query.NumLit(-1)})
	check("Having")
	aliasSink = append(q.OrderBy, query.OrderItem{Col: col})
	check("OrderBy")
	scan := plan.TableScan{Table: "probe", Preds: []query.Predicate{pred}, Columns: []string{"probe"}}
	pokeScan := func(ts plan.TableScan) {
		aliasSink = append(ts.Preds, pred)
		check("Preds")
		aliasSink = append(ts.Columns, "probe")
		check("Columns")
	}
	for _, j := range d.Jobs {
		aliasSink = append(j.Scans, scan)
		check("Scans")
		for _, ts := range j.Scans {
			pokeScan(ts)
		}
		aliasSink = append(j.Aggs, query.SelectItem{Star: true})
		check("Aggs")
		aliasSink = append(j.OrderKeys, query.OrderItem{Col: col})
		check("OrderKeys")
		aliasSink = append(j.MapJoins, plan.MapJoinSpec{BroadcastScan: scan})
		check("MapJoins")
		for _, mj := range j.MapJoins {
			pokeScan(mj.BroadcastScan)
		}
	}
}
