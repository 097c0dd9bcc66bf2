package query_test

import (
	"testing"

	"saqp/internal/query"
	"saqp/internal/workload"
)

// TestParseAllocBudget bounds query.Parse per plan shape, so that a
// regression fails here rather than only in the whole miss. A parse is
// the Query and one slab per element kind present: the select list, the
// joins, the predicates of every ON and WHERE, the column references of
// GROUP BY and of column-to-column predicates, IN sets, arithmetic, HAVING,
// ORDER BY and MAPJOIN tables. Tokens, clause scratch and string literals
// without a doubled quote cost nothing. Budgets are the measured counts + 2.
func TestParseAllocBudget(t *testing.T) {
	q14, err := workload.TPCHSQL("q14")
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name, sql string
		measured  float64
	}{
		{"scan-only", `SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate < 9000 AND l_quantity >= 10`, 3},
		{"join → group-by", `SELECT c_nationkey, sum(o_totalprice) FROM customer JOIN orders ON o_custkey = c_custkey WHERE o_orderdate < 9000 GROUP BY c_nationkey`, 5},
		{"three-job chain", `SELECT ps_partkey, sum(ps_supplycost) FROM nation JOIN supplier ON s_nationkey = n_nationkey JOIN partsupp ON ps_suppkey = s_suppkey WHERE n_name <> 'CHINA' GROUP BY ps_partkey`, 5},
		{"q14 (MAPJOIN)", q14, 7},
	} {
		n := testing.AllocsPerRun(100, func() {
			if _, err := query.Parse(shape.sql); err != nil {
				t.Fatal(err)
			}
		})
		if n > shape.measured+2 {
			t.Errorf("%s: Parse allocates %.0f times, budget %.0f+2", shape.name, n, shape.measured)
		}
	}
}
