package plan_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/workload"
)

// This file lives in the external test package because the pool recipe
// needs internal/workload, which imports plan.

// renderShapes are query_test's TestRenderDigestPinned shapes: clauses the
// generator's pool under-samples (a two-table MAPJOIN hint naming a table
// the query does not read, BETWEEN inside ON, IN lists of numbers and
// strings, HAVING, aggregate ORDER BY keys, a self-join).
var renderShapes = []string{
	`SELECT /*+ MAPJOIN(part, nation) */ p_type, sum(l_extendedprice*l_discount), count(*), avg(l_tax), min(l_quantity), max(l_quantity) FROM part JOIN lineitem ON l_partkey = p_partkey AND l_quantity BETWEEN 1 AND 9 WHERE l_shipdate < 19940101 AND p_container = 'it''s' AND p_size IN (1, 2.5, 1e21, -3) AND p_brand IN ('a', 'b''c') GROUP BY p_type, p_brand HAVING sum(l_extendedprice*l_discount) > 1e-7 AND count(*) >= 5 ORDER BY sum(l_extendedprice*l_discount) DESC, count(*), p_type DESC LIMIT 10`,
	`SELECT a.o_orderkey FROM orders a JOIN orders b ON a.o_custkey = b.o_custkey WHERE a.o_totalprice <> 100000.5 AND b.o_orderkey <= 7 AND b.o_orderkey >= -0.000001 AND a.o_comment > ''`,
	`SELECT count(*) FROM orders LIMIT 0`,
	`SELECT l_orderkey FROM lineitem ORDER BY l_orderkey`,
}

// digestTexts is the generator's first 4,096 distinct texts (the pool
// TestRenderDigestPinned walks), the seven TPC-H texts and renderShapes.
func digestTexts(tb testing.TB) []string {
	tb.Helper()
	g := workload.NewGenerator(1)
	seen := make(map[string]bool, 4096)
	var texts []string
	for tries := 0; len(texts) < 4096; tries++ {
		if tries > 1<<18 {
			tb.Fatalf("generator yielded only %d distinct texts", len(texts))
		}
		q, _, err := g.RandomQuery()
		if err != nil {
			continue
		}
		if sql := q.String(); !seen[sql] {
			seen[sql] = true
			texts = append(texts, sql)
		}
	}
	for _, name := range workload.TPCHNames() {
		sql, err := workload.TPCHSQL(name)
		if err != nil {
			tb.Fatal(err)
		}
		texts = append(texts, sql)
	}
	return append(texts, renderShapes...)
}

// compileText runs one text through Parse → Resolve → Compile.
func compileText(sql string) (*plan.DAG, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := query.Resolve(q, dataset.AllSchemas()); err != nil {
		return nil, err
	}
	return plan.Compile(q)
}

// digester folds every field of a compiled DAG into a hash, each value
// length- or tag-prefixed so that no two DAGs share a byte stream.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digester) n(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) f(v float64) { d.n(int64(math.Float64bits(v))) }

func (d *digester) b(v bool) {
	if v {
		d.n(1)
	} else {
		d.n(0)
	}
}

func (d *digester) s(v string) {
	d.n(int64(len(v)))
	d.h.Write([]byte(v))
}

func (d *digester) col(c query.ColumnRef) { d.s(c.Table); d.s(c.Column) }

func (d *digester) lit(l query.Literal) { d.b(l.IsString); d.s(l.S); d.f(l.F) }

func (d *digester) expr(e query.Expr) {
	d.col(e.Col)
	d.b(e.Binop != nil)
	if e.Binop != nil {
		d.col(e.Binop.Left)
		d.col(e.Binop.Right)
		d.n(int64(e.Binop.Op))
	}
}

func (d *digester) pred(p query.Predicate) {
	d.col(p.Left)
	d.n(int64(p.Op))
	d.lit(p.Lit)
	d.b(p.Right != nil)
	if p.Right != nil {
		d.col(*p.Right)
	}
	d.n(int64(len(p.Set)))
	for _, l := range p.Set {
		d.lit(l)
	}
}

func (d *digester) scan(ts plan.TableScan) {
	d.s(ts.Table)
	d.n(int64(len(ts.Preds)))
	for _, p := range ts.Preds {
		d.pred(p)
	}
	d.n(int64(len(ts.Columns)))
	for _, c := range ts.Columns {
		d.s(c)
	}
}

func (d *digester) dag(g *plan.DAG) {
	d.n(int64(len(g.Jobs)))
	for _, j := range g.Jobs {
		d.s(j.ID)
		d.n(int64(j.Type))
		d.n(int64(len(j.Scans)))
		for _, ts := range j.Scans {
			d.scan(ts)
		}
		if j.Up == nil { // a list of zero or one upstream ids, as the constants were recorded
			d.n(0)
		} else {
			d.n(1)
			d.s(j.Up.ID)
		}
		d.col(j.JoinLeft)
		d.col(j.JoinRight)
		d.n(int64(len(j.GroupKeys)))
		for _, c := range j.GroupKeys {
			d.col(c)
		}
		d.n(int64(len(j.Aggs)))
		for _, a := range j.Aggs {
			d.n(int64(a.Agg))
			d.expr(a.Expr)
			d.b(a.Star)
		}
		d.n(int64(len(j.Having)))
		for _, h := range j.Having {
			d.n(int64(h.Agg))
			d.expr(h.Expr)
			d.b(h.Star)
			d.n(int64(h.Op))
			d.lit(h.Lit)
		}
		d.n(int64(len(j.OrderKeys)))
		for _, o := range j.OrderKeys {
			d.col(o.Col)
			d.b(o.Desc)
			d.n(int64(o.Agg))
			d.expr(o.Expr)
			d.b(o.Star)
		}
		d.n(j.Limit)
		d.b(j.MapOnly)
		d.s(j.Broadcast)
		d.n(int64(len(j.MapJoins)))
		for _, m := range j.MapJoins {
			d.scan(m.BroadcastScan)
			d.col(m.JoinLeft)
			d.col(m.JoinRight)
		}
	}
}

// dagDigest is one DAG's digest, for tests that compare before and after.
func dagDigest(g *plan.DAG) uint64 {
	d := digester{h: fnv.New64a()}
	d.dag(g)
	return d.h.Sum64()
}

// TestPlanDigestPinned holds every field of every compiled DAG — ids,
// types, scans with their predicates and column order, Up by id, join
// keys, group keys, aggregates, HAVING, order keys (with the J<n>.agg<i>
// rebinding a MAPJOIN fold renumbers), limit, MapOnly, Broadcast and the
// folded map-joins — and every error string, over the generator's pool,
// TPC-H and renderShapes. The constant was recorded before the compiler
// and parser moved to per-query slabs and must not move with them.
func TestPlanDigestPinned(t *testing.T) {
	d := digester{h: fnv.New64a()}
	var jobs, failed int
	for _, sql := range digestTexts(t) {
		g, err := compileText(sql)
		if err != nil {
			failed++
			d.s(err.Error())
			continue
		}
		jobs += len(g.Jobs)
		d.dag(g)
	}
	if got, want := d.h.Sum64(), uint64(0x68cb8a74838f3f30); got != want {
		t.Errorf("plan digest = %#016x over %d jobs (%d texts failed), pinned %#016x", got, jobs, failed, want)
	}
}
