package workload

import (
	"fmt"
	"math"

	"saqp/internal/dataset"
	"saqp/internal/query"
	"saqp/internal/sim"
)

// Shape enumerates the query plan shapes the generator produces. The mix
// covers every DAG structure the paper discusses: chained two-job queries
// (Q14-like), three-job join trees (the Section 3.2 example) and four-job
// chains (Q17-like).
type Shape uint8

const (
	// ShapeScan is a map-only filter/project (1 job).
	ShapeScan Shape = iota
	// ShapeScanSort filters then sorts, with optional LIMIT (1 job).
	ShapeScanSort
	// ShapeAgg groups one table (1 job).
	ShapeAgg
	// ShapeAggSort groups then sorts — the paper's QA/QC two-job chain.
	ShapeAggSort
	// ShapeJoinAgg joins two tables then groups (2 jobs).
	ShapeJoinAgg
	// ShapeJoin2Agg joins three tables then groups — the paper's modified
	// Q11 (3 jobs).
	ShapeJoin2Agg
	// ShapeJoin3Agg joins four tables then groups — the paper's QB
	// four-job shape.
	ShapeJoin3Agg
	numShapes
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeScan:
		return "scan"
	case ShapeScanSort:
		return "scan-sort"
	case ShapeAgg:
		return "agg"
	case ShapeAggSort:
		return "agg-sort"
	case ShapeJoinAgg:
		return "join-agg"
	case ShapeJoin2Agg:
		return "join2-agg"
	case ShapeJoin3Agg:
		return "join3-agg"
	}
	return fmt.Sprintf("shape(%d)", uint8(s))
}

// joinStep describes one JOIN clause: the new table and the equi-join
// condition columns (left side already in scope).
type joinStep struct {
	table     string
	leftTable string
	leftCol   string
	rightCol  string
}

// chain is a FROM table plus join steps, in compiler-compatible order.
type chain struct {
	from  string
	steps []joinStep
}

// chains enumerates the PK–FK join paths of the two schema families.
func chains() []chain {
	return []chain{
		{from: "lineitem"},
		{from: "orders"},
		{from: "partsupp"},
		{from: "store_sales"},
		{from: "web_sales"},
		{from: "customer"},
		{from: "part"},
		{from: "supplier"},
		{from: "orders", steps: []joinStep{
			{table: "lineitem", leftTable: "orders", leftCol: "o_orderkey", rightCol: "l_orderkey"}}},
		{from: "customer", steps: []joinStep{
			{table: "orders", leftTable: "customer", leftCol: "c_custkey", rightCol: "o_custkey"}}},
		{from: "part", steps: []joinStep{
			{table: "lineitem", leftTable: "part", leftCol: "p_partkey", rightCol: "l_partkey"}}},
		{from: "supplier", steps: []joinStep{
			{table: "lineitem", leftTable: "supplier", leftCol: "s_suppkey", rightCol: "l_suppkey"}}},
		{from: "nation", steps: []joinStep{
			{table: "supplier", leftTable: "nation", leftCol: "n_nationkey", rightCol: "s_nationkey"}}},
		{from: "part", steps: []joinStep{
			{table: "partsupp", leftTable: "part", leftCol: "p_partkey", rightCol: "ps_partkey"}}},
		{from: "item", steps: []joinStep{
			{table: "store_sales", leftTable: "item", leftCol: "i_item_sk", rightCol: "ss_item_sk"}}},
		{from: "store", steps: []joinStep{
			{table: "store_sales", leftTable: "store", leftCol: "st_store_sk", rightCol: "ss_store_sk"}}},
		{from: "item", steps: []joinStep{
			{table: "web_sales", leftTable: "item", leftCol: "i_item_sk", rightCol: "ws_item_sk"}}},
		{from: "nation", steps: []joinStep{
			{table: "supplier", leftTable: "nation", leftCol: "n_nationkey", rightCol: "s_nationkey"},
			{table: "partsupp", leftTable: "supplier", leftCol: "s_suppkey", rightCol: "ps_suppkey"}}},
		{from: "customer", steps: []joinStep{
			{table: "orders", leftTable: "customer", leftCol: "c_custkey", rightCol: "o_custkey"},
			{table: "lineitem", leftTable: "orders", leftCol: "o_orderkey", rightCol: "l_orderkey"}}},
		{from: "region", steps: []joinStep{
			{table: "nation", leftTable: "region", leftCol: "r_regionkey", rightCol: "n_regionkey"},
			{table: "supplier", leftTable: "nation", leftCol: "n_nationkey", rightCol: "s_nationkey"}}},
		{from: "store", steps: []joinStep{
			{table: "store_sales", leftTable: "store", leftCol: "st_store_sk", rightCol: "ss_store_sk"},
			{table: "item", leftTable: "store_sales", leftCol: "ss_item_sk", rightCol: "i_item_sk"}}},
		{from: "part", steps: []joinStep{
			{table: "lineitem", leftTable: "part", leftCol: "p_partkey", rightCol: "l_partkey"},
			{table: "orders", leftTable: "lineitem", leftCol: "l_orderkey", rightCol: "o_orderkey"},
			{table: "customer", leftTable: "orders", leftCol: "o_custkey", rightCol: "c_custkey"}}},
		{from: "nation", steps: []joinStep{
			{table: "customer", leftTable: "nation", leftCol: "n_nationkey", rightCol: "c_nationkey"},
			{table: "orders", leftTable: "customer", leftCol: "c_custkey", rightCol: "o_custkey"},
			{table: "lineitem", leftTable: "orders", leftCol: "o_orderkey", rightCol: "l_orderkey"}}},
	}
}

// aggregable lists numeric columns suitable as aggregate inputs per table.
var aggregable = map[string][]string{
	"lineitem":    {"l_extendedprice", "l_quantity", "l_discount"},
	"orders":      {"o_totalprice"},
	"customer":    {"c_acctbal"},
	"supplier":    {"s_acctbal"},
	"part":        {"p_retailprice", "p_size"},
	"partsupp":    {"ps_supplycost", "ps_availqty"},
	"store_sales": {"ss_sales_price", "ss_quantity", "ss_net_profit"},
	"web_sales":   {"ws_sales_price", "ws_quantity"},
	"item":        {"i_current_price"},
	"nation":      {"n_regionkey"},
	"region":      {"r_regionkey"},
	"store":       {"st_market_id"},
	"date_dim":    {"d_year"},
}

// groupable lists moderate-cardinality grouping columns per table.
var groupable = map[string][]string{
	"lineitem":    {"l_quantity", "l_shipmode", "l_returnflag", "l_orderkey", "l_partkey"},
	"orders":      {"o_orderpriority", "o_orderdate", "o_custkey"},
	"customer":    {"c_mktsegment", "c_nationkey"},
	"supplier":    {"s_nationkey"},
	"part":        {"p_brand", "p_size", "p_container"},
	"partsupp":    {"ps_partkey", "ps_suppkey"},
	"store_sales": {"ss_store_sk", "ss_quantity", "ss_item_sk"},
	"web_sales":   {"ws_quantity", "ws_item_sk"},
	"item":        {"i_brand", "i_category"},
	"nation":      {"n_name"},
	"region":      {"r_name"},
	"store":       {"st_state"},
	"date_dim":    {"d_year", "d_moy"},
}

// filterable lists numeric columns suitable for range predicates.
var filterable = map[string][]string{
	"lineitem":    {"l_quantity", "l_shipdate", "l_extendedprice", "l_discount"},
	"orders":      {"o_orderdate", "o_totalprice"},
	"customer":    {"c_acctbal", "c_nationkey"},
	"supplier":    {"s_acctbal", "s_nationkey"},
	"part":        {"p_size", "p_retailprice"},
	"partsupp":    {"ps_availqty", "ps_supplycost"},
	"store_sales": {"ss_quantity", "ss_sales_price", "ss_sold_date_sk"},
	"web_sales":   {"ws_quantity", "ws_sales_price"},
	"item":        {"i_current_price"},
	"nation":      {"n_nationkey"},
	"region":      {"r_regionkey"},
	"store":       {"st_market_id"},
	"date_dim":    {"d_year"},
}

// smallDims lists dimension tables small enough for broadcast joins at any
// experiment scale; the generator occasionally MAPJOIN-hints them.
var smallDims = map[string]bool{
	"nation": true, "region": true, "store": true, "date_dim": true,
}

// Generator produces random resolved queries over the synthetic schemas.
type Generator struct {
	rng     *sim.RNG
	schemas map[string]*dataset.Schema
	chains  []chain
}

// NewGenerator returns a deterministic query generator.
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		rng:     sim.New(seed),
		schemas: dataset.AllSchemas(),
		chains:  chains(),
	}
}

// RandomShape draws a shape with weights biased toward the multi-job
// queries the paper's corpus is dominated by.
func (g *Generator) RandomShape() Shape {
	r := g.rng.Float64()
	switch {
	case r < 0.08:
		return ShapeScan
	case r < 0.18:
		return ShapeScanSort
	case r < 0.33:
		return ShapeAgg
	case r < 0.50:
		return ShapeAggSort
	case r < 0.72:
		return ShapeJoinAgg
	case r < 0.90:
		return ShapeJoin2Agg
	default:
		return ShapeJoin3Agg
	}
}

// RandomQuery generates one resolved query of a random shape.
func (g *Generator) RandomQuery() (*query.Query, Shape, error) {
	shape := g.RandomShape()
	q, err := g.QueryOfShape(shape)
	return q, shape, err
}

// QueryOfShape generates one resolved query with the requested shape.
func (g *Generator) QueryOfShape(shape Shape) (*query.Query, error) {
	joins := 0
	switch shape {
	case ShapeJoinAgg:
		joins = 1
	case ShapeJoin2Agg:
		joins = 2
	case ShapeJoin3Agg:
		joins = 3
	}
	ch := g.pickChain(joins)
	q := &query.Query{Limit: -1, From: query.TableRef{Name: ch.from}}
	tables := []string{ch.from}
	for _, st := range ch.steps[:joins] {
		right := query.ColumnRef{Table: st.table, Column: st.rightCol}
		q.Joins = append(q.Joins, query.Join{
			Table: query.TableRef{Name: st.table},
			On: []query.Predicate{{
				Left:  query.ColumnRef{Table: st.leftTable, Column: st.leftCol},
				Op:    query.OpEQ,
				Right: &right,
			}},
		})
		tables = append(tables, st.table)
	}
	// Predicates: each table gets one with probability 60%.
	for _, t := range tables {
		if g.rng.Bool(0.6) {
			q.Where = append(q.Where, g.randPredicates(t)...)
		}
	}
	// Broadcast-join hint: when the first joined pair includes a small
	// dimension table, sometimes compile it as a Hive map-side join.
	if joins >= 1 && smallDims[tables[0]] && g.rng.Bool(0.35) {
		q.MapJoinTables = []string{tables[0]}
	}
	// The biggest (typically last) table drives aggregation targets.
	fact := tables[len(tables)-1]
	hasAgg := shape == ShapeAgg || shape == ShapeAggSort ||
		shape == ShapeJoinAgg || shape == ShapeJoin2Agg || shape == ShapeJoin3Agg
	if hasAgg {
		gcols := groupable[fact]
		gcol := gcols[g.rng.Intn(len(gcols))]
		key := query.ColumnRef{Table: fact, Column: gcol}
		q.GroupBy = []query.ColumnRef{key}
		q.Select = append(q.Select, query.SelectItem{Expr: query.Expr{Col: key}})
		// Sometimes group on a second key — the paper's Eq. 2 explicitly
		// models composite keys via T.d_xy.
		if g.rng.Bool(0.25) && len(gcols) > 1 {
			second := gcols[g.rng.Intn(len(gcols))]
			if second != gcol {
				key2 := query.ColumnRef{Table: fact, Column: second}
				q.GroupBy = append(q.GroupBy, key2)
				q.Select = append(q.Select, query.SelectItem{Expr: query.Expr{Col: key2}})
			}
		}
		acols := aggregable[fact]
		acol := acols[g.rng.Intn(len(acols))]
		fn := []query.AggFunc{query.AggSum, query.AggCount, query.AggAvg, query.AggMax}[g.rng.Intn(4)]
		q.Select = append(q.Select, query.SelectItem{
			Agg:  fn,
			Expr: query.Expr{Col: query.ColumnRef{Table: fact, Column: acol}},
		})
		// Occasional HAVING over a count — post-aggregation filtering.
		if g.rng.Bool(0.15) {
			q.Having = []query.HavingPred{{
				Agg: query.AggCount, Star: true, Op: query.OpGT,
				Lit: query.NumLit(float64(1 + g.rng.Intn(5))),
			}}
		}
		if shape == ShapeAggSort {
			if g.rng.Bool(0.35) {
				// Top-k by aggregate value, the TPC-H Q3 idiom.
				last := q.Select[len(q.Select)-1]
				q.OrderBy = []query.OrderItem{{Agg: last.Agg, Expr: last.Expr, Star: last.Star, Desc: true}}
			} else {
				q.OrderBy = []query.OrderItem{{Col: key, Desc: g.rng.Bool(0.5)}}
			}
			if g.rng.Bool(0.3) {
				q.Limit = int64(10 * (1 + g.rng.Intn(20)))
			}
		}
	} else {
		// Projection of 1-3 columns.
		cols := g.schemas[fact].Columns
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			c := cols[g.rng.Intn(len(cols))]
			q.Select = append(q.Select, query.SelectItem{
				Expr: query.Expr{Col: query.ColumnRef{Table: fact, Column: c.Name}},
			})
		}
		if shape == ShapeScanSort {
			fcols := filterable[fact]
			q.OrderBy = []query.OrderItem{{
				Col:  query.ColumnRef{Table: fact, Column: fcols[g.rng.Intn(len(fcols))]},
				Desc: g.rng.Bool(0.5),
			}}
			if g.rng.Bool(0.4) {
				q.Limit = int64(10 * (1 + g.rng.Intn(100)))
			}
		}
	}
	if err := query.Resolve(q, g.schemas); err != nil {
		return nil, fmt.Errorf("workload: generated query failed to resolve: %w", err)
	}
	return q, nil
}

// pickChain selects a chain with at least `joins` steps.
func (g *Generator) pickChain(joins int) chain {
	var candidates []chain
	for _, c := range g.chains {
		if len(c.steps) >= joins {
			candidates = append(candidates, c)
		}
	}
	return candidates[g.rng.Intn(len(candidates))]
}

// randPredicates builds predicates on a random filterable column: a single
// range comparison most of the time, occasionally a BETWEEN pair or an IN
// list, with target selectivity drawn from [0.05, 0.95].
func (g *Generator) randPredicates(table string) []query.Predicate {
	cols := filterable[table]
	if len(cols) == 0 {
		return nil
	}
	name := cols[g.rng.Intn(len(cols))]
	col := g.schemas[table].Column(name)
	if col == nil {
		return nil
	}
	sel := g.rng.Range(0.05, 0.95)
	dom := col.Domain(1) // a filterable's domain is sf-independent (TestFilterableDomains)
	card, lo, width := dom.Card, dom.Value(0), dom.Width()
	ref := query.ColumnRef{Table: table, Column: name}
	round := func(v float64) float64 { return math.Round(v*100) / 100 }
	r := g.rng.Float64()
	switch {
	case r < 0.15 && card >= 8:
		// BETWEEN: a centred range covering ~sel of the domain.
		span := sel * width
		start := lo + g.rng.Range(0, width-span)
		return []query.Predicate{
			{Left: ref, Op: query.OpGE, Lit: query.NumLit(round(start))},
			{Left: ref, Op: query.OpLE, Lit: query.NumLit(round(start + span))},
		}
	case r < 0.30 && card >= 8 && card <= 10_000 && col.Kind == dataset.KindInt:
		// IN: 2-4 distinct domain members.
		n := 2 + g.rng.Intn(3)
		seen := map[int64]bool{}
		pr := query.Predicate{Left: ref, Op: query.OpIN}
		for len(pr.Set) < n {
			k := g.rng.Int63n(card)
			if seen[k] {
				continue
			}
			seen[k] = true
			pr.Set = append(pr.Set, query.NumLit(dom.Value(k)))
		}
		return []query.Predicate{pr}
	case g.rng.Bool(0.5):
		cut := lo + sel*width
		return []query.Predicate{{Left: ref, Op: query.OpLT, Lit: query.NumLit(round(cut))}}
	default:
		cut := lo + (1-sel)*width
		return []query.Predicate{{Left: ref, Op: query.OpGE, Lit: query.NumLit(round(cut))}}
	}
}

// InputBytesAtSF1 returns the query's total base-table input at scale
// factor 1; used to translate workload-bin target sizes into scale factors.
func InputBytesAtSF1(q *query.Query, schemas map[string]*dataset.Schema) float64 {
	seen := map[string]bool{}
	var total float64
	for _, t := range q.Tables() {
		if seen[t.Name] {
			continue
		}
		seen[t.Name] = true
		total += float64(schemas[t.Name].BytesAt(1))
	}
	return total
}
