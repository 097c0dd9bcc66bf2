package plan

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"saqp/internal/query"
)

// Compile turns a resolved query into a DAG of MapReduce jobs using the
// Hive-style physical plan for single-block queries:
//
//	J1..Jk   one Join job per JOIN clause, left-deep: J1 scans the two
//	         first tables, each later join reads the previous job's output
//	         plus one new base table;
//	Jk+1     a Groupby job when aggregation or GROUP BY is present;
//	Jk+2     an Extract job when ORDER BY and/or LIMIT is present;
//	         with none of the above, a single map-only Extract job.
//
// Local predicates are pushed down to the scan of the table they filter.
// Column pruning records exactly the attributes consumed downstream, which
// drives the paper's projection selectivity S_proj. A join against a table
// named in a MAPJOIN hint is a map-only broadcast join, and one that has a
// consumer folds into that consumer's map phase, as Hive does.
//
// The chain's shape — how many jobs, which folds, which scans survive —
// is worked out on the query's tables first, so every slice of the DAG is
// cut from one exact-size allocation per element kind. Each is cut with a
// 3-index slice, so an append by a consumer never writes into a neighbour.
func Compile(q *query.Query) (*DAG, error) {
	if len(q.Select) == 0 {
		return nil, fmt.Errorf("plan: query has no projection")
	}
	// The scratch lives on this frame: helpers read and write its
	// elements, and only Compile grows it.
	var (
		tabBuf  [8]tableInfo
		joinBuf [7]joinInfo
		foldBuf [7]foldSpec
		colBuf  [32]colRef
	)
	c := compiler{tabs: tabBuf[:0], joins: joinBuf[:0], folds: foldBuf[:0]}
	for t := 0; t <= len(q.Joins); t++ {
		name := q.From.Name
		if t > 0 {
			name = q.Joins[t-1].Table.Name
		}
		c.tabs = append(c.tabs, tableInfo{name: name, owner: max(t-1, 0)})
	}
	for i := range q.Joins {
		ji, err := c.join(q, i)
		if err != nil {
			return nil, err
		}
		c.joins = append(c.joins, ji)
	}
	groupby := q.HasAggregates() || len(q.GroupBy) > 0
	extract := len(q.OrderBy) > 0 || q.Limit >= 0
	built := len(q.Joins)
	if groupby {
		built++
	}
	if extract || built == 0 {
		built++
	}
	for _, o := range q.OrderBy {
		if !o.IsAggregate() {
			continue
		}
		if !groupby {
			return nil, fmt.Errorf("plan: ORDER BY aggregate %s requires a GROUP BY", o)
		}
		if matchAgg(q.Select, o) < 0 {
			return nil, fmt.Errorf("plan: ORDER BY aggregate %s must appear in SELECT", o)
		}
	}
	for k := range c.joins {
		if c.folded(k, built) {
			c.folds = append(c.folds, c.fold(k))
		}
	}
	c.refs = c.neededColumns(q, colBuf[:0])
	c.regions(q)
	return c.build(q, built, groupby, extract)
}

// tableInfo is one table of the query, in FROM/JOIN order.
type tableInfo struct {
	name string
	// owner is the built job whose map phase scans the table, or -1 once a
	// broadcast join has consumed or dropped it.
	owner int
	// The table's pushed-down filters and pruned columns, as regions of
	// the predicate and column slabs. A self-join scans one base table
	// twice, with one set of each: they are kept on the table's first
	// occurrence (compiler.table).
	predAt, preds, colAt, cols int
}

// joinInfo is one join job's oriented condition and broadcast table.
type joinInfo struct {
	left, right query.ColumnRef
	broadcast   string
}

// foldSpec is a map-only join folded into a consumer: the broadcast
// table, the join it came from, and the built job that now runs it.
type foldSpec struct{ tab, join, into int }

// colRef is one needed column of a table.
type colRef struct {
	tab  int
	name string
}

// compiler holds one Compile call's view of the query's tables, joins
// and folds, in scratch that covers up to seven joins and 32 column
// references on Compile's stack; larger queries grow onto the heap. The
// query is passed beside it rather than held in it: escape analysis does
// not tell fields apart, and the query's slices reach the DAG.
type compiler struct {
	tabs   []tableInfo
	joins  []joinInfo
	folds  []foldSpec
	refs   []colRef // needed columns, sorted by table, then name
	nPreds int
}

// table returns the index of the first table named name, or -1.
func (c *compiler) table(name string) int {
	for t := range c.tabs {
		if c.tabs[t].name == name {
			return t
		}
	}
	return -1
}

// join orients the i-th join's condition so that Right refers to the
// newly joined table, and picks its broadcast table: a hinted table on
// either side makes the join map-side; when both sides are hinted, hint
// order decides which table broadcasts.
func (c *compiler) join(q *query.Query, i int) (joinInfo, error) {
	jc := q.Joins[i]
	var cond *query.Predicate
	for k := range jc.On {
		if jc.On[k].IsJoin() {
			cond = &jc.On[k]
			break
		}
	}
	if cond == nil {
		return joinInfo{}, fmt.Errorf("plan: join %d has no equi-join condition", i+1)
	}
	left, right := cond.Left, *cond.Right
	if left.Table == jc.Table.Name && right.Table != jc.Table.Name {
		left, right = right, left
	}
	ji := joinInfo{left: left, right: right}
	// The first join scans the FROM table and its own, later ones their own.
	lo := i + 1
	if i == 0 {
		lo = 0
	}
hint:
	for _, hinted := range q.MapJoinTables {
		for t := lo; t <= i+1; t++ {
			if c.tabs[t].name == hinted {
				ji.broadcast = hinted
				break hint
			}
		}
	}
	return ji, nil
}

// folded reports whether built job k is a map-only broadcast join with a
// consumer. In the left-deep chain every job but the last has exactly
// one, the next.
func (c *compiler) folded(k, built int) bool {
	return k < len(c.joins) && c.joins[k].broadcast != "" && k < built-1
}

// fold folds join k into built job k+1, as Hive merges a map-only join
// into its consumer. Called first to last, so a run of such joins lands
// in one consumer in order. The last scan of the broadcast table becomes
// the consumer's map-join prelude and other scans of that table are
// dropped; the probe scans move to the consumer, ahead of its own.
func (c *compiler) fold(k int) foldSpec {
	bt := -1
	for t := range c.tabs {
		tab := &c.tabs[t]
		if tab.owner != k {
			continue
		}
		if tab.name == c.joins[k].broadcast {
			bt, tab.owner = t, -1
		} else {
			tab.owner = k + 1
		}
	}
	for f := range c.folds {
		if c.folds[f].into == k {
			c.folds[f].into = k + 1
		}
	}
	return foldSpec{tab: bt, join: k, into: k + 1}
}

// neededColumns appends, per base table, the distinct columns referenced
// anywhere in the query (projection pruning), sorted by table, then name.
func (c *compiler) neededColumns(q *query.Query, refs []colRef) []colRef {
	add := func(col query.ColumnRef) {
		if t := c.table(col.Table); t >= 0 {
			refs = append(refs, colRef{t, col.Column})
		}
	}
	addExpr := func(e query.Expr) {
		if e.Binop != nil {
			add(e.Binop.Left)
			add(e.Binop.Right)
			return
		}
		add(e.Col)
	}
	addPreds := func(ps []query.Predicate) {
		for i := range ps {
			add(ps[i].Left)
			if ps[i].Right != nil {
				add(*ps[i].Right)
			}
		}
	}
	for _, s := range q.Select {
		if !s.Star {
			addExpr(s.Expr)
		}
	}
	for _, j := range q.Joins {
		addPreds(j.On)
	}
	addPreds(q.Where)
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, h := range q.Having {
		if !h.Star {
			addExpr(h.Expr)
		}
	}
	for _, o := range q.OrderBy {
		switch {
		case o.Star:
		case o.IsAggregate():
			addExpr(o.Expr)
		default:
			add(o.Col)
		}
	}
	slices.SortFunc(refs, func(a, b colRef) int {
		if a.tab != b.tab {
			return a.tab - b.tab
		}
		return strings.Compare(a.name, b.name)
	})
	return slices.Compact(refs)
}

// pushed calls f with the query's local (column-vs-literal) conjuncts on
// table t, in the order they are pushed down: WHERE, then each ON.
func (c *compiler) pushed(q *query.Query, t int, f func(query.Predicate)) {
	each := func(ps []query.Predicate) {
		for i := range ps {
			if !ps[i].IsJoin() && c.table(ps[i].Left.Table) == t {
				f(ps[i])
			}
		}
	}
	each(q.Where)
	for _, j := range q.Joins {
		each(j.On)
	}
}

// regions lays each table's filters and columns out in the predicate and
// column slabs, in table order.
func (c *compiler) regions(q *query.Query) {
	for _, r := range c.refs {
		c.tabs[r.tab].cols++
	}
	cols := 0
	for t := range c.tabs {
		tab := &c.tabs[t]
		if c.table(tab.name) == t {
			c.pushed(q, t, func(query.Predicate) { tab.preds++ })
		}
		tab.predAt, tab.colAt = c.nPreds, cols
		c.nPreds += tab.preds
		cols += tab.cols
	}
}

// build cuts the DAG from its slabs. Built job k is join k for k below
// len(Joins), then the Groupby job, then the Extract job (or the lone
// map-only scan); a folded join has no job of its own.
func (c *compiler) build(q *query.Query, built int, groupby, extract bool) (*DAG, error) {
	m := built - len(c.folds)
	jobs := make([]Job, m)
	ptrs := make([]*Job, m)
	cols := make([]string, len(c.refs))
	for i, r := range c.refs {
		cols[i] = r.name
	}
	var preds []query.Predicate
	if c.nPreds > 0 {
		preds = make([]query.Predicate, 0, c.nPreds)
		for t := range c.tabs {
			c.pushed(q, t, func(p query.Predicate) { preds = append(preds, p) })
		}
	}
	scanOf := func(t int) TableScan {
		f := &c.tabs[c.table(c.tabs[t].name)]
		ts := TableScan{Table: f.name, Columns: cols[f.colAt : f.colAt+f.cols : f.colAt+f.cols]}
		if f.preds > 0 {
			ts.Preds = preds[f.predAt : f.predAt+f.preds : f.predAt+f.preds]
		}
		return ts
	}
	nScans := 0
	for _, tab := range c.tabs {
		if tab.owner >= 0 {
			nScans++
		}
	}
	scans := make([]TableScan, nScans)
	var specs []MapJoinSpec
	if len(c.folds) > 0 {
		specs = make([]MapJoinSpec, len(c.folds))
	}

	f, s, sp := 0, 0, 0 // next job, scan and map-join
	for k := 0; k < built; k++ {
		if c.folded(k, built) {
			continue
		}
		j := &jobs[f]
		ptrs[f] = j
		j.ID, j.Limit = jobID(f+1), -1
		if f > 0 {
			j.Up = &jobs[f-1]
		}
		from := s
		for t := range c.tabs {
			if c.tabs[t].owner == k {
				scans[s] = scanOf(t)
				s++
			}
		}
		if s > from {
			j.Scans = scans[from:s:s]
		}
		from = sp
		for _, fs := range c.folds {
			if fs.into == k {
				ji := c.joins[fs.join]
				specs[sp] = MapJoinSpec{BroadcastScan: scanOf(fs.tab), JoinLeft: ji.left, JoinRight: ji.right}
				sp++
			}
		}
		if sp > from {
			j.MapJoins = specs[from:sp:sp]
		}
		switch {
		case k < len(c.joins):
			ji := c.joins[k]
			j.Type, j.JoinLeft, j.JoinRight = Join, ji.left, ji.right
			j.MapOnly, j.Broadcast = ji.broadcast != "", ji.broadcast
		case groupby && k == len(c.joins):
			j.Type, j.GroupKeys, j.Having = Groupby, q.GroupBy, q.Having
			j.Aggs = aggregates(q.Select)
		case extract:
			j.Type, j.Limit = Extract, q.Limit
			if len(q.OrderBy) > 0 {
				j.OrderKeys = make([]query.OrderItem, len(q.OrderBy))
				for i, o := range q.OrderBy {
					if o.IsAggregate() {
						// Bound to the Groupby job, the one just before.
						o.Col = jobs[f-1].AggColumn(matchAgg(q.Select, o))
					}
					j.OrderKeys[i] = o
				}
			}
		default:
			j.Type, j.MapOnly = Extract, true
		}
		f++
	}
	d := &DAG{Jobs: ptrs, Query: q}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// aggregates returns the select list's aggregate items, the Groupby
// job's outputs, or nil.
func aggregates(sel []query.SelectItem) []query.SelectItem {
	n := 0
	for _, s := range sel {
		if s.Agg != query.AggNone || s.Star {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	aggs := make([]query.SelectItem, 0, n)
	for _, s := range sel {
		if s.Agg != query.AggNone || s.Star {
			aggs = append(aggs, s)
		}
	}
	return aggs
}

// matchAgg finds, among the select list's aggregates, the one an ORDER BY
// aggregate names, or -1.
func matchAgg(sel []query.SelectItem, o query.OrderItem) int {
	i := 0
	for _, a := range sel {
		if a.Agg == query.AggNone && !a.Star {
			continue
		}
		if a.Star && o.Star {
			return i
		}
		if !a.Star && !o.Star && a.Agg == o.Agg && a.Expr.SameText(o.Expr) {
			return i
		}
		i++
	}
	return -1
}

// jobIDs and aggColumns spell the ids of the first jobs and the names of
// the first aggregate output columns without formatting them.
var (
	jobIDs     = [...]string{"J0", "J1", "J2", "J3", "J4", "J5", "J6", "J7", "J8", "J9", "J10", "J11", "J12", "J13", "J14", "J15", "J16"}
	aggColumns = [...]string{"agg0", "agg1", "agg2", "agg3", "agg4", "agg5", "agg6", "agg7", "agg8", "agg9", "agg10", "agg11", "agg12", "agg13", "agg14", "agg15"}
)

// jobID returns "J<n>".
func jobID(n int) string {
	if n < len(jobIDs) {
		return jobIDs[n]
	}
	return "J" + strconv.Itoa(n)
}

// AggColumn names a Groupby job's i-th aggregate output, "<ID>.agg<i>":
// the column its output frame holds and a later job's ORDER BY reads.
func (j *Job) AggColumn(i int) query.ColumnRef {
	if i < len(aggColumns) {
		return query.ColumnRef{Table: j.ID, Column: aggColumns[i]}
	}
	return query.ColumnRef{Table: j.ID, Column: "agg" + strconv.Itoa(i)}
}
