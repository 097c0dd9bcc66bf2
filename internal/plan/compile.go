package plan

import (
	"fmt"
	"sort"

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
// drives the paper's projection selectivity S_proj.
func Compile(q *query.Query) (*DAG, error) {
	if len(q.Select) == 0 {
		return nil, fmt.Errorf("plan: query has no projection")
	}
	c := &compiler{q: q, localPreds: map[string][]query.Predicate{}}
	c.gatherColumns()
	c.gatherPredicates()

	var prev *Job
	var err error
	for i := range q.Joins {
		prev, err = c.joinJob(i, prev)
		if err != nil {
			return nil, err
		}
	}
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		prev = c.groupbyJob(prev)
	}
	if len(q.OrderBy) > 0 || q.Limit >= 0 {
		prev, err = c.extractJob(prev)
		if err != nil {
			return nil, err
		}
	}
	if prev == nil {
		prev = c.scanOnlyJob()
	}
	c.mergeMapJoins()
	d := &DAG{Jobs: c.jobs, Query: q}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// mergeMapJoins folds map-only broadcast Join jobs into their single
// consumer, as Hive does: the consumer's map phase performs the broadcast
// join inline. Runs to a fixed point, then renumbers job IDs.
func (c *compiler) mergeMapJoins() {
	for {
		merged := false
		for xi, x := range c.jobs {
			if x.Type != Join || !x.MapOnly || x.Broadcast == "" {
				continue
			}
			// Find the consumers of x.
			var consumers []*Job
			for _, d := range c.jobs {
				for _, dep := range d.Deps {
					if dep == x {
						consumers = append(consumers, d)
					}
				}
			}
			if len(consumers) != 1 {
				continue
			}
			d := consumers[0]
			// Split x's scans into the broadcast table and probe scans.
			var bScan TableScan
			var probeScans []TableScan
			for _, ts := range x.Scans {
				if ts.Table == x.Broadcast {
					bScan = ts
				} else {
					probeScans = append(probeScans, ts)
				}
			}
			spec := MapJoinSpec{BroadcastScan: bScan, JoinLeft: x.JoinLeft, JoinRight: x.JoinRight}
			// x's own preludes run first, then x's join, then d's preludes.
			d.MapJoins = append(append(append([]MapJoinSpec{}, x.MapJoins...), spec), d.MapJoins...)
			d.Scans = append(probeScans, d.Scans...)
			// Rewire d's dependencies: replace x with x's deps.
			var newDeps []*Job
			for _, dep := range d.Deps {
				if dep == x {
					newDeps = append(newDeps, x.Deps...)
				} else {
					newDeps = append(newDeps, dep)
				}
			}
			d.Deps = newDeps
			c.jobs = append(c.jobs[:xi], c.jobs[xi+1:]...)
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	// Renumber IDs and rewrite any synthetic column references (aggregate
	// ORDER BY keys bound to "J<n>.agg<i>") that named the old IDs.
	rename := map[string]string{}
	for i, j := range c.jobs {
		newID := fmt.Sprintf("J%d", i+1)
		if j.ID != newID {
			rename[j.ID] = newID
		}
		j.ID = newID
	}
	if len(rename) == 0 {
		return
	}
	for _, j := range c.jobs {
		for i := range j.OrderKeys {
			if to, ok := rename[j.OrderKeys[i].Col.Table]; ok {
				j.OrderKeys[i].Col.Table = to
			}
		}
	}
}

type compiler struct {
	q          *query.Query
	jobs       []*Job
	localPreds map[string][]query.Predicate // table -> pushed-down filters
	needCols   map[string]map[string]bool   // table -> needed column set
}

// newJob appends a job with the next sequential ID.
func (c *compiler) newJob(t JobType) *Job {
	j := &Job{ID: fmt.Sprintf("J%d", len(c.jobs)+1), Type: t, Limit: -1}
	c.jobs = append(c.jobs, j)
	return j
}

// gatherColumns computes, per base table, the set of columns referenced
// anywhere in the query (projection pruning).
func (c *compiler) gatherColumns() {
	c.needCols = make(map[string]map[string]bool)
	add := func(col query.ColumnRef) {
		if col.Table == "" {
			return
		}
		m := c.needCols[col.Table]
		if m == nil {
			m = make(map[string]bool)
			c.needCols[col.Table] = m
		}
		m[col.Column] = true
	}
	for _, s := range c.q.Select {
		if s.Star {
			continue
		}
		for _, col := range s.Expr.Columns() {
			add(col)
		}
	}
	addPred := func(p query.Predicate) {
		add(p.Left)
		if p.Right != nil {
			add(*p.Right)
		}
	}
	for _, j := range c.q.Joins {
		for _, p := range j.On {
			addPred(p)
		}
	}
	for _, p := range c.q.Where {
		addPred(p)
	}
	for _, g := range c.q.GroupBy {
		add(g)
	}
	for _, h := range c.q.Having {
		if h.Star {
			continue
		}
		for _, col := range h.Expr.Columns() {
			add(col)
		}
	}
	for _, o := range c.q.OrderBy {
		if o.Star {
			continue
		}
		if o.IsAggregate() {
			for _, col := range o.Expr.Columns() {
				add(col)
			}
			continue
		}
		add(o.Col)
	}
}

// gatherPredicates pushes local (column-vs-literal) conjuncts down to the
// scan of the table they filter.
func (c *compiler) gatherPredicates() {
	push := func(p query.Predicate) {
		if !p.IsJoin() {
			c.localPreds[p.Left.Table] = append(c.localPreds[p.Left.Table], p)
		}
	}
	for _, p := range c.q.Where {
		push(p)
	}
	for _, j := range c.q.Joins {
		for _, p := range j.On {
			push(p)
		}
	}
}

// scan builds the TableScan for a base table with its pushed predicates
// and pruned column list.
func (c *compiler) scan(table string) TableScan {
	cols := make([]string, 0, len(c.needCols[table]))
	for col := range c.needCols[table] {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return TableScan{Table: table, Preds: c.localPreds[table], Columns: cols}
}

// joinJob emits the i-th Join job of the left-deep chain. Joins against a
// table named in a MAPJOIN hint compile to map-only broadcast joins: the
// small table is loaded into every map task and probed without a shuffle.
func (c *compiler) joinJob(i int, prev *Job) (*Job, error) {
	jc := c.q.Joins[i]
	var cond *query.Predicate
	for k := range jc.On {
		if jc.On[k].IsJoin() {
			cond = &jc.On[k]
			break
		}
	}
	if cond == nil {
		return nil, fmt.Errorf("plan: join %d has no equi-join condition", i+1)
	}
	// Orient the condition: Right side refers to the newly joined table.
	left, right := cond.Left, *cond.Right
	if left.Table == jc.Table.Name && right.Table != jc.Table.Name {
		left, right = right, left
	}
	j := c.newJob(Join)
	j.JoinLeft, j.JoinRight = left, right
	if prev == nil {
		j.Scans = []TableScan{c.scan(c.q.From.Name), c.scan(jc.Table.Name)}
	} else {
		j.Deps = []*Job{prev}
		j.Scans = []TableScan{c.scan(jc.Table.Name)}
	}
	// A hinted table on either side of this join makes it map-side; when
	// both sides are hinted, hint order decides which table broadcasts.
hintScan:
	for _, hinted := range c.q.MapJoinTables {
		for _, ts := range j.Scans {
			if ts.Table == hinted {
				j.MapOnly = true
				j.Broadcast = hinted
				break hintScan
			}
		}
	}
	return j, nil
}

// groupbyJob emits the aggregation job.
func (c *compiler) groupbyJob(prev *Job) *Job {
	j := c.newJob(Groupby)
	if prev == nil {
		j.Scans = []TableScan{c.scan(c.q.From.Name)}
	} else {
		j.Deps = []*Job{prev}
	}
	j.GroupKeys = c.q.GroupBy
	for _, s := range c.q.Select {
		if s.Agg != query.AggNone || s.Star {
			j.Aggs = append(j.Aggs, s)
		}
	}
	j.Having = c.q.Having
	return j
}

// extractJob emits the sort/limit job. Aggregate sort keys (ORDER BY
// sum(x)) are bound to the upstream aggregation job's output columns; the
// aggregate must appear in the SELECT list.
func (c *compiler) extractJob(prev *Job) (*Job, error) {
	j := c.newJob(Extract)
	if prev == nil {
		j.Scans = []TableScan{c.scan(c.q.From.Name)}
	} else {
		j.Deps = []*Job{prev}
	}
	for _, o := range c.q.OrderBy {
		if o.IsAggregate() {
			if prev == nil || prev.Type != Groupby {
				return nil, fmt.Errorf("plan: ORDER BY aggregate %s requires a GROUP BY", o)
			}
			idx := matchAgg(prev.Aggs, o)
			if idx < 0 {
				return nil, fmt.Errorf("plan: ORDER BY aggregate %s must appear in SELECT", o)
			}
			o.Col = query.ColumnRef{Table: prev.ID, Column: fmt.Sprintf("agg%d", idx)}
		}
		j.OrderKeys = append(j.OrderKeys, o)
	}
	j.Limit = c.q.Limit
	return j, nil
}

// matchAgg finds the select-list aggregate matching an ORDER BY aggregate.
func matchAgg(aggs []query.SelectItem, o query.OrderItem) int {
	for i, a := range aggs {
		if a.Star && o.Star {
			return i
		}
		if a.Star || o.Star {
			continue
		}
		if a.Agg == o.Agg && a.Expr.String() == o.Expr.String() {
			return i
		}
	}
	return -1
}

// scanOnlyJob emits the single map-only filter/project job for queries
// with no join, aggregation, ordering or limit.
func (c *compiler) scanOnlyJob() *Job {
	j := c.newJob(Extract)
	j.Scans = []TableScan{c.scan(c.q.From.Name)}
	j.MapOnly = true
	return j
}
