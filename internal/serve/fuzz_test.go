package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
	"saqp/internal/trace"
	"saqp/internal/workload"
)

// fuzzAllocPerByte and fuzzAllocBase state how much a miss may allocate
// from parse through scoring: fuzzAllocBase bytes plus fuzzAllocPerByte
// per byte of normalized text. Parse, Compile and the estimate grow with
// the text's joins and predicates — one slab per element kind, and a
// pooled walk whose stages and arena grow when it meets a larger shape
// than before, or comes fresh from a pool a collection emptied. Such a
// cold miss is the costliest, about 170 bytes per byte of text (a 47-way
// supplier self-join, 2.6 KB of text, allocates 409 KB cold and 99 KB
// warm). The bound catches a stage that allocates per task, or per
// bucket beyond that.
const (
	fuzzAllocPerByte = 256
	fuzzAllocBase    = 32 << 10
)

// selfJoins appends n self-joins of q's FROM table on its first column,
// aliased fz1…fzn. Join i hangs from table i−1−(nest mod i): nest 0 is a
// chain, each join one level deeper; larger values fan the joins out over
// earlier tables.
func selfJoins(q *query.Query, n, nest int) {
	s := dataset.AllSchemas()[q.From.Name]
	if s == nil || len(s.Columns) == 0 {
		return
	}
	key := s.Columns[0].Name
	label := func(i int) string {
		if i == 0 {
			return q.From.Label()
		}
		return fmt.Sprintf("fz%d", i)
	}
	for i := 1; i <= n; i++ {
		parent := query.ColumnRef{Table: label(i - 1 - nest%i), Column: key}
		q.Joins = append(q.Joins, query.Join{
			Table: query.TableRef{Name: q.From.Name, Alias: label(i)},
			On:    []query.Predicate{{Left: query.ColumnRef{Table: label(i), Column: key}, Op: query.OpEQ, Right: &parent}},
		})
	}
}

// inList gives q's first IN list n members, counting up from its first,
// or adds one of n members on the FROM table's first column.
func inList(q *query.Query, n int) {
	if n == 0 {
		return
	}
	var p *query.Predicate
	for i := range q.Where {
		if q.Where[i].Op == query.OpIN {
			p = &q.Where[i]
			break
		}
	}
	if p == nil {
		s := dataset.AllSchemas()[q.From.Name]
		if s == nil || len(s.Columns) == 0 {
			return
		}
		q.Where = append(q.Where, query.Predicate{Left: query.ColumnRef{Table: q.From.Label(), Column: s.Columns[0].Name}, Op: query.OpIN})
		p = &q.Where[len(q.Where)-1]
	}
	first := 1.0
	if len(p.Set) > 0 && !p.Set[0].IsString {
		first = p.Set[0].F
	}
	p.Set = make([]query.Literal, n)
	for k := range p.Set {
		p.Set[k] = query.NumLit(first + float64(k))
	}
}

// namesStage reports whether err names the miss-path stage that refused:
// query (parse, resolve), plan (compile) or selectivity (estimate).
func namesStage(err error) bool {
	for _, stage := range []string{"query: ", "plan: ", "selectivity: "} {
		if strings.HasPrefix(err.Error(), stage) {
			return true
		}
	}
	return false
}

// sameEstimate reports whether two estimates of one DAG agree to the bit.
func sameEstimate(a, b *selectivity.QueryEstimate) bool {
	if len(a.Jobs) != len(b.Jobs) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	groups := func(x, y []selectivity.TaskGroup) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Count != y[i].Count || !same(x[i].InBytes, y[i].InBytes) || !same(x[i].OutBytes, y[i].OutBytes) {
				return false
			}
		}
		return true
	}
	for i, x := range a.Jobs {
		y := b.Jobs[i]
		for _, f := range [][2]float64{{x.InBytes, y.InBytes}, {x.MedBytes, y.MedBytes}, {x.OutBytes, y.OutBytes},
			{x.InRows, y.InRows}, {x.MedRows, y.MedRows}, {x.OutRows, y.OutRows}, {x.IS, y.IS}, {x.FS, y.FS}, {x.P, y.P}} {
			if !same(f[0], f[1]) {
				return false
			}
		}
		if x.Job != y.Job || x.NumMaps != y.NumMaps || x.NumReduces != y.NumReduces ||
			!groups(x.MapGroups, y.MapGroups) || !groups(x.ReduceGroups, y.ReduceGroups) {
			return false
		}
	}
	return same(a.TotalInputBytes(), b.TotalInputBytes())
}

// lineitemSelfJoin is the n-way lineitem self-join on l_orderkey.
func lineitemSelfJoin(n int) string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM lineitem l0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, " JOIN lineitem l%d ON l%d.l_orderkey = l%d.l_orderkey", i, i-1, i)
	}
	return b.String()
}

// FuzzSubmit is the miss path's twin of FuzzProtocolDecode: a text, mutated
// where the estimate grows fastest — joins self-joins of its FROM table
// hung by nest, and an IN list of inLen members — is rendered, parsed and
// run through the engine's own miss (Engine.estimate: Resolve, Compile,
// EstimateQuery, CheckTaskBound), Score and Query.Rebuild. Invariants:
//
//   - nothing panics (the harness catches that for free);
//   - every refusal is typed: a *cluster.TaskBoundError, or an error
//     naming its stage ("query: ", "plan: " or "selectivity: ");
//   - no layout has more than cluster.MaxQueryTasks tasks;
//   - parse through scoring allocates at most fuzzAllocBase bytes plus
//     fuzzAllocPerByte per byte of the text;
//   - the input estimated again after a different text is estimated to
//     the same bits: a pooled walk carries nothing between estimates.
//
// Seeds are generated pool texts (workload.NewGenerator(1)) and the 16-
// and 32-way lineitem self-joins the task bound refuses.
func FuzzSubmit(f *testing.F) {
	g := workload.NewGenerator(1)
	for i := 0; i < 8; i++ {
		q, _, err := g.RandomQuery()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(q.String(), uint8(0), uint8(i%3), uint8(0))
	}
	f.Add(lineitemSelfJoin(16), uint8(0), uint8(0), uint8(0))
	f.Add(lineitemSelfJoin(32), uint8(0), uint8(0), uint8(0))
	f.Add("SELECT COUNT(*) FROM lineitem l0", uint8(15), uint8(0), uint8(0))
	f.Add("SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity IN (1, 2) GROUP BY l_returnflag", uint8(3), uint8(200), uint8(2))

	cfg := config(f)
	cfg.JobModel, cfg.TaskModel = models(f)
	e := newEngine(f, cfg)
	other, err := query.Parse(lineitemSelfJoin(4))
	if err != nil {
		f.Fatal(err)
	}
	if err := query.Resolve(other, dataset.AllSchemas()); err != nil {
		f.Fatal(err)
	}
	otherDAG, err := plan.Compile(other)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, sql string, joins, inLen, nest uint8) {
		q, err := query.Parse(sql)
		if err != nil {
			if !namesStage(err) {
				t.Fatalf("a parse error that names no stage: %v\n%q", err, sql)
			}
			return
		}
		selfJoins(q, int(joins%48), int(nest))
		inList(q, int(inLen))
		text := q.String()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if q, err = query.Parse(text); err != nil {
			t.Fatalf("a rendered text does not parse: %v\n%s", err, text)
		}
		est, err := e.estimate(q)
		if err == nil {
			e.Score(est)
		}
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocBase+fuzzAllocPerByte*len(text)); n > limit {
			t.Errorf("a %d-byte text allocates %d bytes through scoring, over %d\n%s", len(text), n, limit, text)
		}
		var bound *cluster.TaskBoundError
		switch {
		case errors.As(err, &bound):
			return
		case err != nil:
			if !namesStage(err) {
				t.Fatalf("a refusal that names no stage: %v\n%s", err, text)
			}
			return
		}

		var cq cluster.Query
		cq.Rebuild("fz", est, trace.NewDefaultCostModel(7), e.pred)
		tasks := 0
		for _, j := range cq.Jobs {
			tasks += len(j.Maps) + len(j.Reds)
		}
		if tasks > cluster.MaxQueryTasks {
			t.Fatalf("an admitted plan lays out %d tasks, over %d\n%s", tasks, cluster.MaxQueryTasks, text)
		}

		if _, err := e.cfg.Estimator.EstimateQuery(otherDAG); err != nil {
			t.Fatal(err)
		}
		again, err := e.cfg.Estimator.EstimateQuery(est.DAG)
		if err != nil {
			t.Fatalf("re-estimating after another text: %v", err)
		}
		if !sameEstimate(est, again) {
			t.Fatalf("the estimate moved after another text was estimated\n%s", text)
		}
	})
}
