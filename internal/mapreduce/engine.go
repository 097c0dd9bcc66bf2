package mapreduce

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"saqp/internal/dataset"
	"saqp/internal/par"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
)

// Config sizes the engine's task structure. At laptop scale the block size
// is far smaller than HDFS's 256 MB so that multi-map behaviour (per-map
// combines, parallelism) is exercised on megabyte inputs. Tasks run on
// internal/par's pool, GOMAXPROCS at a time; each writes only its own slot
// of whatever it fills, so results do not depend on the schedule.
type Config struct {
	// BlockSize is bytes of input per map task (default 1 MB).
	BlockSize int64
	// NumReducers is the number of reduce partitions (default 4).
	NumReducers int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.NumReducers <= 0 {
		c.NumReducers = 4
	}
	return c
}

// Engine executes plan DAGs over registered relations.
type Engine struct {
	cfg    Config
	tables map[string]*dataset.Relation
	bytes  int64 // Σ Bytes() of the registered relations: the most scratch kept

	idle atomic.Pointer[scratch] // a finished query's scratch, for the next
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), tables: make(map[string]*dataset.Relation)}
}

// Register makes a materialised relation available to queries.
func (e *Engine) Register(rel *dataset.Relation) {
	if old, ok := e.tables[rel.Schema.Name]; ok {
		e.bytes -= old.Bytes()
	}
	e.tables[rel.Schema.Name] = rel
	e.bytes += rel.Bytes()
}

// JobStats records the measured data flow of one executed job — the ground
// truth the selectivity estimator is validated against.
type JobStats struct {
	Job                         *plan.Job
	InBytes, MedBytes, OutBytes int64
	InRows, MedRows, OutRows    int64
	NumMaps                     int
}

// IS returns the measured intermediate selectivity D_med/D_in.
func (s *JobStats) IS() float64 {
	if s.InBytes == 0 {
		return 0
	}
	return float64(s.MedBytes) / float64(s.InBytes)
}

// FS returns the measured final selectivity D_out/D_in.
func (s *JobStats) FS() float64 {
	if s.InBytes == 0 {
		return 0
	}
	return float64(s.OutBytes) / float64(s.InBytes)
}

// QueryResult is the outcome of executing a DAG.
type QueryResult struct {
	Stats map[string]*JobStats
	// Final is the sink job's output.
	Final *Frame
}

// RunQuery executes all jobs of the DAG in topological order. The query's
// working buffers come from the engine's idle scratch, or a new one if
// another query holds it; concurrent calls are safe.
func (e *Engine) RunQuery(d *plan.DAG) (*QueryResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	s := e.idle.Swap(nil)
	if s == nil {
		s = new(scratch)
	}
	defer e.release(s)
	res := &QueryResult{Stats: make(map[string]*JobStats, len(d.Jobs))}
	frames := make(map[string]*Frame, len(d.Jobs))
	for _, job := range d.Jobs {
		out, stats, err := e.runJob(s, job, frames)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
		}
		frames[job.ID] = out
		res.Stats[job.ID] = stats
		res.Final = out
	}
	res.Final = res.Final.detached()
	return res, nil
}

// release keeps a finished query's scratch for the next query, unless it
// outgrew the engine's own data (a many-to-many join's pairs can), so one
// outsized query does not pin its buffers for the engine's life.
func (e *Engine) release(s *scratch) {
	if s.size() > e.bytes {
		return
	}
	s.reset()
	e.idle.Store(s)
}

// jobInput is one resolved input: the source frame (a scan's pruned columns
// or an upstream frame), the raw bytes/rows read, and scan predicates to
// apply in the map phase.
type jobInput struct {
	frame    *Frame // unfiltered source data with qualified columns
	rawBytes int64
	rawRows  int64
	preds    []query.Predicate
	// table is the scanned base table name ("" for upstream frames); it
	// selects the fragmentation factor for split sizing.
	table string
}

// loadScan resolves one base-table scan as a job input: the relation's
// vectors for the pruned columns, shared not copied, with the pushed-down
// predicates attached for the map phase. Raw sizes count the full table,
// as the job reads every block.
func (e *Engine) loadScan(ts plan.TableScan) (jobInput, error) {
	rel, ok := e.tables[ts.Table]
	if !ok {
		return jobInput{}, fmt.Errorf("table %q not registered", ts.Table)
	}
	cols := make([]string, len(ts.Columns))
	vecs := make([]dataset.Vector, len(ts.Columns))
	for i, c := range ts.Columns {
		j := rel.Schema.ColumnIndex(c)
		if j < 0 {
			return jobInput{}, fmt.Errorf("table %q has no column %q", ts.Table, c)
		}
		cols[i], vecs[i] = ts.Table+"."+c, rel.Cols[j]
	}
	return jobInput{
		frame:    NewFrame(int(rel.NumRows()), cols, vecs),
		rawBytes: rel.Bytes(),
		rawRows:  rel.NumRows(),
		preds:    ts.Preds,
		table:    ts.Table,
	}, nil
}

func (e *Engine) resolveInputs(job *plan.Job, frames map[string]*Frame) ([]jobInput, error) {
	var ins []jobInput
	for _, ts := range job.Scans {
		in, err := e.loadScan(ts)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	for _, dep := range job.Deps {
		f, ok := frames[dep.ID]
		if !ok {
			return nil, fmt.Errorf("dependency %s not yet executed", dep.ID)
		}
		ins = append(ins, jobInput{frame: f, rawBytes: f.Bytes(), rawRows: f.NumRows()})
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("job has no inputs")
	}
	return ins, nil
}

func (e *Engine) runJob(s *scratch, job *plan.Job, frames map[string]*Frame) (*Frame, *JobStats, error) {
	ins, err := e.resolveInputs(job, frames)
	if err != nil {
		return nil, nil, err
	}
	stats := &JobStats{Job: job}
	for _, in := range ins {
		stats.InBytes += in.rawBytes
		stats.InRows += in.rawRows
	}
	ins, err = e.applyMapJoins(s, job, ins, stats)
	if err != nil {
		return nil, nil, err
	}
	var out *Frame
	switch job.Type {
	case plan.Extract:
		out, err = e.runExtract(s, job, ins[0], stats)
	case plan.Groupby:
		out, err = e.runGroupby(s, job, ins[0], stats)
	case plan.Join:
		out, err = e.runJoin(s, job, ins, stats)
	default:
		err = fmt.Errorf("unknown job type %v", job.Type)
	}
	if err != nil {
		return nil, nil, err
	}
	stats.OutRows, stats.OutBytes = out.NumRows(), out.Bytes()
	return out, stats, nil
}

// splits partitions [0, n) rows into map-task ranges of ~BlockSize bytes,
// shrunk by the table's fragmentation factor for base-table scans so the
// engine's task granularity matches the estimator's.
func (e *Engine) splits(in jobInput) [][2]int {
	n := in.frame.n
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	avg := in.rawBytes / int64(n)
	if avg <= 0 {
		avg = 1
	}
	eff := float64(e.cfg.BlockSize)
	if in.table != "" {
		eff *= selectivity.FragFactor(in.table)
	}
	per := int(eff / float64(avg))
	if per < 1 {
		per = 1
	}
	out := make([][2]int, 0, (n+per-1)/per)
	for lo := 0; lo < n; lo += per {
		out = append(out, [2]int{lo, min(lo+per, n)})
	}
	return out
}

// scanPred is one scan predicate resolved to the vector it reads.
type scanPred struct {
	vec  dataset.Vector
	pred *query.Predicate
}

// resolvePreds binds the input's predicates to its columns, once per job. A
// predicate on a column the input does not carry is a plan defect, not a
// filter that rejects every row.
func resolvePreds(s *scratch, in jobInput) ([]scanPred, error) {
	out := make([]scanPred, len(in.preds))
	for i := range in.preds {
		v, err := in.frame.column(s, "predicate column", in.preds[i].Left)
		if err != nil {
			return nil, err
		}
		out[i] = scanPred{v, &in.preds[i]}
	}
	return out, nil
}

// filterSplit is one map task's filter: it fills sel with the rows
// [lo, lo+len(sel)) and compacts it to those that pass every predicate.
func filterSplit(preds []scanPred, sel []int32, lo int) []int32 {
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	for _, p := range preds {
		switch p.vec.Kind() {
		case dataset.KindString:
			sel = sel[:filterStrings(p.vec.Strings(), sel, p.pred)]
		case dataset.KindFloat:
			sel = sel[:filterNums(p.vec.Floats(), sel, p.pred)]
		default:
			sel = sel[:filterNums(p.vec.Ints(), sel, p.pred)]
		}
	}
	return sel
}

// mapFilter runs the map phase for one input: one parallel task per split
// filters its rows by the scan predicates. It returns each task's surviving
// rows, in order, as segments of one buffer cut from s.
func (e *Engine) mapFilter(s *scratch, in jobInput) ([][]int32, error) {
	preds, err := resolvePreds(s, in)
	if err != nil {
		return nil, err
	}
	sp := e.splits(in)
	sel := s.i32.cut(in.frame.n)
	parts := make([][]int32, len(sp))
	par.For(len(sp), func(_ *struct{}, si int) {
		lo, hi := sp[si][0], sp[si][1]
		parts[si] = filterSplit(preds, sel[lo:hi], lo)
	})
	return parts, nil
}

// flatten closes the gaps between mapFilter's segments, in place, leaving
// the input's surviving rows in input order.
func flatten(parts [][]int32) []int32 {
	sel := parts[0]
	for _, p := range parts[1:] {
		sel = append(sel, p...)
	}
	return sel
}

// gather copies the selected rows of one column, in selection order, onto
// the heap: a job's output column, which outlives the query's scratch.
func gather(v dataset.Vector, sel []int32) dataset.Vector {
	switch v.Kind() {
	case dataset.KindString:
		out := make([]string, len(sel))
		take(out, v.Strings(), sel)
		return dataset.StringVector(out)
	case dataset.KindFloat:
		out := make([]float64, len(sel))
		take(out, v.Floats(), sel)
		return dataset.FloatVector(out)
	}
	out := make([]int64, len(sel))
	take(out, v.Ints(), sel)
	return dataset.IntVector(v.Kind(), out)
}

// orderBy returns the three-way comparison of two rows under one sort key.
func orderBy[T cmp.Ordered](vals []T, desc bool) func(a, b int32) int {
	return func(a, b int32) int {
		switch va, vb := vals[a], vals[b]; {
		case va == vb:
			return 0
		case (va < vb) != desc:
			return -1
		}
		return 1
	}
}

// runExtract filters, optionally sorts, and optionally limits one input: a
// stable sort of the surviving row indices, truncated, then one gather per
// column, read through the input's view.
func (e *Engine) runExtract(s *scratch, job *plan.Job, in jobInput, stats *JobStats) (*Frame, error) {
	f := in.frame
	parts, err := e.mapFilter(s, in)
	if err != nil {
		return nil, err
	}
	sel := flatten(parts)
	stats.MedBytes, stats.MedRows, stats.NumMaps = f.rowBytes(sel), int64(len(sel)), len(parts)
	if len(job.OrderKeys) > 0 {
		keys := make([]func(a, b int32) int, len(job.OrderKeys))
		for i, k := range job.OrderKeys {
			v, err := f.column(s, "order key", k.Col)
			if err != nil {
				return nil, err
			}
			switch v.Kind() {
			case dataset.KindString:
				keys[i] = orderBy(v.Strings(), k.Desc)
			case dataset.KindFloat:
				keys[i] = orderBy(v.Floats(), k.Desc)
			default:
				keys[i] = orderBy(v.Ints(), k.Desc)
			}
		}
		sort.SliceStable(sel, func(a, b int) bool {
			for _, key := range keys {
				if c := key(sel[a], sel[b]); c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	if job.Limit >= 0 && int64(len(sel)) > job.Limit {
		sel = sel[:job.Limit]
	}
	return f.view(s, sel).gathered(), nil
}

// aggSpec is one aggregate (a SELECT item or a HAVING conjunct) resolved
// against the job's input: a column, or two columns under an operator.
type aggSpec struct {
	fn    query.AggFunc
	star  bool
	l, r  dataset.Vector
	op    query.ArithOp
	binop bool
}

func resolveAgg(s *scratch, f *Frame, fn query.AggFunc, star bool, x query.Expr) (a aggSpec, err error) {
	a = aggSpec{fn: fn, star: star, binop: x.Binop != nil}
	switch {
	case star:
	case a.binop:
		a.op = x.Binop.Op
		if a.l, err = f.column(s, "aggregate column", x.Binop.Left); err == nil {
			a.r, err = f.column(s, "aggregate column", x.Binop.Right)
		}
	default:
		a.l, err = f.column(s, "aggregate column", x.Col)
	}
	return a, err
}

// nums reads the selected rows of v as float64s; a string column reads 0.
func nums(dst []float64, v dataset.Vector, sel []int32) {
	switch v.Kind() {
	case dataset.KindString:
		clear(dst)
	case dataset.KindFloat:
		widen(dst, v.Floats(), sel)
	default:
		widen(dst, v.Ints(), sel)
	}
}

// partial is one map task's combine output: the rows that introduced its
// local groups, in first-seen order, and the groups' aggregate states in
// one flat slice, len(specs) per group.
type partial struct {
	first  []int32
	states []aggState
}

// combineBuf is one combine task's working storage, cut before the phase,
// each buffer as long as the task's rows: group ids, the rows that
// introduce groups, and an aggregate's operands as floats (nil when no
// aggregate needs them).
type combineBuf struct {
	gid, first []int32
	l, r       []float64
}

// combine is one Groupby map task after its filter: rows get dense local
// group ids from the typed group keys, and every aggregate is evaluated
// over the split as a vector and folded into its group's state.
func combine(keys []dataset.Vector, specs []aggSpec, sel []int32, buf combineBuf) partial {
	gid, l, r := buf.gid, buf.l, buf.r
	first := groupRows(keys, sel, gid, buf.first)
	w := len(specs)
	states := make([]aggState, len(first)*w)
	for a, spec := range specs {
		if spec.star {
			for _, g := range gid {
				states[int(g)*w+a].addCount(1)
			}
			continue
		}
		nums(l, spec.l, sel)
		if spec.binop {
			nums(r, spec.r, sel)
			arith(l, r, spec.op)
		}
		for j, g := range gid {
			states[int(g)*w+a].add(l[j])
		}
	}
	return partial{first, states}
}

// appendKey renders row i of a key column as Value.Key always has: decimal
// integers, shortest %g floats, the string itself.
func appendKey(b []byte, v dataset.Vector, i int32) []byte {
	switch v.Kind() {
	case dataset.KindString:
		return append(b, v.Strings()[i]...)
	case dataset.KindFloat:
		return strconv.AppendFloat(b, v.Floats()[i], 'g', -1, 64)
	}
	return strconv.AppendInt(b, v.Ints()[i], 10)
}

// runGroupby aggregates with per-map combines: each map task filters its
// split and pre-aggregates locally (the combine that Eq. 2 models), then
// the reduce merges the partial states by key, in split order.
func (e *Engine) runGroupby(s *scratch, job *plan.Job, in jobInput, stats *JobStats) (*Frame, error) {
	f := in.frame
	keys := make([]dataset.Vector, len(job.GroupKeys))
	var err error
	for i, k := range job.GroupKeys {
		if keys[i], err = f.column(s, "group key", k); err != nil {
			return nil, err
		}
	}
	w, nAggs := len(job.Aggs)+len(job.Having), len(job.Aggs)
	specs := make([]aggSpec, w) // the SELECT list's aggregates, then HAVING's
	for i, a := range job.Aggs {
		if specs[i], err = resolveAgg(s, f, a.Agg, a.Star, a.Expr); err != nil {
			return nil, err
		}
	}
	for i, h := range job.Having {
		if specs[nAggs+i], err = resolveAgg(s, f, h.Agg, h.Star, h.Expr); err != nil {
			return nil, err
		}
	}
	parts, err := e.mapFilter(s, in)
	if err != nil {
		return nil, err
	}
	stats.NumMaps = len(parts)
	var operands, binops bool
	for _, spec := range specs {
		operands, binops = operands || !spec.star, binops || spec.binop
	}
	bufs := make([]combineBuf, len(parts))
	for si, p := range parts {
		bufs[si] = combineBuf{gid: s.i32.cut(len(p)), first: s.i32.cut(len(p))}
		if operands {
			bufs[si].l = s.f64.cut(len(p))
		}
		if binops {
			bufs[si].r = s.f64.cut(len(p))
		}
	}
	partials := make([]partial, len(parts))
	par.For(len(parts), func(_ *struct{}, si int) { partials[si] = combine(keys, specs, parts[si], bufs[si]) })

	// Reduce: merge the partials across maps, in split order — float sums
	// depend on it. A combined map-output record is its key columns plus
	// one 8-byte partial per aggregate.
	nLocals := 0
	for _, p := range partials {
		nLocals += len(p.first)
	}
	locals := s.i32.cut(nLocals)[:0]   // every task's local groups, by their first rows
	keyed := Frame{vecs: keys, n: f.n} // sizes a record's key columns
	for _, p := range partials {
		locals = append(locals, p.first...)
		stats.MedRows += int64(len(p.first))
		stats.MedBytes += keyed.rowBytes(p.first) + 8*int64(nAggs*len(p.first))
	}
	gid := s.i32.cut(len(locals))
	first := groupRows(keys, locals, gid, s.i32.cut(len(locals)))
	states := s.states.cut(len(first) * w) // a group's first partial merges into zeroed states as a copy
	for _, p := range partials {
		for g := range p.first {
			for a := 0; a < w; a++ {
				states[int(gid[0])*w+a].merge(&p.states[g*w+a])
			}
			gid = gid[1:]
		}
	}

	// Deterministic output order: groups sorted by their rendered key, each
	// column's rendering NUL-terminated, all in one buffer.
	var rendered []byte
	ends := make([]int, 1, len(first)+1)
	for _, row := range first {
		for k := range keys {
			rendered = append(appendKey(rendered, keys[k], row), 0)
		}
		ends = append(ends, len(rendered))
	}
	key := func(g int32) []byte { return rendered[ends[g]:ends[g+1]] }
	order := s.i32.cut(len(first))[:0]
	for g := range first {
		// HAVING: drop groups whose aggregate fails any conjunct.
		keep := true
		for i, h := range job.Having {
			if !compare(states[g*w+nAggs+i].value(h.Agg), h.Lit.F, h.Op) {
				keep = false
				break
			}
		}
		if keep {
			order = append(order, int32(g))
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })

	rows := s.i32.cut(len(order))
	take(rows, first, order)
	cols := make([]string, 0, len(keys)+nAggs)
	vecs := make([]dataset.Vector, 0, len(keys)+nAggs)
	for i, k := range job.GroupKeys {
		cols, vecs = append(cols, k.String()), append(vecs, gather(keys[i], rows))
	}
	for a, spec := range specs[:nAggs] {
		cols = append(cols, fmt.Sprintf("%s.agg%d", job.ID, a))
		if spec.fn == query.AggCount {
			counts := make([]int64, len(order))
			for j, g := range order {
				counts[j] = states[int(g)*w+a].count
			}
			vecs = append(vecs, dataset.IntVector(dataset.KindInt, counts))
			continue
		}
		vals := make([]float64, len(order))
		for j, g := range order {
			vals[j] = states[int(g)*w+a].value(spec.fn)
		}
		vecs = append(vecs, dataset.FloatVector(vals))
	}
	return NewFrame(len(order), cols, vecs), nil
}

// joinSides orders a join's two inputs as (holder of left, holder of right)
// and returns their key columns in a common storage class.
func joinSides(s *scratch, left, right query.ColumnRef, a, b jobInput) (jobInput, jobInput, joinKey, joinKey, error) {
	lk, rk := left.String(), right.String()
	if a.frame.Col(lk) < 0 && b.frame.Col(lk) >= 0 {
		a, b = b, a
	}
	li, ri := a.frame.Col(lk), b.frame.Col(rk)
	if li < 0 || ri < 0 {
		return a, b, joinKey{}, joinKey{}, fmt.Errorf("join keys %s/%s not found", lk, rk)
	}
	ak, bk, err := joinKeys(s, a.frame.vector(s, li), b.frame.vector(s, ri), lk, rk)
	return a, b, ak, bk, err
}

// runJoin hash-joins two inputs on the equi-join keys: maps filter each
// side, the shuffle partitions both by key hash, and reducers build on the
// left and probe with the right per partition in parallel. Broadcast joins
// (plan.Job.Broadcast) skip the shuffle: every map task probes an
// in-memory index of the small side.
func (e *Engine) runJoin(s *scratch, job *plan.Job, ins []jobInput, stats *JobStats) (*Frame, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("join expects 2 inputs, got %d", len(ins))
	}
	a, b, ak, bk, err := joinSides(s, job.JoinLeft, job.JoinRight, ins[0], ins[1])
	if err != nil {
		return nil, err
	}
	if job.MapOnly && job.Broadcast != "" {
		return e.runBroadcastJoin(s, job, a, b, ak, bk, stats)
	}
	lparts, err := e.mapFilter(s, a)
	if err != nil {
		return nil, err
	}
	rparts, err := e.mapFilter(s, b)
	if err != nil {
		return nil, err
	}
	lsel, rsel := flatten(lparts), flatten(rparts)
	stats.MedBytes = a.frame.rowBytes(lsel) + b.frame.rowBytes(rsel)
	stats.MedRows = int64(len(lsel) + len(rsel))
	stats.NumMaps = len(lparts) + len(rparts)

	R := e.cfg.NumReducers
	m := match(s, ak, bk, partition(s, ak, lsel, R), partition(s, bk, rsel, R))
	return joined(s, a.frame, m.build, b.frame, m.probe), nil
}

// broadcastPairs is the map-side join itself: the build side is filtered
// and indexed once, and every map split of the probe side filters its rows
// and probes the index in parallel. It returns the matches in probe order
// and the number of probe-side map tasks.
func (e *Engine) broadcastPairs(s *scratch, build jobInput, bk joinKey, probe jobInput, pk joinKey) (pairs, int, error) {
	bparts, err := e.mapFilter(s, build)
	if err != nil {
		return pairs{}, 0, err
	}
	pparts, err := e.mapFilter(s, probe)
	if err != nil {
		return pairs{}, 0, err
	}
	return match(s, bk, pk, [][]int32{flatten(bparts)}, pparts), len(pparts), nil
}

// runBroadcastJoin executes a map-side join as a job of its own: no
// shuffle, no reduce phase, so the map output is the job output.
func (e *Engine) runBroadcastJoin(s *scratch, job *plan.Job, a, b jobInput, ak, bk joinKey, stats *JobStats) (*Frame, error) {
	build, buildKey, probe, probeKey := a, ak, b, bk
	if a.table != job.Broadcast {
		build, buildKey, probe, probeKey = b, bk, a, ak
	}
	m, maps, err := e.broadcastPairs(s, build, buildKey, probe, probeKey)
	if err != nil {
		return nil, err
	}
	// a carries the join's left columns, so the output keeps a's first
	// whichever side is broadcast.
	arows, brows := m.build, m.probe
	if a.table != job.Broadcast {
		arows, brows = m.probe, m.build
	}
	res := joined(s, a.frame, arows, b.frame, brows)
	stats.NumMaps, stats.MedBytes, stats.MedRows = maps, res.Bytes(), res.NumRows()
	return res, nil
}

// applyMapJoins executes the job's folded broadcast-join preludes: for each
// spec the small table is filtered and indexed and the matching probe
// input's frame is replaced with the joined rows, exactly as the merged map
// phase would see them. Probe-side predicates stay attached for that phase
// (row-level filters commute with the join).
func (e *Engine) applyMapJoins(s *scratch, job *plan.Job, ins []jobInput, stats *JobStats) ([]jobInput, error) {
	for _, spec := range job.MapJoins {
		b, err := e.loadScan(spec.BroadcastScan)
		if err != nil {
			return nil, err
		}
		stats.InBytes += b.rawBytes
		stats.InRows += b.rawRows
		bKey, pKey := spec.JoinLeft.String(), spec.JoinRight.String()
		if b.frame.Col(bKey) < 0 {
			bKey, pKey = pKey, bKey
		}
		bi := b.frame.Col(bKey)
		if bi < 0 {
			return nil, fmt.Errorf("map-join key %s not in broadcast table %s", bKey, spec.BroadcastScan.Table)
		}
		pi := -1
		for i := range ins {
			if ins[i].frame.Col(pKey) >= 0 {
				pi = i
				break
			}
		}
		if pi < 0 {
			return nil, fmt.Errorf("map-join probe key %s not found in inputs", pKey)
		}
		probe := ins[pi]
		bk, pk, err := joinKeys(s, b.frame.vector(s, bi), probe.frame.vector(s, probe.frame.Col(pKey)), bKey, pKey)
		if err != nil {
			return nil, err
		}
		// Probe-side predicates wait for the job's own map phase.
		m, _, err := e.broadcastPairs(s, b, bk, jobInput{frame: probe.frame, rawBytes: probe.rawBytes}, pk)
		if err != nil {
			return nil, err
		}
		res := joined(s, probe.frame, m.probe, b.frame, m.build)
		ins[pi] = jobInput{frame: res, rawBytes: res.Bytes(), rawRows: res.NumRows(), preds: probe.preds}
	}
	return ins, nil
}
