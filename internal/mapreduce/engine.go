package mapreduce

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"saqp/internal/dataset"
	"saqp/internal/par"
	"saqp/internal/plan"
	"saqp/internal/query"
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
	cols   map[string][]string // a relation's qualified column names, "table.column"
	bytes  int64               // Σ Bytes() of the registered relations: the most scratch kept

	idle atomic.Pointer[scratch] // a finished query's scratch, for the next
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), tables: make(map[string]*dataset.Relation), cols: make(map[string][]string)}
}

// Register makes a materialised relation available to queries. The engine
// keeps a view of rel's schema and columns, which it shares, and not the
// domain keys a generated relation carries for catalog.Collect: queries
// never read them, and keeping them would hold several MB per SF 0.01
// catalog for as long as the engine lives.
func (e *Engine) Register(rel *dataset.Relation) {
	if old, ok := e.tables[rel.Schema.Name]; ok {
		e.bytes -= old.Bytes()
	}
	rel = &dataset.Relation{Schema: rel.Schema, Cols: rel.Cols}
	e.tables[rel.Schema.Name] = rel
	e.bytes += rel.Bytes()
	cols := make([]string, len(rel.Schema.Columns))
	for i, c := range rel.Schema.Columns {
		cols[i] = rel.Schema.Name + "." + c.Name
	}
	e.cols[rel.Schema.Name] = cols
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

// RunQuery executes the jobs of the DAG in chain order, each reading the
// output of the job before it. The query's working buffers come from the
// engine's idle scratch, or a new one if another query holds it;
// concurrent calls are safe.
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
	for _, job := range d.Jobs {
		out, stats, err := e.runJob(s, job, res.Final)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
		}
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
// or an upstream frame), the raw bytes read, the scan predicates to apply
// in the map phase, and that phase's output. A job's broadcast table is
// filtered like any input but adds no maps to JobStats.NumMaps: it is side
// data every probe map loads, as selectivity's computeMapCounts prices it.
type jobInput struct {
	frame    *Frame // unfiltered source data with qualified columns
	rawBytes int64
	preds    []query.Predicate
	// table is the scanned base table name ("" for upstream frames); it
	// selects the fragmentation factor for split sizing.
	table string
	// parts holds each map split's surviving rows, set by runJob's map
	// phase (mapFilter's segments).
	parts [][]int32
}

// loadScan resolves one base-table scan as a job input: the relation's
// vectors for the pruned columns, shared not copied, with the pushed-down
// predicates attached for the map phase. Raw sizes count the full table,
// as the job reads every block.
func (e *Engine) loadScan(s *scratch, ts plan.TableScan) (jobInput, error) {
	rel, ok := e.tables[ts.Table]
	if !ok {
		return jobInput{}, fmt.Errorf("table %q not registered", ts.Table)
	}
	cols := s.strs.Cut(len(ts.Columns))
	vecs := s.vecs.Cut(len(ts.Columns))
	for i, c := range ts.Columns {
		j := rel.Schema.ColumnIndex(c)
		if j < 0 {
			return jobInput{}, fmt.Errorf("table %q has no column %q", ts.Table, c)
		}
		cols[i], vecs[i] = e.cols[ts.Table][j], rel.Cols[j]
	}
	return jobInput{
		frame:    s.frame(int(rel.NumRows()), cols, vecs, nil),
		rawBytes: rel.Bytes(),
		preds:    ts.Preds,
		table:    ts.Table,
	}, nil
}

// resolveInputs resolves job's base-table scans, then, if it reads the job
// before it, that job's output frame up.
func (e *Engine) resolveInputs(s *scratch, job *plan.Job, up *Frame) ([]jobInput, error) {
	n := len(job.Scans)
	if job.Up != nil {
		n++
	}
	ins := s.ins.Cut(n)[:0]
	for _, ts := range job.Scans {
		in, err := e.loadScan(s, ts)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	if job.Up != nil {
		ins = append(ins, jobInput{frame: up, rawBytes: up.Bytes()})
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("job has no inputs")
	}
	return ins, nil
}

func (e *Engine) runJob(s *scratch, job *plan.Job, up *Frame) (*Frame, *JobStats, error) {
	ins, err := e.resolveInputs(s, job, up)
	if err != nil {
		return nil, nil, err
	}
	stats := &JobStats{Job: job}
	for _, in := range ins {
		stats.InBytes += in.rawBytes
		stats.InRows += in.frame.NumRows()
	}
	ins, err = e.applyMapJoins(s, job, ins, stats)
	if err != nil {
		return nil, nil, err
	}
	// The map phase: every input's splits are filtered once, and the
	// operators below start from each input's parts.
	for i := range ins {
		in := &ins[i]
		if in.parts, err = e.mapFilter(s, *in); err != nil {
			return nil, nil, err
		}
		if job.Broadcast == "" || in.table != job.Broadcast {
			stats.NumMaps += len(in.parts)
		}
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

// splits sizes an input's map tasks: per rows each, ~BlockSize bytes,
// shrunk by the table's fragmentation factor for base-table scans so the
// engine's task granularity matches the estimator's. Task i reads rows
// [i·per, min((i+1)·per, n)); an input of no rows is one empty task.
func (e *Engine) splits(in jobInput) (per, maps int) {
	n := in.frame.n
	if n == 0 {
		return 1, 1
	}
	avg := in.rawBytes / int64(n)
	if avg <= 0 {
		avg = 1
	}
	eff := float64(e.cfg.BlockSize)
	if in.table != "" {
		eff *= dataset.FragFactor(in.table)
	}
	per = max(1, int(eff/float64(avg)))
	return per, (n + per - 1) / per
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
	out := s.preds.Cut(len(in.preds))
	for i := range in.preds {
		v, _, err := in.frame.column(s, "predicate column", in.preds[i].Left)
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

// filterPhase is a map phase's context: the input's resolved predicates,
// its n rows' selection buffer, per rows to a split, and each split's
// survivors.
type filterPhase struct {
	preds  []scanPred
	sel    []int32
	per, n int
	parts  [][]int32
}

// Run is one map task: split si's rows, filtered by the scan predicates.
//
//saqp:hotpath
func (c *filterPhase) Run(si int) {
	lo := si * c.per
	c.parts[si] = filterSplit(c.preds, c.sel[lo:min(lo+c.per, c.n)], lo)
}

// mapFilter runs the map phase for one input: one parallel task per split
// filters its rows by the scan predicates. It returns each task's surviving
// rows, in order, as segments of one buffer, all cut from s.
func (e *Engine) mapFilter(s *scratch, in jobInput) ([][]int32, error) {
	preds, err := resolvePreds(s, in)
	if err != nil {
		return nil, err
	}
	n := in.frame.n
	per, maps := e.splits(in)
	c := &s.phase.filter
	*c = filterPhase{preds: preds, sel: s.i32.Cut(n), per: per, n: n, parts: s.rows.Cut(maps)}
	par.For(maps, c)
	return c.parts, nil
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

// order is the three-way comparison of rows a and b of v, ascending.
func order(v dataset.Vector, a, b int32) int {
	switch v.Kind() {
	case dataset.KindString:
		return order3(v.Strings(), a, b)
	case dataset.KindFloat:
		return order3(v.Floats(), a, b)
	}
	return order3(v.Ints(), a, b)
}

func order3[T cmp.Ordered](vals []T, a, b int32) int {
	switch va, vb := vals[a], vals[b]; {
	case va == vb:
		return 0
	case va < vb:
		return -1
	}
	return 1
}

// runExtract optionally sorts and optionally limits one input's map
// output: a stable sort of the surviving row indices, truncated, then one
// gather per column, read through the input's view.
func (e *Engine) runExtract(s *scratch, job *plan.Job, in jobInput, stats *JobStats) (*Frame, error) {
	f := in.frame
	sel := flatten(in.parts)
	stats.MedBytes, stats.MedRows = f.rowBytes(sel), int64(len(sel))
	if len(job.OrderKeys) > 0 {
		keys := s.vecs.Cut(len(job.OrderKeys))
		for i, k := range job.OrderKeys {
			var err error
			if keys[i], _, err = f.column(s, "order key", k.Col); err != nil {
				return nil, err
			}
		}
		slices.SortStableFunc(sel, func(a, b int32) int {
			for i, v := range keys {
				if c := order(v, a, b); c != 0 {
					if job.OrderKeys[i].Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	if job.Limit >= 0 && int64(len(sel)) > job.Limit {
		sel = sel[:job.Limit]
	}
	return f.view(s, sel).gathered(s), nil
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
		if a.l, _, err = f.column(s, "aggregate column", x.Binop.Left); err == nil {
			a.r, _, err = f.column(s, "aggregate column", x.Binop.Right)
		}
	default:
		a.l, _, err = f.column(s, "aggregate column", x.Col)
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

// combineTask is one combine task: its working storage, cut before the
// phase, each buffer as long as the task's rows — group ids, the rows that
// introduce groups, and an aggregate's operands as floats (nil when no
// aggregate needs them) — and the slot its key maps and partial states
// come from; then its output, the rows that introduced its local groups,
// in first-seen order, at the front of first, and the groups' aggregate
// states in one flat slice, len(specs) per group.
type combineTask struct {
	gid, first []int32
	l, r       []float64
	slot       *slot
	states     []aggState
}

// combinePhase is a Groupby's combine phase context: the group keys, the
// aggregates, each map split's survivors and each split's task.
type combinePhase struct {
	keys  []dataset.Vector
	specs []aggSpec
	parts [][]int32
	tasks []combineTask
}

// Run is one Groupby map task after its filter, split si's: rows get
// dense local group ids from the typed group keys, and every aggregate is
// evaluated over the split as a vector and folded into its group's state.
func (c *combinePhase) Run(si int) {
	keys, specs, sel, t := c.keys, c.specs, c.parts[si], &c.tasks[si]
	gid, l, r := t.gid, t.l, t.r
	t.first = groupRows(t.slot, keys, sel, gid, t.first)
	w := len(specs)
	states := t.slot.partials(len(t.first) * w)
	t.states = states
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
}

// runGroupby aggregates with per-map combines: each map split's survivors
// are pre-aggregated locally (the combine that Eq. 2 models), then the
// reduce merges the partial states by key, in split order.
func (e *Engine) runGroupby(s *scratch, job *plan.Job, in jobInput, stats *JobStats) (*Frame, error) {
	f := in.frame
	w, nAggs := len(job.Aggs)+len(job.Having), len(job.Aggs)
	keys := s.vecs.Cut(len(job.GroupKeys))
	cols := s.strs.Cut(len(keys) + nAggs) // the keys keep their input's names
	var err error
	for i, k := range job.GroupKeys {
		if keys[i], cols[i], err = f.column(s, "group key", k); err != nil {
			return nil, err
		}
	}
	specs := s.specs.Cut(w) // the SELECT list's aggregates, then HAVING's
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
	parts := in.parts
	var operands, binops bool
	for _, spec := range specs {
		operands, binops = operands || !spec.star, binops || spec.binop
	}
	tasks := s.tasks.Cut(len(parts))
	slots := s.slots(len(parts))
	for si, p := range parts {
		tasks[si] = combineTask{gid: s.i32.Cut(len(p)), first: s.i32.Cut(len(p)), slot: &slots[si]}
		if operands {
			tasks[si].l = s.f64.Cut(len(p))
		}
		if binops {
			tasks[si].r = s.f64.Cut(len(p))
		}
	}
	s.phase.combine = combinePhase{keys: keys, specs: specs, parts: parts, tasks: tasks}
	par.For(len(parts), &s.phase.combine)

	// Reduce: merge the partials across maps, in split order — float sums
	// depend on it. A combined map-output record is its key columns plus
	// one 8-byte partial per aggregate.
	nLocals := 0
	for _, p := range tasks {
		nLocals += len(p.first)
	}
	locals := s.i32.Cut(nLocals)[:0]   // every task's local groups, by their first rows
	keyed := Frame{vecs: keys, n: f.n} // sizes a record's key columns
	for _, p := range tasks {
		locals = append(locals, p.first...)
		stats.MedRows += int64(len(p.first))
		stats.MedBytes += keyed.rowBytes(p.first) + 8*int64(nAggs*len(p.first))
	}
	gid := s.i32.Cut(len(locals))
	// The combines are done with their key maps, so slot 0's group the
	// locals; its partial states stay until they are merged.
	first := groupRows(&slots[0], keys, locals, gid, s.i32.Cut(len(locals)))
	states := s.states.Cut(len(first) * w) // a group's first partial merges into zeroed states as a copy
	for _, p := range tasks {
		for g := range p.first {
			for a := 0; a < w; a++ {
				states[int(gid[0])*w+a].merge(&p.states[g*w+a])
			}
			gid = gid[1:]
		}
	}

	// Deterministic output order: groups sorted by their rendered key, each
	// column's rendering NUL-terminated, all in one buffer: the scratch's,
	// which keeps what it grew to for the next Groupby.
	rendered := s.keys[:0]
	ends := s.i32.Cut(len(first) + 1)[:1]
	for _, row := range first {
		for k := range keys {
			rendered = append(keys[k].AppendText(rendered, int(row)), 0)
		}
		ends = append(ends, int32(len(rendered)))
	}
	s.keys = rendered
	key := func(g int32) []byte { return rendered[ends[g]:ends[g+1]] }
	order := s.i32.Cut(len(first))[:0]
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

	rows := s.i32.Cut(len(order))
	take(rows, first, order)
	vecs := s.vecs.Cut(len(cols))
	for k, v := range keys {
		vecs[k] = gather(v, rows)
	}
	for a, spec := range specs[:nAggs] {
		c := len(keys) + a
		cols[c] = job.AggColumn(a).String()
		if spec.fn == query.AggCount {
			counts := make([]int64, len(order))
			for j, g := range order {
				counts[j] = states[int(g)*w+a].count
			}
			vecs[c] = dataset.IntVector(dataset.KindInt, counts)
			continue
		}
		vals := make([]float64, len(order))
		for j, g := range order {
			vals[j] = states[int(g)*w+a].value(spec.fn)
		}
		vecs[c] = dataset.FloatVector(vals)
	}
	return s.frame(len(order), cols, vecs, nil), nil
}

// joinSides orders a join's two inputs as (holder of left, holder of right)
// and returns their key columns in a common storage class.
func joinSides(s *scratch, left, right query.ColumnRef, a, b jobInput) (jobInput, jobInput, joinKey, joinKey, error) {
	if a.frame.Col(left) < 0 && b.frame.Col(left) >= 0 {
		a, b = b, a
	}
	li, ri := a.frame.Col(left), b.frame.Col(right)
	if li < 0 || ri < 0 {
		return a, b, joinKey{}, joinKey{}, fmt.Errorf("join keys %s/%s not found", left, right)
	}
	ak, bk, err := joinKeys(s, a.frame.vector(s, li), b.frame.vector(s, ri), a.frame.Cols[li], b.frame.Cols[ri])
	return a, b, ak, bk, err
}

// runJoin hash-joins two inputs' map output on the equi-join keys: the
// shuffle partitions both sides by key hash, and reducers build on the
// left and probe with the right per partition in parallel. A broadcast
// join (plan.Job.Broadcast) has no shuffle and no reduce phase: every
// probe map split probes one index of the small side, and the map output
// is the job output.
func (e *Engine) runJoin(s *scratch, job *plan.Job, ins []jobInput, stats *JobStats) (*Frame, error) {
	if len(ins) != 2 {
		return nil, fmt.Errorf("join expects 2 inputs, got %d", len(ins))
	}
	a, b, ak, bk, err := joinSides(s, job.JoinLeft, job.JoinRight, ins[0], ins[1])
	if err != nil {
		return nil, err
	}
	if job.Broadcast != "" {
		// a carries the join's left columns, so the output keeps a's
		// first whichever side is broadcast.
		var arows, brows []int32
		if a.table == job.Broadcast {
			m, err := e.match(s, job, ak, bk, s.one(flatten(a.parts)), b.parts)
			if err != nil {
				return nil, err
			}
			arows, brows = m.build, m.probe
		} else {
			m, err := e.match(s, job, bk, ak, s.one(flatten(b.parts)), a.parts)
			if err != nil {
				return nil, err
			}
			arows, brows = m.probe, m.build
		}
		res := joined(s, a.frame, arows, b.frame, brows)
		stats.MedBytes, stats.MedRows = res.Bytes(), res.NumRows()
		return res, nil
	}
	lsel, rsel := flatten(a.parts), flatten(b.parts)
	stats.MedBytes = a.frame.rowBytes(lsel) + b.frame.rowBytes(rsel)
	stats.MedRows = int64(len(lsel) + len(rsel))

	R := e.cfg.NumReducers
	m, err := e.match(s, job, ak, bk, partition(s, ak, lsel, R), partition(s, bk, rsel, R))
	if err != nil {
		return nil, err
	}
	return joined(s, a.frame, m.build, b.frame, m.probe), nil
}

// applyMapJoins executes the job's folded broadcast-join preludes: for each
// spec the small table is filtered and indexed and the matching probe
// input's frame is replaced with the joined rows, exactly as the merged map
// phase would see them. Probe-side predicates stay attached for that phase
// (row-level filters commute with the join).
func (e *Engine) applyMapJoins(s *scratch, job *plan.Job, ins []jobInput, stats *JobStats) ([]jobInput, error) {
	for _, spec := range job.MapJoins {
		b, err := e.loadScan(s, spec.BroadcastScan)
		if err != nil {
			return nil, err
		}
		stats.InBytes += b.rawBytes
		stats.InRows += b.frame.NumRows()
		bKey, pKey := spec.JoinLeft, spec.JoinRight
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
		pj := probe.frame.Col(pKey)
		bk, pk, err := joinKeys(s, b.frame.vector(s, bi), probe.frame.vector(s, pj), b.frame.Cols[bi], probe.frame.Cols[pj])
		if err != nil {
			return nil, err
		}
		bparts, err := e.mapFilter(s, b)
		if err != nil {
			return nil, err
		}
		// Probe-side predicates wait for the job's own map phase.
		pparts, err := e.mapFilter(s, jobInput{frame: probe.frame, rawBytes: probe.rawBytes})
		if err != nil {
			return nil, err
		}
		m, err := e.match(s, job, bk, pk, s.one(flatten(bparts)), pparts)
		if err != nil {
			return nil, err
		}
		res := joined(s, probe.frame, m.probe, b.frame, m.build)
		ins[pi] = jobInput{frame: res, rawBytes: res.Bytes(), preds: probe.preds}
	}
	return ins, nil
}
