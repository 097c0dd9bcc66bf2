package mapreduce

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"saqp/internal/dataset"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/selectivity"
)

// Config sizes the engine's task structure. At laptop scale the block size
// is far smaller than HDFS's 256 MB so that multi-map behaviour (per-map
// combines, parallelism) is exercised on megabyte inputs.
type Config struct {
	// BlockSize is bytes of input per map task (default 1 MB).
	BlockSize int64
	// NumReducers is the number of reduce partitions (default 4).
	NumReducers int
	// Parallelism bounds concurrent map/reduce tasks (default NumCPU).
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.NumReducers <= 0 {
		c.NumReducers = 4
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

// Engine executes plan DAGs over registered relations.
type Engine struct {
	cfg    Config
	tables map[string]*dataset.Relation
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), tables: make(map[string]*dataset.Relation)}
}

// Register makes a materialised relation available to queries.
func (e *Engine) Register(rel *dataset.Relation) { e.tables[rel.Schema.Name] = rel }

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

// RunQuery executes all jobs of the DAG in topological order.
func (e *Engine) RunQuery(d *plan.DAG) (*QueryResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	res := &QueryResult{Stats: make(map[string]*JobStats, len(d.Jobs))}
	frames := make(map[string]*Frame, len(d.Jobs))
	for _, job := range d.Jobs {
		out, stats, err := e.runJob(job, frames)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %s: %w", job.ID, err)
		}
		frames[job.ID] = out
		res.Stats[job.ID] = stats
		res.Final = out
	}
	return res, nil
}

// jobInput is one resolved input: the source frame (scan output columns or
// an upstream frame), the raw bytes/rows read, and scan predicates to apply
// in the map phase.
type jobInput struct {
	frame    *Frame // unfiltered source data with qualified columns
	rawBytes int64
	rawRows  int64
	preds    []query.Predicate
	// table is the scanned base table name ("" for upstream frames); it
	// selects the fragmentation factor for split sizing.
	table string
}

// loadScan materialises one base-table scan as a job input: the pruned
// columns of every row, with the pushed-down predicates attached for the
// map phase. Raw sizes count the full table, as the job reads every block.
func (e *Engine) loadScan(ts plan.TableScan) (jobInput, error) {
	rel, ok := e.tables[ts.Table]
	if !ok {
		return jobInput{}, fmt.Errorf("table %q not registered", ts.Table)
	}
	idx := make([]int, len(ts.Columns))
	cols := make([]string, len(ts.Columns))
	for i, c := range ts.Columns {
		j := rel.Schema.ColumnIndex(c)
		if j < 0 {
			return jobInput{}, fmt.Errorf("table %q has no column %q", ts.Table, c)
		}
		idx[i] = j
		cols[i] = ts.Table + "." + c
	}
	rows := make([]dataset.Row, len(rel.Rows))
	for i, r := range rel.Rows {
		nr := make(dataset.Row, len(idx))
		for k, j := range idx {
			nr[k] = r[j]
		}
		rows[i] = nr
	}
	return jobInput{
		frame:    NewFrame(cols, rows),
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

func (e *Engine) runJob(job *plan.Job, frames map[string]*Frame) (*Frame, *JobStats, error) {
	ins, err := e.resolveInputs(job, frames)
	if err != nil {
		return nil, nil, err
	}
	stats := &JobStats{Job: job}
	for _, in := range ins {
		stats.InBytes += in.rawBytes
		stats.InRows += in.rawRows
	}
	ins, err = e.applyMapJoins(job, ins, stats)
	if err != nil {
		return nil, nil, err
	}
	switch job.Type {
	case plan.Extract:
		return e.runExtract(job, ins[0], stats)
	case plan.Groupby:
		return e.runGroupby(job, ins[0], stats)
	case plan.Join:
		return e.runJoin(job, ins, stats)
	}
	return nil, nil, fmt.Errorf("unknown job type %v", job.Type)
}

// splits partitions [0, n) rows into map-task ranges of ~BlockSize bytes,
// shrunk by the table's fragmentation factor for base-table scans so the
// engine's task granularity matches the estimator's.
func (e *Engine) splits(f *Frame, rawBytes int64, table string) [][2]int {
	n := len(f.Rows)
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	avg := rawBytes / int64(n)
	if avg <= 0 {
		avg = 1
	}
	eff := float64(e.cfg.BlockSize)
	if table != "" {
		eff *= selectivity.FragFactor(table)
	}
	per := int(eff / float64(avg))
	if per < 1 {
		per = 1
	}
	var out [][2]int
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// mapFilter runs the map phase for one input: parallel tasks filter rows by
// the scan predicates. It returns per-split row slices (deterministic
// order) and the filtered byte/row totals.
func (e *Engine) mapFilter(in jobInput) ([][]dataset.Row, int64, int64) {
	f := in.frame
	sp := e.splits(f, in.rawBytes, in.table)
	out := make([][]dataset.Row, len(sp))
	predIdx := make([]int, len(in.preds))
	for i, p := range in.preds {
		predIdx[i] = f.Col(p.Left.String())
	}
	var medBytes, medRows int64
	var mu sync.Mutex
	sem := make(chan struct{}, e.cfg.Parallelism)
	var wg sync.WaitGroup
	for si, s := range sp {
		wg.Add(1)
		sem <- struct{}{}
		go func(si, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			var rows []dataset.Row
			var bytes int64
			for _, r := range f.Rows[lo:hi] {
				ok := true
				for pi, p := range in.preds {
					if predIdx[pi] < 0 || !evalPred(r[predIdx[pi]], p) {
						ok = false
						break
					}
				}
				if ok {
					rows = append(rows, r)
					bytes += int64(r.Width())
				}
			}
			out[si] = rows
			mu.Lock()
			medBytes += bytes
			medRows += int64(len(rows))
			mu.Unlock()
		}(si, s[0], s[1])
	}
	wg.Wait()
	return out, medBytes, medRows
}

// runExtract filters, optionally sorts, and optionally limits one input.
func (e *Engine) runExtract(job *plan.Job, in jobInput, stats *JobStats) (*Frame, *JobStats, error) {
	parts, medBytes, medRows := e.mapFilter(in)
	stats.MedBytes, stats.MedRows = medBytes, medRows
	stats.NumMaps = len(parts)
	var rows []dataset.Row
	for _, p := range parts {
		rows = append(rows, p...)
	}
	out := NewFrame(in.frame.Cols, rows)
	if len(job.OrderKeys) > 0 {
		keyIdx := make([]int, len(job.OrderKeys))
		for i, k := range job.OrderKeys {
			keyIdx[i] = out.Col(k.Col.String())
			if keyIdx[i] < 0 {
				return nil, nil, fmt.Errorf("order key %s not in input", k.Col)
			}
		}
		sort.SliceStable(out.Rows, func(a, b int) bool {
			ra, rb := out.Rows[a], out.Rows[b]
			for i, ki := range keyIdx {
				va, vb := ra[ki], rb[ki]
				if va.Equal(vb) {
					continue
				}
				less := va.Less(vb)
				if job.OrderKeys[i].Desc {
					return !less
				}
				return less
			}
			return false
		})
	}
	if job.Limit >= 0 && int64(len(out.Rows)) > job.Limit {
		out.Rows = out.Rows[:job.Limit]
	}
	stats.OutRows = out.NumRows()
	stats.OutBytes = out.Bytes()
	return out, stats, nil
}

// groupKey renders the composite grouping key of a row.
func groupKey(row dataset.Row, keyIdx []int) string {
	if len(keyIdx) == 0 {
		return ""
	}
	k := ""
	for _, i := range keyIdx {
		k += row[i].Key() + "\x00"
	}
	return k
}

// runGroupby aggregates with per-map combines: each map task filters its
// split and pre-aggregates locally (the combine that Eq. 2 models), then
// reducers merge the partial states by key.
func (e *Engine) runGroupby(job *plan.Job, in jobInput, stats *JobStats) (*Frame, *JobStats, error) {
	f := in.frame
	keyIdx := make([]int, len(job.GroupKeys))
	for i, k := range job.GroupKeys {
		keyIdx[i] = f.Col(k.String())
		if keyIdx[i] < 0 {
			return nil, nil, fmt.Errorf("group key %s not in input", k)
		}
	}
	predIdx := make([]int, len(in.preds))
	for i, p := range in.preds {
		predIdx[i] = f.Col(p.Left.String())
	}

	type combined struct {
		keyRow dataset.Row // group key values
		states []*aggState
		having []*aggState
	}
	sp := e.splits(f, in.rawBytes, in.table)
	stats.NumMaps = len(sp)
	partials := make([]map[string]*combined, len(sp))
	var medBytes, medRows int64
	var mu sync.Mutex
	sem := make(chan struct{}, e.cfg.Parallelism)
	var wg sync.WaitGroup
	var firstErr error
	for si, s := range sp {
		wg.Add(1)
		sem <- struct{}{}
		go func(si, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			local := make(map[string]*combined)
			for _, r := range f.Rows[lo:hi] {
				ok := true
				for pi, p := range in.preds {
					if predIdx[pi] < 0 || !evalPred(r[predIdx[pi]], p) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				k := groupKey(r, keyIdx)
				c := local[k]
				if c == nil {
					kr := make(dataset.Row, len(keyIdx))
					for i, ki := range keyIdx {
						kr[i] = r[ki]
					}
					c = &combined{
						keyRow: kr,
						states: make([]*aggState, len(job.Aggs)),
						having: make([]*aggState, len(job.Having)),
					}
					for i, a := range job.Aggs {
						c.states[i] = newAggState(a.Agg)
					}
					for i, h := range job.Having {
						c.having[i] = newAggState(h.Agg)
					}
					local[k] = c
				}
				for i, a := range job.Aggs {
					if a.Star {
						c.states[i].addCount(1)
						continue
					}
					v, err := evalExpr(f, r, a.Expr)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					c.states[i].add(v)
				}
				for i, h := range job.Having {
					if h.Star {
						c.having[i].addCount(1)
						continue
					}
					v, err := evalExpr(f, r, h.Expr)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					c.having[i].add(v)
				}
			}
			partials[si] = local
			// Combined map-output records: key columns + one 8-byte partial
			// per aggregate.
			var bytes int64
			for _, c := range local {
				bytes += int64(c.keyRow.Width()) + 8*int64(len(job.Aggs))
			}
			mu.Lock()
			medBytes += bytes
			medRows += int64(len(local))
			mu.Unlock()
		}(si, s[0], s[1])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	stats.MedBytes, stats.MedRows = medBytes, medRows

	// Reduce: merge partials across maps.
	final := make(map[string]*combined)
	for _, local := range partials {
		for k, c := range local {
			fc := final[k]
			if fc == nil {
				final[k] = c
				continue
			}
			for i := range fc.states {
				fc.states[i].merge(c.states[i])
			}
			for i := range fc.having {
				fc.having[i].merge(c.having[i])
			}
		}
	}
	// Deterministic output order: sort by key.
	keys := make([]string, 0, len(final))
	for k := range final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cols := make([]string, 0, len(job.GroupKeys)+len(job.Aggs))
	for _, k := range job.GroupKeys {
		cols = append(cols, k.String())
	}
	for i := range job.Aggs {
		cols = append(cols, fmt.Sprintf("%s.agg%d", job.ID, i))
	}
	rows := make([]dataset.Row, 0, len(final))
	for _, k := range keys {
		c := final[k]
		// HAVING: drop groups whose aggregate fails any conjunct.
		keep := true
		for i, h := range job.Having {
			v := c.having[i].value().Num()
			if !cmpFloats(v, h.Lit.F, h.Op) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := make(dataset.Row, 0, len(cols))
		row = append(row, c.keyRow...)
		for _, st := range c.states {
			row = append(row, st.value())
		}
		rows = append(rows, row)
	}
	out := NewFrame(cols, rows)
	stats.OutRows = out.NumRows()
	stats.OutBytes = out.Bytes()
	return out, stats, nil
}

// runJoin hash-joins two inputs on the equi-join keys: maps filter each
// side, the shuffle partitions by key hash, and reducers build/probe per
// partition in parallel. Broadcast joins (plan.Job.Broadcast) skip the
// shuffle: every map task probes an in-memory copy of the small side.
func (e *Engine) runJoin(job *plan.Job, ins []jobInput, stats *JobStats) (*Frame, *JobStats, error) {
	if len(ins) != 2 {
		return nil, nil, fmt.Errorf("join expects 2 inputs, got %d", len(ins))
	}
	leftKey, rightKey := job.JoinLeft.String(), job.JoinRight.String()
	a, b := ins[0], ins[1]
	if a.frame.Col(leftKey) < 0 && b.frame.Col(leftKey) >= 0 {
		a, b = b, a
	}
	li, ri := a.frame.Col(leftKey), b.frame.Col(rightKey)
	if li < 0 || ri < 0 {
		return nil, nil, fmt.Errorf("join keys %s/%s not found", leftKey, rightKey)
	}
	if job.MapOnly && job.Broadcast != "" {
		return e.runBroadcastJoin(job, a, b, li, ri, stats)
	}

	lparts, lb, lr := e.mapFilter(a)
	rparts, rb, rr := e.mapFilter(b)
	stats.MedBytes = lb + rb
	stats.MedRows = lr + rr
	stats.NumMaps = len(lparts) + len(rparts)

	R := e.cfg.NumReducers
	lbuckets := make([][]dataset.Row, R)
	rbuckets := make([][]dataset.Row, R)
	fill := func(parts [][]dataset.Row, ki int, buckets [][]dataset.Row) {
		for _, p := range parts {
			for _, row := range p {
				h := fnv.New32a()
				h.Write([]byte(row[ki].Key()))
				buckets[int(h.Sum32())%R] = append(buckets[int(h.Sum32())%R], row)
			}
		}
	}
	fill(lparts, li, lbuckets)
	fill(rparts, ri, rbuckets)

	outRows := make([][]dataset.Row, R)
	sem := make(chan struct{}, e.cfg.Parallelism)
	var wg sync.WaitGroup
	for p := 0; p < R; p++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			defer func() { <-sem }()
			build := make(map[string][]dataset.Row)
			for _, row := range lbuckets[p] {
				k := row[li].Key()
				build[k] = append(build[k], row)
			}
			var rows []dataset.Row
			for _, rrow := range rbuckets[p] {
				for _, lrow := range build[rrow[ri].Key()] {
					joined := make(dataset.Row, 0, len(lrow)+len(rrow))
					joined = append(joined, lrow...)
					joined = append(joined, rrow...)
					rows = append(rows, joined)
				}
			}
			outRows[p] = rows
		}(p)
	}
	wg.Wait()

	cols := make([]string, 0, len(a.frame.Cols)+len(b.frame.Cols))
	cols = append(cols, a.frame.Cols...)
	cols = append(cols, b.frame.Cols...)
	var rows []dataset.Row
	for _, p := range outRows {
		rows = append(rows, p...)
	}
	out := NewFrame(cols, rows)
	stats.OutRows = out.NumRows()
	stats.OutBytes = out.Bytes()
	return out, stats, nil
}

// runBroadcastJoin executes a map-side join: the broadcast side is fully
// materialised into a hash table, and each map split of the probe side
// joins against it in parallel — no shuffle, no reduce phase.
func (e *Engine) runBroadcastJoin(job *plan.Job, a, b jobInput, li, ri int, stats *JobStats) (*Frame, *JobStats, error) {
	// Identify which input is the broadcast table; `a` carries the join's
	// left columns, so remember the side for column ordering.
	build, probe := a, b
	buildKey, probeKey := li, ri
	buildLeft := true
	if a.table != job.Broadcast {
		build, probe = b, a
		buildKey, probeKey = ri, li
		buildLeft = false
	}
	// Filter + hash the broadcast side once.
	bparts, _, _ := e.mapFilter(build)
	hash := make(map[string][]dataset.Row)
	for _, part := range bparts {
		for _, row := range part {
			k := row[buildKey].Key()
			hash[k] = append(hash[k], row)
		}
	}
	// Probe side: filter and join inside each map split.
	f := probe.frame
	sp := e.splits(f, probe.rawBytes, probe.table)
	stats.NumMaps = len(sp)
	predIdx := make([]int, len(probe.preds))
	for i, p := range probe.preds {
		predIdx[i] = f.Col(p.Left.String())
	}
	out := make([][]dataset.Row, len(sp))
	var medBytes, medRows int64
	var mu sync.Mutex
	sem := make(chan struct{}, e.cfg.Parallelism)
	var wg sync.WaitGroup
	for si, s := range sp {
		wg.Add(1)
		sem <- struct{}{}
		go func(si, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			var rows []dataset.Row
			var bytes int64
			for _, r := range f.Rows[lo:hi] {
				ok := true
				for pi, p := range probe.preds {
					if predIdx[pi] < 0 || !evalPred(r[predIdx[pi]], p) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				for _, brow := range hash[r[probeKey].Key()] {
					var joined dataset.Row
					if buildLeft {
						joined = append(append(dataset.Row{}, brow...), r...)
					} else {
						joined = append(append(dataset.Row{}, r...), brow...)
					}
					rows = append(rows, joined)
					bytes += int64(joined.Width())
				}
			}
			out[si] = rows
			mu.Lock()
			medBytes += bytes
			medRows += int64(len(rows))
			mu.Unlock()
		}(si, s[0], s[1])
	}
	wg.Wait()
	// No shuffle: the map output is the job output.
	stats.MedBytes, stats.MedRows = medBytes, medRows
	var rows []dataset.Row
	for _, p := range out {
		rows = append(rows, p...)
	}
	cols := make([]string, 0, len(a.frame.Cols)+len(b.frame.Cols))
	if buildLeft {
		cols = append(cols, build.frame.Cols...)
		cols = append(cols, probe.frame.Cols...)
	} else {
		cols = append(cols, probe.frame.Cols...)
		cols = append(cols, build.frame.Cols...)
	}
	res := NewFrame(cols, rows)
	stats.OutRows = res.NumRows()
	stats.OutBytes = res.Bytes()
	return res, stats, nil
}

// applyMapJoins executes the job's folded broadcast-join preludes: for each
// spec the small table is hashed and the matching probe input's frame is
// replaced with the joined rows, exactly as the merged map phase would see
// them. Probe-side predicates stay attached (row-level filters commute with
// the join); broadcast-side predicates apply while building the hash.
func (e *Engine) applyMapJoins(job *plan.Job, ins []jobInput, stats *JobStats) ([]jobInput, error) {
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
		// Build the hash from the filtered broadcast side.
		bparts, _, _ := e.mapFilter(b)
		hash := make(map[string][]dataset.Row)
		for _, part := range bparts {
			for _, row := range part {
				k := row[bi].Key()
				hash[k] = append(hash[k], row)
			}
		}
		probe := ins[pi]
		pidx := probe.frame.Col(pKey)
		cols := append(append([]string{}, probe.frame.Cols...), b.frame.Cols...)
		var rows []dataset.Row
		for _, r := range probe.frame.Rows {
			for _, brow := range hash[r[pidx].Key()] {
				rows = append(rows, append(append(dataset.Row{}, r...), brow...))
			}
		}
		joined := NewFrame(cols, rows)
		ins[pi] = jobInput{
			frame:    joined,
			rawBytes: joined.Bytes(),
			rawRows:  joined.NumRows(),
			preds:    probe.preds,
		}
	}
	return ins, nil
}
