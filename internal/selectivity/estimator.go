package selectivity

import (
	"fmt"
	"math"
	"sync"

	"saqp/internal/catalog"
	"saqp/internal/core/floats"
	"saqp/internal/dataset"
	"saqp/internal/histogram"
	"saqp/internal/plan"
	"saqp/internal/query"
	"saqp/internal/slab"
)

// The paper testbed's MapReduce sizing rules, which turn estimated data
// volumes into task counts — the resource-usage half of the prediction.
const (
	// defaultBlockSize is the HDFS block size, one map task per block
	// (paper testbed: 256 MB), unless Config.BlockSize says otherwise.
	defaultBlockSize = 256 << 20
	// bytesPerReducer is the target shuffle volume per reduce task
	// (Hive's hive.exec.reducers.bytes.per.reducer), set at half a block
	// so reduce-side parallelism grows smoothly with intermediate volume.
	bytesPerReducer = 128 << 20
	// maxReduces caps the reduce count of a single job.
	maxReduces = 108
)

// Config carries the MapReduce sizing settings a caller may change.
type Config struct {
	// BlockSize is the map input split in bytes; zero means the paper
	// testbed's 256 MB block.
	BlockSize int64
	// DisableReduceSkew turns off hot-partition modelling: reduce tasks
	// are sized uniformly even under skewed join keys. Used by ablations
	// to isolate how much of the join-time prediction error comes from
	// partition skew.
	DisableReduceSkew bool
}

// table is one catalog table as NewEstimator prepared it: its scalars as
// float64, its dataset.FragFactor, and each column's base statistics, the
// catalog's histogram shared by pointer. Nothing in it is written after
// NewEstimator returns, so one Estimator serves any number of goroutines
// without a lock.
type table struct {
	name                     string
	rows, bytes, width, frag float64
	cols                     []ColStat
	index                    map[string]int // column name → ordinal in cols
}

// col returns the base statistics of ref if it names a column of t, else nil.
func (t *table) col(ref query.ColumnRef) *ColStat {
	if ci, ok := t.index[ref.Column]; ok && ref.Table == t.name {
		return &t.cols[ci]
	}
	return nil
}

// Estimator performs selectivity estimation against catalog statistics.
type Estimator struct {
	cat    *catalog.Catalog
	cfg    Config
	tables map[string]*table
}

// NewEstimator returns an estimator over the given catalog with cfg
// (a non-positive BlockSize means the 256 MB default). It prepares every
// table's statistics once; the catalog must not change afterwards.
func NewEstimator(cat *catalog.Catalog, cfg Config) *Estimator {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = defaultBlockSize
	}
	e := &Estimator{cat: cat, cfg: cfg, tables: make(map[string]*table, len(cat.Tables))}
	for name, ts := range cat.Tables {
		t := &table{name: name, rows: float64(ts.Rows), bytes: float64(ts.Bytes), width: ts.AvgTupleWidth,
			frag: dataset.FragFactor(name), cols: make([]ColStat, 0, len(ts.Columns)), index: make(map[string]int, len(ts.Columns))}
		for cn, cs := range ts.Columns {
			t.index[cn] = len(t.cols)
			t.cols = append(t.cols, ColStat{Hist: cs.Hist, Distinct: float64(cs.Distinct), BaseDistinct: float64(cs.Distinct),
				TopShare: cs.TopShare, Width: cs.AvgWidth, Clustered: cs.Clustered})
		}
		e.tables[name] = t
	}
	return e
}

// JobEstimate is the estimated data flow and resource usage of one job —
// exactly the quantities the paper's multivariate model consumes (Table 1).
type JobEstimate struct {
	Job *plan.Job

	// InBytes/MedBytes/OutBytes are D_in, D_med, D_out.
	InBytes, MedBytes, OutBytes float64
	// InRows are raw input tuples; MedRows and OutRows the estimated
	// intermediate and output tuples.
	InRows, MedRows, OutRows float64
	// IS and FS are the intermediate and final selectivities.
	IS, FS float64
	// P is the join balance ratio of Eq. 7 (0 for non-join jobs);
	// P(1-P) ∈ (0, 1/4] is the join growth feature of the time model.
	P float64
	// NumMaps and NumReduces are the predicted task counts.
	NumMaps, NumReduces int
	// MapGroups breaks the map tasks down by input source (one group per
	// base-table scan or upstream edge): the two sides of a join have
	// different per-task sizes, and per-group sizing keeps task-time
	// features faithful. It always holds at least one group, each of at
	// least one task, and its counts sum to NumMaps. The groups are the
	// job's task layout: the simulator and the predictors read them and
	// synthesize none.
	MapGroups []TaskGroup
	// ReduceGroups breaks the reduce tasks down by shuffle-partition mass.
	// When the shuffle key is skewed enough that one hash partition holds
	// more than its fair share (a Zipf hot key), the hot reducer gets its
	// own group — the straggler the paper's join-error discussion is
	// about. It is empty exactly when the job has no reduce phase
	// (Job.MapOnly), and otherwise its counts sum to NumReduces.
	ReduceGroups []TaskGroup

	// scanBytes is the portion of InBytes read from base tables (not from
	// upstream jobs); it feeds QueryEstimate.TotalInputBytes.
	scanBytes float64
}

// TaskGroup describes a homogeneous set of tasks: Count tasks, each with
// the given input and output volume.
type TaskGroup struct {
	Count             int
	InBytes, OutBytes float64
}

// Groups returns the job's reduce task groups when reduce is set, else
// its map task groups.
func (je *JobEstimate) Groups(reduce bool) []TaskGroup {
	if reduce {
		return je.ReduceGroups
	}
	return je.MapGroups
}

// PFactor returns P(1-P), the model's join growth feature.
func (j *JobEstimate) PFactor() float64 { return j.P * (1 - j.P) }

// QueryEstimate aggregates per-job estimates for a DAG. It holds numbers
// only: edge statistics and histograms live in the walk that made it,
// whose storage the next estimate reuses, not in the plan-cache entry that
// keeps it.
type QueryEstimate struct {
	DAG  *plan.DAG
	Jobs []*JobEstimate
	ByID map[string]*JobEstimate
}

// TotalInputBytes sums raw input bytes over base-table scans only — the
// "input size" axis the paper's workload bins (Table 2) are keyed on.
func (q *QueryEstimate) TotalInputBytes() float64 {
	var t float64
	for _, je := range q.Jobs {
		t += je.scanBytes
	}
	return t
}

// stage is the walk's state per job: what its inputs must carry (reads),
// what consumers, transitively, read of its output (feeds), and the output
// edge, which carries exactly that.
type stage struct {
	je               *JobEstimate
	reads, feeds     []need
	out              edge
	readBuf, feedBuf [6]need
}

// walk is the scratch of one EstimateQuery call. EstimateQuery takes one
// from walks and puts it back on return, so its slabs — stages, the edge
// columns and the arena every derived histogram is cut from — grow to fit
// the queries estimated and then stop allocating. The returned estimate
// keeps none of it: jobs and task groups are the call's own allocations.
type walk struct {
	e      *Estimator
	jobs   []*plan.Job
	stages []stage // one per job, cut from stageSlab
	groups []TaskGroup
	// stageSlab and colSlab are what stages and edges' columns are cut
	// from; arena holds the histograms the walk filters, scales, joins and
	// rebuckets (the catalog's own are only read).
	stageSlab slab.Slab[stage]
	colSlab   slab.Slab[edgeCol]
	arena     histogram.Arena
	condBuf   [8]histogram.Cond
}

// walks holds released walks for any goroutine's next estimate: the
// serving engine estimates on whichever client goroutine submits, and the
// corpus builder through a fresh Estimator per estimate, so the scratch is
// the package's, not an Estimator's.
var walks = sync.Pool{New: func() any { return new(walk) }}

// EstimateQuery estimates every job of the DAG in chain order, after one
// reverse pass has marked, per job, the columns a transitive consumer
// reads: the forward pass carries exactly those along each edge.
func (e *Estimator) EstimateQuery(d *plan.DAG) (*QueryEstimate, error) {
	w := walks.Get().(*walk)
	defer walks.Put(w)
	defer w.reset()
	return w.estimate(e, d)
}

// estimate is EstimateQuery on w, which must be empty.
func (w *walk) estimate(e *Estimator, d *plan.DAG) (*QueryEstimate, error) {
	n, ngroups := len(d.Jobs), 0
	for _, job := range d.Jobs {
		in := len(job.Scans)
		if job.Up != nil {
			in++
		}
		ngroups += max(1, in) + 2 // map groups + at most two reduce groups
	}
	qe := &QueryEstimate{DAG: d, Jobs: make([]*JobEstimate, n), ByID: make(map[string]*JobEstimate, n)}
	jes := make([]JobEstimate, n)
	w.e, w.jobs, w.groups = e, d.Jobs, make([]TaskGroup, ngroups)
	w.markNeeds(jes)
	for i, job := range d.Jobs {
		if err := w.estimateJob(i); err != nil {
			return nil, fmt.Errorf("selectivity: job %s: %w", job.ID, err)
		}
		qe.Jobs[i] = &jes[i]
		qe.ByID[job.ID] = &jes[i]
	}
	return qe, nil
}

// reset empties w for the next estimate: it zeroes everything that points
// into the finished one — the estimator, the plan, the job estimates and
// task groups, the statistics its edges carried — and keeps the slabs,
// each dropped instead if it holds more than slab.RetainBytes.
func (w *walk) reset() {
	w.arena.Reset(slab.RetainBytes)
	stages, cols := w.stageSlab, w.colSlab
	*w = walk{arena: w.arena}
	if stages.Bytes() <= slab.RetainBytes {
		stages.Reset()
		w.stageSlab = stages
	}
	if cols.Bytes() <= slab.RetainBytes {
		cols.Reset()
		w.colSlab = cols
	}
}

// markNeeds sets up the stages and fills their need sets in one reverse
// pass over the jobs. A job's inputs must carry what its operator reads —
// join and map-join keys with their histograms, group keys for their
// scalars — and, through a join, what its consumers read; and what a job
// reads, the job before it feeds.
func (w *walk) markNeeds(jes []JobEstimate) {
	w.stages = w.stageSlab.Cut(len(jes))
	for i := len(jes) - 1; i >= 0; i-- {
		job, st := w.jobs[i], &w.stages[i]
		jes[i].Job, st.je = job, &jes[i]
		r := st.readBuf[:0]
		switch job.Type {
		case plan.Join:
			r = addNeed(addNeed(append(r, st.feeds...), job.JoinLeft, true), job.JoinRight, true)
		case plan.Groupby:
			for _, k := range job.GroupKeys {
				r = addNeed(r, k, false)
			}
		}
		for k := range job.MapJoins {
			r = addNeed(addNeed(r, job.MapJoins[k].JoinLeft, true), job.MapJoins[k].JoinRight, true)
		}
		st.reads = r
		if job.Up != nil {
			up := &w.stages[i-1]
			if up.feeds == nil {
				up.feeds = up.feedBuf[:0]
			}
			for _, n := range r {
				up.feeds = addNeed(up.feeds, n.ref, n.hist)
			}
		}
	}
}

// input is one resolved job input: its filtered/projected edge plus the raw
// volume read and the scan selectivities (1 for upstream-edge inputs), and
// either the base table scanned or the upstream job read.
type input struct {
	edge                                      edge
	table                                     *table
	dep                                       *JobEstimate
	rawBytes, rawRows, rawWidth, sPred, sProj float64
}

// scanInput builds the input for a base-table scan: S_pred from the pushed
// predicates, S_proj from the pruned columns, and the filtered edge with
// those of needs the table has.
func (w *walk) scanInput(ts *plan.TableScan, needs []need) (input, error) {
	t := w.e.tables[ts.Table]
	if t == nil {
		_, err := w.e.cat.Table(ts.Table)
		return input{}, err
	}
	var projWidth float64
	for _, name := range ts.Columns {
		ci, ok := t.index[name]
		if !ok {
			return input{}, fmt.Errorf("table %q has no column %q", ts.Table, name)
		}
		projWidth += t.cols[ci].Width
	}
	if projWidth == 0 { //lint:allow saqpvet/floatcmp width sums are exact small-integer arithmetic
		projWidth = 8 // count(*)-style scans still move a key per tuple
	}
	var pcBuf [6]predCol
	pcs, sPred := scanConjunction(t, ts.Preds, pcBuf[:0], w.condBuf[:0])
	in := input{edge: edge{rows: t.rows * sPred, width: projWidth}, table: t,
		rawBytes: t.bytes, rawRows: t.rows, rawWidth: t.width, sPred: sPred, sProj: floats.Clamp01(projWidth / t.width)}
	in.edge.cols = w.colSlab.Cut(len(needs))[:0]
	for _, n := range needs {
		if base := t.col(n.ref); base != nil {
			in.edge.cols = append(in.edge.cols, edgeCol{n.ref, narrowColumn(&w.arena, base, n, pcs, in.edge.rows)})
		}
	}
	return in, nil
}

// estimateJob resolves job i's inputs — base-table scans first, then
// the output of the job before it — and dispatches on the job category.
func (w *walk) estimateJob(i int) error {
	job, st := w.jobs[i], &w.stages[i]
	je, needs := st.je, st.reads
	var insBuf [4]input
	ins := insBuf[:0]
	for si := range job.Scans {
		in, err := w.scanInput(&job.Scans[si], needs)
		if err != nil {
			return err
		}
		je.scanBytes += in.rawBytes
		ins = append(ins, in)
	}
	if job.Up != nil {
		up := &w.stages[i-1]
		ins = append(ins, input{edge: up.out, dep: up.je, rawBytes: up.je.OutBytes, rawRows: up.je.OutRows,
			rawWidth: up.out.width, sPred: 1, sProj: 1})
	}
	if len(ins) == 0 {
		return fmt.Errorf("job has no inputs")
	}
	for k := range ins {
		je.InBytes += ins[k].rawBytes
		je.InRows += ins[k].rawRows
	}
	// Broadcast-join preludes transform the main input inside the map
	// phase before the job's own operator sees it.
	sideBytes, err := w.applyMapJoins(job, je, ins, needs)
	if err != nil {
		return err
	}
	// Map counts depend only on the inputs and must be known before the
	// Groupby estimate (Eq. 2's random-key case divides by N_maps).
	w.computeMapCounts(job, je, ins, sideBytes)
	var shuffleKey *ColStat
	switch job.Type {
	case plan.Join:
		shuffleKey, err = w.estimateJoin(job, st, ins)
	case plan.Groupby:
		err = estimateGroupby(job, st, &ins[0])
	case plan.Extract:
		estimateExtract(job, st, &ins[0])
	default:
		err = fmt.Errorf("unknown job type %v", job.Type)
	}
	if err != nil {
		return err
	}
	w.finishTaskCounts(job, je, shuffleKey)
	return nil
}

// applyMapJoins folds each broadcast-join prelude into the matching input:
// the probe edge is replaced by the estimated join result, and the small
// table's bytes count toward D_in and toward sideBytes, which every map loads.
func (w *walk) applyMapJoins(job *plan.Job, je *JobEstimate, ins []input, needs []need) (sideBytes float64, err error) {
	for si := range job.MapJoins {
		spec := &job.MapJoins[si]
		b, err := w.scanInput(&spec.BroadcastScan, needs)
		if err != nil {
			return 0, err
		}
		bKey, pKey := spec.JoinLeft, spec.JoinRight
		if b.edge.col(bKey) == nil {
			bKey, pKey = pKey, bKey
		}
		bc := b.edge.col(bKey) // whichever spec key lives in the broadcast table
		if bc == nil {
			return 0, fmt.Errorf("map-join key %s not in broadcast table %s", bKey, spec.BroadcastScan.Table)
		}
		// The probe input is the first that carries the other key.
		var probe *input
		for k := range ins {
			if ins[k].edge.col(pKey) != nil {
				probe = &ins[k]
				break
			}
		}
		if probe == nil {
			return 0, fmt.Errorf("map-join probe key %s not found in inputs", pKey)
		}
		outRows := joinCardinality(&w.arena, probe.edge.col(pKey), bc, probe.edge.rows, b.edge.rows)
		probe.edge = w.mergeEdges(&probe.edge, &b.edge, outRows, needs)
		probe.rawBytes += b.rawBytes
		// The probe side's tuple count, unchanged, still drives Eq. 2.
		if probe.rawRows > 0 {
			probe.sPred = floats.Clamp01(outRows / probe.rawRows)
		}
		je.InBytes += b.rawBytes
		je.scanBytes += b.rawBytes
		sideBytes += b.rawBytes
	}
	return sideBytes, nil
}

// takeGroups cuts n task groups from the query's slab.
func (w *walk) takeGroups(n int) []TaskGroup {
	g := w.groups[:n:n]
	w.groups = w.groups[n:]
	return g
}

// computeMapCounts derives the map task count and its per-input groups.
// Base-table scans get one map per (fragmentation-adjusted) block. Inputs
// read from an upstream job arrive as that job's reduce-output files, and
// Hadoop-era FileInputFormat schedules at least one map per file: maps =
// max(upstream reduces, ceil(bytes/block)). Every map also loads sideBytes;
// a job's broadcast table is such side data and gets no maps of its own,
// the rule the engine's measured NumMaps follows (mapreduce's jobInput).
// finishTaskCounts fills in the groups' output once D_med is known.
func (w *walk) computeMapCounts(job *plan.Job, je *JobEstimate, ins []input, sideBytes float64) {
	block := float64(w.e.cfg.BlockSize)
	groups := w.takeGroups(max(1, len(ins)))[:0]
	for k := range ins {
		in, count, bytes := &ins[k], 0, 0.0
		switch {
		case in.dep != nil:
			count, bytes = max(taskCount(in.dep.OutBytes/block), in.dep.NumReduces), in.dep.OutBytes
		case job.Broadcast == in.table.name:
			// Broadcast tables are loaded as side data by every map task,
			// not scanned by their own maps.
			sideBytes += in.table.bytes
			continue
		default:
			count, bytes = taskCount(in.table.bytes/(block*in.table.frag)), in.table.bytes
		}
		groups = append(groups, TaskGroup{Count: count, InBytes: bytes / float64(count)})
	}
	if len(groups) == 0 {
		groups = append(groups, TaskGroup{Count: 1, InBytes: je.InBytes})
	}
	for k := range groups {
		groups[k].InBytes += sideBytes
		je.NumMaps += groups[k].Count
	}
	je.MapGroups = groups
}

// maxTaskCount saturates every task count derived from a volume: a
// volume past int range, or NaN, reads as this many tasks instead of
// wrapping to a small or negative count. It is far above the bound a
// simulator puts on a whole query (cluster.MaxQueryTasks).
const maxTaskCount = 1 << 40

// taskCount is ⌈x⌉ tasks, at least 1 and at most maxTaskCount.
func taskCount(x float64) int {
	if !(x < maxTaskCount) {
		return maxTaskCount
	}
	return max(int(math.Ceil(x)), 1)
}

// finishTaskCounts apportions map output across groups, sets the reduce
// count from the estimated intermediate volume and sizes the reduce tasks.
// Hash partitioning spreads the shuffle mass evenly unless a single key
// outweighs a partition's fair share: all of a key's rows land on one
// reducer, so the hottest key's share lower-bounds the hottest partition,
// and that reducer becomes its own (straggler) group. Only hash-partitioned
// shuffles (joins) pass a shuffleKey, the statistics of the column they
// partition on; sort shuffles range-partition over sampled quantiles and
// stay balanced, and groupby shuffles are collapsed by the map-side combine.
func (w *walk) finishTaskCounts(job *plan.Job, je *JobEstimate, shuffleKey *ColStat) {
	for i := range je.MapGroups {
		g := &je.MapGroups[i]
		if je.InBytes > 0 {
			share := je.MedBytes * (g.InBytes * float64(g.Count) / je.InBytes)
			g.OutBytes = share / float64(g.Count)
		}
	}
	if job.MapOnly {
		return
	}
	n := min(taskCount(je.MedBytes/bytesPerReducer), maxReduces)
	je.NumReduces = n
	hot := 0.0
	if !w.e.cfg.DisableReduceSkew && n >= 2 && shuffleKey != nil {
		hot = hottestKeyShare(shuffleKey)
	}
	if fair := 1 / float64(n); hot <= 1.5*fair {
		je.ReduceGroups = w.takeGroups(1)
		je.ReduceGroups[0] = TaskGroup{Count: n, InBytes: je.MedBytes / float64(n), OutBytes: je.OutBytes / float64(n)}
		return
	}
	hot = math.Min(hot, 0.9)
	rest := (1 - hot) / float64(n-1)
	je.ReduceGroups = w.takeGroups(2)
	je.ReduceGroups[0] = TaskGroup{Count: 1, InBytes: je.MedBytes * hot, OutBytes: je.OutBytes * hot}
	je.ReduceGroups[1] = TaskGroup{Count: n - 1, InBytes: je.MedBytes * rest, OutBytes: je.OutBytes * rest}
}

// hottestKeyShare estimates the row share of the most frequent key: the
// catalog's most-common-value statistic when available (equi-width buckets
// smear single keys), else the densest bucket's per-value mass. A bucket
// equal to the one before it has that one's share, which already lost or
// won, so it is skipped.
func hottestKeyShare(cs *ColStat) float64 {
	best := cs.TopShare
	if cs.Hist == nil {
		return best
	}
	total := cs.Hist.Rows()
	if total <= 0 {
		return best
	}
	for i, b := range cs.Hist.Buckets {
		if b.Count <= 0 || i > 0 && b == cs.Hist.Buckets[i-1] {
			continue
		}
		if share := b.Count / math.Max(b.Distinct, 1) / total; share > best {
			best = share
		}
	}
	return best
}

// emits records the job's output volume and with it FS = D_out / D_in.
func (je *JobEstimate) emits(rows, width float64) {
	je.OutRows, je.OutBytes = rows, rows*width
	if je.InBytes > 0 {
		je.FS = je.OutBytes / je.InBytes
	}
}

// floorMedToOut enforces the physical invariant D_med ≥ D_out (and with
// it FS ≤ IS) for single-input Extract/Groupby jobs: the reduce phase
// cannot emit more bytes than the map phase shuffled to it. A predicate
// of near-zero selectivity combined with the ≥1-row output floor can
// otherwise leave FS marginally above IS.
func floorMedToOut(je *JobEstimate) {
	if je.OutBytes > je.MedBytes {
		je.MedBytes = je.OutBytes
		if je.InBytes > 0 {
			je.IS = floats.Clamp01(je.MedBytes / je.InBytes)
		}
	}
}

// estimateExtract covers scans, sorts and limits: IS = S_pred × S_proj
// (paper Section 3.1.1); |Out| = min(|In|, k) for LIMIT k, |In| for sorts.
func estimateExtract(job *plan.Job, st *stage, in *input) {
	je := st.je
	je.IS = floats.Clamp01(in.sPred * in.sProj)
	je.MedBytes = je.InBytes * je.IS
	je.MedRows = in.edge.rows
	outRows := in.edge.rows
	if job.Limit >= 0 && float64(job.Limit) < outRows {
		outRows = float64(job.Limit)
	}
	je.emits(outRows, in.edge.width)
	floorMedToOut(je)
	// No compiled plan consumes an Extract job: its edge carries no columns.
	st.out = edge{rows: outRows, width: in.edge.width}
}

// estimateGroupby covers aggregation: IS = S_comb × S_proj with Eq. 2's
// clustered/random cases, and |Out| = min(Π d_key, |T| × S_pred).
func estimateGroupby(job *plan.Job, st *stage, in *input) error {
	je := st.je
	// d_xy: product of the grouping keys' base-table distinct counts (the
	// paper's T.d_xy in Eq. 2); survivingGroups tracks the post-filter
	// cardinality estimate (Cardenas/Yao-corrected by the edge statistics).
	dxy, survivingGroups, keyWidth, clustered := 1.0, 1.0, 0.0, true
	for _, k := range job.GroupKeys {
		cs := in.edge.col(k)
		if cs == nil {
			return fmt.Errorf("group key %s not present in input", k)
		}
		base := cs.BaseDistinct
		if base <= 0 {
			base = cs.Distinct
		}
		dxy *= math.Max(base, 1)
		survivingGroups *= math.Max(cs.Distinct, 1)
		keyWidth += cs.Width
		clustered = clustered && cs.Clustered
	}
	rawRows := math.Max(in.rawRows, 1)
	// Eq. 2: clustered keys combine to d_xy rows per map wave overall;
	// random keys only combine within each map's slice of |T|/N_maps rows.
	perCombine := rawRows
	if !clustered {
		perCombine = rawRows / math.Max(1, float64(je.NumMaps))
	}
	sComb := floats.Clamp01(math.Min(in.sPred, dxy/perCombine))

	// Map output carries group keys + aggregate source columns; the reduce
	// output has the same shape.
	wOut := keyWidth + 8.0*float64(len(job.Aggs))
	if wOut == 0 { //lint:allow saqpvet/floatcmp width sums are exact small-integer arithmetic
		wOut = 8
	}
	je.IS = floats.Clamp01(sComb * floats.Clamp01(wOut/in.rawWidth))
	je.MedBytes = je.InBytes * je.IS
	je.MedRows = math.Max(1, rawRows*sComb)

	// Final selectivity: the paper's |Out| = min(d_xy, |T| × S_pred)
	// (Section 3.1.2), sharpened by the Yao-corrected surviving-group
	// count from the filtered edge statistics.
	outRows := math.Min(math.Min(dxy, survivingGroups), rawRows*in.sPred)
	// HAVING filters groups by aggregate values, for which the catalog has
	// no distribution; apply the textbook default per conjunct.
	for range job.Having {
		outRows *= defaultIneqSel
	}
	outRows = math.Max(outRows, 1)
	je.emits(outRows, wOut)
	floorMedToOut(je)
	// Only an Extract job, which reads no column, ever consumes this one.
	st.out = edge{rows: outRows, width: wOut}
	return nil
}

// estimateJoin covers two-input equi-joins: Eq. 3 for IS, Eq. 5 (or the
// classic uniform formula as fallback) for the output cardinality, Eq. 7
// for the balance ratio P. It returns the statistics of the column the
// shuffle partitions on, nil when no histogram describes it.
func (w *walk) estimateJoin(job *plan.Job, st *stage, ins []input) (shuffleKey *ColStat, err error) {
	je := st.je
	if len(ins) != 2 {
		return nil, fmt.Errorf("join expects 2 inputs, got %d", len(ins))
	}
	// Identify which input carries each join key.
	a, b := &ins[0], &ins[1]
	if a.edge.col(job.JoinLeft) == nil && b.edge.col(job.JoinLeft) != nil {
		a, b = b, a
	}
	lc, rc := a.edge.col(job.JoinLeft), b.edge.col(job.JoinRight)
	if lc == nil || rc == nil {
		return nil, fmt.Errorf("join keys %s/%s not found in inputs", job.JoinLeft, job.JoinRight)
	}

	// Eq. 3: IS = Σ_i S_pred_i × S_proj_i × r_i with r_i the byte share.
	r1 := 0.5
	if total := a.rawBytes + b.rawBytes; total > 0 {
		r1 = a.rawBytes / total
	}
	je.IS = floats.Clamp01(a.sPred*a.sProj*r1 + b.sPred*b.sProj*(1-r1))
	je.MedBytes = je.InBytes * je.IS
	je.MedRows = a.edge.rows + b.edge.rows

	// Eq. 7: P from the filtered tuple counts of the two inputs.
	fl, fr := a.edge.rows, b.edge.rows
	if fl+fr > 0 {
		je.P = math.Max(fl, fr) / (fl + fr)
		// The shuffle partitions both sides by the join key; the hotter
		// side's key distribution drives reduce-partition skew. (Groupby
		// shuffles are skew-free here: the map-side combine collapses each
		// key to one record per map.)
		if lc.Hist != nil && (rc.Hist == nil || hottestKeyShare(lc) >= hottestKeyShare(rc)) {
			shuffleKey = lc
		} else if rc.Hist != nil {
			shuffleKey = rc
		}
	}

	// Output cardinality: Eq. 5 on aligned histograms, else the classic
	// uniform formula |T1|·|T2|/max(d1,d2).
	outRows := joinCardinality(&w.arena, lc, rc, fl, fr)
	je.emits(outRows, a.edge.width+b.edge.width)
	// Map-side (broadcast) joins have no shuffle: the map output *is* the
	// job output, so D_med = D_out (and for PK–FK broadcast joins, FS stays
	// near 1 — the paper's map-only case).
	if job.MapOnly {
		je.MedBytes, je.MedRows, je.IS = je.OutBytes, je.OutRows, floats.Clamp01(je.FS)
	}

	st.out = w.mergeEdges(&a.edge, &b.edge, outRows, st.feeds)
	if lc.Hist == nil || rc.Hist == nil {
		return shuffleKey, nil
	}
	// The join key leaves with the paper's identity (T1i ⋈ T2i).d = min(d1,
	// d2), sorted by the reduce, and joined if a later join reads it.
	for _, n := range st.feeds {
		if n.ref != job.JoinLeft && n.ref != job.JoinRight {
			continue
		}
		c := st.out.col(n.ref)
		*c = ColStat{Width: lc.Width, Distinct: math.Min(lc.Distinct, rc.Distinct), Clustered: true}
		if n.hist {
			l, r := alignHistograms(&w.arena, lc.Hist, rc.Hist)
			if joined, err := l.Join(&w.arena, r); err == nil {
				c.Hist = joined
			}
		}
	}
	return shuffleKey, nil
}

// joinCardinality applies Eq. 5 when both sides have histograms, otherwise
// the classic uniform estimate. Misaligned histograms are rebucketed into a.
func joinCardinality(a *histogram.Arena, lc, rc *ColStat, rowsL, rowsR float64) float64 {
	if lc.Hist != nil && rc.Hist != nil {
		l, r := alignHistograms(a, lc.Hist, rc.Hist)
		if n, err := l.JoinSize(r); err == nil {
			return n
		}
	}
	return rowsL * rowsR / math.Max(math.Max(lc.Distinct, rc.Distinct), 1)
}

// alignHistograms rebuckets both histograms onto a shared grid covering the
// union of their domains, so offline statistics built with different
// resolutions can still be combined bucket-wise. The copies are cut from a.
func alignHistograms(a *histogram.Arena, l, r *histogram.Histogram) (*histogram.Histogram, *histogram.Histogram) {
	if l.Aligned(r) {
		return l, r
	}
	lo, hi := math.Min(l.Lo, r.Lo), math.Max(l.Hi, r.Hi)
	n := max(len(l.Buckets), len(r.Buckets))
	return l.Rebucket(a, lo, hi, n), r.Rebucket(a, lo, hi, n)
}
