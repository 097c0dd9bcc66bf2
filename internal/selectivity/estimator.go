package selectivity

import (
	"fmt"
	"hash/fnv"
	"math"

	"saqp/internal/catalog"
	"saqp/internal/histogram"
	"saqp/internal/plan"
)

// Config carries the MapReduce sizing parameters that turn estimated data
// volumes into task counts — the resource-usage half of the prediction.
type Config struct {
	// BlockSize is the HDFS block size; one map task per block (paper
	// testbed: 256 MB).
	BlockSize int64
	// BytesPerReducer is the target shuffle volume per reduce task
	// (Hadoop's hive.exec.reducers.bytes.per.reducer, default 1 GB).
	BytesPerReducer int64
	// MaxReduces caps the reduce count of a single job.
	MaxReduces int
	// DisableReduceSkew turns off hot-partition modelling: reduce tasks
	// are sized uniformly even under skewed join keys. Used by ablations
	// to isolate how much of the join-time prediction error comes from
	// partition skew.
	DisableReduceSkew bool
}

// DefaultConfig mirrors the paper's testbed configuration. BytesPerReducer
// follows the Hive-era practice of sizing reducers at one block of shuffle
// data so reduce-side parallelism grows smoothly with intermediate volume.
func DefaultConfig() Config {
	return Config{
		BlockSize:       256 << 20,
		BytesPerReducer: 128 << 20,
		MaxReduces:      108,
	}
}

// Estimator performs selectivity estimation against catalog statistics.
type Estimator struct {
	cat *catalog.Catalog
	cfg Config
}

// NewEstimator returns an estimator over the given catalog with cfg
// (zero-value fields fall back to DefaultConfig values).
func NewEstimator(cat *catalog.Catalog, cfg Config) *Estimator {
	def := DefaultConfig()
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = def.BlockSize
	}
	if cfg.BytesPerReducer <= 0 {
		cfg.BytesPerReducer = def.BytesPerReducer
	}
	if cfg.MaxReduces <= 0 {
		cfg.MaxReduces = def.MaxReduces
	}
	return &Estimator{cat: cat, cfg: cfg}
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
	// features faithful. Group counts sum to NumMaps.
	MapGroups []TaskGroup
	// ReduceGroups breaks the reduce tasks down by shuffle-partition mass.
	// When the shuffle key is skewed enough that one hash partition holds
	// more than its fair share (a Zipf hot key), the hot reducer gets its
	// own group — the straggler that speculative execution and the paper's
	// join-error discussion are about. Group counts sum to NumReduces.
	ReduceGroups []TaskGroup
	// OutEdge carries column statistics to downstream jobs.
	OutEdge *Edge

	// scanBytes is the portion of InBytes read from base tables (not from
	// upstream jobs); it feeds QueryEstimate.TotalInputBytes.
	scanBytes float64
	// shuffleKey carries the statistics of the column the shuffle
	// partitions on (join key, first group key); nil when unknown.
	shuffleKey *ColStat
	// shuffleRows is the tuple count entering the shuffle.
	shuffleRows float64
}

// TaskGroup describes a homogeneous set of tasks: Count tasks, each with
// the given input and output volume.
type TaskGroup struct {
	Count             int
	InBytes, OutBytes float64
}

// PFactor returns P(1-P), the model's join growth feature.
func (j *JobEstimate) PFactor() float64 { return j.P * (1 - j.P) }

// QueryEstimate aggregates per-job estimates for a DAG.
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

// EstimateQuery walks the DAG in topological order, estimating every job.
func (e *Estimator) EstimateQuery(d *plan.DAG) (*QueryEstimate, error) {
	qe := &QueryEstimate{DAG: d, ByID: make(map[string]*JobEstimate, len(d.Jobs))}
	for _, job := range d.Jobs {
		je, err := e.estimateJob(job, qe)
		if err != nil {
			return nil, fmt.Errorf("selectivity: job %s: %w", job.ID, err)
		}
		qe.Jobs = append(qe.Jobs, je)
		qe.ByID[job.ID] = je
	}
	return qe, nil
}

// input is one resolved job input: its filtered/projected edge plus the raw
// volume read and the scan selectivities (1 for upstream-edge inputs).
type input struct {
	edge     *Edge
	rawBytes float64
	rawRows  float64
	rawWidth float64
	sPred    float64
	sProj    float64
}

// resolveInputs produces the job's inputs: base-table scans first, then
// upstream job outputs.
func (e *Estimator) resolveInputs(job *plan.Job, qe *QueryEstimate) ([]input, float64, error) {
	var ins []input
	var scanBytes float64
	for _, ts := range job.Scans {
		in, err := e.scanInput(ts)
		if err != nil {
			return nil, 0, err
		}
		scanBytes += in.rawBytes
		ins = append(ins, in)
	}
	for _, dep := range job.Deps {
		de, ok := qe.ByID[dep.ID]
		if !ok {
			return nil, 0, fmt.Errorf("dependency %s not yet estimated", dep.ID)
		}
		ins = append(ins, input{
			edge:     de.OutEdge,
			rawBytes: de.OutBytes,
			rawRows:  de.OutRows,
			rawWidth: de.OutEdge.Width,
			sPred:    1,
			sProj:    1,
		})
	}
	if len(ins) == 0 {
		return nil, 0, fmt.Errorf("job has no inputs")
	}
	return ins, scanBytes, nil
}

// scanInput builds the input for a base-table scan: S_pred from the pushed
// predicates, S_proj from the pruned columns, and the filtered edge.
func (e *Estimator) scanInput(ts plan.TableScan) (input, error) {
	stats, err := e.cat.Table(ts.Table)
	if err != nil {
		return input{}, err
	}
	cols := make(map[string]*ColStat, len(ts.Columns))
	var projWidth float64
	for _, name := range ts.Columns {
		cs := stats.Column(name)
		if cs == nil {
			return input{}, fmt.Errorf("table %q has no column %q", ts.Table, name)
		}
		cols[ts.Table+"."+name] = &ColStat{
			Hist:         cs.Hist,
			Distinct:     float64(cs.Distinct),
			BaseDistinct: float64(cs.Distinct),
			TopShare:     cs.TopShare,
			Width:        cs.AvgWidth,
			Clustered:    cs.Clustered,
		}
		projWidth += cs.AvgWidth
	}
	if projWidth == 0 { //lint:allow saqpvet/floatcmp width sums are exact small-integer arithmetic
		projWidth = 8 // count(*)-style scans still move a key per tuple
	}
	sProj := clamp01(projWidth / stats.AvgTupleWidth)
	sPred := ConjunctionSelectivity(cols, ts.Preds)
	rows := float64(stats.Rows)
	edge := &Edge{Rows: rows * sPred, Width: projWidth,
		Cols: filterColumns(cols, ts.Preds, rows*sPred)}
	return input{
		edge:     edge,
		rawBytes: float64(stats.Bytes),
		rawRows:  rows,
		rawWidth: stats.AvgTupleWidth,
		sPred:    sPred,
		sProj:    sProj,
	}, nil
}

// estimateJob dispatches on the job category.
func (e *Estimator) estimateJob(job *plan.Job, qe *QueryEstimate) (*JobEstimate, error) {
	ins, scanBytes, err := e.resolveInputs(job, qe)
	if err != nil {
		return nil, err
	}
	je := &JobEstimate{Job: job, scanBytes: scanBytes}
	for _, in := range ins {
		je.InBytes += in.rawBytes
		je.InRows += in.rawRows
	}
	// Broadcast-join preludes transform the main input inside the map
	// phase before the job's own operator sees it.
	ins, err = e.applyMapJoins(job, je, ins, qe)
	if err != nil {
		return nil, err
	}
	// Map counts depend only on the inputs and must be known before the
	// Groupby estimate (Eq. 2's random-key case divides by N_maps).
	e.computeMapCounts(job, je, qe)
	switch job.Type {
	case plan.Join:
		err = e.estimateJoin(job, je, ins)
	case plan.Groupby:
		err = e.estimateGroupby(job, je, ins)
	case plan.Extract:
		err = e.estimateExtract(job, je, ins)
	default:
		err = fmt.Errorf("unknown job type %v", job.Type)
	}
	if err != nil {
		return nil, err
	}
	e.finishTaskCounts(job, je)
	return je, nil
}

// applyMapJoins folds each broadcast-join prelude into the matching input:
// the probe edge is replaced by the estimated join result, and the small
// table's bytes count toward D_in (it is read as side data by every map).
func (e *Estimator) applyMapJoins(job *plan.Job, je *JobEstimate, ins []input, qe *QueryEstimate) ([]input, error) {
	for _, spec := range job.MapJoins {
		b, err := e.scanInput(spec.BroadcastScan)
		if err != nil {
			return nil, err
		}
		// Which spec key lives in the broadcast table?
		bKey, pKey := spec.JoinLeft.String(), spec.JoinRight.String()
		if b.edge.Col(bKey) == nil {
			bKey, pKey = pKey, bKey
		}
		bc := b.edge.Col(bKey)
		if bc == nil {
			return nil, fmt.Errorf("map-join key %s not in broadcast table %s", bKey, spec.BroadcastScan.Table)
		}
		// Locate the probe input.
		pi := -1
		for i := range ins {
			if ins[i].edge.Col(pKey) != nil {
				pi = i
				break
			}
		}
		if pi < 0 {
			return nil, fmt.Errorf("map-join probe key %s not found in inputs", pKey)
		}
		probe := &ins[pi]
		pc := probe.edge.Col(pKey)
		outRows := joinCardinality(pc, bc, probe.edge.Rows, b.edge.Rows)
		merged := mergeEdges(probe.edge, b.edge, outRows)
		probe.edge = merged
		probe.rawBytes += b.rawBytes
		probe.rawRows += 0 // the probe side's tuple count still drives Eq. 2
		if probe.rawRows > 0 {
			probe.sPred = clamp01(outRows / probe.rawRows)
		}
		je.InBytes += b.rawBytes
		je.scanBytes += b.rawBytes
	}
	return ins, nil
}

// FragFactor models HDFS file fragmentation: tables are written as many
// files whose tails leave splits below one full block, so the effective
// bytes-per-map varies by table. The factor is a deterministic hash of the
// table name into [0.45, 1.0]. The execution engine applies the same
// factor so measured and estimated task granularities agree.
func FragFactor(table string) float64 {
	h := fnv.New32a()
	h.Write([]byte(table))
	return 0.45 + 0.55*float64(h.Sum32()%1000)/999
}

// finishTaskCounts derives map/reduce task counts. Base-table scans get one
// map per (fragmentation-adjusted) block. Inputs read from an upstream job
// arrive as that job's reduce-output files, and Hadoop-era FileInputFormat
// schedules at least one map per file: maps = max(upstream reduces,
// ceil(bytes/block)).
func (e *Estimator) computeMapCounts(job *plan.Job, je *JobEstimate, qe *QueryEstimate) {
	block := float64(e.cfg.BlockSize)
	// addGroup registers `count` map tasks over `bytes` of input; the map
	// output share is filled in by finishTaskCounts once D_med is known.
	addGroup := func(count int, bytes float64) {
		if count < 1 {
			count = 1
		}
		je.MapGroups = append(je.MapGroups, TaskGroup{
			Count:   count,
			InBytes: bytes / float64(count),
		})
	}
	var broadcastBytes float64
	// Folded map-join preludes load their small tables into every map.
	for _, spec := range job.MapJoins {
		if stats, err := e.cat.Table(spec.BroadcastScan.Table); err == nil {
			broadcastBytes += float64(stats.Bytes)
		}
	}
	for _, ts := range job.Scans {
		stats, err := e.cat.Table(ts.Table)
		if err != nil {
			continue
		}
		if job.Broadcast == ts.Table {
			// Broadcast tables are loaded as side data by every map task,
			// not scanned by their own maps.
			broadcastBytes += float64(stats.Bytes)
			continue
		}
		eff := block * FragFactor(ts.Table)
		addGroup(int(math.Ceil(float64(stats.Bytes)/eff)), float64(stats.Bytes))
	}
	for _, dep := range job.Deps {
		de := qe.ByID[dep.ID]
		if de == nil {
			continue
		}
		m := int(math.Ceil(de.OutBytes / block))
		if m < de.NumReduces {
			m = de.NumReduces
		}
		addGroup(m, de.OutBytes)
	}
	if len(je.MapGroups) == 0 {
		addGroup(1, je.InBytes)
	}
	// Every map of a broadcast join re-reads the (small) broadcast table.
	if broadcastBytes > 0 {
		for i := range je.MapGroups {
			je.MapGroups[i].InBytes += broadcastBytes
		}
	}
	maps := 0
	for _, g := range je.MapGroups {
		maps += g.Count
	}
	je.NumMaps = maps
}

// finishTaskCounts apportions map output across groups and sets the reduce
// count from the estimated intermediate volume.
func (e *Estimator) finishTaskCounts(job *plan.Job, je *JobEstimate) {
	for i := range je.MapGroups {
		g := &je.MapGroups[i]
		if je.InBytes > 0 {
			share := je.MedBytes * (g.InBytes * float64(g.Count) / je.InBytes)
			g.OutBytes = share / float64(g.Count)
		}
	}
	if job.MapOnly {
		je.NumReduces = 0
		return
	}
	n := int(math.Ceil(je.MedBytes / float64(e.cfg.BytesPerReducer)))
	if n < 1 {
		n = 1
	}
	if n > e.cfg.MaxReduces {
		n = e.cfg.MaxReduces
	}
	je.NumReduces = n
	je.ReduceGroups = e.reduceGroups(je, n)
}

// reduceGroups sizes the reduce tasks. Hash partitioning spreads the
// shuffle mass evenly unless a single key outweighs a partition's fair
// share: all of a key's rows land on one reducer, so the hottest key's
// share lower-bounds the hottest partition. That reducer becomes its own
// (straggler) group. Only hash-partitioned shuffles (joins) are affected;
// sort shuffles range-partition over sampled quantiles and stay balanced,
// and groupby shuffles are collapsed by the map-side combine.
func (e *Estimator) reduceGroups(je *JobEstimate, n int) []TaskGroup {
	uniform := []TaskGroup{{
		Count:    n,
		InBytes:  je.MedBytes / float64(n),
		OutBytes: je.OutBytes / float64(n),
	}}
	if e.cfg.DisableReduceSkew || n < 2 || je.shuffleKey == nil ||
		je.shuffleKey.Hist == nil || je.shuffleRows <= 0 {
		return uniform
	}
	hot := hottestKeyShare(je.shuffleKey)
	fair := 1 / float64(n)
	if hot <= 1.5*fair {
		return uniform
	}
	if hot > 0.9 {
		hot = 0.9
	}
	rest := (1 - hot) / float64(n-1)
	return []TaskGroup{
		{Count: 1, InBytes: je.MedBytes * hot, OutBytes: je.OutBytes * hot},
		{Count: n - 1, InBytes: je.MedBytes * rest, OutBytes: je.OutBytes * rest},
	}
}

// hottestKeyShare estimates the row share of the most frequent key: the
// catalog's most-common-value statistic when available (equi-width buckets
// smear single keys), else the densest bucket's per-value mass.
func hottestKeyShare(cs *ColStat) float64 {
	best := cs.TopShare
	h := cs.Hist
	if h == nil {
		return best
	}
	total := h.Rows()
	if total <= 0 {
		return best
	}
	for _, b := range h.Buckets {
		if b.Count <= 0 {
			continue
		}
		d := b.Distinct
		if d < 1 {
			d = 1
		}
		if share := b.Count / d / total; share > best {
			best = share
		}
	}
	return best
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
			je.IS = clamp01(je.MedBytes / je.InBytes)
		}
	}
}

// estimateExtract covers scans, sorts and limits: IS = S_pred × S_proj
// (paper Section 3.1.1); |Out| = min(|In|, k) for LIMIT k, |In| for sorts.
func (e *Estimator) estimateExtract(job *plan.Job, je *JobEstimate, ins []input) error {
	in := ins[0]
	je.IS = clamp01(in.sPred * in.sProj)
	je.MedBytes = je.InBytes * je.IS
	je.MedRows = in.edge.Rows
	outRows := in.edge.Rows
	if job.Limit >= 0 && float64(job.Limit) < outRows {
		outRows = float64(job.Limit)
	}
	je.OutRows = outRows
	wOut := in.edge.Width
	je.OutBytes = outRows * wOut
	if je.InBytes > 0 {
		je.FS = je.OutBytes / je.InBytes
	}
	floorMedToOut(je)
	out := in.edge
	if outRows < in.edge.Rows && in.edge.Rows > 0 {
		out = in.edge.scaledEdge(outRows / in.edge.Rows)
	}
	je.OutEdge = out
	return nil
}

// estimateGroupby covers aggregation: IS = S_comb × S_proj with Eq. 2's
// clustered/random cases, and |Out| = min(Π d_key, |T| × S_pred).
func (e *Estimator) estimateGroupby(job *plan.Job, je *JobEstimate, ins []input) error {
	in := ins[0]
	// d_xy: product of the grouping keys' base-table distinct counts (the
	// paper's T.d_xy in Eq. 2); survivingGroups tracks the post-filter
	// cardinality estimate (Cardenas/Yao-corrected by the edge statistics).
	dxy := 1.0
	survivingGroups := 1.0
	keyWidth := 0.0
	clustered := true
	for _, k := range job.GroupKeys {
		cs := in.edge.Col(k.String())
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
	if len(job.GroupKeys) == 0 {
		dxy = 1
		survivingGroups = 1
		clustered = true
	}
	rawRows := in.rawRows
	if rawRows < 1 {
		rawRows = 1
	}
	// Eq. 2: clustered keys combine to d_xy rows per map wave overall;
	// random keys only combine within each map's slice of |T|/N_maps rows.
	var sComb float64
	if clustered {
		sComb = math.Min(in.sPred, dxy/rawRows)
	} else {
		nMaps := math.Max(1, float64(je.NumMaps))
		sComb = math.Min(in.sPred, dxy/(rawRows/nMaps))
	}
	sComb = clamp01(sComb)

	// Map output carries group keys + aggregate source columns.
	aggWidth := 8.0 * float64(len(job.Aggs))
	if len(job.Aggs) == 0 {
		aggWidth = 0
	}
	mapOutWidth := keyWidth + aggWidth
	if mapOutWidth == 0 { //lint:allow saqpvet/floatcmp width sums are exact small-integer arithmetic
		mapOutWidth = 8
	}
	sProj := clamp01(mapOutWidth / in.rawWidth)
	je.IS = clamp01(sComb * sProj)
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
	if outRows < 1 {
		outRows = 1
	}
	wOut := keyWidth + aggWidth
	if wOut == 0 { //lint:allow saqpvet/floatcmp width sums are exact small-integer arithmetic
		wOut = 8
	}
	je.OutRows = outRows
	je.OutBytes = outRows * wOut
	if je.InBytes > 0 {
		je.FS = je.OutBytes / je.InBytes
	}
	floorMedToOut(je)

	// Output edge: group keys keep their identity (distinct values now
	// unique); aggregates appear as fresh numeric columns.
	cols := make(map[string]*ColStat, len(job.GroupKeys)+len(job.Aggs))
	for _, k := range job.GroupKeys {
		cs := in.edge.Col(k.String())
		f := 1.0
		if in.edge.Rows > 0 {
			f = outRows / in.edge.Rows
		}
		nc := cs.scaled(f, outRows)
		nc.Distinct = math.Min(cs.Distinct, outRows)
		nc.Clustered = true // reduce output is sorted by the group keys
		cols[k.String()] = nc
	}
	for i := range job.Aggs {
		cols[fmt.Sprintf("%s.agg%d", job.ID, i)] = &ColStat{Distinct: outRows, Width: 8}
	}
	je.OutEdge = &Edge{Rows: outRows, Width: wOut, Cols: cols}
	return nil
}

// estimateJoin covers two-input equi-joins: Eq. 3 for IS, Eq. 5 (or the
// classic uniform formula as fallback) for the output cardinality, and
// Eq. 7 for the balance ratio P.
func (e *Estimator) estimateJoin(job *plan.Job, je *JobEstimate, ins []input) error {
	if len(ins) != 2 {
		return fmt.Errorf("join expects 2 inputs, got %d", len(ins))
	}
	// Identify which input carries each join key.
	leftKey, rightKey := job.JoinLeft.String(), job.JoinRight.String()
	a, b := ins[0], ins[1]
	if a.edge.Col(leftKey) == nil && b.edge.Col(leftKey) != nil {
		a, b = b, a
	}
	lc, rc := a.edge.Col(leftKey), b.edge.Col(rightKey)
	if lc == nil || rc == nil {
		return fmt.Errorf("join keys %s/%s not found in inputs", leftKey, rightKey)
	}

	// Eq. 3: IS = Σ_i S_pred_i × S_proj_i × r_i with r_i the byte share.
	total := a.rawBytes + b.rawBytes
	r1 := 0.5
	if total > 0 {
		r1 = a.rawBytes / total
	}
	je.IS = clamp01(a.sPred*a.sProj*r1 + b.sPred*b.sProj*(1-r1))
	je.MedBytes = je.InBytes * je.IS
	je.MedRows = a.edge.Rows + b.edge.Rows

	// Eq. 7: P from the filtered tuple counts of the two inputs.
	fl, fr := a.edge.Rows, b.edge.Rows
	if fl+fr > 0 {
		je.P = math.Max(fl, fr) / (fl + fr)
	}

	// The shuffle partitions both sides by the join key; the hotter side's
	// key distribution drives reduce-partition skew. (Groupby shuffles are
	// skew-free here: the map-side combine collapses each key to one
	// record per map.)
	je.shuffleRows = fl + fr
	if lc.Hist != nil && (rc.Hist == nil || hottestKeyShare(lc) >= hottestKeyShare(rc)) {
		je.shuffleKey = lc
	} else if rc.Hist != nil {
		je.shuffleKey = rc
	}

	// Output cardinality: Eq. 5 on aligned histograms, else the classic
	// uniform formula |T1|·|T2|/max(d1,d2).
	outRows := joinCardinality(lc, rc, fl, fr)
	je.OutRows = outRows
	wOut := a.edge.Width + b.edge.Width
	je.OutBytes = outRows * wOut
	if je.InBytes > 0 {
		je.FS = je.OutBytes / je.InBytes
	}

	// Map-side (broadcast) joins have no shuffle: the map output *is* the
	// job output, so D_med = D_out (and for PK–FK broadcast joins, FS stays
	// near 1 — the paper's map-only case).
	if job.MapOnly {
		je.MedBytes = je.OutBytes
		je.MedRows = je.OutRows
		je.IS = clamp01(je.FS)
	}

	out := mergeEdges(a.edge, b.edge, outRows)
	// The join key's post-join histogram follows the paper's identity
	// (T1i ⋈ T2i).d = min(d1, d2).
	if lc.Hist != nil && rc.Hist != nil {
		l, r := alignHistograms(lc.Hist, rc.Hist)
		if joined, err := l.Join(r); err == nil {
			// Reduce output is sorted by the join key, so equal key values
			// are physically adjacent downstream.
			jc := &ColStat{Hist: joined, Width: lc.Width,
				Distinct:  math.Min(lc.Distinct, rc.Distinct),
				Clustered: true}
			out.Cols[leftKey] = jc
			out.Cols[rightKey] = jc.clone()
		}
	}
	je.OutEdge = out
	return nil
}

// joinCardinality applies Eq. 5 when both sides have histograms, otherwise
// the classic uniform estimate.
func joinCardinality(lc, rc *ColStat, rowsL, rowsR float64) float64 {
	if lc.Hist != nil && rc.Hist != nil {
		l, r := alignHistograms(lc.Hist, rc.Hist)
		if n, err := l.JoinSize(r); err == nil {
			return n
		}
	}
	d := math.Max(lc.Distinct, rc.Distinct)
	if d < 1 {
		d = 1
	}
	return rowsL * rowsR / d
}

// histAlias shortens the histogram type name in join-side code.
type histAlias = histogram.Histogram

// alignHistograms rebuckets both histograms onto a shared grid covering the
// union of their domains, so offline statistics built with different
// resolutions can still be combined bucket-wise.
func alignHistograms(l, r *histAlias) (*histAlias, *histAlias) {
	if l.Aligned(r) {
		return l, r
	}
	lo := math.Min(l.Lo, r.Lo)
	hi := math.Max(l.Hi, r.Hi)
	n := len(l.Buckets)
	if len(r.Buckets) > n {
		n = len(r.Buckets)
	}
	return l.Rebucket(lo, hi, n), r.Rebucket(lo, hi, n)
}
