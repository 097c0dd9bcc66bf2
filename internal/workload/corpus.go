package workload

import (
	"fmt"
	"slices"
	"sync"

	"saqp/internal/catalog"
	"saqp/internal/cluster"
	"saqp/internal/dataset"
	"saqp/internal/histogram"
	"saqp/internal/par"
	"saqp/internal/plan"
	"saqp/internal/predict"
	"saqp/internal/query"
	"saqp/internal/sched"
	"saqp/internal/selectivity"
	"saqp/internal/slab"
	"saqp/internal/trace"
)

// CorpusConfig controls training-corpus construction.
type CorpusConfig struct {
	// NumQueries to generate (paper: ~1,000 → ~5,600 jobs).
	NumQueries int
	// MinGB and MaxGB bound each query's total input size (paper: 1–100).
	MinGB, MaxGB float64
	// Seed drives query generation and the hidden cost model noise.
	Seed uint64
	// Cluster sizes the testbed used to collect ground-truth times.
	Cluster cluster.Config
	// Sizing overrides the MapReduce task sizing rules for both statistic
	// resolutions (block size, bytes/reducer, skew modelling).
	Sizing selectivity.Config
}

// DefaultCorpusConfig mirrors the paper's training setup.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		NumQueries: 1000,
		MinGB:      1,
		MaxGB:      100,
		Seed:       2018,
		Cluster:    cluster.DefaultConfig(),
	}
}

// QueryRun is one corpus query as the experiments read it: the scale,
// the predictor-visible and oracle (ground truth) estimates, the observed
// standalone time, and the training samples the run was recorded into
// while its layout on the simulated cluster was live.
type QueryRun struct {
	SF float64
	// Est is the estimate from predictor-resolution statistics.
	Est *selectivity.QueryEstimate
	// Oracle is the estimate from fine statistics — the stand-in for the
	// true data volumes the cluster observed.
	Oracle *selectivity.QueryEstimate
	// Seconds is the observed standalone execution time.
	Seconds float64
	// JobSamples holds one sample per job, in Est.Jobs order;
	// TaskSamples up to samplesPerGroup per task group, job by job.
	JobSamples  []predict.JobSample
	TaskSamples []predict.TaskSample
}

// Corpus is a generated training/evaluation set: its runs, and their
// samples concatenated in run order.
type Corpus struct {
	Runs []*QueryRun
	// JobSamples pair observed job times with ground-truth features
	// (training uses observed sizes, as Hadoop logs would provide).
	JobSamples []predict.JobSample
	// TaskSamples pair observed task times with ground-truth features.
	TaskSamples []predict.TaskSample
}

// SFForTargetBytes converts a target total-input size in bytes to the
// scale factor at which the query's scanned tables reach it.
func SFForTargetBytes(q *query.Query, targetBytes float64) float64 {
	return sfForTargetBytes(q, targetBytes, dataset.AllSchemas())
}

// sfForTargetBytes is SFForTargetBytes over schemas resolved once by the
// caller, for one that converts many queries.
func sfForTargetBytes(q *query.Query, targetBytes float64, schemas map[string]*dataset.Schema) float64 {
	base := InputBytesAtSF1(q, schemas)
	if base <= 0 {
		return 1
	}
	sf := targetBytes / base
	if sf < 0.01 {
		sf = 0.01
	}
	return sf
}

// oracleBuckets is the fine histogram resolution that derives the ground
// truth data volumes the hidden cost model charges for.
const oracleBuckets = 1024

// Stats is the pair of statistics resolutions every experiment estimates
// a query at: the coarse histograms the predictor is allowed to see
// (catalog.DefaultBuckets) and the fine ones standing in for the data
// volumes the cluster observes (oracleBuckets).
type Stats struct {
	sizing  selectivity.Config
	schemas map[string]*dataset.Schema
}

// NewStats returns statistics at the two histogram resolutions, both
// estimating under cfg.Sizing.
func NewStats(cfg CorpusConfig) *Stats {
	return &Stats{sizing: cfg.Sizing, schemas: dataset.AllSchemas()}
}

// tableRead is one base table a plan scans and the columns it reads of it.
type tableRead struct {
	schema *dataset.Schema
	cols   []string
}

// reads lists the tables d scans — as a job's input or as the broadcast
// side of a map join — each with the union of its scans' pruned columns:
// all the statistics an estimate of d can ask for. A table without a
// schema is left out, for the estimator to name.
func (s *Stats) reads(d *plan.DAG) []tableRead {
	var out []tableRead
	add := func(ts *plan.TableScan) {
		schema := s.schemas[ts.Table]
		if schema == nil {
			return
		}
		i := slices.IndexFunc(out, func(r tableRead) bool { return r.schema == schema })
		if i < 0 {
			i, out = len(out), append(out, tableRead{schema: schema})
		}
		for _, c := range ts.Columns {
			if !slices.Contains(out[i].cols, c) {
				out[i].cols = append(out[i].cols, c)
			}
		}
	}
	for _, j := range d.Jobs {
		for i := range j.Scans {
			add(&j.Scans[i])
		}
		for i := range j.MapJoins {
			add(&j.MapJoins[i].BroadcastScan)
		}
	}
	return out
}

// arenas holds the histogram arenas Stats.Estimate synthesizes its
// statistics into, for any goroutine's next estimate: a corpus worker's
// estimates then cut their histograms from storage the one before grew.
var arenas = sync.Pool{New: func() any { return new(histogram.Arena) }}

// Estimate estimates a compiled plan over the database at scale factor sf
// (quantised to 1e-3) twice: est from the predictor-visible statistics,
// oracle from the fine ones. Each call synthesises only what d reads, into
// a pooled arena it resets on return — no estimate keeps a catalog
// histogram — and shares nothing else, so any number of goroutines may
// estimate at once.
func (s *Stats) Estimate(d *plan.DAG, sf float64) (est, oracle *selectivity.QueryEstimate, err error) {
	sf = float64(int64(sf*1000)) / 1000
	reads := s.reads(d)
	arena := arenas.Get().(*histogram.Arena)
	defer arenas.Put(arena)
	defer arena.Reset(slab.RetainBytes)
	at := func(buckets int) (*selectivity.QueryEstimate, error) {
		cat := catalog.New()
		for _, r := range reads {
			cat.Put(catalog.FromSchemaColumns(arena, r.schema, sf, buckets, r.cols))
		}
		return selectivity.NewEstimator(cat, s.sizing).EstimateQuery(d)
	}
	if est, err = at(catalog.DefaultBuckets); err != nil {
		return nil, nil, err
	}
	if oracle, err = at(oracleBuckets); err != nil {
		return nil, nil, err
	}
	return est, oracle, nil
}

// BuildCorpus generates queries, estimates them at both statistic
// resolutions, executes each standalone on the simulated cluster, and
// collects job- and task-level training samples. Runs execute in parallel
// across CPUs; each query gets an independently seeded cost model, so
// results are deterministic regardless of scheduling.
func BuildCorpus(cfg CorpusConfig) (*Corpus, error) {
	if cfg.NumQueries <= 0 {
		return nil, fmt.Errorf("workload: NumQueries must be positive")
	}
	gen := NewGenerator(cfg.Seed)
	rng := gen.rng.Fork()

	stats := NewStats(cfg)

	// Phase 1 (sequential, deterministic): draw queries, scales (over the
	// schemas stats resolved) and per-run cost-model seeds.
	c := &corpusRuns{stats: stats, cluster: cfg.Cluster, draws: make([]drawn, cfg.NumQueries)}
	for i := range c.draws {
		q, _, err := gen.RandomQuery()
		if err != nil {
			return nil, err
		}
		targetGB := rng.Range(cfg.MinGB, cfg.MaxGB)
		c.draws[i] = drawn{q: q, sf: sfForTargetBytes(q, targetGB*1e9, stats.schemas), cmSeed: rng.Uint64()}
	}

	// Phase 2 (parallel, on pooled runners): compile, estimate, simulate
	// and record each run.
	c.runs = make([]*QueryRun, len(c.draws))
	c.errs = make([]error, len(c.draws))
	par.For(len(c.draws), c)
	for i, err := range c.errs {
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
	}
	return corpusOf(c.runs), nil
}

// drawn is one corpus query as phase 1 drew it: the query, its scale
// factor and its cost model's seed.
type drawn struct {
	q      *query.Query
	sf     float64
	cmSeed uint64
}

// corpusRuns is BuildCorpus's phase 2 context: what every run shares, the
// drawn queries, and each run's record or error.
type corpusRuns struct {
	stats   *Stats
	cluster cluster.Config
	draws   []drawn
	runs    []*QueryRun
	errs    []error
}

// Run runs drawn query i into its slots.
func (c *corpusRuns) Run(i int) {
	d := c.draws[i]
	cm := trace.NewDefaultCostModel(d.cmSeed)
	c.runs[i], c.errs[i] = RunStandalone(d.q, d.sf, c.stats, cm, c.cluster)
}

// runner is the simulator and query layout a run is laid out on in place;
// a run keeps only the samples it recorded.
type runner struct {
	sim cluster.Sim
	q   cluster.Query
}

// runners holds idle runners for any goroutine's next run, so a corpus
// worker's runs reuse the simulator and layout the run before grew.
var runners = sync.Pool{New: func() any { return new(runner) }}

// release returns w to runners unless its layout's slabs hold more than
// slab.RetainBytes, so one outsized run's layout is not kept.
func (w *runner) release() {
	if w.q.SlabBytes() <= slab.RetainBytes {
		runners.Put(w)
	}
}

// RunStandalone compiles, estimates (at both statistics resolutions, under
// the task-sizing rules stats was built with) and executes a single query
// alone on a simulated cluster, reset to clusterCfg, and returns the run's
// record. It is the building block of corpus construction and of Fig. 7,
// and deliberately not a replay of one: bench/'s setup_s times this
// un-instrumented path.
func RunStandalone(q *query.Query, sf float64, stats *Stats, cm *trace.CostModel, clusterCfg cluster.Config) (*QueryRun, error) {
	d, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	est, oracle, err := stats.Estimate(d, sf)
	if err != nil {
		return nil, err
	}
	w := runners.Get().(*runner)
	defer w.release()
	w.q.Rebuild("q", oracle, cm, cluster.ConstantPredictor(1))
	w.sim.Reset(clusterCfg, sched.HCS{})
	w.sim.Submit(&w.q, 0)
	res, err := w.sim.Run()
	if err != nil {
		return nil, err
	}
	run := &QueryRun{SF: sf, Est: est, Oracle: oracle, Seconds: res.Makespan}
	run.record(&w.q)
	return run, nil
}

// samplesPerGroup bounds the task samples one task group contributes. A
// group's tasks share features (volumes split evenly), so a bounded number
// per group keeps the stream compact without changing the fitted
// coefficients' expectation.
const samplesPerGroup = 16

// record fills the run's samples from cq, the run's executed layout: each
// job's observed time, then up to samplesPerGroup of that job's task
// times per task group. Features use the oracle's (observed) data sizes,
// matching how the paper trains from execution logs; prediction-time
// features come from Est. Every feature vector is cut, at its own
// capacity, from one allocation sized for the run: Eq. 8's four job
// features, Eq. 9's three task features.
func (r *QueryRun) record(cq *cluster.Query) {
	tasks := 0
	for ji, je := range r.Oracle.Jobs {
		cq.Jobs[ji].EachSample(je, samplesPerGroup, func(selectivity.TaskGroup, *cluster.Task) { tasks++ })
	}
	feats := make([]float64, 4*len(r.Oracle.Jobs)+3*tasks)
	cut := func(n int) []float64 {
		f := feats[:0:n]
		feats = feats[n:]
		return f
	}
	r.JobSamples = make([]predict.JobSample, len(r.Oracle.Jobs))
	r.TaskSamples = make([]predict.TaskSample, 0, tasks)
	for ji, je := range r.Oracle.Jobs {
		sj, op, pf := cq.Jobs[ji], je.Job.Type, je.PFactor()
		r.JobSamples[ji] = predict.JobSample{Op: op, Features: predict.AppendJobFeatures(cut(4), je), Seconds: sj.DoneTime - sj.SubmitTime}
		sj.EachSample(je, samplesPerGroup, func(g selectivity.TaskGroup, t *cluster.Task) {
			f := predict.AppendTaskFeatures(cut(3), op, g.InBytes, g.OutBytes, pf)
			r.TaskSamples = append(r.TaskSamples, predict.TaskSample{Op: op, Reduce: t.Reduce, Features: f, Seconds: t.ActualSec})
		})
	}
}

// corpusOf returns the corpus of runs, their samples concatenated in order.
func corpusOf(runs []*QueryRun) *Corpus {
	jobs, tasks := 0, 0
	for _, r := range runs {
		jobs += len(r.JobSamples)
		tasks += len(r.TaskSamples)
	}
	c := &Corpus{Runs: runs, JobSamples: make([]predict.JobSample, 0, jobs), TaskSamples: make([]predict.TaskSample, 0, tasks)}
	for _, r := range runs {
		c.JobSamples = append(c.JobSamples, r.JobSamples...)
		c.TaskSamples = append(c.TaskSamples, r.TaskSamples...)
	}
	return c
}

// Split partitions the corpus runs into training and test sets with the
// given training fraction (paper: 3/4 train, 1/4 test).
func (c *Corpus) Split(trainFrac float64) (train, test *Corpus) {
	n := min(int(float64(len(c.Runs))*trainFrac), len(c.Runs))
	return corpusOf(c.Runs[:n:n]), corpusOf(c.Runs[n:])
}
