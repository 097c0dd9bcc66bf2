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

// QueryRun is one corpus query with everything the experiments need: the
// plan, the predictor-visible estimate, the oracle (ground truth) estimate,
// and the observed job times from a standalone run on the simulated
// cluster.
type QueryRun struct {
	Query *query.Query
	Shape Shape
	SF    float64
	DAG   *plan.DAG
	// Est is the estimate from predictor-resolution statistics.
	Est *selectivity.QueryEstimate
	// Oracle is the estimate from fine statistics — the stand-in for the
	// true data volumes the cluster observed.
	Oracle *selectivity.QueryEstimate
	// Sim is the executed cluster query (tasks carry observed durations).
	Sim *cluster.Query
	// Seconds is the observed standalone execution time.
	Seconds float64
}

// Corpus is a generated training/evaluation set.
type Corpus struct {
	Runs []*QueryRun
	// JobSamples pair observed job times with ground-truth features
	// (training uses observed sizes, as Hadoop logs would provide).
	JobSamples []predict.JobSample
	// TaskSamples pair observed task times with ground-truth features.
	TaskSamples []predict.TaskSample
	// feats is the slab the samples' features are cut from.
	feats slab.Slab[float64]
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
	type drawn struct {
		q      *query.Query
		shape  Shape
		sf     float64
		cmSeed uint64
	}
	draws := make([]drawn, cfg.NumQueries)
	for i := range draws {
		q, shape, err := gen.RandomQuery()
		if err != nil {
			return nil, err
		}
		targetGB := rng.Range(cfg.MinGB, cfg.MaxGB)
		draws[i] = drawn{q: q, shape: shape, sf: sfForTargetBytes(q, targetGB*1e9, stats.schemas), cmSeed: rng.Uint64()}
	}

	// Phase 2 (parallel): compile, estimate and simulate each run, each
	// worker on one simulator it resets from run to run.
	runs := make([]*QueryRun, len(draws))
	errs := make([]error, len(draws))
	par.For(len(draws), func(sim *cluster.Sim, i int) {
		d := draws[i]
		cm := trace.NewDefaultCostModel(d.cmSeed)
		runs[i], errs[i] = RunStandalone(sim, d.q, d.shape, d.sf, stats, cm, cfg.Cluster)
	})
	corpus := &Corpus{}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		corpus.Runs = append(corpus.Runs, runs[i])
		corpus.collectSamples(runs[i])
	}
	return corpus, nil
}

// RunStandalone compiles, estimates (at both statistics resolutions, under
// the task-sizing rules stats was built with) and executes a single query
// alone on a simulated cluster — sim, reset to clusterCfg, so a caller with
// many queries builds the cluster once — returning the full run record. It
// is the building block of corpus construction and of Fig. 7, and
// deliberately not a replay of one: bench/'s setup_s times this
// un-instrumented path.
func RunStandalone(sim *cluster.Sim, q *query.Query, shape Shape, sf float64, stats *Stats, cm *trace.CostModel, clusterCfg cluster.Config) (*QueryRun, error) {
	d, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	est, oracle, err := stats.Estimate(d, sf)
	if err != nil {
		return nil, err
	}
	cq := cluster.BuildQuery("q", oracle, cm, cluster.ConstantPredictor(1))
	sim.Reset(clusterCfg, sched.HCS{})
	sim.Submit(cq, 0)
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	return &QueryRun{
		Query: q, Shape: shape, SF: sf, DAG: d,
		Est: est, Oracle: oracle, Sim: cq,
		Seconds: res.Makespan,
	}, nil
}

// samplesPerGroup bounds the task samples one task group contributes. A
// group's tasks share features (volumes split evenly), so a bounded number
// per group keeps the stream compact without changing the fitted
// coefficients' expectation.
const samplesPerGroup = 16

// EachSample walks the run's training samples in stream order: each job's
// observed time, then up to samplesPerGroup of that job's task times per
// task group. Features use the oracle's (observed) data sizes, matching
// how the paper trains from execution logs; prediction-time features come
// from Est. The offline corpus and the learning replay's registry both
// consume this one walk, so they see the same interleaved stream.
func (r *QueryRun) EachSample(
	job func(op plan.JobType, features []float64, sec float64),
	task func(op plan.JobType, reduce bool, features []float64, sec float64),
) {
	r.eachSample(func(n int) []float64 { return make([]float64, 0, n) }, job, task)
}

// eachSample is EachSample with every feature vector appended to an empty
// one from cut(n), n its length: Eq. 8's four job features, Eq. 9's three
// task features.
func (r *QueryRun) eachSample(
	cut func(n int) []float64,
	job func(op plan.JobType, features []float64, sec float64),
	task func(op plan.JobType, reduce bool, features []float64, sec float64),
) {
	for ji, je := range r.Oracle.Jobs {
		sj := r.Sim.Jobs[ji]
		op, pf := je.Job.Type, je.PFactor()
		job(op, predict.AppendJobFeatures(cut(4), je), sj.DoneTime-sj.SubmitTime)
		sj.EachSample(je, samplesPerGroup, func(g selectivity.TaskGroup, t *cluster.Task) {
			task(op, t.Reduce, predict.AppendTaskFeatures(cut(3), op, g.InBytes, g.OutBytes, pf), t.ActualSec)
		})
	}
}

// collectSamples appends a run's job and task training samples, their
// features cut from c's slab.
func (c *Corpus) collectSamples(run *QueryRun) {
	run.eachSample(func(n int) []float64 { return c.feats.Cut(n)[:0] },
		func(op plan.JobType, features []float64, sec float64) {
			c.JobSamples = append(c.JobSamples, predict.JobSample{Op: op, Features: features, Seconds: sec})
		},
		func(op plan.JobType, reduce bool, features []float64, sec float64) {
			c.TaskSamples = append(c.TaskSamples, predict.TaskSample{Op: op, Reduce: reduce, Features: features, Seconds: sec})
		})
}

// Split partitions the corpus runs into training and test sets with the
// given training fraction (paper: 3/4 train, 1/4 test).
func (c *Corpus) Split(trainFrac float64) (train, test *Corpus) {
	n := int(float64(len(c.Runs)) * trainFrac)
	train, test = &Corpus{}, &Corpus{}
	for i, run := range c.Runs {
		dst := train
		if i >= n {
			dst = test
		}
		dst.Runs = append(dst.Runs, run)
		dst.collectSamples(run)
	}
	return train, test
}

// NumJobs returns the total number of jobs across runs (the paper's
// "5,647 MapReduce jobs" statistic).
func (c *Corpus) NumJobs() int {
	n := 0
	for _, r := range c.Runs {
		n += len(r.DAG.Jobs)
	}
	return n
}
